"""Deterministic artifact emission: CSV, JSON, and minimal SVG scatter plots.

Byte-identical reruns are a hard requirement, so every writer pins its
formatting and writes no timestamps: CSV floats carry 17 significant digits,
and JSON sorted keys and shortest round-trip floats, refusing NaN and inf.
"""

from __future__ import annotations

import dataclasses
import json
from itertools import chain
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1


def fmt(value) -> str:
    """Pinned scalar formatting: floats at 17 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _json_default(obj):
    """json.dumps' hook for what JSON has no type for: a dataclass instance
    becomes the object of its fields, a numpy array or scalar its .tolist();
    anything else (a complex, say) raises TypeError. Floats stay exact, since
    JSON writes their shortest round-trip repr."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path, payload: dict, *, subcommand: str, seed: int) -> None:
    body = {"schema": SCHEMA_VERSION, "subcommand": subcommand, "seed": int(seed)}
    body.update(payload)
    text = json.dumps(body, sort_keys=True, indent=2, allow_nan=False,
                      default=_json_default) + "\n"
    Path(path).write_text(text)


def _csv_column(values) -> tuple[str, list]:
    """One column's printf spec and its values for the % operator.

    The column's numpy dtype picks the spec: floats print at 17 significant
    digits (`%.17g`, the digits `fmt` gives), integers as `%d`; any other
    column (bools, strings, mixed objects) goes through `fmt` one value at a
    time, RFC 4180-quoted if it holds a comma, a quote or a line break. A list
    column is read by the dtype numpy infers for it, so bools, integers and
    floats each want a column of their own.
    """
    array = np.asarray(values)
    if array.dtype.kind == "f":
        return "%.17g", array.tolist()
    if array.dtype.kind in "iu":
        return "%d", array.tolist()
    return "%s", [_csv_field(fmt(v)) for v in values]


def _csv_field(text: str) -> str:
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, table: dict, *, subcommand: str, seed: int, **tags) -> None:
    """CSV of a column-major table, {column name: 1-D values}, after a
    leading comment carrying schema, subcommand, seed, and tags.

    The body is one printf pass over the row-major values, with one spec
    per column (see `_csv_column`). Columns of unequal length raise
    ValueError rather than lose the rows past the shortest.
    """
    lengths = {name: len(values) for name, values in table.items()}
    n = max(lengths.values(), default=0)
    short = [name for name, length in lengths.items() if length < n]
    if short:
        raise ValueError(f"column {short[0]!r} holds {lengths[short[0]]} values, "
                         f"but the table has {n} rows")
    specs, columns = zip(*map(_csv_column, table.values()))
    parts = [f"schema={SCHEMA_VERSION}", f"subcommand={subcommand}", f"seed={int(seed)}"]
    parts += [f"{k}={v}" for k, v in sorted(tags.items())]
    head = "# " + " ".join(parts) + "\n" + ",".join(table) + "\n"
    body = ((",".join(specs) + "\n") * n) % tuple(chain.from_iterable(zip(*columns)))
    Path(path).write_text(head + body)


# scatter plots: SVG_SIZE pixels square, showing [-SVG_VIEW, SVG_VIEW]^2
SVG_SIZE = 640
SVG_VIEW = 1.15
SVG_POINT_RADIUS = 2.0


def svg_scatter(path, points, colors, circles) -> None:
    """Scatter of complex points with overlaid circles, centered on the origin.

    points: complex array; colors: one css color per point; circles:
    (center, radius, css color) with complex center. The points are written
    in one printf pass, as write_csv writes its rows: '%.6g' % x is
    f'{x:.6g}', and the pixel coordinates are computed as numpy float64
    arrays, the same rounded products and sums as one Python float at a
    time.
    """
    z = np.asarray(points, dtype=complex)
    if len(colors) != len(z):
        raise ValueError(f"{len(z)} points but {len(colors)} colors")
    size = SVG_SIZE
    half = size / 2.0
    scale = half / SVG_VIEW

    def sx(x: float) -> str:
        return f"{half + scale * x:.6g}"

    def sy(y: float) -> str:
        return f"{half - scale * y:.6g}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="0" y1="{sy(0)}" x2="{size}" y2="{sy(0)}" stroke="#ccc"/>',
        f'<line x1="{sx(0)}" y1="0" x2="{sx(0)}" y2="{size}" stroke="#ccc"/>',
    ]
    for center, radius, color in circles:
        c = complex(center)
        parts.append(
            f'<circle cx="{sx(c.real)}" cy="{sy(c.imag)}" r="{scale * radius:.6g}" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    dot = (f'<circle cx="%.6g" cy="%.6g" r="{SVG_POINT_RADIUS}" '
           f'fill="%s" fill-opacity="0.6"/>\n')
    dots = (dot * len(z)) % tuple(chain.from_iterable(
        zip((half + scale * z.real).tolist(), (half - scale * z.imag).tolist(), colors)))
    Path(path).write_text("\n".join(parts) + "\n" + dots + "</svg>\n")
