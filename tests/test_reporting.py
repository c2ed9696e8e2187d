"""Artifact writers: CSV and SVG bytes against per-value references, JSON
floats, and estimate-c's scatter against the whole-grid route."""

import csv
import io
import json

import numpy as np
import pytest

from adjointlab import disk, reporting
from adjointlab.characters import weight_multiplicities
from adjointlab.cli import main
from adjointlab.rootsys import build_root_system


def reference_csv(table, subcommand, seed, **tags):
    """The CSV that formats one value at a time with `reporting.fmt` and
    writes the rows with the `csv` module."""
    parts = [f"schema={reporting.SCHEMA_VERSION}", f"subcommand={subcommand}", f"seed={seed}"]
    parts += [f"{k}={v}" for k, v in sorted(tags.items())]
    body = io.StringIO()
    csv.writer(body, lineterminator="\n").writerows(
        [reporting.fmt(v) for v in row] for row in zip(*table.values())
    )
    return "# " + " ".join(parts) + "\n" + ",".join(table) + "\n" + body.getvalue()


def mixed_table(n=None):
    floats = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, 0.1, 1 / 3])
    table = {
        "float": floats,
        "int": np.array([-(2**62), -7, -1, 0, 1, 42, 2**53 + 1, 2**62], dtype=np.int64),
        "uint": np.array([0, 1, 7, 255, 2**32, 2**53 + 1, 2**63, 2**64 - 1], dtype=np.uint64),
        "flag": np.array([True, False, True, True, False, False, True, False]),
        "name": ["A1", "A2", "B2", "C2", "G2", 'x, "y"', "", "2;0"],
        "mixed": [None, np.float64(0.1), None, np.float64(-0.0), np.float64(np.nan),
                  None, np.float64(1 / 3), np.float64(5e-324)],
        "listfloat": (floats / 3).tolist(),
    }
    return table if n is None else {k: v[:n] for k, v in table.items()}


@pytest.mark.parametrize("n", [None, 3, 0])
def test_write_csv_matches_the_per_value_reference(tmp_path, n):
    table = mixed_table(n)
    path = tmp_path / "t.csv"
    reporting.write_csv(path, table, subcommand="orbit", seed=5, type="G2", steps=8)
    text = path.read_text()
    assert text == reference_csv(table, "orbit", 5, type="G2", steps=8)
    assert len(text.splitlines()) == 2 + len(table["float"])


def test_write_csv_floats_round_trip(tmp_path):
    values = np.random.default_rng(7).standard_normal(2000) * 10.0 ** np.arange(-300, 300, 0.3)
    path = tmp_path / "t.csv"
    reporting.write_csv(path, {"v": values}, subcommand="orbit", seed=0)
    back = np.array([float(line) for line in path.read_text().splitlines()[2:]])
    assert np.array_equal(back, values)


def test_write_csv_rejects_ragged_columns(tmp_path):
    path = tmp_path / "t.csv"
    table = {"step": np.arange(5), "distance": np.zeros(4), "norm": np.zeros(5)}
    with pytest.raises(ValueError, match="'distance'"):
        reporting.write_csv(path, table, subcommand="orbit", seed=0)
    assert not path.exists()


def test_jsonable_floats_are_exact():
    values = [0.1, 1 / 3, -0.0, 5e-324, 1e308, np.float64(2 / 3), np.float32(0.1)]
    out = reporting.jsonable(values)
    assert all(type(v) is float for v in out)
    assert out == [float(v) for v in values]
    assert json.loads(json.dumps(out)) == out


@pytest.mark.parametrize("z", [1 + 2j, np.complex128(0.5j)])
def test_write_json_rejects_complex(tmp_path, z):
    # JSON has no complex number: a payload holding one is an error, and no
    # partial artifact is left behind
    path = tmp_path / "t.json"
    with pytest.raises(TypeError, match="complex"):
        reporting.write_json(path, {"rows": [{"z": z}]}, subcommand="orbit", seed=0)
    assert not path.exists()


@pytest.mark.parametrize("x", [float("nan"), np.float64(np.inf)])
def test_write_json_rejects_nonfinite(tmp_path, x):
    # a bare NaN or Infinity is not JSON: a payload holding one is an error,
    # and no partial artifact is left behind
    path = tmp_path / "t.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        reporting.write_json(path, {"rows": [{"x": x}]}, subcommand="bch", seed=0)
    assert not path.exists()


def reference_svg(points, circles):
    """The scatter formatted one point at a time with f-strings."""
    size, half = reporting.SVG_SIZE, reporting.SVG_SIZE / 2.0
    scale = half / reporting.SVG_VIEW

    def sx(x):
        return f"{half + scale * x:.6g}"

    def sy(y):
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
        parts.append(f'<circle cx="{sx(c.real)}" cy="{sy(c.imag)}" r="{scale * radius:.6g}" '
                     f'fill="none" stroke="{color}" stroke-width="1.5"/>')
    for z, color in points:
        z = complex(z)
        parts.append(f'<circle cx="{sx(z.real)}" cy="{sy(z.imag)}" '
                     f'r="{reporting.SVG_POINT_RADIUS}" fill="{color}" fill-opacity="0.6"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scatter_points():
    rng = np.random.default_rng(3)
    zs = rng.uniform(-1, 1, 500) + 1j * rng.uniform(-1, 1, 500)
    points = [(z, "#888888") for z in zs]  # numpy complex128
    points += [(complex(z), "#1f77b4") for z in zs[:50] * 1e-7]  # Python complex
    points += [(complex(-0.0, -0.0), "#d62728"), (np.complex128(complex(0.0, -0.0)), "red"),
               (-1 / 3, "#000"), (0, "#000"), (1.15 + 1.15j, "#000"), (5e-324j, "#000")]
    return points


@pytest.mark.parametrize("points", [scatter_points(), []])
def test_svg_scatter_matches_the_per_point_reference(tmp_path, points):
    circles = [(0j, 1.0, "#000000"), (np.complex128(0.3), 0.7, "#d62728")]
    path = tmp_path / "s.svg"
    z, colors = [p[0] for p in points], [p[1] for p in points]
    reporting.svg_scatter(path, z, colors, circles)
    assert path.read_text() == reference_svg(points, circles)
    reporting.svg_scatter(path, np.array(z, dtype=complex), tuple(colors), circles)
    assert path.read_text() == reference_svg(points, circles)


def test_svg_scatter_needs_one_color_per_point(tmp_path):
    path = tmp_path / "s.svg"
    with pytest.raises(ValueError, match="3 points but 2 colors"):
        reporting.svg_scatter(path, np.zeros(3, dtype=complex), ["red"] * 2, [])
    assert not path.exists()


@pytest.mark.parametrize("label,grid", [("A1", 2048), ("A2", 128), ("G2", 256)])
def test_estimate_c_scatter_matches_the_full_grid_route(tmp_path, label, grid, whole_grid):
    # estimate-c reads its decimated nodes off the half grid; the SVG is the
    # one formatted point by point from every (n^rank // 3000)-th node of
    # the whole grid of the attaining irrep's chi/dim, by inverse FFT, then
    # the per-irrep minima
    assert main(["estimate-c", "--type", label, "--weight-bound", "8",
                 "--grid", str(grid), "--out", str(tmp_path)]) == 0
    rs = build_root_system(label)
    est = disk.empirical_disk_constant(rs, 8, grid)
    table = weight_multiplicities(rs, est.lams[est.best])
    zs = (whole_grid(table, grid) / table.dim).ravel()
    points = [(z, "#888888") for z in zs[::max(1, len(zs) // 3000)]]
    points += [(z, "#1f77b4") for z in est.z] + [(est.z[est.best], "#d62728")]
    circles = [(0j, 1.0, "#000000"),
               ((1 + est.c_hat) / 2 + 0j, (1 - est.c_hat) / 2, "#d62728")]
    svg = (tmp_path / f"estimate-c-{label}.svg").read_text()
    assert svg == reference_svg(points, circles)
