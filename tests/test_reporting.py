"""Artifact writers: CSV bytes against a per-value reference, JSON floats."""

import csv
import io
import json

import numpy as np
import pytest

from adjointlab import reporting


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
