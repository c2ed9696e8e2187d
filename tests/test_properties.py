"""Property tests of the weight tables, the lattice-ray walk and config
validation.

For a random dominant lam of level <= 10 on each type: multiplicities are
invariant under every Weyl group element, they sum to the Weyl dimension,
and the multiplicity-weighted sum of weights is zero. For a random positive
ray in up to 6 dimensions, with coefficient ratios up to e^24, the walk
stays within sqrt(2n) of the ray. A bad JSON value for any integer key,
bch_delta, arc, class_t_values or interior_targets exits 2 with a message
and writes nothing. The settings are derandomized, so every run draws the
same examples.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from adjointlab.characters import weight_multiplicities, weyl_dimension  # noqa: E402
from adjointlab.cli import CLASS_T_MAX, USAGE_ERROR, main  # noqa: E402
from adjointlab.orbits import distance_to_ray, lattice_ray_walk  # noqa: E402

FIXED = settings(derandomize=True, max_examples=30, deadline=None, database=None)


def dominant_weights(rank: int, level: int):
    return st.lists(
        st.integers(0, level), min_size=rank, max_size=rank
    ).filter(lambda f: sum(f) <= level).map(tuple)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_table_properties(systems, label):
    rs = systems[label]

    @FIXED
    @given(dominant_weights(rs.rank, 10))
    def check(lam):
        table = weight_multiplicities(rs, lam)
        # the table in lexicographic order, so that a W-image of it, sorted
        # the same way, must reproduce it row for row
        lex = np.lexsort(table.freq_f.T[::-1])
        f, m = table.freq_f[lex], table.mult_arr[lex]
        for k, w in enumerate(rs.weyl_weight_matrices):
            image = f @ w.T
            order = np.lexsort(image.T[::-1])
            assert np.array_equal(image[order], f), (lam, k)
            assert np.array_equal(m[order], m), (lam, k)
        assert int(m.sum()) == weyl_dimension(rs, lam)
        assert not np.any(m @ f)

    check()


@FIXED
@given(
    st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=6).map(np.exp),
    st.integers(1, 400),
)
def test_walk_stays_near_ray(a, steps):
    walk = lattice_ray_walk(a, steps)
    assert walk.shape == (steps, a.size)
    assert distance_to_ray(walk, a).max() <= np.sqrt(2 * a.size)


NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_NUMBERS = st.one_of(st.booleans(), st.text(max_size=6), st.just([]))
# an element of (0, 1) gone wrong
BAD_FRACTION = st.one_of(st.booleans(), st.text(max_size=6), NONFINITE,
                         st.floats(max_value=0.0), st.floats(min_value=1.0))
GOOD_FRACTION = st.floats(0.01, 0.99)


def bad_integers(least: int):
    """Values an integer key whose least valid value is `least` must reject;
    every float is one, 3.0 included."""
    return st.one_of(NOT_NUMBERS, st.integers(max_value=least - 1), st.floats())


# config key -> (a subcommand that reads it, values it must reject)
BAD_CONFIG = {
    **{key: (sub, bad_integers(1)) for key, sub in (
        ("weight_bound", "scan-characters"), ("class_n", "class-power"),
        ("interior_targets", "class-power"), ("arc_bound", "arc-lemma"),
        ("arc_samples", "arc-lemma"), ("bch_n", "bch"), ("bch_samples", "bch"),
        ("walk_steps", "orbit"))},
    "seed": ("bch", bad_integers(0)),
    "grid": ("scan-characters", bad_integers(2)),
    # below the remainder fit's least t, 1e-3, the radius steps measure rounding
    "bch_delta": ("bch", st.one_of(BAD_FRACTION, st.integers(), st.just([]),
                                   st.floats(0.0, 1e-3, exclude_min=True, exclude_max=True))),
    "arc": ("arc-lemma", st.one_of(
        NOT_NUMBERS, st.floats(),
        st.lists(GOOD_FRACTION, min_size=1, max_size=1),
        st.lists(GOOD_FRACTION, min_size=3, max_size=4),
        st.tuples(BAD_FRACTION, GOOD_FRACTION).map(list),
        st.tuples(GOOD_FRACTION, BAD_FRACTION).map(list),
        st.tuples(GOOD_FRACTION, GOOD_FRACTION).filter(lambda a: a[0] > a[1]).map(list),
    )),
    "class_t_values": ("class-power", st.one_of(
        NOT_NUMBERS, st.floats(),
        st.tuples(
            st.lists(st.floats(0.1, 2.0), max_size=2),
            st.one_of(st.booleans(), st.text(max_size=6), NONFINITE,
                      st.floats(max_value=0.0), st.integers(max_value=0),
                      st.floats(min_value=CLASS_T_MAX, exclude_min=True),
                      st.integers(min_value=int(CLASS_T_MAX) + 1)),
        ).map(lambda p: p[0] + [p[1]]),
    )),
}


@pytest.mark.parametrize("key", sorted(BAD_CONFIG))
def test_bad_config_value_exits_2(key):
    subcommand, values = BAD_CONFIG[key]

    @FIXED
    @given(values)
    def check(value):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps({key: value}))
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main([subcommand, "--config", str(config), "--out", str(out)])
            assert rc == USAGE_ERROR, value
            assert err.getvalue().startswith("config error: "), value
            assert key in err.getvalue(), value
            assert not out.exists(), value

    check()
