"""Property tests of the weight tables and of the lattice-ray walk.

For a random dominant lam of level <= 10 on each type: multiplicities are
invariant under every Weyl group element, they sum to the Weyl dimension,
and the multiplicity-weighted sum of weights is zero. For a random positive
ray in up to 6 dimensions, with coefficient ratios up to e^24, the walk
stays within sqrt(2n) of the ray. The settings are derandomized, so every
run draws the same examples.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from adjointlab.characters import weight_multiplicities, weyl_dimension  # noqa: E402
from adjointlab.orbits import distance_to_ray, lattice_ray_walk  # noqa: E402
from adjointlab.rootsys import generate_weyl_group  # noqa: E402

FIXED = settings(derandomize=True, max_examples=30, deadline=None, database=None)


def dominant_weights(rank: int, level: int):
    return st.lists(
        st.integers(0, level), min_size=rank, max_size=rank
    ).filter(lambda f: sum(f) <= level).map(tuple)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_table_properties(systems, label):
    rs = systems[label]
    group = generate_weyl_group(rs)

    @FIXED
    @given(dominant_weights(rs.rank, 10))
    def check(lam):
        table = weight_multiplicities(rs, lam)
        f, m = table.freq_f, table.mult_arr
        # freq_f is in lexicographic order, so a W-image of the table,
        # sorted the same way, must reproduce it row for row
        for w in group:
            image = f @ w.weight_matrix.T
            order = np.lexsort(image.T[::-1])
            assert np.array_equal(image[order], f), (lam, w.word)
            assert np.array_equal(m[order], m), (lam, w.word)
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
