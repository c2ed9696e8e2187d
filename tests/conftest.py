import numpy as np
import pytest

from adjointlab.characters import IrrepTable
from adjointlab.compactform import build_compact_form
from adjointlab.rootsys import build_root_system

ALL_TYPES = ("A1", "A2", "B2", "C2", "G2")


@pytest.fixture(scope="session")
def systems():
    return {t: build_root_system(t) for t in ALL_TYPES}


@pytest.fixture(scope="session")
def bases(systems):
    # building the compact forms (especially G2 inside so(7)) is the slow
    # part of setup, so share one copy across the whole session
    return {t: build_compact_form(systems[t]) for t in ALL_TYPES}


@pytest.fixture()
def rng():
    return np.random.default_rng(987654321)


@pytest.fixture(scope="session")
def character_value():
    """The tests' pointwise character oracle: the weight table's Fourier sum
    at one torus point, which the package evaluates only on grids."""

    def character_value(table: IrrepTable, theta) -> complex:
        """chi(theta) = sum_mu m_mu exp(i <mu, theta>); equals dim at theta = 0."""
        theta = np.asarray(theta, dtype=float)
        phases = table.freq_f @ theta
        return complex(np.sum(table.mult_arr * np.exp(1j * phases)))

    return character_value
