import numpy as np
import pytest

from sqglab.grid import GridSpec, RealField, _Spectra
from sqglab.kernel import build_profile, build_derivative_profile
from sqglab.grid import MultiIndex


@pytest.fixture(scope="session")
def profile15():
    return build_profile(1.5)


@pytest.fixture(scope="session")
def dprofile15_10():
    return build_derivative_profile(1.5, MultiIndex(1, 0))


@pytest.fixture(scope="session")
def dprofile15_20():
    return build_derivative_profile(1.5, MultiIndex(2, 0))


@pytest.fixture
def grid_2pi():
    return GridSpec(32, 2 * np.pi)


@pytest.fixture
def grid_small():
    return GridSpec(64, 20.0)


def random_band_limited(grid: GridSpec, seed: int, kmax_frac: float = 0.25) -> RealField:
    """Seeded random field of sup norm 1 with spectrum confined below kmax_frac of Nyquist."""
    rng = np.random.default_rng(seed)
    sp = _Spectra.of(grid)
    kcut = kmax_frac * np.pi / grid.dx
    mask = (np.abs(sp.kx) <= kcut) & (np.abs(sp.ky) <= kcut)
    vals = sp.inverse(np.where(mask, sp.forward(rng.standard_normal(grid.shape)), 0.0))
    vals *= 1.0 / max(np.abs(vals).max(), 1e-300)
    return RealField(grid, vals)
