"""
Periodic-box fields and Fourier-multiplier operators.

All operators act through the real 2D FFT on a square box of side
``box_length`` with ``n`` points per axis.  Coefficients live on the rfft2
half plane of shape (n, n//2+1): kx = 2*pi/L * {0, ..., n/2-1, -n/2, ..., -1}
and ky = 2*pi/L * {0, ..., n/2}; the negative-ky half is the complex conjugate.
Odd-order multipliers zero the Nyquist entries (kx = -n/2, ky = n/2) so that
derivatives of real fields stay real.  ``_Spectra`` is the only place that
knows this layout: its wavenumbers, masks and column counts.  A field has one
public form, ``RealField``; half-plane arrays live only inside the operators
below and ``solver._Stepper``, and no public function takes or returns one.
Fields are immutable; every operation returns a new field.

The package's only FFT calls are the two-pass pair of ``_Spectra``: an rfft
along ky, then an fft along kx on the leading ``cols`` columns, and the
reverse.  ``forward_into`` writes the half plane into a buffer ``out`` the
caller passes in; ``inverse_into`` runs its kx pass in place in the half plane
it is given (a scratch buffer) and writes the field into ``out``.  ``forward``
and ``inverse`` are the full-width case on fresh arrays (and on a copy).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Square periodic box: ``n`` points per axis, physical side ``box_length``."""

    n: int
    box_length: float

    def __post_init__(self) -> None:
        if self.n < 16 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 16, got {self.n}")
        if not self.box_length > 0:
            raise ValueError(f"box_length must be positive, got {self.box_length}")

    @property
    def dx(self) -> float:
        return self.box_length / self.n

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Mesh of physical coordinates in [0, L) x [0, L)."""
        x = np.arange(self.n) * self.dx
        return np.meshgrid(x, x, indexing="ij")

    def centered_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Signed minimum-image coordinates relative to the box center."""
        x = np.arange(self.n) * self.dx - self.box_length / 2
        return np.meshgrid(x, x, indexing="ij")


class _Spectra:
    """Cached rfft2-layout multipliers and transforms per grid (kept off the frozen dataclass)."""

    _cache: dict[tuple[int, float], "_Spectra"] = {}

    def __init__(self, grid: GridSpec):
        n, dx = grid.n, grid.dx
        self.shape = grid.shape
        kx = 2 * np.pi * np.fft.fftfreq(n, d=dx)
        ky = 2 * np.pi * np.fft.rfftfreq(n, d=dx)
        self.kx, self.ky = kx[:, None], ky[None, :]
        kx_odd, ky_odd = kx.copy(), ky.copy()
        kx_odd[n // 2] = 0.0
        ky_odd[-1] = 0.0
        self.kx_odd, self.ky_odd = kx_odd[:, None], ky_odd[None, :]
        self.kmod = np.hypot(self.kx, self.ky)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.riesz1 = np.where(self.kmod > 0, 1j * self.kx_odd / self.kmod, 0.0)
            self.riesz2 = np.where(self.kmod > 0, 1j * self.ky_odd / self.kmod, 0.0)
        cut = (n // 3) * (2 * np.pi / grid.box_length)
        self.dealias_mask = (np.abs(self.kx) <= cut + 1e-12) & (np.abs(self.ky) <= cut + 1e-12)
        # leading ky columns that hold the 2/3-rule band, and all of them
        self.band_cols, self.half_cols = n // 3 + 1, n // 2 + 1

    @classmethod
    def of(cls, grid: GridSpec) -> "_Spectra":
        key = (grid.n, grid.box_length)
        if key not in cls._cache:
            cls._cache[key] = cls(grid)
        return cls._cache[key]

    def forward(self, values: np.ndarray) -> np.ndarray:
        return self.forward_into(values, self.half_cols, np.empty(self.kmod.shape, dtype=complex))

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        return self.inverse_into(np.array(coeffs, dtype=complex), self.half_cols, np.empty(self.shape))

    def inverse_into(self, half: np.ndarray, cols: int, out: np.ndarray) -> np.ndarray:
        """
        The inverse of the full-width half plane ``half``, whose columns beyond
        the leading ``cols`` must vanish, written into ``out``.  The kx pass
        runs in place on those columns, so ``half`` is consumed.
        """
        block = half[:, :cols]
        np.fft.ifft(block, axis=0, out=block)
        return np.fft.irfft(half, n=self.shape[1], axis=1, out=out)

    def forward_into(self, values: np.ndarray, cols: int, out: np.ndarray) -> np.ndarray:
        """
        The forward transform of ``values`` into the full-width ``out``, exact
        on the leading ``cols`` columns.  The others are transformed along ky
        only, so they are valid only under a multiplier that vanishes there.
        """
        np.fft.rfft(values, axis=1, out=out)
        block = out[:, :cols]
        np.fft.fft(block, axis=0, out=block)
        return out


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RealField:
    """Scalar field sampled on the grid, physical representation."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"field shape {v.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "values", _freeze(v))

    def __add__(self, other: "RealField") -> "RealField":
        return RealField(self.grid, self.values + other.values)

    def __sub__(self, other: "RealField") -> "RealField":
        return RealField(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "RealField":
        return RealField(self.grid, self.values * c)

    __rmul__ = __mul__


@dataclass(frozen=True)
class MultiIndex:
    """Differentiation multi-index (k1, k2) with total order k1 + k2 <= 4."""

    k1: int
    k2: int

    def __post_init__(self) -> None:
        if self.k1 < 0 or self.k2 < 0:
            raise ValueError("multi-index entries must be nonnegative")
        if self.order > 4:
            raise ValueError(f"differentiation order {self.order} > 4 is unsupported")

    @property
    def order(self) -> int:
        return self.k1 + self.k2


def _apply_multiplier(f: RealField, mult: np.ndarray) -> RealField:
    sp = _Spectra.of(f.grid)
    return RealField(f.grid, sp.inverse(mult * sp.forward(f.values)))


def apply_fractional_laplacian(f: RealField, alpha: float) -> RealField:
    """(-Laplace)^(alpha/2) f via the |xi|^alpha multiplier; the xi=0 mode maps to 0."""
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    sp = _Spectra.of(f.grid)
    return _apply_multiplier(f, sp.kmod**alpha)


def apply_semigroup(f: RealField, t: float, alpha: float) -> RealField:
    """Stable semigroup P_t f via the exp(-t |xi|^alpha) multiplier; P_0 = identity."""
    return next(semigroup_orbit(f, (t,), alpha))


def semigroup_orbit(f: RealField, times: Iterable[float], alpha: float) -> Iterator[RealField]:
    """
    P_t f for each t of ``times`` in turn, from one forward transform of f.
    Every time and alpha are checked before any work; each P_t f is formed
    only when it is asked for, so a caller holds one at a time.
    """
    times = list(times)
    for t in times:
        if not 0 <= t < np.inf:
            raise ValueError(f"semigroup time must be nonnegative and finite, got {t}")
    if not 1.0 <= alpha <= 2.0:
        raise ValueError(f"alpha must lie in [1, 2], got {alpha}")
    return _orbit(f, times, alpha)


def _orbit(f: RealField, times: list[float], alpha: float) -> Iterator[RealField]:
    sp = _Spectra.of(f.grid)
    fh, symbol = sp.forward(f.values), sp.kmod**alpha
    for t in times:
        yield RealField(f.grid, sp.inverse(np.exp(-t * symbol) * fh))


def apply_riesz(f: RealField, i: int) -> RealField:
    """Riesz transform R_i, symbol i*xi_i/|xi| with value 0 at xi=0."""
    if i not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {i}")
    sp = _Spectra.of(f.grid)
    return _apply_multiplier(f, sp.riesz1 if i == 1 else sp.riesz2)


def apply_riesz_perp(f: RealField) -> tuple[RealField, RealField]:
    """The divergence-free rotation (-R_2 f, R_1 f)."""
    sp = _Spectra.of(f.grid)
    fh = sp.forward(f.values)
    u1, u2 = sp.inverse(-sp.riesz2 * fh), sp.inverse(sp.riesz1 * fh)
    return RealField(f.grid, u1), RealField(f.grid, u2)


def apply_derivative(f: RealField, kappa: MultiIndex) -> RealField:
    """Spectral derivative d^|kappa| f / dx1^k1 dx2^k2."""
    sp = _Spectra.of(f.grid)
    mult = np.ones((1, 1), dtype=complex)
    if kappa.k1:
        mult = mult * (1j * (sp.kx_odd if kappa.k1 % 2 else sp.kx)) ** kappa.k1
    if kappa.k2:
        mult = mult * (1j * (sp.ky_odd if kappa.k2 % 2 else sp.ky)) ** kappa.k2
    return _apply_multiplier(f, mult)


def lp_norm(f: RealField, p: float) -> float:
    """Grid L^p norm with cell measure dx^2; sup norm for p = inf."""
    return _lp_norm(f.values, p, f.grid.dx, np.empty(f.grid.shape))


def _lp_norm(values: np.ndarray, p: float, dx: float, scratch: np.ndarray) -> float:
    """``lp_norm`` of ``values``, forming |values|^p in ``scratch``."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    a = np.abs(values, out=scratch)
    if np.isinf(p):
        return float(a.max())
    a **= p
    return float((np.sum(a) * dx**2) ** (1.0 / p))

