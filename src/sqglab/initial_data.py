"""
Initial-data library for verification runs.

Anisotropy matters: for radially symmetric data the transport velocity is
azimuthal while the gradient is radial, so the quadratic term vanishes
identically and the evolution stays purely linear.  The bump generators
therefore default to a mild ellipticity.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .grid import GridSpec, MultiIndex, RealField, apply_derivative, apply_riesz_perp, semigroup_orbit

__all__ = [
    "gaussian_bump",
    "compact_bump",
    "power_tail",
    "multiscale_ladder",
    "ladder_tie_phase",
]

# The multiscale ladder: the ratio of consecutive scales and the shape of its
# compound bumps, which ``ladder_tie_phase`` evolves too, so its phase matches the ladder.
_LADDER_RATIO = float(np.sqrt(2.0))
_LADDER_ASPECT = 1.6
_LADDER_HALO = 1.8


def _rotated_frame(grid: GridSpec, center, rotation: float, aspect: float):
    cx, cy = center
    L = grid.box_length
    x = np.arange(grid.n) * grid.dx
    dxv = (x - cx + L / 2) % L - L / 2
    dyv = (x - cy + L / 2) % L - L / 2
    X, Y = np.meshgrid(dxv, dyv, indexing="ij")
    ca, sa = np.cos(rotation), np.sin(rotation)
    return ca * X + sa * Y, (-sa * X + ca * Y) / aspect


def gaussian_bump(
    grid: GridSpec,
    amplitude: float = 1.0,
    width: float = 1.0,
    aspect: float = 2.0,
    rotation: float = 0.0,
) -> RealField:
    """Elliptical Gaussian bump at the box centre, nonnegative, min-image periodized."""
    if width <= 0 or aspect <= 0:
        raise ValueError("width and aspect must be positive")
    U, V = _rotated_frame(grid, (grid.box_length / 2, grid.box_length / 2), rotation, aspect)
    return RealField(grid, amplitude * np.exp(-(U**2 + V**2) / (2 * width**2)))


def compact_bump(
    grid: GridSpec,
    amplitude: float = 1.0,
    radius: float = 2.0,
    aspect: float = 2.0,
    rotation: float = 0.0,
) -> RealField:
    """Smooth bump at the box centre with exact compact support of the given radius."""
    if radius <= 0 or aspect <= 0:
        raise ValueError("radius and aspect must be positive")
    U, V = _rotated_frame(grid, (grid.box_length / 2, grid.box_length / 2), rotation, aspect)
    q = (U**2 + V**2) / radius**2
    vals = np.zeros(grid.shape)
    inside = q < 1.0
    vals[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - q[inside]))
    return RealField(grid, vals)


def power_tail(
    grid: GridSpec,
    amplitude: float,
    gamma_exp: float,
    core: float = 0.0,
    angular: float = 0.0,
) -> RealField:
    """
    Slowly decaying datum amplitude * (core^2 + |x|^2)^(-gamma/2), optionally
    modulated by (1 + angular*cos(2 phi)) away from the core; core 0 means
    twice the grid spacing.  It belongs to L^p exactly when p*gamma > 2, so
    gamma above alpha-1 places it in the scale-critical space.
    """
    if gamma_exp <= 0:
        raise ValueError("gamma_exp must be positive")
    if not -1.0 < angular < 1.0:
        raise ValueError("angular modulation must keep the datum positive")
    core = core or 2.0 * grid.dx
    X, Y = grid.centered_coordinates()
    R2 = X**2 + Y**2
    vals = amplitude * (core**2 + R2) ** (-gamma_exp / 2.0)
    if angular != 0.0:
        phi = np.arctan2(Y, X)
        vals = vals * (1.0 + angular * np.cos(2 * phi) * R2 / (1.0 + R2))
    return RealField(grid, vals)


def _compound_bump(grid: GridSpec, center, lam: float, rotation: float):
    """Difference of Gaussians with zero total mass (no monopole far field)."""
    U, V = _rotated_frame(grid, center, rotation, _LADDER_ASPECT)
    q = U**2 + V**2
    return np.exp(-q / (2 * lam**2)) - np.exp(-q / (2 * (_LADDER_HALO * lam) ** 2)) / _LADDER_HALO**2


def _ladder_resolved(grid: GridSpec, n_scales: int, lam_max: float) -> bool:
    """Whether the ladder has a scale and its finest, lam_max * ratio^(1 - n_scales), spans 3 grid spacings."""
    return lam_max > 0 and 1 <= n_scales <= 1 + math.log(lam_max / (3 * grid.dx), _LADDER_RATIO)


def multiscale_ladder(
    grid: GridSpec,
    alpha: float,
    amplitude: float = 0.04,
    n_scales: int = 10,
    lam_max: float = 4.0,
) -> tuple[RealField, np.ndarray]:
    """
    Superposition of zero-mass bumps at geometrically spaced scales (ratio
    ``_LADDER_RATIO``) with the scale-critical amplitude law
    a_j ~ lam_j^(-(alpha-1)), i.e. equal critical norm per scale octave.  The
    sup norms of the evolved field then step down the ladder at the critical
    rate t^(-(alpha-1)/alpha).

    Returns the field and the array of scales lam_j.
    """
    if not _ladder_resolved(grid, n_scales, lam_max):
        raise ValueError("n_scales must be >= 1, and the finest ladder scale span 3 grid spacings")
    lams = lam_max * _LADDER_RATIO ** (-np.arange(n_scales))
    amps = amplitude * (lams / lam_max) ** (-(alpha - 1.0))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    L = grid.box_length
    vals = np.zeros(grid.shape)
    for j in range(n_scales):
        ang = golden * j + 0.9
        rad = 0.35 * L - 0.225 * L * j / max(n_scales - 1, 1)
        center = (L / 2 + rad * np.cos(ang), L / 2 + rad * np.sin(ang))
        vals += amps[j] * _compound_bump(grid, center, lams[j], 0.8 * j)
    return RealField(grid, vals), lams


@functools.lru_cache(maxsize=32)
def ladder_tie_phase(alpha: float, scale_ratio: float, norm: str = "linf", kappa_order: int = 0) -> float:
    """
    Ladder-matched sampling phase u* for the multiscale envelope: the phase at
    which consecutive ladder stairs contribute equally to the sup norm,
    Phi(u* rho^alpha) / Phi(u*) = rho^-(alpha-1), where Phi is the sup-norm
    decay of a single unit-scale bump under the linear semigroup.  Sampling
    snapshots at t_j = u* lam_j^alpha removes the staircase end effects from
    the decay-slope fit.  ``norm`` selects the field ('linf') or its rotated
    Riesz transform ('riesz').
    """
    if norm not in ("linf", "riesz", "riesz_grad"):
        raise ValueError(f"unknown norm kind {norm!r}")
    g = GridSpec(384, 24.0)
    b = RealField(g, _compound_bump(g, (12.0, 12.0), 1.0, 0.0))
    uu = np.geomspace(0.02, 30.0, 72)
    vals = np.empty_like(uu)
    for i, f in enumerate(semigroup_orbit(b, uu.tolist(), alpha)):
        if norm == "linf":
            vals[i] = np.abs(f.values).max()
            continue
        u1, u2 = apply_riesz_perp(f)
        if norm == "riesz_grad":
            u1 = apply_derivative(u1, MultiIndex(1, 0))
            u2 = apply_derivative(u2, MultiIndex(0, 1))
        vals[i] = max(np.abs(u1.values).max(), np.abs(u2.values).max())
    lu, lp = np.log(uu), np.log(vals)
    shift = alpha * np.log(scale_ratio)
    # per-stair value ratio: amplitude law times lam^-|kappa| from derivatives
    target = -(alpha - 1.0 + kappa_order) * np.log(scale_ratio)

    def gap(x: float) -> float:
        return float(np.interp(x + shift, lu, lp) - np.interp(x, lu, lp) - target)

    xs = np.linspace(lu[0], lu[-1] - shift, 600)
    gv = np.array([gap(x) for x in xs])
    signs = np.sign(gv)
    cross = np.where(signs[:-1] != signs[1:])[0]
    if len(cross) == 0:
        raise ValueError("no tie phase found; widen the scan range")
    i = cross[0]
    x0, x1, v0, v1 = xs[i], xs[i + 1], gv[i], gv[i + 1]
    return float(np.exp(x0 - v0 * (x1 - x0) / (v1 - v0)))
