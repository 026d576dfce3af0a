"""
Whole-space evaluation of the 2D isotropic alpha-stable heat kernel.

The kernel at unit time is recovered from its radial characteristic function
by Hankel inversion,

    p(1, r) = (2*pi)^(-1) * int_0^inf exp(-s^alpha) J_0(s r) s ds,

integrated panel-by-panel between Bessel zeros with Gauss-Legendre rules and
a power substitution that removes the s^alpha cusp at the origin.  One node
builder, ``_hankel_nodes``, lays out the panels of many radii at once, one
row per radius, and every panel comes from ``special._gauss_panels``.
``_hankel_sum`` takes the radii in sorted blocks of about ``_BLOCK_NODES``
nodes, so a table of any length is a few array passes per block in bounded
memory; the profile, its order-18 spot checks, the derivative oracle and the
whole-space Gaussian semigroup all go through it.
Other times follow from the exact scaling
p(t, x) = t^(-2/alpha) p(1, t^(-1/alpha) x).  One table serves p and its
derivatives: a quintic interpolating spline F of log p(1, r) in v = r^2, so
that g = e^F, g'/r = 2 g F' and (g'' - g'/r)/r^2 = 4 g (F'^2 + F''), smooth
through the origin.  The table is read up to ``_table_edge(alpha)`` (r = 50
for 1 <= alpha < 2, 8 at alpha = 2); beyond it the profile, its mass and its
derivatives come termwise from the exact far-field series of
``_series_terms``, and at alpha = 2 from the Gaussian itself.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import special as _sp
from scipy.interpolate import PPoly, make_interp_spline

from .grid import GridSpec, MultiIndex, RealField, apply_derivative, apply_riesz
from .io import PROFILE_FORMAT, _read_binary, _write_binary
from .special import _gauss_panels

__all__ = [
    "QuadratureConvergenceError",
    "KernelProfile",
    "KernelDerivativeProfile",
    "build_profile",
    "build_derivative_profile",
    "kernel_eval",
    "kernel_derivative_eval",
    "estimate_ratios",
    "check_two_sided_estimate",
    "riesz_kernel_bound_check",
    "convolve_whole_space",
    "lower_bound_check",
    "levy_density",
    "levy_constant",
    "gaussian_semigroup_radial",
    "kernel_lp_norm",
    "save_profile",
    "load_profile",
]


class QuadratureConvergenceError(RuntimeError):
    """Oscillatory Hankel quadrature failed its tolerance check."""


# ---------------------------------------------------------------------------
# Hankel inversion machinery
# ---------------------------------------------------------------------------

_J0_ZEROS_EXACT = _sp.jn_zeros(0, 20)


def _j0_zeros(count: int) -> np.ndarray:
    """First positive zeros of J0; exact values, then the McMahon expansion."""
    if count <= 20:
        return _J0_ZEROS_EXACT[:count]
    k = np.arange(21, count + 1)
    b = (k - 0.25) * np.pi
    mc = b + 1.0 / (8 * b) - 124.0 / (3 * (8 * b) ** 3) + 120928.0 / (15 * (8 * b) ** 5)
    return np.concatenate([_J0_ZEROS_EXACT, mc])


def _s_cutoff(alpha: float, s_power: int) -> float:
    """S with exp(-S^alpha) S^s_power below roundoff relevance."""
    target = 18.5 * math.log(10.0)
    s0 = target ** (1.0 / alpha)
    return (target + s_power * math.log(s0 + 1.0)) ** (1.0 / alpha)


def _cusp_power(alpha: float) -> int:
    """q of the substitution s = w^q that smooths exp(-s^alpha) at s = 0."""
    return max(2, math.ceil(4.0 / alpha))


def _hankel_nodes(S: float, r: np.ndarray, q: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes/weights, one row per radius of the 1-D ``r``, for
    int_0^S f(s) J_0(s r) ds.

    The first stretch [0, s_split] up to the first scaled Bessel zero (or S
    when r S < pi) is 16 panels in w = s^(1/q), the substitution that
    removes a fractional cusp of f at the origin; the oscillatory remainder
    is split at the scaled Bessel zeros below S, so no panel is wider than
    pi/r.  Rows with fewer zeros are padded with zero-width panels at S,
    whose weights are exactly 0.
    """
    split = r * S >= np.pi  # r S >= pi puts the first zero j_0,1/r < S
    z = _j0_zeros(int(np.ceil(S * r.max(initial=0.0) / np.pi)) + 2)
    edges = np.full((len(r), len(z)), S)
    np.divide(z, r[:, None], out=edges, where=split[:, None])
    edges[edges >= S] = S
    n_max = int(np.count_nonzero(edges < S, axis=1).max(initial=0))
    edges = np.concatenate([edges[:, :n_max], np.full((len(r), 1), S)], axis=1)
    # C pow radius by radius: numpy's vectorised pow may round an ulp apart,
    # which would make a radius's panels depend on its block
    w_split = np.array([x ** (1.0 / q) for x in edges[:, 0].tolist()])
    wn, ww = _gauss_panels(np.linspace(0.0, w_split, 17, axis=-1), order)
    tn, tw = _gauss_panels(edges, order)
    return np.concatenate([wn**q, tn], axis=1), np.concatenate([ww * q * wn ** (q - 1), tw], axis=1)


# Radii go through ``_hankel_nodes`` in blocks of about this many nodes, so
# each working array stays near 256 KB however many radii are asked for;
# blocks of 2^14 to 2^17 nodes tabulate equally fast.
_BLOCK_NODES = 2**15


def _hankel_sum(S: float, r, q: int, order: int, summand) -> np.ndarray:
    """sum over the nodes of ``_hankel_nodes`` of summand(s, w, r) at every
    radius of ``r`` (any shape), the leading axes of the summand kept.  The
    radii are sorted, so that a block holds radii of similar panel counts."""
    r = np.asarray(r, dtype=float)
    flat = r.ravel()
    by_radius = np.argsort(flat)
    rs = flat[by_radius]
    row_length = (18 + np.ceil(S * rs / np.pi)) * order  # a bound on each radius's own nodes
    blocks = np.split(rs, np.flatnonzero(np.diff(np.cumsum(row_length) // _BLOCK_NODES)) + 1)
    sums = []
    for rb in blocks:
        s, w = _hankel_nodes(S, rb, q, order)
        sums.append(np.sum(summand(s, w, rb[:, None]), axis=-1))
    sums = np.concatenate(sums, axis=-1)
    out = np.empty_like(sums)
    out[..., by_radius] = sums
    return out.reshape(out.shape[:-1] + r.shape)


def _radial_value(alpha: float, r, order: int = 12):
    """g(r) of the unit-time kernel profile at every radius of ``r``: the J0 moment alone."""
    def summand(s, w, rr):
        return np.exp(-(s**alpha)) * w * _sp.j0(s * rr) * s

    g = _hankel_sum(_s_cutoff(alpha, 3), r, _cusp_power(alpha), order, summand) / (2 * np.pi)
    return float(g) if g.ndim == 0 else g


def _radial_derivatives(alpha: float, r: float, order: int = 12) -> tuple[float, float]:
    """(g', g'') of the unit-time kernel profile at radius r >= 0 by quadrature:
    the oracle the spline derivatives of ``KernelProfile.radial`` are tested against."""
    def summand(s, w, rr):
        damp = np.exp(-(s**alpha)) * w
        sr = s * rr
        j1 = _sp.j1(sr)
        with np.errstate(divide="ignore", invalid="ignore"):
            j1_over = np.where(sr > 0, j1 / np.where(sr > 0, sr, 1.0), 0.5)
        return np.stack([damp * j1 * s**2, damp * (_sp.j0(sr) - j1_over) * s**3])

    dg, curv = -_hankel_sum(_s_cutoff(alpha, 3), r, _cusp_power(alpha), order, summand) / (2 * np.pi)
    return float(dg), float(curv)


# From r = 20 on, _SERIES_TERMS terms of the far-field series match order-18
# quadrature to ~5e-11 relative (alpha 1.2, 1.5, 1.8); far out the series is
# the more accurate of the two, so no table may stop short of r = 20.
_SERIES_FROM = 20.0
_SERIES_TERMS = 12


def _table_edge(alpha: float) -> float:
    """Radius where the table stops and ``_far_field`` takes over: 50 for
    1 <= alpha < 2; 8 at alpha = 2, past which the cancelling lobe sums of
    the quadrature miss the Gaussian (by 1e-1 relative on [10, 12])."""
    return 8.0 if alpha >= 2.0 else 50.0


def _series_terms(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """
    (c_k, alpha k) of the far-field series p(1, r) = sum_k c_k r^(-2-alpha k),
    c_k = (-1)^(k+1)/k! Gamma(1+alpha k/2)^2 sin(pi alpha k/2) 2^(alpha k)/pi^2
    (Blumenthal & Getoor 1960, Trans. AMS 95; Kolokoltsov 2000, Proc. LMS 80).
    It converges at alpha = 1 (the Cauchy kernel) and is asymptotic for alpha > 1.
    """
    k = np.arange(1, _SERIES_TERMS + 1)
    ak = alpha * k
    sign = (-1.0) ** (k + 1)
    c = sign / _sp.factorial(k) * _sp.gamma(1 + ak / 2) ** 2 * np.sin(np.pi * ak / 2) * 2.0**ak / np.pi**2
    return c, ak


def _far_field(alpha: float, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, g'/r, (g'' - g'/r)/r^2) of the unit-time profile at large r, termwise
    from the series: the k-th term c_k r^(-2-ak) contributes
    -c_k (2+ak) r^(-4-ak) and c_k (2+ak)(4+ak) r^(-6-ak)."""
    r = np.asarray(r, dtype=float)
    if alpha >= 2.0:  # every series term vanishes: the Gaussian itself
        g = np.exp(-(r**2) / 4.0) / (4.0 * np.pi)
        return g, -g / 2.0, g / 4.0
    c, ak = _series_terms(alpha)
    terms = c * r[..., None] ** (-2.0 - ak)
    r2 = r**2
    return terms.sum(-1), -(terms @ (2.0 + ak)) / r2, (terms @ ((2.0 + ak) * (4.0 + ak))) / r2**2


def _far_mass(alpha: float, r_max: float) -> float:
    """2*pi int_r_max^inf p(1,r) r dr in closed form, term by term."""
    if alpha >= 2.0:
        return math.exp(-(r_max**2) / 4.0)
    c, ak = _series_terms(alpha)
    return 2 * np.pi * float(np.sum(c * r_max ** (-ak) / ak))


def levy_constant(alpha: float) -> float:
    """C of the exact |x| -> inf power tail p(1,x) ~ C |x|^(-2-alpha): the series' c_1."""
    return 0.0 if alpha >= 2.0 else float(_series_terms(alpha)[0][0])


def levy_density(z, alpha: float) -> np.ndarray | float:
    """Jump-measure density: the exact Gamma-function constant times |z|^(-2-alpha)."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    z = np.asarray(z, dtype=float)
    rr = np.hypot(z[..., 0], z[..., 1]) if z.shape[-1:] == (2,) and z.ndim > 0 else np.abs(z)
    if np.any(rr == 0):
        raise ValueError("the jump density diverges at z = 0")
    out = levy_constant(alpha) * rr ** (-2.0 - alpha)
    return float(out) if np.isscalar(out) or out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelProfile:
    """
    Tabulated radial profile g = p(1, .) of the unit-time kernel, far-field
    series beyond.  Construction copies ``radii`` and ``values`` into
    read-only arrays and validates them, for built and loaded tables alike.
    """

    alpha: float
    r_max: float
    radii: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        radii, values = (np.array(a, dtype=float) for a in (self.radii, self.values))
        if not 1.0 <= self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in [1, 2], got {self.alpha}")
        # six nodes are the fewest a quintic interpolating spline takes
        if radii.ndim != 1 or len(radii) < 6 or values.shape != radii.shape:
            raise ValueError(f"need at least 6 radii and as many values, got {radii.shape} and {values.shape}")
        if radii[0] != 0.0 or not np.all(np.diff(radii) > 0) or not np.isfinite(radii[-1]):
            raise ValueError("radii must start at 0 and increase strictly to a finite r_max")
        if radii[-1] != self.r_max:
            raise ValueError(f"last radius {radii[-1]} is not r_max = {self.r_max}")
        if not np.all(np.isfinite(values) & (values > 0)):
            raise ValueError("kernel values must be finite and positive")
        if self.alpha < 2.0 and not self.r_max >= _SERIES_FROM:
            raise ValueError(f"r_max must be at least {_SERIES_FROM:g} at alpha = {self.alpha}, "
                             f"where the far-field series takes over; got {self.r_max}")
        for name, a in (("radii", radii), ("values", values)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        log_g = PPoly.from_spline(make_interp_spline(radii**2, np.log(values), k=5))
        object.__setattr__(self, "_log_g", log_g)
        object.__setattr__(self, "_top", min(self.r_max, _table_edge(self.alpha)))

    def radial(self, r, derivatives: bool = True) -> np.ndarray:
        """
        Rows g, g'/r and (g'' - g'/r)/r^2 at radii r (the row g alone without
        ``derivatives``).  Up to min(r_max, edge) they are e^F, 2 g F' and
        4 g (F'^2 + F'') of the spline F of log g in v = r^2, finite through
        r = 0; beyond, ``_far_field`` serves them termwise.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        inside = r <= self._top
        out = np.empty((3 if derivatives else 1,) + r.shape)
        v = r[inside] ** 2
        g = np.exp(self._log_g(v))
        if derivatives:
            f1, f2 = self._log_g(v, 1), self._log_g(v, 2)
            out[:, inside] = g, 2.0 * g * f1, 4.0 * g * (f1**2 + f2)
        else:
            out[0, inside] = g
        out[:, ~inside] = _far_field(self.alpha, r[~inside])[: len(out)]
        return out

    def __call__(self, r) -> np.ndarray:
        """p(1, r); the far-field series beyond the table's reach."""
        out = self.radial(r, derivatives=False)[0]
        return float(out[0]) if np.ndim(r) == 0 else out

    def total_mass(self) -> float:
        """2*pi int_0^inf p(1,r) r dr: the table up to min(r_max, edge), the series termwise beyond."""
        top = self._top
        un, uw = _gauss_panels(np.log1p(np.append(self.radii[self.radii < top], top)), 16)
        rn = np.expm1(un)
        pn = np.exp(self._log_g(rn**2))
        return 2 * np.pi * float(np.sum(pn * rn * (rn + 1.0) * uw)) + _far_mass(self.alpha, top)


def build_profile(
    alpha: float,
    r_max: float | None = None,
    tol: float = 1e-6,
    n_nodes: int | None = None,
) -> KernelProfile:
    """
    Tabulate p(1, .) on a log-spaced radial grid by Hankel inversion.

    The quadrature at a spot-check subset of radii is re-run at a higher
    Gauss-Legendre order; disagreement beyond ``tol`` raises
    QuadratureConvergenceError.  r_max defaults to ``_table_edge(alpha)``,
    where the far-field series takes over.  It may lie in [20, 50] for
    1 <= alpha < 2, where the series serves every radius beyond it, and in
    (0, 8] at alpha = 2; anything else raises ValueError.  Calls are
    memoised on the validated values, however they are spelt: equal
    arguments return the same (immutable) profile.
    """
    alpha = float(alpha)
    if not 1.0 <= alpha <= 2.0:
        raise ValueError(f"alpha must lie in [1, 2], got {alpha}")
    tol = float(tol)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    edge = _table_edge(alpha)
    r_max = edge if r_max is None else float(r_max)
    if alpha >= 2.0:
        ok, allowed = 0.0 < r_max <= edge, f"(0, {edge:g}]"
    else:
        ok, allowed = _SERIES_FROM <= r_max <= edge, f"[{_SERIES_FROM:g}, {edge:g}]"
    if not ok:
        raise ValueError(f"r_max must lie in {allowed} at alpha = {alpha}, got {r_max}")
    return _tabulate(alpha, r_max, tol, None if n_nodes is None else operator.index(n_nodes))


@functools.lru_cache
def _tabulate(alpha: float, r_max: float, tol: float, n_nodes: int | None) -> KernelProfile:
    """The table of ``build_profile`` for validated arguments."""
    # radii expm1(u): u = 0, 0.003, 0.006, ... below log1p(r_max) (or n_nodes
    # even steps to it), closed by r_max itself
    u_top = np.log1p(r_max)
    u = np.append(np.arange(0.0, u_top, 0.003), u_top) if n_nodes is None else np.linspace(0.0, u_top, n_nodes)
    radii = np.expm1(u)
    radii[-1] = r_max
    vals = _radial_value(alpha, radii)
    if np.any(vals <= 0):
        raise QuadratureConvergenceError("kernel profile lost positivity")
    if np.any(np.diff(vals) >= 0):
        raise QuadratureConvergenceError("kernel profile lost monotonicity")
    check_idx = np.unique(np.linspace(0, len(radii) - 1, 25).astype(int))
    ref = _radial_value(alpha, radii[check_idx], order=18)
    # the absolute term allows for roundoff in the cancelling lobe sums
    err = np.abs(vals[check_idx] - ref)
    bad = np.flatnonzero(err > tol * np.abs(ref) + 1e-16)
    if bad.size:
        i = bad[0]
        raise QuadratureConvergenceError(
            f"Hankel quadrature at r={radii[check_idx[i]]:.3g} differs by "
            f"{err[i] / abs(ref[i]):.2e} between orders"
        )
    return KernelProfile(alpha, r_max, radii, vals)


def kernel_eval(profile: KernelProfile, t: float, x) -> np.ndarray | float:
    """p(t, x) via the exact scaling relation; ``x`` is a point or (..., 2) array."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.hypot(x[..., 0], x[..., 1])
    out = kernel_eval_radial(profile, t, r)
    return float(out[0]) if out.size == 1 else out.reshape(np.shape(r))


def kernel_eval_radial(profile: KernelProfile, t: float, r) -> np.ndarray:
    if t <= 0:
        raise ValueError(f"kernel time must be positive, got {t}")
    r = np.asarray(r, dtype=float)
    return t ** (-2.0 / profile.alpha) * profile(r * t ** (-1.0 / profile.alpha))


@dataclass(frozen=True)
class KernelDerivativeProfile:
    """
    grad^kappa p(1, .) for 1 <= |kappa| <= 2 from the profile's own spline:
    d_i p(1, x) = A x_i and d_ij p(1, x) = A delta_ij + B x_i x_j with
    A = g'/r and B = (g'' - g'/r)/r^2 of ``KernelProfile.radial``.
    """

    profile: KernelProfile
    kappa: MultiIndex

    def __post_init__(self) -> None:
        if not 1 <= self.kappa.order <= 2:
            raise ValueError("kappa order must be 1 or 2")

    @property
    def alpha(self) -> float:
        return self.profile.alpha

    def eval_unit_time(self, x: np.ndarray) -> np.ndarray:
        """grad^kappa p(1, x) for points x of shape (..., 2)."""
        kappa = self.kappa
        x = np.atleast_2d(np.asarray(x, dtype=float))
        x1, x2 = x[..., 0], x[..., 1]
        _, a, b = self.profile.radial(np.hypot(x1, x2))
        if kappa.order == 1:
            return a * (x1 if kappa.k1 == 1 else x2)
        if kappa.k1 == 1:  # the mixed derivative
            return b * x1 * x2
        xi = x1 if kappa.k1 == 2 else x2
        return a + b * xi**2


def build_derivative_profile(alpha: float, kappa: MultiIndex) -> KernelDerivativeProfile:
    """grad^kappa p(1, .) over the (memoised) ``build_profile(alpha)``."""
    return KernelDerivativeProfile(build_profile(alpha), kappa)


def kernel_derivative_eval(dprofile: KernelDerivativeProfile, t: float, x) -> np.ndarray | float:
    """grad^kappa p(t, x) = t^(-(2+|kappa|)/alpha) (grad^kappa p)(1, t^(-1/alpha) x)."""
    if t <= 0:
        raise ValueError(f"kernel time must be positive, got {t}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    a = dprofile.alpha
    scale = t ** (-(2.0 + dprofile.kappa.order) / a)
    out = scale * dprofile.eval_unit_time(x * t ** (-1.0 / a))
    return float(out.ravel()[0]) if out.size == 1 else out


# ---------------------------------------------------------------------------
# Estimate sweeps and oracles
# ---------------------------------------------------------------------------


def estimate_ratios(profile: KernelProfile, t_set: Sequence[float], r: np.ndarray) -> np.ndarray:
    """p(t,r) (t^(1/a)+r)^(2+a) / t for every t of ``t_set`` (rows) and radius r (columns)."""
    a = profile.alpha
    r = np.asarray(r, dtype=float)
    return np.array([kernel_eval_radial(profile, t, r) * (t ** (1.0 / a) + r) ** (2.0 + a) / t
                     for t in np.asarray(t_set, dtype=float)])


def check_two_sided_estimate(
    profile: KernelProfile, t_set: Sequence[float], x_set: np.ndarray
) -> tuple[float, float]:
    """inf/sup over the sweep of p(t,x) (t^(1/a)+|x|)^(2+a) / t."""
    t_set = np.asarray(t_set, dtype=float)
    x_set = np.asarray(x_set, dtype=float)
    if t_set.size == 0 or x_set.size == 0:
        raise ValueError("sweep sets must be nonempty")
    ratio = estimate_ratios(profile, t_set, np.hypot(x_set[..., 0], x_set[..., 1]).ravel())
    return float(ratio.min()), float(ratio.max())


def riesz_kernel_bound_check(
    profile: KernelProfile,
    kappa: MultiIndex,
    t_set: Sequence[float],
    window_radius: float,
    grid: GridSpec,
) -> float:
    """
    sup over the window of |R_2 grad^kappa p(t, .)| * t^(|kappa|/alpha)
    * (t^(1/alpha) + |x|)^2, with the operator realized spectrally on a
    torus much larger than the window.  p is radial, so R_2 gives the R_1
    sup rotated.
    """
    if kappa.order > 1:
        raise ValueError("the bound check supports |kappa| <= 1")
    if window_radius > grid.box_length / 4:
        raise ValueError("window too close to the box boundary")
    a = profile.alpha
    X, Y = grid.centered_coordinates()
    r = np.hypot(X, Y)
    mask = r <= window_radius
    sup = 0.0
    for t in t_set:
        vals = kernel_eval_radial(profile, float(t), r.ravel()).reshape(r.shape)
        f = RealField(grid, vals)
        g = apply_riesz(f, 1)
        if kappa.order == 1:
            g = apply_derivative(g, kappa)
        ratio = np.abs(g.values[mask]) * t ** (kappa.order / a) * (t ** (1.0 / a) + r[mask]) ** 2
        sup = max(sup, float(ratio.max()))
    return sup


def convolve_whole_space(
    profile: KernelProfile,
    patch_coords: np.ndarray,
    patch_values: np.ndarray,
    cell_area: float,
    t: float,
    x_set: np.ndarray,
) -> np.ndarray:
    """
    P_t theta0 at the points of ``x_set`` by direct quadrature of the
    whole-space kernel against a compactly supported sampled function.
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    pc = np.asarray(patch_coords, dtype=float).reshape(-1, 2)
    pv = np.asarray(patch_values, dtype=float).ravel()
    if pc.shape[0] != pv.shape[0]:
        raise ValueError("patch coordinates and values disagree in length")
    xs = np.atleast_2d(np.asarray(x_set, dtype=float))
    out = np.empty(xs.shape[0])
    for i, x in enumerate(xs):
        r = np.hypot(pc[:, 0] - x[0], pc[:, 1] - x[1])
        out[i] = np.sum(kernel_eval_radial(profile, t, r) * pv) * cell_area
    return out


def lower_bound_check(
    profile: KernelProfile,
    patch_coords: np.ndarray,
    patch_values: np.ndarray,
    cell_area: float,
    t1: float,
    t2: float,
    x_set: np.ndarray,
) -> float:
    """inf over [t1,t2] x x_set of P_t|theta0|(x) (1+|x|)^(2+alpha); must be > 0."""
    if not 0 < t1 < t2:
        raise ValueError("need 0 < t1 < t2")
    pv = np.abs(np.asarray(patch_values, dtype=float))
    if not np.any(pv > 0):
        raise ValueError("theta0 is identically zero")
    xs = np.atleast_2d(np.asarray(x_set, dtype=float))
    rr = np.hypot(xs[:, 0], xs[:, 1])
    c_low = np.inf
    for t in np.linspace(t1, t2, 5):
        vals = convolve_whole_space(profile, patch_coords, pv, cell_area, float(t), xs)
        c_low = min(c_low, float(np.min(vals * (1.0 + rr) ** (2.0 + profile.alpha))))
    return c_low


def gaussian_semigroup_radial(alpha: float, sigma: float, t: float, r) -> np.ndarray:
    """
    Whole-space P_t of the radial Gaussian exp(-|x|^2/(2 sigma^2)), evaluated
    at radii ``r`` through the product of Hankel transforms:
    sigma^2 int_0^inf exp(-t s^alpha - sigma^2 s^2 / 2) J_0(s r) s ds.
    """
    if t < 0 or sigma <= 0:
        raise ValueError("need t >= 0 and sigma > 0")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    A = 18.5 * math.log(10.0)
    s_gauss = math.sqrt(2 * A) / sigma
    s_stable = (A / t) ** (1.0 / alpha) if t > 0 else np.inf
    S = min(s_gauss, s_stable)

    def summand(s, w, rr):
        expo = -0.5 * sigma**2 * s**2 - (t * s**alpha if t > 0 else 0.0)
        return np.exp(expo) * _sp.j0(s * rr) * s * w

    return sigma**2 * _hankel_sum(S, r, _cusp_power(alpha), 12, summand)


def kernel_lp_norm(
    profile: KernelProfile,
    dprofile: KernelDerivativeProfile | None,
    kappa: MultiIndex,
    t: float,
    p: float,
) -> float:
    """
    ||grad^kappa p(t, .)||_p for |kappa| <= 1 by radial quadrature with the
    exact angular factor out to r = 50 t^(1/alpha), plus the closed form of
    the leading power tail beyond.  The gradient comes from ``profile``'s
    own g'/r; ``dprofile`` is not read and may be None.
    """
    if kappa.order > 1:
        raise ValueError("norms are provided for |kappa| <= 1")
    a = profile.alpha
    r_edge = 50.0 * t ** (1.0 / a)  # where the closed-form tail starts
    if np.isinf(p):
        if kappa.order == 0:
            return float(kernel_eval_radial(profile, t, np.zeros(1))[0])
        rr = np.expm1(np.linspace(0, np.log1p(r_edge), 600))
        comp = np.abs(profile.radial(rr * t ** (-1.0 / a))[1] * rr * t ** (-1.0 / a))
        return float(comp.max() * t ** (-(2.0 + 1.0) / a))
    un, uw = _gauss_panels(np.linspace(0.0, np.log1p(r_edge), 600), 12)
    rn = np.expm1(un)
    jac = rn + 1.0
    if kappa.order == 0:
        vals = kernel_eval_radial(profile, t, rn)
        ang = 2 * np.pi
        tail_mag = levy_constant(a) * t  # p(t,r) ~ C t r^(-2-a)
        tail_pow = 2.0 + a
    else:
        z = rn * t ** (-1.0 / a)
        vals = np.abs(profile.radial(z)[1] * z) * t ** (-(3.0) / a)
        ang = 2 * math.sqrt(math.pi) * math.gamma((p + 1) / 2) / math.gamma(p / 2 + 1)
        tail_mag = (2.0 + a) * levy_constant(a) * t
        tail_pow = 3.0 + a
    inner = ang * float(np.sum(vals**p * rn * jac * uw))
    # tail_mag is the constant m of |grad^k p(t, r)| ~ m r^(-tail_pow)
    tail = ang * tail_mag**p * r_edge ** (2.0 - p * tail_pow) / (p * tail_pow - 2.0)
    return float((inner + tail) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_profile(profile: KernelProfile, path) -> None:
    """Write a ``.sqgk`` table; the layout is in the ``io`` module docstring."""
    _write_binary(path, PROFILE_FORMAT, (profile.alpha, profile.r_max, len(profile.radii)),
                  profile.radii, profile.values)


def load_profile(path) -> KernelProfile:
    return _read_binary(path, PROFILE_FORMAT,
                        lambda header, radii, values: KernelProfile(*header[:2], radii, values))
