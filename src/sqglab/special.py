"""
Special functions and singular-integral quadratures.

Covers the Beta function, the singular time-convolution integral
``int_0^t (t-s)^(-a) s^(-b) ds``, the two-endpoint-singular radial integral
used in the kernel-derivative bootstrap, and the weighted space-time
smoothing operator built on a graded product-quadrature time grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import special as _sp

from .grid import RealField, _freeze

__all__ = [
    "beta",
    "singular_time_convolution",
    "radial_singular_integral",
    "TimeGrid",
    "apply_T_gamma",
    "tgamma_inner_ratio",
]


def beta(a: float, b: float) -> float:
    """Beta function B(a,b) = Gamma(a)Gamma(b)/Gamma(a+b)."""
    if a <= 0 or b <= 0:
        raise ValueError(f"beta requires positive arguments, got ({a}, {b})")
    try:
        return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    except OverflowError:
        raise OverflowError(f"B({a}, {b}) or one of its log-gamma terms is beyond the float range") from None


@functools.lru_cache(maxsize=None)
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule of the given order on [0, 1], read-only."""
    gx, gw = np.polynomial.legendre.leggauss(order)
    return _freeze(0.5 * (gx + 1.0)), _freeze(0.5 * gw)


def _gauss_panels(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on a union of panels: edges (..., P + 1)
    give nodes and weights (..., P * order), one row of panels per leading index."""
    gx, gw = _gauss_rule(order)
    a = edges[..., :-1, None]
    h = np.diff(edges, axis=-1)[..., None]
    shape = edges.shape[:-1] + ((edges.shape[-1] - 1) * order,)
    return (a + h * gx).reshape(shape), (h * gw).reshape(shape)


def singular_time_convolution(a: float, b: float, t: float) -> float:
    """
    Quadrature of int_0^t (t-s)^(-a) s^(-b) ds for a, b in [0, 1).

    The closed form is t^(1-a-b) * B(1-b, 1-a); the quadrature is kept
    independent of it so the two can be checked against each other.
    Endpoint singularities are removed by power substitutions.
    """
    if not (0 <= a < 1 and 0 <= b < 1):
        raise ValueError(f"exponents must lie in [0,1), got a={a}, b={b}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    half = t / 2
    total = 0.0
    # s in [0, t/2]: substitute s = half * u^(1/(1-b))
    qb = 1.0 / (1.0 - b)
    u, w = _gauss_panels(np.linspace(0.0, 1.0, 9), 48)
    s = half * u**qb
    total += float(np.sum((t - s) ** (-a) * half**(1 - b) * qb * u ** (qb * (1 - b) - 1) * w))
    # s in [t/2, t]: substitute t - s = half * u^(1/(1-a))
    qa = 1.0 / (1.0 - a)
    s = t - half * u**qa
    total += float(np.sum(s ** (-b) * half**(1 - a) * qa * u ** (qa * (1 - a) - 1) * w))
    return total


def _power_diff_factor(v: float, delta: np.ndarray, alpha: float) -> np.ndarray:
    """((v+delta)^alpha - v^alpha)/delta, stable for small delta."""
    return v**alpha * np.expm1(alpha * np.log1p(delta / v)) / delta


def radial_singular_integral(alpha: float, beta_param: float, v: float,
                             n_panels: int = 24) -> tuple[float, float]:
    """
    I(v) = int_v^1 r^(-beta) (1-r^alpha)^(-1/alpha) (r^alpha-v^alpha)^(-1/alpha) dr,
    with the endpoint singularities removed by the substitutions
    r = v + w^q and r = 1 - w^q, q = alpha/(alpha-1).

    Returns (I, ratio) where ratio = I / (v^(-beta) (1-v)^(1-2/alpha)).
    Raises OverflowError when v^(-beta) is beyond the float range and
    ValueError when I is not finite (alpha too close to 1 for the
    substitutions).
    """
    if not 0.0 < v < 1.0:
        raise ValueError(f"v must lie in (0,1), got {v}")
    if beta_param <= 0:
        raise ValueError(f"beta_param must be positive, got {beta_param}")
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1,2), got {alpha}")
    try:
        scale = v ** (-beta_param) * (1.0 - v) ** (1.0 - 2.0 / alpha)
    except OverflowError:
        raise OverflowError(f"v^(-beta_param) at v = {v}, beta_param = {beta_param} "
                            "is beyond the float range") from None
    q = alpha / (alpha - 1.0)
    ainv = 1.0 / alpha
    mid = 0.5 * (v + 1.0)

    # left half [v, mid]: r = v + w^q; the w-powers of the jacobian and the
    # (r - v)^(-1/alpha) singularity cancel exactly
    wmax = (mid - v) ** (1.0 / q)
    w, ww = _gauss_panels(np.linspace(0.0, wmax, n_panels + 1), 10)
    delta = w**q
    r = v + delta
    psi = _power_diff_factor(v, delta, alpha)  # (r^a - v^a)/(r - v)
    fleft = q * r ** (-beta_param) * (1.0 - r**alpha) ** (-ainv) * psi ** (-ainv)
    left = float(np.sum(fleft * ww))

    # right half [mid, 1]: r = 1 - w^q
    wmax = (1.0 - mid) ** (1.0 / q)
    w, ww = _gauss_panels(np.linspace(0.0, wmax, n_panels + 1), 10)
    delta = w**q
    r = 1.0 - delta
    phi = _power_diff_factor(1.0, -delta, alpha)  # (1 - r^a)/(1 - r)
    fright = (
        q
        * r ** (-beta_param)
        * phi ** (-ainv)
        * (r**alpha - v**alpha) ** (-ainv)
    )
    right = float(np.sum(fright * ww))

    value = left + right
    if not math.isfinite(value):
        raise ValueError(f"the radial integral at alpha = {alpha!r} (beta_param = {beta_param}, v = {v}) "
                         f"is not finite: alpha is too close to 1 for its substitutions")
    return value, value / scale


def _kernel_moments(z0: np.ndarray, z1: np.ndarray, t: float, a: float, b: float):
    """Moments int s^(-b)(t-s)^(-a){1, s} ds over [t*z0, t*z1] via incomplete Beta."""
    B0 = beta(1.0 - b, 1.0 - a)
    B1 = beta(2.0 - b, 1.0 - a)
    i0 = _sp.betainc(1.0 - b, 1.0 - a, z1) - _sp.betainc(1.0 - b, 1.0 - a, z0)
    i1 = _sp.betainc(2.0 - b, 1.0 - a, z1) - _sp.betainc(2.0 - b, 1.0 - a, z0)
    m0 = t ** (1.0 - a - b) * B0 * i0
    m1 = t ** (2.0 - a - b) * B1 * i1
    return m0, m1


def product_weights(nodes: np.ndarray, t: float, a: float, b: float) -> np.ndarray:
    """
    Product-trapezoid weights w_i with
    sum_i w_i H(s_i) ~ int_0^t (t-s)^(-a) s^(-b) H(s) ds
    for piecewise-linear H (constant extension on the two end panels).
    Exact on constants: sum w_i = t^(1-a-b) B(1-b, 1-a).
    """
    s = np.asarray(nodes, dtype=float)
    if s.ndim != 1 or len(s) == 0 or np.any(np.diff(s) <= 0):
        raise ValueError("nodes must be strictly increasing and nonempty")
    if not (s[0] > 0 and s[-1] <= t):
        raise ValueError("nodes must satisfy 0 < s_1 < ... < s_m <= t")
    m = len(s)
    w = np.zeros(m)
    # end panel [0, s_1] -> constant extension to node 0
    m0, _ = _kernel_moments(np.array(0.0), np.array(s[0] / t), t, a, b)
    w[0] += float(m0)
    # end panel [s_m, t] -> constant extension to node m-1
    if s[-1] < t:
        m0, _ = _kernel_moments(np.array(s[-1] / t), np.array(1.0), t, a, b)
        w[-1] += float(m0)
    if m == 1:
        return w
    z0 = s[:-1] / t
    z1 = s[1:] / t
    m0, m1 = _kernel_moments(z0, z1, t, a, b)
    h = np.diff(s)
    w[:-1] += (s[1:] * m0 - m1) / h
    w[1:] += (m1 - s[:-1] * m0) / h
    return w


@dataclass(frozen=True)
class TimeGrid:
    """
    Graded quadrature nodes on (0, t_end] for integrands with the weight
    (t-s)^(-a) s^(-b), a, b in [0, 1): quadratic grading toward both
    endpoints.  ``product_weights(nodes, t_end, a, b)`` gives their product
    rule, exact on constants.
    """

    t_end: float
    a: float
    b: float
    m: int = 64
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (0 <= self.a < 1 and 0 <= self.b < 1):
            raise ValueError(f"weight exponents must lie in [0,1), got a={self.a}, b={self.b}")
        if self.t_end <= 0 or self.m < 2:
            raise ValueError("need t_end > 0 and at least two nodes")
        u = (np.arange(self.m) + 1.0) / (self.m + 1.0)
        g = u**2.0 / (u**2.0 + (1.0 - u) ** 2.0)  # symmetric grading toward both ends
        object.__setattr__(self, "nodes", _freeze(self.t_end * g))


def apply_T_gamma(
    time_grid: TimeGrid,
    fields: Sequence[RealField],
    gamma: float,
    alpha: float,
    semigroup: Callable[[RealField, float], RealField],
) -> list[tuple[float, RealField]]:
    """
    Discretized weighted smoothing operator

        (T f)(t, x) = t^gamma * int_0^t s^(-gamma-(alpha-1)/alpha) (t-s)^(-1/alpha)
                      P_(t-s) |f(s, .)| ds,

    at the last time-grid node t_m, as the one-element list [(t_m, T f(t_m))].
    ``fields`` holds f at every node of ``time_grid``.  Outputs are nonnegative.
    """
    if not 0.0 < gamma < 1.0 / alpha:
        raise ValueError(f"gamma must lie in (0, 1/alpha), got {gamma}")
    a = 1.0 / alpha
    b = gamma + (alpha - 1.0) / alpha
    if abs(time_grid.a - a) > 1e-12 or abs(time_grid.b - b) > 1e-12:
        raise ValueError("time_grid weight exponents do not match (1/alpha, gamma+(alpha-1)/alpha)")
    nodes = time_grid.nodes
    if len(fields) != len(nodes):
        raise ValueError("one field per time-grid node is required")
    grid = fields[0].grid
    t_m = float(nodes[-1])
    w = product_weights(nodes, t_m, a, b)
    acc = np.zeros(grid.shape)
    for w_i, s_i, f in zip(w, nodes.tolist(), fields):
        acc += w_i * semigroup(RealField(grid, np.abs(f.values)), t_m - s_i).values
    acc *= t_m**gamma
    return [(t_m, RealField(grid, np.maximum(acc, 0.0)))]


def tgamma_inner_ratio(gamma: float, alpha: float, u: float) -> float:
    """
    Scaled inner integral of the smoothing-operator bootstrap at t = 1:

        D(u) = u^gamma (1-u)^(1/alpha) *
               int_u^1 s^(-gamma-(alpha-1)/alpha) ((1-s)(s-u))^(-1/alpha) ds.

    The substitution s = r^alpha reduces the integral to the singular radial
    integral with exponent beta = gamma*alpha and v = u^(1/alpha).
    The supremum of D over u in (0,1) bounds the contraction constant of the
    discretized operator; its reciprocal is the admissible drift size.
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie in (0,1), got {u}")
    v = u ** (1.0 / alpha)
    value, _ = radial_singular_integral(alpha, gamma * alpha, v)
    return alpha * value * u**gamma * (1.0 - u) ** (1.0 / alpha)
