"""
Mild solutions of the dissipative surface quasi-geostrophic equation

    theta_t + R_perp(theta) . grad(theta) + (-Laplace)^(alpha/2) theta = 0

on the periodic box, produced two independent ways: an integrating-factor
RK4 time stepper (the linear part is applied exactly in Fourier space) and a
Picard iteration on the Duhamel integral form.

Sign convention of the Duhamel term: integrating the divergence-form
equation gives

    theta(t) = P_t theta0 - int_0^t P_(t-s) div(R_perp(theta) theta)(s) ds,

i.e. a minus sign when the kernel gradient is taken in its spatial argument.
The cross-validation of the two solution paths pins this sign down.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .grid import GridSpec, RealField, _lp_norm, _Spectra
from .special import TimeGrid

__all__ = [
    "SolverConfig",
    "DiagnosticRecord",
    "DECAY_QUANTITIES",
    "SimulationResult",
    "PicardResult",
    "BlowUpError",
    "PicardDivergenceError",
    "nonlinear_term",
    "run_simulation",
    "initial_record",
    "picard_iterate",
    "critical_exponent",
]


class BlowUpError(ValueError):
    """Field left the finite range during stepping."""


class PicardDivergenceError(ValueError):
    """Successive Picard iterates stopped contracting."""


def critical_exponent(alpha: float) -> float:
    """The scale-critical integrability power 2/(alpha-1)."""
    return 2.0 / (alpha - 1.0)


# the most steps an IF-RK4 config may plan, ceil(t_end/dt), and a run may take with its
# CFL steps; the shipped runs plan at most 100
MAX_STEPS = 10**6
# an IF-RK4 step is at most CFL_SAFETY dx / max|R_perp theta| of the record before it
CFL_SAFETY = 0.5


@dataclass(frozen=True)
class SolverConfig:
    alpha: float
    dt: float
    t_end: float
    grid: GridSpec
    scheme: str = "ifrk4"
    snapshot_times: tuple[float, ...] = ()
    nonlinear: bool = True

    def __post_init__(self) -> None:
        if not 1.0 < self.alpha < 2.0:
            raise ValueError(f"solver requires alpha in (1, 2), got {self.alpha}")
        # NaN fails every comparison, so each range test below refuses it
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not 0 <= self.t_end < np.inf:
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end!r}")
        if self.scheme not in ("ifrk4", "picard"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        # ceil(t_end/dt) > MAX_STEPS exactly when t_end/dt > MAX_STEPS; an overflow to inf is refused too
        if self.scheme == "ifrk4" and self.t_end / self.dt > MAX_STEPS:
            raise ValueError(f"dt = {self.dt!r} and t_end = {self.t_end!r} plan more than "
                             f"{MAX_STEPS} IF-RK4 steps")
        snaps = tuple(sorted(float(s) for s in self.snapshot_times))
        # the slack is relative, so that no snapshot runs past a small t_end
        if not all(0 <= s <= self.t_end * (1 + 1e-12) for s in snaps):
            raise ValueError(f"snapshot_times must lie in [0, t_end], got {self.snapshot_times!r}")
        object.__setattr__(self, "snapshot_times", snaps)


@dataclass(frozen=True)
class DiagnosticRecord:
    time: float
    l2: float
    lcrit: float
    linf: float
    riesz_linf: float
    mean: float


# relative tolerance (floored at 1 in t) to which a snapshot time matches a requested time
SNAPSHOT_TIME_TOL = 1e-9

# the DiagnosticRecord norms of theta: what a decay-slope fit can take
DECAY_QUANTITIES = tuple(f.name for f in fields(DiagnosticRecord) if f.name not in ("time", "mean"))


@dataclass(frozen=True)
class SimulationResult:
    """
    One run, the same for both schemes: ``snapshots`` is (0, theta0), then
    one per positive snapshot time and t_end, ascending (construction
    refuses any other times with ValueError); ``diagnostics``
    starts with the record at t = 0 and has one at every snapshot time
    (IF-RK4 adds one per step).
    """

    config: SolverConfig
    snapshots: tuple[tuple[float, RealField], ...]
    diagnostics: tuple[DiagnosticRecord, ...]

    def __post_init__(self) -> None:
        # t = 0 and each target, within SNAPSHOT_TIME_TOL; inf pads the shorter
        # list (so the tolerance scales with the finite time of a pair)
        wanted = [0.0] + _snapshot_targets(self.config)
        for t, want in itertools.zip_longest([t for t, _ in self.snapshots], wanted, fillvalue=math.inf):
            if not abs(t - want) <= SNAPSHOT_TIME_TOL * max(1.0, min(t, want)):
                wrong = f"no snapshot at t = {want:.6g}" if t > want else f"an extra snapshot at t = {t:.6g}"
                raise ValueError(f"{wrong}; the config asks for t = 0, its snapshot_times and t_end")

    def snapshot_at(self, t: float) -> RealField:
        for ts, f in self.snapshots:
            if abs(ts - t) <= SNAPSHOT_TIME_TOL * max(1.0, abs(t)):
                return f
        raise KeyError(f"no snapshot at t={t}")


@dataclass(frozen=True)
class PicardResult:
    theta: RealField
    distances: tuple[float, ...]
    converged: bool


class _Stepper:
    """
    IF-RK4 workspace for one (grid, alpha) pair on the grid's shared rfft2
    table.  The flux divergence uses two precomputed multipliers,
    mx = i kx and my = -i ky on the 2/3-rule band and 0 off it: with
    u = R_perp theta = (-R2 theta, R1 theta),
    -div(u theta) = mx F(R2 theta * theta) + my F(R1 theta * theta), so the
    output mask and both signs come with the products.  Every array of the
    flux lives in the band's ``cols`` leading ky columns, so the flux and
    the stage arithmetic of ``step`` run on (n, cols) blocks.

    The stepper owns its buffers and allocates them once: ``half`` (a
    full-width half plane, the kx-pass input of every inverse and the output
    of every forward) and ``u`` (an (n, n) field) serve the flux and the
    diagnostics; with ``nonlinear`` on, ``theta`` ((n, n)) and the blocks
    ``stage``, ``k1``, ``k2`` and ``k3`` serve the flux and the stages.  No
    method hands one out: the state from ``step``, the flux from
    ``nonlinear`` and the theta from ``diagnostics`` are fresh arrays.
    """

    def __init__(self, grid: GridSpec, alpha: float, nonlinear: bool = True):
        self.grid = grid
        self.p_crit = critical_exponent(alpha)
        self.sp = sp = _Spectra.of(grid)
        self.cols = c = sp.band_cols
        self.nonlinear_enabled = nonlinear
        self.symbol = sp.kmod**alpha
        self.mx = np.where(sp.dealias_mask, 1j * sp.kx_odd, 0.0)[:, :c].copy()
        self.my = np.where(sp.dealias_mask, -1j * sp.ky_odd, 0.0)[:, :c].copy()
        self.off_band = ~sp.dealias_mask[:, :c]
        self.half = np.empty(self.symbol.shape, dtype=complex)
        self.u = np.empty(grid.shape)
        if nonlinear:
            self.theta = np.empty(grid.shape)
            self.stage, self.k1, self.k2, self.k3 = np.empty((4, grid.n, c), dtype=complex)
        self._exp_cache: tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    def diagnostics(self, th_hat: np.ndarray, t: float) -> tuple[DiagnosticRecord, RealField]:
        """
        The record of ``th_hat`` at time t, whose riesz_linf sets the CFL
        limit, and theta; a record with a non-finite norm raises BlowUpError.
        """
        sp, half, u, dx = self.sp, self.half, self.u, self.grid.dx
        theta = np.empty(self.grid.shape)
        np.copyto(half, th_hat)
        sp.inverse_into(half, sp.half_cols, theta)
        riesz = []
        for r in (sp.riesz2, sp.riesz1):
            np.multiply(r, th_hat, out=half)
            riesz.append(_lp_norm(sp.inverse_into(half, sp.half_cols, u), np.inf, dx, u))
        rec = DiagnosticRecord(
            time=t,
            l2=_lp_norm(theta, 2, dx, u),
            lcrit=_lp_norm(theta, self.p_crit, dx, u),
            linf=_lp_norm(theta, np.inf, dx, u),
            riesz_linf=max(riesz),
            mean=float(theta.mean()),
        )
        bad = [name for name, v in vars(rec).items() if not math.isfinite(v)]
        if bad:
            raise BlowUpError(f"non-finite {', '.join(bad)} at t={t:.6g}")
        return rec, RealField(self.grid, theta)

    def nonlinear(self, th_hat: np.ndarray) -> np.ndarray:
        """-div(R_perp(theta) theta), dealiased flux, zero mean, as a fresh array."""
        k = np.zeros_like(self.half)
        if self.nonlinear_enabled:
            np.copyto(self.stage, th_hat[:, : self.cols])
            self._flux(self.stage, k[:, : self.cols])
        return k

    def _flux(self, stage: np.ndarray, k: np.ndarray) -> None:
        """The flux of the block ``stage`` into the block ``k``; masks ``stage`` in place."""
        sp, c, half = self.sp, self.cols, self.half
        np.copyto(stage, 0.0, where=self.off_band)
        half[:, c:] = 0.0
        half[:, :c] = stage
        theta = sp.inverse_into(half, c, self.theta)
        np.multiply(self.mx, self._riesz_product(sp.riesz2, stage, theta), out=k)
        f = self._riesz_product(sp.riesz1, stage, theta)
        k += np.multiply(self.my, f, out=f)

    def _riesz_product(self, riesz: np.ndarray, stage: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """F(R theta * theta) on the block, in ``half``, for the Riesz symbol ``riesz``."""
        sp, c, half, u = self.sp, self.cols, self.half, self.u
        half[:, c:] = 0.0
        np.multiply(riesz[:, :c], stage, out=half[:, :c])
        sp.inverse_into(half, c, u)
        u *= theta
        return sp.forward_into(u, c, half)[:, :c]

    def _exps(self, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """E = exp(-dt symbol), Eh = exp(-dt symbol / 2), and dt Eh and 2 Eh on the block."""
        if self._exp_cache is None or self._exp_cache[0] != dt:
            E = np.exp(-dt * self.symbol)
            Eh = np.exp(-0.5 * dt * self.symbol)
            c = self.cols
            self._exp_cache = (dt, E, Eh, dt * Eh[:, :c], 2.0 * Eh[:, :c])
        return self._exp_cache[1:]

    def step(self, th_hat: np.ndarray, dt: float) -> np.ndarray:
        """
        One integrating-factor RK4 step; exact on the linear part.  With the
        flux zero beyond the block, the new state there is E th_hat.
        """
        E, Eh, dt_Eh, two_Eh = self._exps(dt)
        new = E * th_hat
        if not self.nonlinear_enabled:
            return new
        c = self.cols
        s, k1, k2, k3 = self.stage, self.k1, self.k2, self.k3
        th, E, Eh = th_hat[:, :c], E[:, :c], Eh[:, :c]
        # k1 = N(th)
        np.copyto(s, th)
        self._flux(s, k1)
        # k2 = N(Eh (th + dt/2 k1))
        np.multiply(0.5 * dt, k1, out=s)
        np.add(th, s, out=s)
        np.multiply(Eh, s, out=s)
        self._flux(s, k2)
        # k3 = N(Eh th + dt/2 k2)
        np.multiply(Eh, th, out=s)
        s += np.multiply(0.5 * dt, k2, out=k3)
        self._flux(s, k3)
        # k4 = N(E th + dt Eh k3), into k3's block once k2 + k3 is formed
        k2 += k3
        np.multiply(E, th, out=s)
        s += np.multiply(dt_Eh, k3, out=k3)
        self._flux(s, k3)
        # E th + dt/6 (E k1 + 2 Eh (k2 + k3) + k4)
        np.multiply(E, k1, out=k1)
        k1 += np.multiply(two_Eh, k2, out=k2)
        k1 += k3
        np.multiply(dt / 6.0, k1, out=k1)
        new[:, :c] += k1
        return new

    def cfl_dt(self, rec: DiagnosticRecord) -> float:
        if rec.riesz_linf <= 0:
            return np.inf
        return CFL_SAFETY * self.grid.dx / rec.riesz_linf


def nonlinear_term(theta: RealField, alpha: float) -> RealField:
    """
    N(theta) = -div(R_perp(theta) * theta) on the grid.  The divergence form
    is exact here because R_perp(theta) is divergence-free, and it conserves
    the grid mean identically.
    """
    st = _Stepper(theta.grid, alpha)
    return RealField(theta.grid, st.sp.inverse(st.nonlinear(st.sp.forward(theta.values))))


# an overflow surfaces as a non-finite record, which BlowUpError reports; numpy's
# warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def run_simulation(config: SolverConfig, theta0: RealField) -> SimulationResult:
    """
    Integrate to t_end, landing exactly on every snapshot time: IF-RK4 in
    adaptive steps (capped by config.dt and the CFL limit), one record each;
    Picard in one Duhamel iteration per snapshot time.
    """
    st, th_hat, (rec, theta) = _start(config, theta0, config.nonlinear)
    t = 0.0
    snaps: list[tuple[float, RealField]] = [(t, theta0)]
    records = [rec]
    for target in _snapshot_targets(config):
        if config.scheme == "picard":
            res = picard_iterate(theta0, target, 8, TimeGrid(target, a=1.0 / config.alpha, b=0.0, m=48), config)
            if not res.converged:
                dists = ", ".join(f"{d:.3e}" for d in res.distances)
                raise PicardDivergenceError(f"Picard snapshot at t={target:.6g} did not converge: distances {dists}")
            t, theta = target, res.theta
            records.append(st.diagnostics(st.sp.forward(theta.values), t)[0])
        # IF-RK4 (a Picard snapshot has landed); the slack shrinks with a target
        # below 1, so that one below 1e-13 is stepped to as well
        while t < target - 1e-13 * min(1.0, target):
            dt = min(config.dt, target - t)
            if config.nonlinear:
                dt = min(dt, st.cfl_dt(rec))
            # the steps taken (one record each after t = 0) plus (target - t)/dt, without dividing by dt
            if target - t > (MAX_STEPS - (len(records) - 1)) * dt:
                raise ValueError(f"at t = {t:.6g} the CFL step dt = {dt:.3g} leaves more than "
                                 f"{MAX_STEPS} IF-RK4 steps to t = {target:.6g}")
            theta = None  # the last record's theta is not needed during the step
            th_hat = st.step(th_hat, dt)
            t += dt
            rec, theta = st.diagnostics(th_hat, t)
            records.append(rec)
        snaps.append((t, theta))
    return SimulationResult(config, tuple(snaps), tuple(records))


def _start(config: SolverConfig, theta0: RealField, nonlinear: bool):
    """The stepper, the transform of theta0 and its t = 0 diagnostics; a datum
    off the grid, or with a non-finite value or norm, raises ValueError."""
    if theta0.grid != config.grid:
        raise ValueError("initial data grid does not match configuration")
    if not np.all(np.isfinite(theta0.values)):
        raise ValueError("initial data contains non-finite values")
    st = _Stepper(config.grid, config.alpha, nonlinear)
    th_hat = st.sp.forward(theta0.values)
    return st, th_hat, st.diagnostics(th_hat, 0.0)


@np.errstate(over="ignore", invalid="ignore")
def initial_record(config: SolverConfig, theta0: RealField) -> DiagnosticRecord:
    """The t = 0 record of theta0, which ``run_simulation`` starts from: a
    datum it refuses raises the same ValueError here."""
    _, _, (rec, _) = _start(config, theta0, False)
    return rec


def _snapshot_targets(config: SolverConfig) -> list[float]:
    """Positive snapshot times plus t_end, ascending; the t = 0 snapshot is implicit."""
    if config.t_end <= 0:
        return []
    return sorted(set([s for s in config.snapshot_times if s > 0] + [config.t_end]))


def _phi0(x: np.ndarray) -> np.ndarray:
    """(1 - exp(-x))/x, stable near 0."""
    out = np.ones_like(x)
    nz = x > 1e-30
    out[nz] = -np.expm1(-x[nz]) / x[nz]
    return out


def _phi1(x: np.ndarray) -> np.ndarray:
    """(x - 1 + exp(-x))/x^2 -> 1/2, stable near 0."""
    out = np.full_like(x, 0.5)
    small = (x > 1e-30) & (x < 1e-3)
    big = x >= 1e-3
    out[small] = 0.5 - x[small] / 6.0 + x[small] ** 2 / 24.0
    out[big] = (x[big] + np.expm1(-x[big])) / x[big] ** 2
    return out


def picard_iterate(
    theta0: RealField,
    t: float,
    n_iter: int,
    time_grid: TimeGrid,
    config: SolverConfig,
    early_exit: float = 1e-10,
) -> PicardResult:
    """
    Picard iteration on the Duhamel form,

        theta^(k+1)(s) = P_s theta0 - int_0^s P_(s-u) div(R_perp theta^(k) theta^(k))(u) du,

    on the nodes s_0 = 0, ``time_grid.nodes`` and t, with a product rule that
    integrates exp(-(s-u)|xi|^alpha) exactly against a piecewise-linear
    interpolant G of the flux divergence of theta^(k).  As exp(-mu(s_j - u))
    factors into per-interval steps (mu = |xi|^alpha, h_j = s_(j+1) - s_j),
    the rule at every node is one forward sweep, the exponential-integrator
    recurrence

        theta^(k+1)(s_(j+1)) = e^(-mu h_j) theta^(k+1)(s_j)
                               - h_j phi0(mu h_j) G_j - h_j phi1(mu h_j) (G_(j+1) - G_j),

    so an iteration costs O(m) full-grid operations.  The returned field is
    theta^(n_iter)(t), the last node.  Successive sup-norm distances at t
    must shrink; persistent growth raises PicardDivergenceError.
    """
    if abs(time_grid.t_end - t) > 1e-12 * max(1.0, t):
        raise ValueError("time_grid horizon does not match the requested t")
    st = _Stepper(config.grid, config.alpha, config.nonlinear)
    nodes = np.concatenate([[0.0], np.asarray(time_grid.nodes), [t]])
    mu = st.symbol
    th0_hat = st.sp.forward(theta0.values)
    hs = np.diff(nodes)  # step factors and product-rule weights, fixed across iterations
    step = [np.exp(-mu * h) for h in hs]
    w0 = [h * _phi0(mu * h) for h in hs]
    w1 = [h * _phi1(mu * h) for h in hs]

    iterates = [np.exp(-s * mu) * th0_hat for s in nodes]  # theta^(0)(s) = P_s theta0
    # N = -G = -div(u theta) in spectral space; theta^(k)(0) = theta0 for every k
    n_first = st.nonlinear(iterates[0])
    distances: list[float] = []
    converged = False
    for _ in range(n_iter):
        old_final = iterates[-1]
        n_next = n_first
        for j in range(len(nodes) - 1):
            # N_(j+1) comes from theta^(k) before node j+1 is overwritten
            n_cur, n_next = n_next, st.nonlinear(iterates[j + 1])
            iterates[j + 1] = step[j] * iterates[j] + w0[j] * n_cur + w1[j] * (n_next - n_cur)
        dist = float(np.max(np.abs(st.sp.inverse(iterates[-1] - old_final))))
        distances.append(dist)
        if dist < early_exit:
            converged = True
            break
        if len(distances) >= 3 and distances[-1] > distances[-2] > distances[-3]:
            raise PicardDivergenceError(
                f"Picard iterate distances grew: {distances[-3]:.3e} -> {distances[-1]:.3e}"
            )
    if len(distances) >= 3 and distances[-1] <= distances[-2] <= distances[-3]:
        converged = True
    values = st.sp.inverse(iterates[-1])
    if not np.all(np.isfinite(values)):
        raise BlowUpError("Picard iterate became non-finite")
    return PicardResult(RealField(config.grid, values), tuple(distances), converged)
