import tracemalloc

import numpy as np
import pytest

from sqglab.grid import (
    GridSpec,
    MultiIndex,
    RealField,
    _Spectra,
    _freeze,
    apply_derivative,
    apply_riesz,
    apply_riesz_perp,
    apply_semigroup,
    lp_norm,
)
from sqglab.initial_data import gaussian_bump, multiscale_ladder
import sqglab.solver as solver
from sqglab.solver import (
    BlowUpError,
    PicardDivergenceError,
    SolverConfig,
    critical_exponent,
    nonlinear_term,
    picard_iterate,
    run_simulation,
)
from sqglab.special import TimeGrid


@pytest.fixture
def grid128():
    return GridSpec(128, 20.0)


@pytest.fixture
def bump128(grid128):
    return gaussian_bump(grid128, amplitude=1.0, width=1.0, aspect=2.0)


def cfg_for(grid, alpha=1.5, dt=0.05, t_end=0.1, **kw):
    return SolverConfig(alpha=alpha, dt=dt, t_end=t_end, grid=grid, **kw)


def direct_picard(theta0, t, n_iter, tg, cfg):
    """Reference Picard iterates from the O(m^2) product rule: every
    (target node, interval) pair decayed to the target and summed directly."""
    st = solver._Stepper(cfg.grid, cfg.alpha, cfg.dealias, cfg.nonlinear)
    mu = st.symbol
    nodes = np.concatenate([[0.0], tg.nodes, [t]])
    th0 = st.sp.forward(theta0.values)
    prop = [np.exp(-s * mu) * th0 for s in nodes]
    iterates = list(prop)
    for _ in range(n_iter):
        G = [-st.nonlinear(th) for th in iterates]
        new = []
        for j, s in enumerate(nodes):
            acc = np.zeros_like(th0)
            for i in range(j):
                h = nodes[i + 1] - nodes[i]
                w = np.exp(-mu * (s - nodes[i + 1])) * h
                acc += w * solver._phi0(mu * h) * G[i] + w * solver._phi1(mu * h) * (G[i + 1] - G[i])
            new.append(prop[j] - acc)
        iterates = new
    return st.sp.inverse(iterates[-1])


def reference_flux(st, th_hat):
    """-div(R_perp(theta) theta) step by step: mask, velocity, products,
    forward transforms, mask, then -(i kx f1 + i ky f2)."""
    sp = st.sp
    if st.dealias:
        th_hat = np.where(sp.dealias_mask, th_hat, 0.0)
    u1, u2 = sp.inverse(-sp.riesz2 * th_hat), sp.inverse(sp.riesz1 * th_hat)
    th = sp.inverse(th_hat)
    f1, f2 = sp.forward(u1 * th), sp.forward(u2 * th)
    if st.dealias:
        f1 = np.where(sp.dealias_mask, f1, 0.0)
        f2 = np.where(sp.dealias_mask, f2, 0.0)
    return -(1j * sp.kx_odd * f1 + 1j * sp.ky_odd * f2)


def reference_step(st, th_hat, dt):
    """One IF-RK4 step as plain full-plane expressions over reference_flux."""
    E, Eh = np.exp(-dt * st.symbol), np.exp(-0.5 * dt * st.symbol)
    k1 = reference_flux(st, th_hat)
    k2 = reference_flux(st, Eh * (th_hat + 0.5 * dt * k1))
    k3 = reference_flux(st, Eh * th_hat + 0.5 * dt * k2)
    k4 = reference_flux(st, E * th_hat + dt * Eh * k3)
    return E * th_hat + (dt / 6.0) * (E * k1 + 2.0 * Eh * (k2 + k3) + k4)


def reference_diagnostics(st, th_hat):
    """The diagnostics' theta and norms from the full inverse and lp_norm."""
    sp, g = st.sp, st.grid
    theta = RealField(g, sp.inverse(th_hat))
    riesz = max(np.abs(sp.inverse(r * th_hat)).max() for r in (sp.riesz2, sp.riesz1))
    norms = (lp_norm(theta, 2), lp_norm(theta, st.p_crit), lp_norm(theta, np.inf), riesz, theta.values.mean())
    return theta.values, np.array(norms)


def white_noise_hat(st, seed):
    # full-band white noise puts energy in every mode the masks touch
    return st.sp.forward(np.random.default_rng(seed).standard_normal(st.grid.shape))


class TestConfigValidation:
    def test_alpha_range(self, grid128):
        for bad in (1.0, 2.0, 0.5):
            with pytest.raises(ValueError):
                cfg_for(grid128, alpha=bad)

    def test_snapshot_bounds(self, grid128):
        with pytest.raises(ValueError):
            cfg_for(grid128, snapshot_times=(5.0,))

    def test_scheme_name(self, grid128):
        with pytest.raises(ValueError):
            cfg_for(grid128, scheme="euler")

    @pytest.mark.parametrize("name, value", [
        ("dt", np.nan), ("dt", np.inf), ("t_end", np.nan), ("t_end", np.inf),
        ("snapshot_times", (0.05, np.nan)), ("snapshot_times", (np.inf,)),
    ])
    def test_non_finite_times_refused(self, grid128, name, value):
        with pytest.raises(ValueError, match=name):
            cfg_for(grid128, **{name: value})


class TestNonlinearTerm:
    def test_constant_field(self, grid128):
        out = nonlinear_term(RealField(grid128, np.full(grid128.shape, 2.5)), 1.5)
        assert np.abs(out.values).max() < 1e-14

    def test_radial_field_is_nearly_steady(self, grid128):
        # azimuthal transport of a radial field: the quadratic term vanishes
        # in the continuum; on the torus it survives only at the size of the
        # lattice anisotropy of the periodized Riesz kernel, far below the
        # response of a comparably sized anisotropic bump
        radial = nonlinear_term(gaussian_bump(grid128, 1.0, 1.0, aspect=1.0), 1.5)
        generic = nonlinear_term(gaussian_bump(grid128, 1.0, 1.0, aspect=2.0), 1.5)
        assert np.abs(radial.values).max() < 1e-3 * np.abs(generic.values).max()

    def test_zero_mean(self, grid128, bump128):
        out = nonlinear_term(bump128, 1.5)
        assert abs(out.values.mean()) < 1e-16

    def test_energy_neutral(self, grid128, bump128):
        out = nonlinear_term(bump128, 1.5)
        energy_flux = np.sum(bump128.values * out.values) * grid128.dx**2
        assert abs(energy_flux) < 1e-10

    def test_divergence_form_equals_advective(self, grid128, bump128):
        sp = _Spectra.of(grid128)
        th = RealField(grid128, sp.inverse(np.where(sp.dealias_mask, sp.forward(bump128.values), 0.0)))
        u1, u2 = apply_riesz_perp(th)
        adv = (
            u1.values * apply_derivative(th, MultiIndex(1, 0)).values
            + u2.values * apply_derivative(th, MultiIndex(0, 1)).values
        )
        div_form = -nonlinear_term(th, 1.5, dealias=False).values
        assert np.abs(div_form - adv).max() < 1e-8 * np.abs(adv).max()


    @pytest.mark.parametrize("n", [32, 48, 64, 96, 256])
    @pytest.mark.parametrize("dealias", [True, False])
    def test_fused_multipliers_match_reference(self, n, dealias):
        st = solver._Stepper(GridSpec(n, 20.0), 1.5, dealias)
        th_hat = white_noise_hat(st, n)
        assert np.array_equal(st.nonlinear(th_hat), reference_flux(st, th_hat))


class TestFluxTransforms:
    """The flux, the stages and the diagnostics run in the stepper's own buffers."""

    @pytest.mark.parametrize("dealias", [True, False])
    def test_no_caller_array_overwritten(self, dealias):
        g = GridSpec(32, 20.0)
        th0 = gaussian_bump(g, amplitude=0.5, width=1.5, aspect=2.0)
        cfg = cfg_for(g, dealias=dealias, snapshot_times=(0.05,))
        st = solver._Stepper(g, 1.5, dealias)
        th_hat = st.sp.forward(th0.values)
        shared = [th0.values, th_hat, st.mx, st.my, st.sp.riesz1, st.sp.riesz2]
        kept = [a.copy() for a in shared]
        st.nonlinear(th_hat)
        st.step(th_hat, 0.05)
        nonlinear_term(th0, 1.5, dealias)
        run_simulation(cfg, th0)
        picard_iterate(th0, 0.1, 2, TimeGrid(0.1, a=1 / 1.5, b=0.0, m=6), cfg)
        for a, b in zip(shared, kept):
            assert np.array_equal(a, b)
        # a read-only half plane is read, never written
        frozen = _freeze(st.sp.forward(th0.values))
        assert not frozen.flags.writeable
        assert np.array_equal(st.nonlinear(frozen).copy(), st.nonlinear(th_hat).copy())

    @pytest.mark.parametrize("dealias", [True, False])
    def test_results_share_no_memory_with_the_workspace(self, dealias, monkeypatch):
        made = []

        class Recorded(solver._Stepper):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(solver, "_Stepper", Recorded)
        g = GridSpec(32, 20.0)
        cfg = cfg_for(g, dealias=dealias, snapshot_times=(0.05,))
        tg = TimeGrid(0.1, a=1 / 1.5, b=0.0, m=6)

        def results(th0):
            st = solver._Stepper(g, 1.5, dealias)
            th_hat = st.sp.forward(th0.values)
            return [
                st.nonlinear(th_hat),
                st.step(th_hat, 0.05),
                st.diagnostics(th_hat, 0.0)[1].values,
                nonlinear_term(th0, 1.5, dealias).values,
                picard_iterate(th0, 0.1, 2, tg, cfg).theta.values,
                *(f.values for _, f in run_simulation(cfg, th0).snapshots[1:]),
            ]

        got = results(gaussian_bump(g, amplitude=0.5, width=1.5, aspect=2.0))
        kept = [a.copy() for a in got]
        workspace = [a for st in made for a in vars(st).values() if isinstance(a, np.ndarray)]
        assert len(made) == 4  # one per entry point
        for a in got:
            assert not any(np.shares_memory(a, w) for w in workspace)
        # later calls on other data, through the same steppers and new ones
        again = gaussian_bump(g, amplitude=0.3, width=1.0, aspect=1.5)
        made[0].nonlinear(made[0].sp.forward(again.values))
        made[0].step(made[0].sp.forward(again.values), 0.05)
        made[0].diagnostics(made[0].sp.forward(again.values), 0.0)
        results(again)
        for a, b in zip(got, kept):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [32, 48, 64, 96, 256])
    @pytest.mark.parametrize("dealias", [True, False])
    def test_step_matches_reference(self, n, dealias):
        st = solver._Stepper(GridSpec(n, 20.0), 1.5, dealias)
        th_hat = white_noise_hat(st, n)
        assert np.array_equal(st.step(th_hat, 0.01), reference_step(st, th_hat, 0.01))

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("n", [32, 48, 64, 96, 256])
    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_diagnostics_match_full_transforms(self, n, nonlinear, dealias):
        st = solver._Stepper(GridSpec(n, 20.0), 1.5, dealias, nonlinear)
        th_hat = white_noise_hat(st, n)
        rec, theta = st.diagnostics(th_hat, 0.25)
        got = np.array([rec.l2, rec.lcrit, rec.linf, rec.riesz_linf, rec.mean])
        want_theta, want = reference_diagnostics(st, th_hat)
        assert rec.time == 0.25
        assert np.array_equal(theta.values, want_theta)
        assert np.array_equal(got, want)

    def test_step_makes_no_full_transform(self, monkeypatch):
        # a full-width transform gives the same numbers, so only a count shows it
        calls = []
        for name in ("forward", "inverse", "forward_into", "inverse_into"):
            def counted(sp, a, *rest, _method=getattr(_Spectra, name), _name=name):
                if not rest or rest[0] == sp.half_cols:
                    calls.append(_name)
                return _method(sp, a, *rest)

            monkeypatch.setattr(_Spectra, name, counted)
        g = GridSpec(64, 20.0)
        st = solver._Stepper(g, 1.5, dealias=True)
        th_hat = st.sp.forward(gaussian_bump(g, amplitude=0.5, width=1.5, aspect=2.0).values)
        calls.clear()
        st.step(th_hat, 0.05)
        assert calls == []
        st.sp.inverse(th_hat)
        assert calls == ["inverse", "inverse_into"]

    def test_step_and_diagnostics_allocate_only_their_results(self):
        # a temporary the size of a stage array shows here as a higher peak
        g = GridSpec(256, 40.0)
        st = solver._Stepper(g, 1.5, dealias=True)
        th_hat = st.sp.forward(gaussian_bump(g, amplitude=0.25, width=1.0, aspect=2.0).values)
        st.diagnostics(st.step(th_hat, 0.05), 0.05)  # warm-up: the exponential cache
        peaks = []
        tracemalloc.start()
        try:
            for call in (lambda: st.step(th_hat, 0.05), lambda: st.diagnostics(th_hat, 0.05)):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                result = call()
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                del result
        finally:
            tracemalloc.stop()
        # the step: its new state plus the casting buffers of numpy's ufuncs
        assert peaks[0] <= 2 * th_hat.nbytes
        # the diagnostics: theta plus the record and field objects
        assert peaks[1] <= 8 * g.n**2 + 4096


class TestStepper:
    def test_zero_data_stays_zero(self, grid128):
        cfg = cfg_for(grid128, t_end=0.05)
        res = run_simulation(cfg, RealField(grid128, np.zeros(grid128.shape)))
        assert len(res.diagnostics) == 2  # one step
        t, theta = res.snapshots[-1]
        assert t == pytest.approx(cfg.dt)
        assert np.all(theta.values == 0.0)

    def test_linear_step_is_exact_semigroup(self, grid128, bump128):
        cfg = cfg_for(grid128, nonlinear=False, dt=0.2, t_end=0.2)
        res = run_simulation(cfg, bump128)
        assert len(res.diagnostics) == 2  # one step
        want = apply_semigroup(bump128, 0.2, 1.5)
        assert np.abs(res.snapshot_at(0.2).values - want.values).max() < 1e-12

    def test_cfl_clamps_each_step(self, grid128):
        # every step is held to cfl_safety dx / riesz_linf of the record before it
        big = gaussian_bump(grid128, amplitude=50.0, width=1.0, aspect=2.0)
        cfg = cfg_for(grid128, dt=1.0, t_end=0.05)
        recs = run_simulation(cfg, big).diagnostics
        limits = np.array([cfg.cfl_safety * grid128.dx / r.riesz_linf for r in recs[:-1]])
        dts = np.diff([r.time for r in recs])
        assert np.all(dts <= limits * (1 + 1e-9))
        # all but the step that lands on t_end are CFL-limited, not dt-limited
        assert len(dts) > 2
        assert np.allclose(dts[:-1], limits[:-1], rtol=1e-9)
        assert np.all(dts < cfg.dt)

    def test_dt_refinement_fourth_order(self, grid128, bump128):
        # Richardson: error against a fine reference shrinks ~ dt^4
        cfg = cfg_for(grid128, t_end=0.2)
        ref = run_simulation(
            cfg_for(grid128, dt=0.0125, t_end=0.2, snapshot_times=(0.2,)), bump128
        ).snapshot_at(0.2)
        errs = []
        for dt in (0.1, 0.05):
            res = run_simulation(cfg_for(grid128, dt=dt, t_end=0.2, snapshot_times=(0.2,)), bump128)
            errs.append(np.abs(res.snapshot_at(0.2).values - ref.values).max())
        order = np.log2(errs[0] / errs[1])
        assert order > 3.5


class TestRunSimulation:
    def test_mass_conserved(self, grid128, bump128):
        cfg = cfg_for(grid128, dt=0.1, t_end=2.0, snapshot_times=(2.0,))
        res = run_simulation(cfg, bump128)
        means = np.array([r.mean for r in res.diagnostics])
        assert np.abs(means - means[0]).max() < 1e-10 * abs(means[0])

    def test_maximum_principle(self, grid128):
        th0 = gaussian_bump(grid128, 0.8, 1.0, aspect=2.0)
        cfg = cfg_for(grid128, dt=0.15, t_end=4.0)
        res = run_simulation(cfg, th0)
        for col in ("linf", "l2"):
            v = np.array([getattr(r, col) for r in res.diagnostics])
            assert np.max(np.diff(v) / v[:-1]) <= 1e-6

    def test_snapshots_at_requested_times(self, grid128, bump128):
        times = (0.05, 0.21, 0.4)
        cfg = cfg_for(grid128, dt=0.07, t_end=0.4, snapshot_times=times)
        res = run_simulation(cfg, bump128)
        got = [t for t, _ in res.snapshots]
        assert got[0] == 0.0
        for t in times:
            assert any(abs(t - s) < 1e-12 for s in got)

    def test_diagnostics_track_norms(self, grid128, bump128):
        cfg = cfg_for(grid128, dt=0.05, t_end=0.05)
        res = run_simulation(cfg, bump128)
        r0 = res.diagnostics[0]
        assert r0.l2 == pytest.approx(lp_norm(bump128, 2), rel=1e-12)
        assert r0.lcrit == pytest.approx(lp_norm(bump128, critical_exponent(1.5)), rel=1e-12)
        assert r0.linf == pytest.approx(lp_norm(bump128, np.inf), rel=1e-12)
        u1, u2 = apply_riesz_perp(bump128)
        want = max(np.abs(u1.values).max(), np.abs(u2.values).max())
        assert r0.riesz_linf == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("scheme", ["ifrk4", "picard"])
    def test_one_contract_for_both_schemes(self, scheme):
        g = GridSpec(32, 20.0)
        th0 = gaussian_bump(g, amplitude=0.5, width=1.5, aspect=2.0)
        res = run_simulation(cfg_for(g, scheme=scheme, t_end=0.3, snapshot_times=(0.1, 0.2)), th0)
        assert res.snapshots[0][0] == 0.0 and res.snapshots[0][1] is th0
        records = {r.time: r for r in res.diagnostics}
        assert len(res.snapshots) == 4 and res.diagnostics[0].time == 0.0
        for t, f in res.snapshots:
            # Picard's record is of the snapshot after one FFT round trip
            assert records[t].linf == pytest.approx(np.abs(f.values).max(), rel=1e-12, abs=0)
            assert records[t].mean == pytest.approx(f.values.mean(), rel=1e-12, abs=0)

    def test_rejects_non_finite_data(self, grid128):
        bad = np.zeros(grid128.shape)
        bad[0, 0] = np.inf
        cfg = cfg_for(grid128)
        with pytest.raises(ValueError):
            run_simulation(cfg, RealField(grid128, bad))


class TestPicard:
    def test_zeroth_iterate_is_semigroup(self, grid128, bump128):
        cfg = cfg_for(grid128)
        tg = TimeGrid(0.1, a=1 / 1.5, b=0.0, m=24)
        out = picard_iterate(bump128, 0.1, 0, tg, cfg)
        want = apply_semigroup(bump128, 0.1, 1.5)
        assert np.abs(out.theta.values - want.values).max() < 1e-13

    def test_zero_data_fixed_point(self, grid128):
        cfg = cfg_for(grid128)
        tg = TimeGrid(0.1, a=1 / 1.5, b=0.0, m=16)
        z = RealField(grid128, np.zeros(grid128.shape))
        out = picard_iterate(z, 0.1, 4, tg, cfg)
        assert np.all(out.theta.values == 0.0)

    def test_cross_validates_stepper(self, grid128, bump128):
        # the two independent solution paths agree; this pins the sign of the
        # Duhamel integral term (minus, for the kernel-gradient convention)
        cfg = cfg_for(grid128, dt=0.005, t_end=0.1, snapshot_times=(0.1,))
        rk = run_simulation(cfg, bump128).snapshot_at(0.1)
        tg = TimeGrid(0.1, a=1 / 1.5, b=0.0, m=48)
        pic = picard_iterate(bump128, 0.1, 8, tg, cfg)
        rel = lp_norm(RealField(grid128, pic.theta.values - rk.values), 2) / lp_norm(rk, 2)
        assert rel < 1e-3
        assert pic.converged
        # distances decreasing over the final iterations
        d = pic.distances
        assert d[-1] <= d[-2] <= d[-3] if len(d) >= 3 else True

    def test_wrong_sign_diverges_from_stepper(self, grid128, bump128):
        # flipping the Duhamel sign must push the iterate away from the
        # stepper solution by far more than the quadrature error
        cfg = cfg_for(grid128, dt=0.005, t_end=0.1, snapshot_times=(0.1,))
        rk = run_simulation(cfg, bump128).snapshot_at(0.1)
        tg = TimeGrid(0.1, a=1 / 1.5, b=0.0, m=48)
        pic = picard_iterate(bump128, 0.1, 8, tg, cfg)
        pt = apply_semigroup(bump128, 0.1, 1.5)
        correction = pic.theta.values - pt.values
        flipped = pt.values - correction
        good = lp_norm(RealField(grid128, pic.theta.values - rk.values), 2)
        bad = lp_norm(RealField(grid128, flipped - rk.values), 2)
        assert bad > 100 * good

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_closed_grid_matches_stepper(self, grid128, bump128, alpha):
        # the node grid ends at t itself, so no interval of [0, t] is left out
        # of the Duhamel integral; the criterion-5 comparison then sits far
        # below its 1e-3 bound
        cfg = cfg_for(grid128, alpha=alpha, dt=0.005, t_end=0.1, snapshot_times=(0.1,))
        rk = run_simulation(cfg, bump128).snapshot_at(0.1)
        tg = TimeGrid(0.1, a=1 / alpha, b=0.0, m=48)
        pic = picard_iterate(bump128, 0.1, 8, tg, cfg)
        rel = lp_norm(RealField(grid128, pic.theta.values - rk.values), 2) / lp_norm(rk, 2)
        assert pic.converged
        assert rel < 1e-7

    @pytest.mark.parametrize("n_iter", [1, 2])
    def test_recurrence_matches_direct_sum(self, n_iter):
        # the second iteration reads the first one's value on every node, so
        # n_iter = 2 checks the sweep at all nodes, not only at t
        g = GridSpec(32, 20.0)
        th0 = gaussian_bump(g, amplitude=1.0, width=1.5, aspect=2.0)
        cfg = cfg_for(g)
        tg = TimeGrid(0.1, a=1 / 1.5, b=0.0, m=12)
        want = direct_picard(th0, 0.1, n_iter, tg, cfg)
        got = picard_iterate(th0, 0.1, n_iter, tg, cfg).theta.values
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_node_zero_flux_taken_once(self, monkeypatch):
        # theta^(k)(0) = theta0 for every k, so one flux serves every iteration there
        g = GridSpec(32, 20.0)
        th0 = gaussian_bump(g, amplitude=0.5, width=1.5, aspect=2.0)
        tg = TimeGrid(0.1, a=1 / 1.5, b=0.0, m=12)
        calls = []
        flux = solver._Stepper.nonlinear
        monkeypatch.setattr(solver._Stepper, "nonlinear", lambda st, th: calls.append(1) or flux(st, th))
        res = picard_iterate(th0, 0.1, 3, tg, cfg_for(g), early_exit=0.0)
        assert len(res.distances) == 3
        assert len(calls) == 1 + 3 * (len(tg.nodes) + 1)

    def test_unconverged_scheme_run_raises(self, monkeypatch):
        # two iterates cannot show three shrinking distances, so the run must
        # not write a snapshot from them
        g = GridSpec(32, 20.0)
        th0 = gaussian_bump(g, amplitude=0.5, width=1.5, aspect=2.0)
        cfg = cfg_for(g, scheme="picard", t_end=0.3, snapshot_times=(0.1,))
        tg = TimeGrid(0.1, a=1 / 1.5, b=0.0, m=48)
        assert not picard_iterate(th0, 0.1, 2, tg, cfg).converged
        real = solver.picard_iterate
        monkeypatch.setattr(solver, "picard_iterate", lambda th, t, n, tg, c: real(th, t, 2, tg, c))
        with pytest.raises(PicardDivergenceError, match=r"t=0\.1 did not converge"):
            run_simulation(cfg, th0)

    def test_horizon_mismatch_rejected(self, grid128, bump128):
        cfg = cfg_for(grid128)
        tg = TimeGrid(0.2, a=1 / 1.5, b=0.0, m=16)
        with pytest.raises(ValueError):
            picard_iterate(bump128, 0.1, 4, tg, cfg)

    def test_picard_scheme_run(self, grid128, bump128):
        cfg = cfg_for(grid128, scheme="picard", dt=0.01, t_end=0.05, snapshot_times=(0.05,))
        res = run_simulation(cfg, bump128)
        rk = run_simulation(
            cfg_for(grid128, dt=0.005, t_end=0.05, snapshot_times=(0.05,)), bump128
        )
        a = res.snapshot_at(0.05).values
        b = rk.snapshot_at(0.05).values
        assert np.abs(a - b).max() < 1e-3 * np.abs(b).max()

    def test_schemes_share_snapshot_times(self):
        g = GridSpec(32, 20.0)
        th0 = gaussian_bump(g, amplitude=0.5, width=1.5, aspect=2.0)
        times = {}
        for scheme in ("ifrk4", "picard"):
            res = run_simulation(cfg_for(g, scheme=scheme, t_end=0.3, snapshot_times=(0.1,)), th0)
            times[scheme] = [t for t, _ in res.snapshots]
            if scheme == "picard":
                assert [r.time for r in res.diagnostics] == times[scheme]
        assert np.allclose(times["picard"], [0.0, 0.1, 0.3], rtol=0, atol=1e-12)
        assert np.allclose(times["ifrk4"], times["picard"], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scheme", ["ifrk4", "picard"])
    def test_target_below_the_landing_slack_is_reached(self, scheme):
        # IF-RK4 once stopped 1e-13 short of each target, so t_end = 1e-14
        # gave a second snapshot at t = 0
        g = GridSpec(32, 20.0)
        th0 = gaussian_bump(g, amplitude=0.5, width=1.5, aspect=2.0)
        res = run_simulation(cfg_for(g, scheme=scheme, t_end=1e-14), th0)
        assert [t for t, _ in res.snapshots] == [0.0, 1e-14]
        assert [r.time for r in res.diagnostics] == [0.0, 1e-14]


class TestDecayEnvelope:
    def test_scaled_norms_no_late_growth(self):
        # t^((alpha-1)/alpha - 2/(alpha p)) ||theta(t)||_p must not grow past
        # its early-time peak along a long run (p = critical and infinity)
        alpha = 1.5
        g = GridSpec(128, 40.0)
        th0, _ = multiscale_ladder(g, alpha, amplitude=0.1, n_scales=4, lam_max=4.0)
        snaps = tuple(np.geomspace(0.1, 50.0, 10))
        cfg = SolverConfig(alpha=alpha, dt=0.3, t_end=50.0, grid=g, snapshot_times=snaps)
        res = run_simulation(cfg, th0)
        recs = [r for r in res.diagnostics if r.time >= 0.1]
        ts = np.array([r.time for r in recs])
        for col, p in (("lcrit", critical_exponent(alpha)), ("linf", np.inf)):
            expo = (alpha - 1) / alpha - (0.0 if np.isinf(p) else 2 / (alpha * p))
            scaled = ts**expo * np.array([getattr(r, col) for r in recs])
            early_peak = scaled[ts <= 1.0].max()
            assert scaled[ts > 1.0].max() <= early_peak * 1.05

    def test_riesz_gradient_sup_norms_bounded(self):
        # t^((|kappa|+alpha-1)/alpha) ||grad^kappa R_i theta||_inf stays below
        # its early peak for |kappa| <= 1
        alpha = 1.5
        g = GridSpec(128, 40.0)
        th0, _ = multiscale_ladder(g, alpha, amplitude=0.1, n_scales=4, lam_max=4.0)
        snaps = tuple(np.geomspace(0.1, 50.0, 10))
        cfg = SolverConfig(alpha=alpha, dt=0.3, t_end=50.0, grid=g, snapshot_times=snaps)
        res = run_simulation(cfg, th0)
        for kappa in (MultiIndex(0, 0), MultiIndex(1, 0), MultiIndex(0, 1)):
            vals, ts = [], []
            for t, th in res.snapshots:
                if t <= 0:
                    continue
                r1 = apply_riesz(th if kappa.order == 0 else apply_derivative(th, kappa), 1)
                ts.append(t)
                vals.append(t ** ((kappa.order + alpha - 1) / alpha) * np.abs(r1.values).max())
            vals = np.array(vals)
            assert np.isfinite(vals).all()
            # bounded along the run: the peak sits in the interior and the
            # scaled quantity has clearly turned down by the end of the sweep
            assert vals.argmax() < len(vals) - 2
            assert vals[-1] < 0.5 * vals.max()


class TestGuards:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("scheme", ["ifrk4", "picard"])
    def test_non_finite_initial_data_refused(self, bad, scheme, monkeypatch):
        g = GridSpec(16, 5.0)
        values = np.zeros(g.shape)
        values[3, 4] = bad
        calls = []
        monkeypatch.setattr(_Spectra, "forward", lambda self, v: calls.append(1))
        with pytest.raises(ValueError, match="initial data contains non-finite values"):
            run_simulation(cfg_for(g, scheme=scheme), RealField(g, values))
        assert calls == []  # refused before the first transform

    def test_blow_up_guard(self, grid128):
        # overflow in the quadratic term surfaces as a blow-up error after the
        # one step, far below the CFL limit, that reaches t_end
        huge = gaussian_bump(grid128, amplitude=1e200, width=1.0, aspect=2.0)
        cfg = cfg_for(grid128, dt=1e-300, t_end=1e-300)
        with np.errstate(all="ignore"), pytest.raises(BlowUpError, match="t=1e-300"):
            run_simulation(cfg, huge)

    def test_picard_divergence_detected(self, grid128):
        # far outside the contraction regime the iterates must not be
        # reported as a solution
        big = gaussian_bump(grid128, amplitude=30.0, width=1.0, aspect=2.0)
        cfg = cfg_for(grid128, dt=0.05, t_end=5.0)
        tg = TimeGrid(5.0, a=1 / 1.5, b=0.0, m=32)
        with pytest.raises((PicardDivergenceError, BlowUpError)):
            picard_iterate(big, 5.0, 12, tg, cfg)

    def test_riesz_critical_norm_bounded(self):
        # || R_perp theta (t) ||_crit never exceeds its early-time peak
        alpha = 1.5
        g = GridSpec(128, 40.0)
        th0, _ = multiscale_ladder(g, alpha, amplitude=0.1, n_scales=4, lam_max=4.0)
        snaps = tuple(np.geomspace(0.1, 50.0, 10))
        cfg = SolverConfig(alpha=alpha, dt=0.3, t_end=50.0, grid=g, snapshot_times=snaps)
        res = run_simulation(cfg, th0)
        p_crit = critical_exponent(alpha)
        ts, vals = [], []
        for t, th in res.snapshots:
            if t <= 0:
                continue
            u1, u2 = apply_riesz_perp(th)
            mag = RealField(g, np.hypot(u1.values, u2.values))
            ts.append(t)
            vals.append(lp_norm(mag, p_crit))
        ts, vals = np.array(ts), np.array(vals)
        assert vals[ts > 1.0].max() <= vals[ts <= 1.0].max() * 1.05
