import numpy as np
import pytest

from sqglab.grid import GridSpec, MultiIndex, RealField, apply_semigroup
from sqglab.initial_data import gaussian_bump
from sqglab.solver import SolverConfig, run_simulation
from sqglab.verify import (
    T_TO_0,
    T_TO_INF,
    X_TO_INF,
    above_critical_local_check,
    decay_slope_fit,
    expected_decay_exponent,
    gradient_bound_diag,
    limit_scan,
    ratio_diagnostics,
    semigroup_reference,
)


@pytest.fixture(scope="module")
def linear_run():
    g = GridSpec(128, 20.0)
    th0 = gaussian_bump(g, 1.0, 1.0, aspect=2.0)
    cfg = SolverConfig(
        alpha=1.5, dt=0.1, t_end=2.0, grid=g, nonlinear=False,
        snapshot_times=tuple(np.geomspace(0.05, 2.0, 6)),
    )
    return run_simulation(cfg, th0)


@pytest.fixture(scope="module")
def compact_run():
    # narrow bump: point-like relative to the kernel width across the sweep
    g = GridSpec(128, 20.0)
    th0 = gaussian_bump(g, 0.5, 0.5, aspect=2.0)
    cfg = SolverConfig(
        alpha=1.5, dt=0.1, t_end=5.0, grid=g,
        snapshot_times=tuple(np.geomspace(0.5, 5.0, 8)),
    )
    return run_simulation(cfg, th0)


@pytest.fixture(scope="module")
def nonlinear_run():
    g = GridSpec(128, 20.0)
    th0 = gaussian_bump(g, 0.5, 1.0, aspect=2.0)
    cfg = SolverConfig(
        alpha=1.5, dt=0.1, t_end=5.0, grid=g,
        snapshot_times=tuple(np.geomspace(0.02, 5.0, 8)),
    )
    return run_simulation(cfg, th0)


class TestRatioDiagnostics:
    def test_linear_run_ratio_is_one(self, linear_run):
        for t, th, pt in semigroup_reference(linear_run):
            d = ratio_diagnostics(th, pt, window_radius=5.0, time=t)
            assert d.sup_ratio == pytest.approx(1.0, abs=1e-11)
            assert d.inf_ratio == pytest.approx(1.0, abs=1e-11)
            assert d.sup_abs_dev < 1e-11

    def test_finite_on_nonlinear_run(self, nonlinear_run):
        for t, th, pt in semigroup_reference(nonlinear_run):
            d = ratio_diagnostics(th, pt, window_radius=5.0, time=t)
            assert np.isfinite(d.sup_ratio) and d.inf_ratio > 0
            assert d.sup_ratio / d.inf_ratio < 2.0

    def test_floor_masks_small_denominators(self, linear_run):
        t, th, pt = semigroup_reference(linear_run)[0]
        tight = ratio_diagnostics(th, pt, window_radius=5.0, floor_frac=1e-1)
        loose = ratio_diagnostics(th, pt, window_radius=5.0, floor_frac=1e-6)
        assert tight.n_points < loose.n_points

    def test_empty_window_rejected(self, linear_run):
        # a denominator with no positive values in the window leaves nothing
        # above the relative floor
        t, th, pt = semigroup_reference(linear_run)[0]
        bad = RealField(th.grid, -np.ones(th.grid.shape))
        with pytest.raises(ValueError, match="empty"):
            ratio_diagnostics(th, bad, window_radius=5.0)

    def test_grid_mismatch_rejected(self, linear_run):
        t, th, pt = semigroup_reference(linear_run)[0]
        other = GridSpec(64, 20.0)
        with pytest.raises(ValueError):
            ratio_diagnostics(th, RealField(other, np.ones(other.shape)), 5.0)


class TestLimitScan:
    def test_linear_run_deviation_zero(self, linear_run):
        scan = limit_scan(linear_run, T_TO_0, window_radius=5.0, threshold=1e-9)
        assert scan.extreme_value < 1e-11
        assert scan.passed

    def test_t_to_zero_trend(self, nonlinear_run):
        scan = limit_scan(nonlinear_run, T_TO_0, window_radius=5.0, t_max=1.0)
        assert scan.extreme_is_minimum
        assert scan.extreme_value < 0.05

    def test_t_to_inf_trend(self, nonlinear_run):
        scan = limit_scan(nonlinear_run, T_TO_INF, window_radius=5.0, t_min=0.5)
        assert scan.extreme_is_minimum

    def test_annulus_scan_decreasing_outward(self, compact_run):
        # fixed early time, annuli starting beyond the bump core: the
        # deviation profile peaks near the data scale and decays outward
        t_star = compact_run.snapshots[1][0]
        scan = limit_scan(compact_run, X_TO_INF, window_radius=5.0,
                          t_min=t_star, t_max=t_star,
                          annuli=np.linspace(1.5, 5.0, 6))
        assert scan.extreme_is_minimum
        assert scan.values[-1] < scan.values[0]

    def test_default_annulus_scan_skips_core(self):
        # criterion-7 bump at alpha = 1.8: the innermost annulus holds
        # theta ~ P_t theta0 ~ theta0 and is not part of the |x| -> inf limit
        g = GridSpec(128, 40.0)
        th0 = gaussian_bump(g, amplitude=0.25, width=1.0, aspect=2.0)
        cfg = SolverConfig(alpha=1.8, dt=0.2, t_end=1.0, grid=g, snapshot_times=(0.1, 0.3, 1.0))
        scan = limit_scan(run_simulation(cfg, th0), X_TO_INF, window_radius=10.0)
        assert scan.extreme_is_minimum
        assert scan.coordinates[0] >= 3.0

    def test_semigroup_applied_only_in_scan_range(self, nonlinear_run, monkeypatch):
        import sqglab.verify as V

        applied = []
        orbit = V.semigroup_orbit

        def recorded(f, times, alpha):
            for t, pt in zip(times, orbit(f, times, alpha)):
                applied.append(t)
                yield pt

        monkeypatch.setattr(V, "semigroup_orbit", recorded)
        t_star = nonlinear_run.snapshots[3][0]
        limit_scan(nonlinear_run, X_TO_INF, window_radius=5.0, t_min=t_star, t_max=t_star)
        limit_scan(nonlinear_run, T_TO_0, window_radius=5.0, t_max=t_star)
        assert applied == [t_star] + [t for t, _ in nonlinear_run.snapshots[1:4]]

    def test_unknown_mode(self, linear_run):
        with pytest.raises(ValueError):
            limit_scan(linear_run, "SIDEWAYS", 5.0)

    @pytest.mark.parametrize("floor_frac", [1e-3, 1e-6])
    @pytest.mark.parametrize("annuli", [None, np.linspace(0.0, 5.0, 11), [0.5, 1.0, 1.0, 2.5, 5.0]])
    def test_annulus_binning_matches_ring_loop(self, compact_run, annuli, floor_frac):
        default = np.linspace(0.3 * 5.0, 5.0, 6)
        mids, sups = ring_loop_scan(compact_run, 5.0, default if annuli is None else annuli, floor_frac)
        scan = limit_scan(compact_run, X_TO_INF, window_radius=5.0, floor_frac=floor_frac, annuli=annuli)
        assert np.array_equal(scan.coordinates, mids)
        assert np.array_equal(scan.values, sups)

    def test_descending_annuli_rejected(self, compact_run):
        with pytest.raises(ValueError, match="ascend"):
            limit_scan(compact_run, X_TO_INF, window_radius=5.0, annuli=[5.0, 3.0, 1.0])


def ring_loop_scan(result, window_radius, annuli, floor_frac):
    """The spatial scan as one mask per annulus and snapshot: the reference
    for limit_scan's binning of window points by radius."""
    annuli = np.asarray(annuli, dtype=float)
    X, Y = result.config.grid.centered_coordinates()
    R = np.hypot(X, Y)
    sups = np.full(len(annuli) - 1, -np.inf)
    for _, th, pt in semigroup_reference(result):
        ok = pt.values >= floor_frac * pt.values[R <= window_radius].max()
        for i in range(len(annuli) - 1):
            ring = ok & (R >= annuli[i]) & (R < annuli[i + 1])
            if np.any(ring):
                sups[i] = max(sups[i], np.max(np.abs(th.values[ring] / pt.values[ring] - 1.0)))
    keep = np.isfinite(sups)
    return 0.5 * (annuli[:-1] + annuli[1:])[keep], sups[keep]


class TestGradientBound:
    def test_linear_run_reduces_to_kernel_property(self, linear_run):
        # on a linear run the diagnostic applied to theta(t) IS the diagnostic
        # applied to P_t theta0: they agree identically
        theta0 = linear_run.snapshots[0][1]
        abs0 = RealField(theta0.grid, np.abs(theta0.values))
        kappa = MultiIndex(1, 0)
        for t, th, pt in semigroup_reference(linear_run)[:3]:
            q_run = gradient_bound_diag(th, pt, kappa, t, 1.5, 5.0)
            q_kernel = gradient_bound_diag(
                apply_semigroup(abs0, t, 1.5), pt, kappa, t, 1.5, 5.0
            )
            assert q_run == pytest.approx(q_kernel, rel=1e-12)

    def test_amplitude_invariance_linear(self, linear_run):
        theta0 = linear_run.snapshots[0][1]
        t = 1.0
        pt = apply_semigroup(theta0, t, 1.5)
        th2 = RealField(theta0.grid, 3.0 * theta0.values)
        pt2 = apply_semigroup(th2, t, 1.5)
        q1 = gradient_bound_diag(apply_semigroup(theta0, t, 1.5), pt, MultiIndex(1, 0), t, 1.5, 5.0)
        q2 = gradient_bound_diag(apply_semigroup(th2, t, 1.5), pt2, MultiIndex(1, 0), t, 1.5, 5.0)
        assert q1 == pytest.approx(q2, rel=1e-12)

    def test_bounded_over_time_nonlinear(self, compact_run):
        # the uniform bound shows once the kernel width exceeds the bump core
        theta0 = compact_run.snapshots[0][1]
        abs0 = RealField(theta0.grid, np.abs(theta0.values))
        for kappa in (MultiIndex(1, 0), MultiIndex(2, 0)):
            qs = []
            for t, th in compact_run.snapshots:
                if t < 0.5:
                    continue
                pt = apply_semigroup(abs0, t, 1.5)
                qs.append(gradient_bound_diag(th, pt, kappa, t, 1.5, 5.0))
            med = np.median(qs)
            assert max(qs) / med < 2.0 and med / min(qs) < 2.0

    def test_order_cap(self, linear_run):
        t, th, pt = semigroup_reference(linear_run)[0]
        with pytest.raises(ValueError):
            gradient_bound_diag(th, pt, MultiIndex(2, 1), t, 1.5, 5.0)

    @pytest.mark.parametrize("other", [GridSpec(16, 20.0), GridSpec(32, 10.0)])
    def test_grid_mismatch_rejected(self, other):
        # a coarser reference once ended in an IndexError, another box length in a silent 1.0
        g = GridSpec(32, 20.0)
        th = gaussian_bump(g, 0.5, 1.0)
        with pytest.raises(ValueError, match="different grids"):
            gradient_bound_diag(th, RealField(other, np.ones(other.shape)), MultiIndex(1, 0), 1.0, 1.5, 5.0)


class TestSlopeFit:
    def test_exact_power_law(self):
        ts = np.geomspace(0.1, 100.0, 12)
        vals = 3.7 * ts**-0.44
        fit = decay_slope_fit(ts, vals, expected=-0.44, quantity="synthetic")
        assert fit.slope == pytest.approx(-0.44, abs=1e-12)
        assert fit.stderr < 1e-12
        assert fit.passed

    def test_verdict_respects_tolerance(self):
        ts = np.geomspace(0.1, 100.0, 12)
        fit = decay_slope_fit(ts, ts**-0.5, expected=-0.44, tolerance=0.05)
        assert not fit.passed

    def test_needs_enough_points(self):
        ts = np.geomspace(0.1, 100.0, 5)
        with pytest.raises(ValueError, match="points"):
            decay_slope_fit(ts, ts**-0.5, expected=-0.5)

    def test_needs_enough_decades(self):
        ts = np.geomspace(1.0, 5.0, 12)
        with pytest.raises(ValueError, match="decades"):
            decay_slope_fit(ts, ts**-0.5, expected=-0.5)

    def test_noise_reflected_in_stderr(self):
        rng = np.random.default_rng(0)
        ts = np.geomspace(0.1, 100.0, 24)
        vals = ts**-0.5 * np.exp(0.01 * rng.standard_normal(len(ts)))
        fit = decay_slope_fit(ts, vals, expected=-0.5)
        assert abs(fit.slope + 0.5) < 3 * fit.stderr + 1e-3


class TestExpectedExponents:
    def test_sup_norm_exponent(self):
        assert expected_decay_exponent("theta_lp", 1.5) == pytest.approx(-1 / 3)

    def test_critical_norm_exponent_is_zero(self):
        a = 1.7
        p = 2 / (a - 1)
        assert expected_decay_exponent("theta_lp", a, p) == pytest.approx(0.0, abs=1e-15)

    def test_riesz_sup_exponent(self):
        assert expected_decay_exponent("riesz_lp", 1.8) == pytest.approx(-4 / 9)

    def test_kernel_exponent(self):
        assert expected_decay_exponent("kernel_lp", 1.5, 2.0, 1) == pytest.approx(-2 / 1.5 * 0.5 - 1 / 1.5)

    def test_riesz_semigroup_exponent(self):
        assert expected_decay_exponent("riesz_semigroup_sup", 1.5, kappa_order=1) == pytest.approx(
            -(1 + 0.5) / 1.5
        )


class TestAboveCritical:
    def test_linear_run_ratios_one(self, linear_run):
        diags = above_critical_local_check(linear_run, p_exp=6.0, T=2.0, window_radius=5.0)
        for d in diags:
            assert d.sup_ratio == pytest.approx(1.0, abs=1e-11)

    def test_nonlinear_run_finite(self, nonlinear_run):
        diags = above_critical_local_check(nonlinear_run, p_exp=6.0, T=5.0, window_radius=5.0)
        assert all(np.isfinite(d.sup_ratio) and d.inf_ratio > 0 for d in diags)

    def test_subcritical_power_rejected(self, nonlinear_run):
        with pytest.raises(ValueError, match="critical"):
            above_critical_local_check(nonlinear_run, p_exp=3.0, T=5.0, window_radius=5.0)

    def test_deviation_bounded_under_dt_refinement(self):
        g = GridSpec(64, 20.0)
        th0 = gaussian_bump(g, 0.5, 1.0, aspect=2.0)
        sups = []
        for dt in (0.1, 0.05):
            cfg = SolverConfig(alpha=1.5, dt=dt, t_end=1.0, grid=g, snapshot_times=(0.5, 1.0))
            res = run_simulation(cfg, th0)
            diags = above_critical_local_check(res, p_exp=6.0, T=1.0, window_radius=5.0)
            sups.append(max(d.sup_abs_dev for d in diags))
        assert all(np.isfinite(s) for s in sups)
        assert abs(sups[0] - sups[1]) < 0.2 * max(sups) + 1e-6


def test_diagnostics_deterministic(nonlinear_run):
    t, th, pt = semigroup_reference(nonlinear_run)[2]
    a = ratio_diagnostics(th, pt, 5.0, time=t)
    b = ratio_diagnostics(th, pt, 5.0, time=t)
    assert a == b


class TestRieszScaledLimits:
    def test_scaled_riesz_smallest_at_scan_ends(self, nonlinear_run):
        # t^((alpha-1)/alpha) ||R_perp theta(t)||_inf: minimal at both scan
        # ends, peaked in the interior
        from sqglab.grid import apply_riesz_perp

        vals = []
        for t, th in nonlinear_run.snapshots:
            if t <= 0:
                continue
            u1, u2 = apply_riesz_perp(th)
            vals.append(t ** (0.5 / 1.5) * max(np.abs(u1.values).max(), np.abs(u2.values).max()))
        vals = np.array(vals)
        k = int(vals.argmax())
        assert 0 < k < len(vals) - 1
        assert vals[0] < 0.7 * vals.max() and vals[-1] < 0.7 * vals.max()

    def test_scaled_riesz_decays_across_outer_annuli(self, nonlinear_run):
        from sqglab.grid import apply_riesz_perp

        g = nonlinear_run.config.grid
        X, Y = g.centered_coordinates()
        R = np.hypot(X, Y)
        edges = np.linspace(1.5, 5.0, 5)
        sups = np.zeros(len(edges) - 1)
        for t, th in nonlinear_run.snapshots:
            if t <= 0:
                continue
            u1, u2 = apply_riesz_perp(th)
            mag = t ** (0.5 / 1.5) * np.maximum(np.abs(u1.values), np.abs(u2.values))
            for i in range(len(edges) - 1):
                ring = (R >= edges[i]) & (R < edges[i + 1])
                sups[i] = max(sups[i], mag[ring].max())
        assert np.all(np.diff(sups) < 0)


class TestRieszSemigroupGradientBound:
    def test_scaled_gradient_riesz_bounded_along_ladder(self):
        # t^((1+alpha-1)/alpha) ||grad R_perp P_t theta0||_inf stays within a
        # narrow band along the critical ladder (the statement is an upper
        # bound; the realized envelope carries a per-stair wiggle, so the
        # slope is only pinned to a loose corridor around the exact rate)
        from sqglab.grid import GridSpec, MultiIndex, apply_derivative, apply_riesz_perp, apply_semigroup
        from sqglab.initial_data import ladder_tie_phase, multiscale_ladder
        from sqglab.verify import expected_decay_exponent

        alpha = 1.5
        g = GridSpec(512, 40.0)
        theta0, lams = multiscale_ladder(g, alpha, amplitude=0.05, n_scales=8, lam_max=4.0)
        u_star = ladder_tie_phase(alpha, float(np.sqrt(2.0)), "riesz_grad", kappa_order=1)
        ts = np.sort(u_star * lams**alpha)
        expected = expected_decay_exponent("riesz_semigroup_sup", alpha, kappa_order=1)
        vals, scaled = [], []
        for t in ts:
            f = apply_semigroup(theta0, float(t), alpha)
            u1, u2 = apply_riesz_perp(f)
            d1 = apply_derivative(u1, MultiIndex(1, 0))
            d2 = apply_derivative(u2, MultiIndex(0, 1))
            v = max(np.abs(d1.values).max(), np.abs(d2.values).max())
            vals.append(v)
            scaled.append(t**-expected * v)
        assert max(scaled) / min(scaled) < 1.75
        fit = decay_slope_fit(ts, vals, expected, tolerance=0.12, min_decades=1.2)
        assert fit.passed, (fit.slope, expected)
