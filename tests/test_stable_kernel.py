import math
import struct

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

from sqglab import kernel
from sqglab.grid import GridSpec, MultiIndex, RealField, apply_semigroup
from sqglab.kernel import (
    KernelProfile,
    QuadratureConvergenceError,
    build_derivative_profile,
    build_profile,
    check_two_sided_estimate,
    convolve_whole_space,
    gaussian_semigroup_radial,
    kernel_derivative_eval,
    kernel_eval,
    kernel_lp_norm,
    levy_density,
    load_profile,
    lower_bound_check,
    riesz_kernel_bound_check,
    save_profile,
)
from sqglab.special import _gauss_panels
from sqglab.verify import decay_slope_fit, expected_decay_exponent


def patch_samples(fn, halfwidth, n):
    xs = np.linspace(-halfwidth, halfwidth, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    coords = np.stack([X, Y], axis=-1)
    cell = (xs[1] - xs[0]) ** 2
    return coords, fn(X, Y), cell


class TestProfileBuild:
    def test_gaussian_endpoint(self):
        prof = build_profile(2.0)
        rs = np.linspace(0.0, 8.0, 20)
        exact = np.exp(-(rs**2) / 4) / (4 * np.pi)
        assert np.max(np.abs(prof(rs) - exact) / exact) < 1e-6
        assert prof(0.0) == pytest.approx(1 / (4 * np.pi), rel=1e-8)

    def test_cauchy_endpoint(self):
        prof = build_profile(1.0, r_max=40.0)
        rs = np.linspace(0.0, 20.0, 20)
        exact = (1 + rs**2) ** (-1.5) / (2 * np.pi)
        assert np.max(np.abs(prof(rs) - exact) / exact) < 1e-6
        assert prof(1.0) == pytest.approx(1 / (2 * np.pi * 2**1.5), rel=1e-6)
        # beyond r_max = 40 the series' mass is the Cauchy tail 1/sqrt(1 + 40^2)
        assert abs(prof.total_mass() - 1.0) < 1e-8

    def test_origin_value_closed_form(self, profile15):
        # p(1,0) = Gamma(2/alpha)/(2 pi alpha) from the radial moment integral
        assert profile15(0.0) == pytest.approx(sp.gamma(2 / 1.5) / (2 * np.pi * 1.5), rel=1e-10)

    @pytest.mark.parametrize("alpha", [1.2, 1.8])
    def test_mass(self, alpha):
        prof = build_profile(alpha)
        assert abs(prof.total_mass() - 1.0) < 1e-8

    def test_mass_alpha15(self, profile15):
        assert abs(profile15.total_mass() - 1.0) < 1e-8

    def test_positive_decreasing(self, profile15):
        assert np.all(profile15.values > 0)
        assert np.all(np.diff(profile15.values) < 0)

    def test_two_sided_bounded_on_table(self, profile15):
        scaled = profile15.values * (1 + profile15.radii) ** (2 + 1.5)
        assert 0 < scaled.min() and scaled.max() < 2.0

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(QuadratureConvergenceError):
            build_profile(1.5, tol=1e-16)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            build_profile(0.8)
        with pytest.raises(ValueError):
            build_profile(1.5, r_max=-1.0)

    @pytest.mark.parametrize("alpha, r_max", [
        (1.8, 5.0), (1.5, 19.9), (1.5, 100.0), (1.2, 2800.0), (2.0, 0.0), (2.0, 8.5), (2.0, 12.5), (1.5, math.nan),
    ])
    def test_r_max_outside_the_series_range_rejected(self, alpha, r_max):
        # below r = 20 the series is not accurate, beyond the edge quadrature is not
        with pytest.raises(ValueError, match="r_max"):
            build_profile(alpha, r_max=r_max)

    def test_table_edge(self):
        assert [kernel._table_edge(a) for a in (1.0, 1.2, 1.5, 1.8, 2.0)] == [50.0] * 4 + [8.0]
        for a in (1.2, 2.0):
            prof = build_profile(a, n_nodes=200)
            assert prof.r_max == prof.radii[-1] == kernel._table_edge(a)


    def test_spellings_share_one_table(self, profile15):
        assert build_profile(1.5, tol=1e-6) is profile15
        assert build_profile(alpha=1.5) is profile15
        assert build_profile(1.5, r_max=50.0) is profile15
        assert build_profile(np.float64(1.5), 50, 1e-6) is profile15

    @pytest.mark.parametrize("kwargs, named", [
        ({"alpha": 2.5}, "alpha"), ({"alpha": math.nan}, "alpha"), ({"alpha": 1.5, "r_max": 60.0}, "r_max"),
        ({"alpha": 1.5, "tol": 0.0}, "tol"), ({"alpha": 1.5, "tol": math.nan}, "tol"),
    ])
    def test_bad_arguments_raise_on_every_call(self, kwargs, named):
        for _ in range(2):
            with pytest.raises(ValueError, match=named):
                build_profile(**kwargs)


def reference_nodes(S, r, q, order):
    """The node builder radius by radius: 16 panels in w = s^(1/q) up to the
    first scaled Bessel zero (or S), then one panel per scaled zero below S."""
    if r * S < np.pi:
        s_split, tail = S, None
    else:
        z = kernel._j0_zeros(int(np.ceil(S * r / np.pi)) + 2) / r
        tail = np.concatenate([z[z < S], [S]])
        s_split = tail[0]
    wn, ww = _gauss_panels(np.linspace(0.0, s_split ** (1.0 / q), 17), order)
    nodes, weights = wn**q, ww * q * wn ** (q - 1)
    if tail is not None:
        tn, tw = _gauss_panels(tail, order)
        nodes, weights = np.concatenate([nodes, tn]), np.concatenate([weights, tw])
    return nodes, weights


def reference_value(alpha, r, order=12):
    s, w = reference_nodes(kernel._s_cutoff(alpha, 3), r, kernel._cusp_power(alpha), order)
    return np.sum(np.exp(-(s**alpha)) * w * sp.j0(s * r) * s) / (2 * np.pi)


class TestArrayTabulation:
    """The radii go through the node builder in blocks of array passes; each
    must get the panels and, to roundoff, the sum of a radius taken alone."""

    @staticmethod
    def straddling(alpha):
        # r S = pi is where the Bessel-zero panels start
        r0, edge = np.pi / kernel._s_cutoff(alpha, 3), kernel._table_edge(alpha)
        return np.array([0.0, r0 * (1 - 1e-12), r0, r0 * (1 + 1e-12), 3.0, edge / 3, edge])

    @pytest.mark.parametrize("alpha", [1.2, 2.0])
    def test_rows_are_the_per_radius_panels(self, alpha):
        S, q = kernel._s_cutoff(alpha, 3), kernel._cusp_power(alpha)
        radii = self.straddling(alpha)
        nodes, weights = kernel._hankel_nodes(S, radii, q, 12)
        for r, s, w in zip(radii, nodes, weights):
            ref_s, ref_w = reference_nodes(S, r, q, 12)
            n = len(ref_s)
            assert np.array_equal(s[:n], ref_s) and np.array_equal(w[:n], ref_w)
            assert np.all(w[n:] == 0.0) and np.all(s[n:] == S)

    @pytest.mark.parametrize("alpha, bound", [(1.2, 1e-11), (1.5, 1e-11), (1.8, 1e-11), (1.0, 1e-11), (2.0, 2e-10)])
    def test_table_matches_per_radius_sums(self, alpha, bound):
        # alpha = 2 loses more to the cancelling lobe sums near its edge r = 8
        radii = build_profile(alpha).radii
        S = kernel._s_cutoff(alpha, 3)
        assert np.sum((18 + np.ceil(S * radii / np.pi)) * 12) > kernel._BLOCK_NODES  # more than one block
        ref = np.array([reference_value(alpha, r) for r in radii])
        assert np.max(np.abs(build_profile(alpha).values / ref - 1.0)) <= bound
        extra = np.concatenate([self.straddling(alpha), radii[::97]])[::-1]  # unsorted, mixed sizes
        ref = np.array([reference_value(alpha, r) for r in extra])
        assert np.max(np.abs(kernel._radial_value(alpha, extra) / ref - 1.0)) <= bound

    def test_one_radius_is_the_plain_sum(self):
        for r in self.straddling(1.5):
            assert kernel._radial_value(1.5, r, order=18) == reference_value(1.5, r, order=18)


class TestFarField:
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_series_matches_quadrature(self, alpha):
        rs = np.geomspace(20.0, 50.0, 13)
        quad = np.array([kernel._radial_value(alpha, r, order=18) for r in rs])
        series = kernel._far_field(alpha, rs)[0]
        assert np.max(np.abs(series - quad) / quad) <= 1e-10

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_termwise_derivatives_match_quadrature(self, alpha):
        # the bounds are those of the order-18 derivative quadrature itself,
        # which differs from order 12 by as much out here
        rs = np.geomspace(20.0, 80.0, 9)
        quad = np.array([kernel._radial_derivatives(alpha, r, order=18) for r in rs])
        _, slope_over_r, b = kernel._far_field(alpha, rs)
        assert np.max(np.abs(slope_over_r * rs / quad[:, 0] - 1.0)) <= 1e-8
        assert np.max(np.abs((slope_over_r + b * rs**2) / quad[:, 1] - 1.0)) <= 1e-6

    def test_alpha_one_series_is_cauchy(self):
        # twelve terms are the binomial expansion of (1 + r^2)^(-3/2) through
        # r^(-13); the first omitted term is 2.93 r^(-12) relative
        rs = np.geomspace(2.0, 1000.0, 200)
        exact = (1 + rs**2) ** (-1.5) / (2 * np.pi)
        rel = np.abs(kernel._far_field(1.0, rs)[0] - exact) / exact
        assert np.all(rel <= 4.0 * rs**-12.0 + 1e-14)

    @pytest.mark.parametrize("alpha", [1.0, 1.2, 1.5, 1.8, 2.0])
    def test_mass_tail_closed_form(self, alpha):
        r0 = 8.0 if alpha == 2.0 else 50.0
        direct, _ = integrate.quad(
            lambda r: 2 * np.pi * r * kernel._far_field(alpha, r)[0], r0, np.inf,
            epsabs=0.0, epsrel=1e-13, limit=200,
        )
        assert kernel._far_mass(alpha, r0) == pytest.approx(direct, rel=1e-12)

    @pytest.fixture(scope="class")
    def wide15(self, profile15):
        # the layout files written with the former default r_max = 2800 hold:
        # order-12 quadrature every 0.015 in log1p(r) beyond r = 50
        extra = np.expm1(np.arange(np.log1p(50.0) + 0.015, np.log1p(2800.0), 0.015))
        radii = np.concatenate([profile15.radii, extra, [2800.0]])
        values = np.array([kernel._radial_value(1.5, r) for r in radii[len(profile15.radii):]])
        return KernelProfile(1.5, 2800.0, radii, np.concatenate([profile15.values, values]))

    def test_table_to_2800_loads(self, profile15, wide15, tmp_path):
        # profile files tabulated to r = 2800 by quadrature keep loading and
        # agree with the default table where both tabulate
        path = tmp_path / "wide.sqgk"
        save_profile(wide15, path)
        wide = load_profile(path)
        assert wide.r_max == 2800.0
        rs = np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 400)])
        assert np.max(np.abs(wide(rs) - profile15(rs)) / profile15(rs)) <= 1e-8
        assert abs(wide.total_mass() - 1.0) < 1e-8

    def test_wide_table_serves_the_series_past_the_edge(self, wide15):
        rs = np.geomspace(50.0 * (1 + 1e-12), 2790.0, 200)
        assert np.array_equal(wide15(rs), kernel._far_field(1.5, rs)[0])
        assert wide15(50.0) == pytest.approx(kernel._radial_value(1.5, 50.0), rel=1e-12)


class TestKernelEval:
    def test_scaling_at_origin(self, profile15):
        t = 3.7
        assert kernel_eval(profile15, t, [0.0, 0.0]) == pytest.approx(
            t ** (-2 / 1.5) * profile15(0.0), rel=1e-12
        )

    def test_symmetry(self, profile15):
        x = np.array([0.7, -1.3])
        assert kernel_eval(profile15, 2.0, x) == kernel_eval(profile15, 2.0, -x)

    def test_time_domain(self, profile15, dprofile15_10):
        # ``at`` is the one check of t > 0, and every reader of p(t, .) meets it
        one = np.zeros((1, 2))
        for t in (0.0, -1.0, np.nan):
            for call in (
                lambda: profile15.at(t, 1.0),
                lambda: kernel_eval(profile15, t, [1.0, 0.0]),
                lambda: kernel_derivative_eval(dprofile15_10, t, [1.0, 0.0]),
                lambda: convolve_whole_space(profile15, one, np.ones(1), 1.0, t, one),
                *(lambda kappa=kappa, p=p: kernel_lp_norm(profile15, None, kappa, t, p)
                  for kappa in (MultiIndex(0, 0), MultiIndex(1, 0)) for p in (2.0, np.inf)),
            ):
                with pytest.raises(ValueError, match="kernel time must be positive"):
                    call()

    def test_at_is_the_exact_scaling(self, profile15):
        rs = np.concatenate([[0.0], np.geomspace(1e-3, 400.0, 200)])
        for t in (0.02, 1.0, 3.7, 60.0):
            rows = profile15.at(t, rs)
            assert rows.shape == (3, rs.size)
            # the p row bit for bit as t^(-2/alpha) p(1, t^(-1/alpha) r)
            assert np.array_equal(rows[0], t ** (-2 / 1.5) * profile15(rs * t ** (-1 / 1.5)))
            # (t, r) -> (lam t, lam^(1/alpha) r) scales row k by lam^(-(2 + 2k)/alpha)
            lam = 7.0
            scaled = profile15.at(lam * t, rs * lam ** (1 / 1.5))
            for k in range(3):
                assert np.allclose(scaled[k], lam ** (-(2 + 2 * k) / 1.5) * rows[k], rtol=1e-12, atol=0.0)

    def test_semigroup_by_convolution(self, profile15):
        # p(2t, x) = int p(t, x-z) p(t, z) dz, direct 2D quadrature
        t = 0.5
        coords, vals, cell = patch_samples(
            lambda X, Y: profile15.at(t, np.hypot(X, Y))[0], 40.0, 801
        )
        targets = np.array([[0.0, 0.0], [0.5, 0.3], [1.5, -1.0], [3.0, 2.0]])
        conv = convolve_whole_space(profile15, coords, vals, cell, t, targets)
        direct = kernel_eval(profile15, 2 * t, targets)
        assert np.max(np.abs(conv - direct) / direct) < 1e-4


class TestTwoSidedEstimate:
    def test_ratio_at_origin(self, profile15):
        lo, hi = check_two_sided_estimate(profile15, [1.0], np.array([[0.0, 0.0]]))
        assert lo == pytest.approx(profile15(0.0))

    def test_sweep_bounded(self, profile15):
        ts = np.geomspace(1e-2, 1e2, 9)
        xs = np.stack([np.linspace(0, 50, 40), np.zeros(40)], axis=-1)
        lo, hi = check_two_sided_estimate(profile15, ts, xs)
        assert 0 < lo <= hi < np.inf
        assert hi / lo < 12.0

    def test_scale_invariance(self, profile15):
        # (t, x) -> (lam t, lam^(1/alpha) x) leaves the ratio unchanged
        lam = 7.0
        x = np.array([[2.0, 1.0]])
        lo1, _ = check_two_sided_estimate(profile15, [1.0], x)
        lo2, _ = check_two_sided_estimate(profile15, [lam], x * lam ** (1 / 1.5))
        assert lo1 == pytest.approx(lo2, rel=1e-9)

    def test_empty_sweep_rejected(self, profile15):
        with pytest.raises(ValueError):
            check_two_sided_estimate(profile15, [], np.array([[0.0, 0.0]]))


class TestDerivatives:
    def test_gradient_vanishes_at_origin(self, dprofile15_10):
        assert kernel_derivative_eval(dprofile15_10, 1.0, [0.0, 0.0]) == 0.0

    def test_fd_consistency_first(self, profile15, dprofile15_10):
        t = 1.3
        h = 0.02
        for x in ([0.5, 0.2], [2.0, -1.0], [5.0, 3.0], [0.9, 0.0]):
            x = np.array(x)
            e = np.array([h, 0.0])
            fd = (
                kernel_eval(profile15, t, x - 2 * e)
                - 8 * kernel_eval(profile15, t, x - e)
                + 8 * kernel_eval(profile15, t, x + e)
                - kernel_eval(profile15, t, x + 2 * e)
            ) / (12 * h)
            an = kernel_derivative_eval(dprofile15_10, t, x)
            assert abs(fd - an) / abs(fd) < 1e-4

    def test_fd_consistency_second(self, profile15, dprofile15_20):
        t = 1.3
        h = 0.07
        for x in ([0.5, 0.2], [2.0, -1.0], [4.0, 1.0]):
            x = np.array(x)
            e = np.array([h, 0.0])
            fd = (
                -kernel_eval(profile15, t, x - 2 * e)
                + 16 * kernel_eval(profile15, t, x - e)
                - 30 * kernel_eval(profile15, t, x)
                + 16 * kernel_eval(profile15, t, x + e)
                - kernel_eval(profile15, t, x + 2 * e)
            ) / (12 * h * h)
            an = kernel_derivative_eval(dprofile15_20, t, x)
            assert abs(fd - an) / abs(fd) < 1e-4

    def test_domination_by_kernel(self, profile15, dprofile15_10, dprofile15_20):
        # |grad^kappa p(1,x)| <= c p(1,x) on the patch, finite c
        coords, _, _ = patch_samples(lambda X, Y: X, 20.0, 41)
        p = profile15.at(1.0, np.hypot(coords[..., 0], coords[..., 1]))[0]
        for dp in (dprofile15_10, dprofile15_20):
            ratio = np.abs(kernel_derivative_eval(dp, 1.0, coords)) / p
            assert np.isfinite(ratio).all()
            assert ratio.max() < 50.0

    def test_scaling_exponent_recovered(self, dprofile15_10):
        # two-point log-log fit of grad p(t, x0) in t gives -(2+|kappa|)/alpha
        x0 = np.array([0.8, 0.3])
        t1, t2 = 1.0, 2.0
        v1 = abs(kernel_derivative_eval(dprofile15_10, t1, x0 * t1 ** (1 / 1.5)))
        v2 = abs(kernel_derivative_eval(dprofile15_10, t2, x0 * t2 ** (1 / 1.5)))
        slope = (math.log(v2) - math.log(v1)) / (math.log(t2) - math.log(t1))
        assert slope == pytest.approx(-(2 + 1) / 1.5, abs=1e-9)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            build_derivative_profile(1.5, MultiIndex(0, 0))

    def test_table_stops_at_the_edge(self, dprofile15_10):
        assert dprofile15_10.profile.r_max == dprofile15_10.profile.radii[-1] == 50.0
        rs = np.geomspace(50.0 * (1 + 1e-12), 500.0, 50)
        assert np.array_equal(dprofile15_10.profile.radial(rs), np.array(kernel._far_field(1.5, rs)))

    def test_gaussian_endpoint(self):
        dp = build_derivative_profile(2.0, MultiIndex(1, 0))
        assert dp.profile.r_max == 8.0
        rs = np.linspace(0.0, 8.0, 41)
        g = np.exp(-(rs**2) / 4) / (4 * np.pi)
        _, a, b = dp.profile.radial(rs)
        assert np.max(np.abs(a / (-g / 2) - 1.0)) <= 1e-6
        curv = (rs**2 / 4 - 0.5) * g  # g''
        assert np.max(np.abs(a + b * rs**2 - curv) / np.maximum(np.abs(curv), g / 2)) <= 1e-6


class TestSplineDerivatives:
    """g'/r, (g'' - g'/r)/r^2 and g from the one spline of log g in r^2."""

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0])
    def test_against_order_18_quadrature(self, alpha):
        prof = build_profile(alpha)
        rs = np.concatenate([[0.0, 1e-12, 1e-9, 1e-6], np.geomspace(1e-3, kernel._table_edge(alpha), 60)])
        quad = np.array([kernel._radial_derivatives(alpha, r, order=18) for r in rs])
        curv = quad[:, 1]  # g''
        slope = np.where(rs > 0, quad[:, 0] / np.where(rs > 0, rs, 1.0), curv)  # g'/r -> g''(0)
        _, a, b = prof.radial(rs)
        assert np.max(np.abs(a / slope - 1.0)) <= 1e-7
        assert np.max(np.abs(a + b * rs**2 - curv) / np.maximum(np.abs(curv), np.abs(slope))) <= 1e-5
        mid = 0.5 * (prof.radii[:-1] + prof.radii[1:])[::9]
        quad_g = np.array([kernel._radial_value(alpha, r, order=18) for r in mid])
        assert np.max(np.abs(prof(mid) / quad_g - 1.0)) <= 1e-8

    @pytest.mark.parametrize("alpha, r_max", [(1.2, None), (1.5, None), (1.8, None), (2.0, None), (1.0, 40.0)])
    def test_spline_is_scipys_quintic(self, alpha, r_max):
        # the oracle: scipy's not-a-knot quintic interpolant of the same table
        from scipy.interpolate import PPoly, make_interp_spline

        prof = build_profile(alpha, r_max=r_max)
        v = prof.radii**2
        oracle = PPoly.from_spline(make_interp_spline(v, np.log(prof.values), k=5))
        at = np.concatenate([v, np.random.default_rng(7).uniform(0.0, v[-1], 10**4)])
        for nu, got in enumerate(prof._log_g(at)):
            want = oracle(at, nu)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_loaded_table_serves_the_same_derivatives(self, profile15, tmp_path):
        path = tmp_path / "k.sqgk"
        save_profile(profile15, path)
        loaded = load_profile(path)
        xs = np.stack(np.meshgrid(np.linspace(-60.0, 60.0, 31), np.linspace(-3.0, 3.0, 17)), axis=-1)
        for kappa in (MultiIndex(1, 1), MultiIndex(1, 0), MultiIndex(0, 1), MultiIndex(2, 0), MultiIndex(0, 2)):
            dp = kernel.KernelDerivativeProfile(loaded, kappa)
            want = kernel_derivative_eval(build_derivative_profile(1.5, kappa), 1.0, xs)
            assert np.array_equal(kernel_derivative_eval(dp, 1.0, xs), want)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0])
    def test_hessian_at_origin(self, alpha):
        # g''(0) = -(4 pi)^(-1) int_0^inf exp(-s^alpha) s^3 ds = -Gamma(4/alpha)/(4 pi alpha)
        exact = -sp.gamma(4 / alpha) / (4 * np.pi * alpha)
        for kappa in (MultiIndex(2, 0), MultiIndex(0, 2)):
            got = kernel_derivative_eval(build_derivative_profile(alpha, kappa), 1.0, [0.0, 0.0])
            assert got == pytest.approx(exact, rel=1e-9)
        assert kernel_derivative_eval(build_derivative_profile(alpha, MultiIndex(1, 1)), 1.0, [0.0, 0.0]) == 0.0

    def test_profile_is_built_once_and_frozen(self, profile15):
        assert build_profile(1.5) is profile15
        assert build_derivative_profile(1.5, MultiIndex(0, 1)).profile is profile15
        for arr in (profile15.radii, profile15.values):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestLpNorms:
    @pytest.mark.parametrize(
        "kappa,p",
        [(MultiIndex(0, 0), 2.0), (MultiIndex(0, 0), np.inf), (MultiIndex(1, 0), 2.0), (MultiIndex(1, 0), np.inf)],
    )
    def test_slopes(self, profile15, dprofile15_10, kappa, p):
        ts = np.geomspace(0.05, 5.0, 9)
        ns = [kernel_lp_norm(profile15, dprofile15_10, kappa, float(t), p) for t in ts]
        fit = decay_slope_fit(
            ts, ns, expected_decay_exponent("kernel_lp", 1.5, p, kappa.order), tolerance=0.02
        )
        assert fit.passed, f"slope {fit.slope} vs {fit.expected}"

    @pytest.mark.parametrize("p", [0.5, -1.0, np.nan, 0.0])
    def test_p_below_one_refused(self, profile15, p):
        # below 1 the tail integral diverges or the norm is no norm, as in grid.lp_norm
        for kappa in (MultiIndex(0, 0), MultiIndex(1, 0)):
            with pytest.raises(ValueError, match="p must be >= 1"):
                kernel_lp_norm(profile15, None, kappa, 1.0, p)


class TestRieszKernelBound:
    def test_finite_and_resolution_stable(self, profile15):
        sups = []
        for n in (192, 384):
            g = GridSpec(n, 80.0)
            sups.append(
                riesz_kernel_bound_check(profile15, MultiIndex(0, 0), [1.0], 15.0, g)
            )
        assert all(np.isfinite(s) and s > 0 for s in sups)
        assert abs(sups[0] - sups[1]) < 0.2 * max(sups)

    def test_first_derivative_variant(self, profile15):
        g = GridSpec(256, 80.0)
        s = riesz_kernel_bound_check(profile15, MultiIndex(1, 0), [1.0, 4.0], 15.0, g)
        assert np.isfinite(s) and s > 0

    def test_antisymmetry(self, profile15):
        from sqglab.grid import apply_riesz

        g = GridSpec(128, 60.0)
        X, Y = g.centered_coordinates()
        f = RealField(g, profile15.at(1.0, np.hypot(X, Y).ravel())[0].reshape(g.shape))
        r1 = apply_riesz(f, 1).values
        flipped = np.roll(r1[::-1, :], 1, axis=0)  # x1 -> -x1 on the periodic grid
        assert np.abs(r1 + flipped).max() < 1e-10 * np.abs(r1).max()

    def test_window_guard(self, profile15):
        g = GridSpec(128, 40.0)
        with pytest.raises(ValueError, match="window"):
            riesz_kernel_bound_check(profile15, MultiIndex(0, 0), [1.0], 15.0, g)


class TestWholeSpaceConvolution:
    def test_point_mass_limit(self, profile15):
        # narrow bump: P_t theta0 ~ mass * p(t, .) once t >> width^alpha
        w = 0.05
        coords, vals, cell = patch_samples(
            lambda X, Y: np.exp(-(X**2 + Y**2) / (2 * w**2)), 0.6, 121
        )
        mass = vals.sum() * cell
        t = 1.0
        targets = np.array([[0.0, 0.0], [1.0, 0.5], [3.0, -2.0]])
        conv = convolve_whole_space(profile15, coords, vals, cell, t, targets)
        approx = mass * kernel_eval(profile15, t, targets)
        assert np.max(np.abs(conv - approx) / approx) < 0.01

    def test_linearity(self, profile15):
        coords, f, cell = patch_samples(lambda X, Y: np.exp(-(X**2 + Y**2)), 4.0, 81)
        _, g, _ = patch_samples(lambda X, Y: np.exp(-((X - 1) ** 2 + Y**2) / 2), 4.0, 81)
        targets = np.array([[0.3, 0.4]])
        a, b = 2.0, -0.7
        lhs = convolve_whole_space(profile15, coords, a * f + b * g, cell, 0.8, targets)
        rhs = a * convolve_whole_space(profile15, coords, f, cell, 0.8, targets) + b * convolve_whole_space(
            profile15, coords, g, cell, 0.8, targets
        )
        assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(rhs).max()

    def test_matches_torus_semigroup(self, profile15):
        # periodization: < 1% inside |x| <= L/6 and subdominant (< 6%) out to
        # |x| = L/4, while t^(1/alpha) <= L/8.  The heavy tail makes the image
        # contribution at the window edge ~ (1/3)^(2+alpha) of the direct
        # value, so the tighter figure applies to the deeper sub-window.
        g = GridSpec(256, 40.0)
        L = g.box_length
        X, Y = g.centered_coordinates()
        sig = 1.0
        theta0 = np.exp(-(X**2 + Y**2) / (2 * sig**2))
        t = 5.0  # t^(1/alpha) = 2.9 <= 5 = L/8
        torus = apply_semigroup(RealField(g, theta0), t, 1.5)
        R = np.hypot(X, Y)
        coords = np.stack([X, Y], axis=-1)
        for radius, bound in ((L / 6, 0.01), (L / 4, 0.06)):
            mask = R <= radius
            pts = np.stack([X[mask], Y[mask]], axis=-1)[::97]
            whole = convolve_whole_space(profile15, coords, theta0, g.dx**2, t, pts)
            got = torus.values[mask][::97]
            assert np.max(np.abs(got - whole) / whole) < bound


class TestLowerBound:
    def _patch(self, amp=1.0):
        return patch_samples(lambda X, Y: amp * np.exp(-(X**2 + Y**2) / 2), 5.0, 101)

    def test_positive(self, profile15):
        coords, vals, cell = self._patch()
        xs = np.stack([np.linspace(0, 20, 15), np.zeros(15)], axis=-1)
        c = lower_bound_check(profile15, coords, vals, cell, 0.5, 2.0, xs)
        assert c > 0

    def test_amplitude_scaling(self, profile15):
        coords, vals, cell = self._patch()
        xs = np.array([[0.0, 0.0], [5.0, 0.0]])
        c1 = lower_bound_check(profile15, coords, vals, cell, 0.5, 2.0, xs)
        c3 = lower_bound_check(profile15, coords, 3.0 * vals, cell, 0.5, 2.0, xs)
        assert c3 == pytest.approx(3 * c1, rel=1e-12)

    def test_shrinking_interval_monotone(self, profile15):
        coords, vals, cell = self._patch()
        xs = np.array([[0.0, 0.0], [8.0, 3.0]])
        wide = lower_bound_check(profile15, coords, vals, cell, 0.5, 2.0, xs)
        narrow = lower_bound_check(profile15, coords, vals, cell, 0.8, 1.5, xs)
        assert narrow >= wide - 1e-15

    def test_zero_data_rejected(self, profile15):
        coords, vals, cell = self._patch(amp=0.0)
        with pytest.raises(ValueError):
            lower_bound_check(profile15, coords, vals, cell, 0.5, 2.0, np.array([[0.0, 0.0]]))


class TestLevyDensity:
    def test_homogeneity(self):
        z = np.array([0.3, 0.4])
        for alpha in (1.2, 1.5, 1.8):
            assert levy_density(2 * z, alpha) == pytest.approx(
                2 ** (-2 - alpha) * levy_density(z, alpha), rel=1e-12
            )

    def test_positive(self):
        zs = np.array([[1.0, 0.0], [-2.0, 3.0], [0.1, -0.1]])
        assert np.all(levy_density(zs, 1.5) > 0)

    def test_constant_against_independent_gamma(self):
        # alpha 2^(alpha-1) Gamma(1+alpha/2) / (pi Gamma(1-alpha/2)) at |z| = 1
        a = 1.5
        expect = a * 2 ** (a - 1) * sp.gamma(1 + a / 2) / (np.pi * sp.gamma(1 - a / 2))
        assert levy_density(np.array([1.0, 0.0]), a) == pytest.approx(expect, rel=1e-13)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            levy_density(np.array([0.0, 0.0]), 1.5)


class TestGaussianSemigroupClosedForm:
    # the radii and times of the TestSemigroupLpEstimates sweeps
    RADII = np.concatenate([[0.0], np.geomspace(1e-2, 400.0, 300)])
    TIMES = np.geomspace(1e-2, 1e2, 9)

    @pytest.mark.parametrize("sig", [0.5, 1.0, 2.0])
    def test_heat_semigroup_at_alpha_two(self, sig):
        # P_t is the heat semigroup of variance 2t per axis at alpha = 2
        for t in self.TIMES:
            var = sig**2 + 2 * t
            exact = sig**2 / var * np.exp(-self.RADII**2 / (2 * var))
            got = gaussian_semigroup_radial(2.0, sig, float(t), self.RADII)
            assert np.max(np.abs(got - exact)) <= 1e-11

    @pytest.mark.parametrize("sig", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0])
    def test_identity_at_time_zero(self, alpha, sig):
        exact = np.exp(-self.RADII**2 / (2 * sig**2))
        got = gaussian_semigroup_radial(alpha, sig, 0.0, self.RADII)
        assert np.max(np.abs(got - exact)) <= 1e-11


class TestSemigroupLpEstimates:
    def test_scaled_sup_norm_vanishes_at_both_ends(self):
        # t^((alpha-1)/alpha) ||P_t f||_inf peaks in the interior of the sweep
        alpha, sig = 1.5, 1.0
        ts = np.geomspace(1e-3, 1e2, 13)
        vals = np.array(
            [t ** ((alpha - 1) / alpha) * gaussian_semigroup_radial(alpha, sig, t, 0.0)[0] for t in ts]
        )
        peak = vals.max()
        assert vals[0] < 0.35 * peak and vals[-1] < 0.35 * peak
        k = int(np.argmax(vals))
        assert np.all(np.diff(vals[: k + 1]) > 0) and np.all(np.diff(vals[k:]) < 0)

    @pytest.mark.parametrize("p", [4.0, 8.0, np.inf])
    def test_scaled_lp_bounded_over_four_decades(self, p):
        alpha, sig = 1.5, 1.0
        expo = (alpha - 1) / alpha - (0.0 if np.isinf(p) else 2 / (alpha * p))
        rr = np.concatenate([[0.0], np.geomspace(1e-2, 400.0, 300)])
        vals = []
        for t in np.geomspace(1e-2, 1e2, 9):
            prof = gaussian_semigroup_radial(alpha, sig, float(t), rr)
            if np.isinf(p):
                nrm = prof.max()
            else:
                nrm = (2 * np.pi * np.trapezoid(prof**p * rr, rr)) ** (1 / p)
            vals.append(t**expo * nrm)
        vals = np.array(vals)
        assert np.isfinite(vals).all() and vals.max() < 10 * vals[len(vals) // 2]

    def test_scaled_value_decays_in_space(self):
        # sup_t t^((alpha-1)/alpha) P_t f(x) decreases along |x|
        alpha, sig = 1.5, 1.0
        ts = np.geomspace(1e-2, 1e2, 17)
        radii = np.array([0.0, 2.0, 5.0, 10.0, 20.0, 40.0])
        sup_by_r = np.zeros_like(radii)
        for t in ts:
            prof = gaussian_semigroup_radial(alpha, sig, float(t), radii)
            sup_by_r = np.maximum(sup_by_r, t ** ((alpha - 1) / alpha) * prof)
        assert np.all(np.diff(sup_by_r) < 0)


class TestSerialization:
    def test_round_trip(self, profile15, tmp_path):
        path = tmp_path / "k.sqgk"
        save_profile(profile15, path)
        again = load_profile(path)
        rs = np.geomspace(1e-3, 3000.0, 60)
        assert np.array_equal(profile15(rs), again(rs))
        assert again.alpha == profile15.alpha

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sqgk"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ValueError, match="magic"):
            load_profile(path)

    def test_every_truncation_names_file(self, tmp_path):
        radii = np.expm1(np.linspace(0.0, np.log1p(20.0), 6))
        small = KernelProfile(1.5, 20.0, radii, np.exp(-radii))
        full = tmp_path / "full.sqgk"
        save_profile(small, full)
        data = full.read_bytes()
        cut = tmp_path / "cut.sqgk"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(ValueError, match="cut.sqgk"):
                load_profile(cut)


    @pytest.mark.filterwarnings("error")  # radii whose differences overflow are compared, not differenced
    @pytest.mark.parametrize("alpha, r_max, edit, why", [
        (3.0, 20.0, None, "alpha"),
        (1.5, 5.0, None, "r_max must be at least 20"),
        (1.5, 20.0, lambda r, v: (r, -v), "finite and positive"),
        (1.5, 20.0, lambda r, v: (r, np.where(r > 1, np.nan, v)), "finite and positive"),
        (1.5, 20.0, lambda r, v: (r[::-1], v), "increase strictly"),
        (1.5, 20.0, lambda r, v: (np.r_[r[:2], -1.7e308, 1.7e308, r[4:]], v), "increase strictly"),
        (1.5, 20.0, lambda r, v: (np.r_[r[:2], np.inf, np.inf, r[4:]], v), "increase strictly"),
        (1.5, 20.0, lambda r, v: (r + 0.5, v), "start at 0"),
        (1.5, 30.0, None, "last radius"),
        (1.5, 20.0, lambda r, v: (r[:5], v[:5]), "at least 6"),
    ])
    def test_invalid_table_names_file(self, tmp_path, alpha, r_max, edit, why):
        radii = np.expm1(np.linspace(0.0, np.log1p(min(r_max, 20.0)), 8))
        values = np.exp(-radii)
        if edit is not None:
            radii, values = edit(radii, values)
        path = tmp_path / "bad.sqgk"
        with open(path, "wb") as fh:
            fh.write(b"SQGK" + struct.pack("<IddI", 1, alpha, r_max, len(radii)))
            fh.write(np.asarray(radii, "<f8").tobytes() + np.asarray(values, "<f8").tobytes())
        with pytest.raises(ValueError, match=f"bad.sqgk: .*{why}"):
            load_profile(path)


def test_riesz_bound_time_scaling_invariance(profile15):
    # both sides of the bound share the scaling, so the windowed supremum is
    # nearly invariant in t (grid discretization breaks it only mildly)
    g = GridSpec(256, 80.0)
    s1 = riesz_kernel_bound_check(profile15, MultiIndex(0, 0), [1.0], 15.0, g)
    s4 = riesz_kernel_bound_check(profile15, MultiIndex(0, 0), [4.0], 15.0, g)
    assert abs(s1 - s4) < 0.25 * max(s1, s4)
