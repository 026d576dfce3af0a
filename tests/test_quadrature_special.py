import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as si

from sqglab.grid import GridSpec, RealField, apply_semigroup
from sqglab.initial_data import gaussian_bump
from sqglab.special import (
    TimeGrid,
    apply_T_gamma,
    beta,
    radial_singular_integral,
    product_weights,
    singular_time_convolution,
    tgamma_inner_ratio,
)


class TestBeta:
    def test_half_half_is_pi(self):
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)

    def test_third_two_thirds(self):
        # the constant B((alpha-1)/alpha, 1/alpha) at alpha = 1.5
        assert beta(1 / 3, 2 / 3) == pytest.approx(2 * math.pi / math.sqrt(3), rel=1e-12)

    @given(a=st.floats(0.05, 20.0), b=st.floats(0.05, 20.0))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, a, b):
        assert beta(a, b) == pytest.approx(beta(b, a), rel=1e-13)

    def test_recurrence(self):
        # B(a+1, b) = B(a, b) * a / (a + b)
        a, b = 1.7, 2.4
        assert beta(a + 1, b) == pytest.approx(beta(a, b) * a / (a + b), rel=1e-12)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0)])
    def test_domain(self, a, b):
        with pytest.raises(ValueError):
            beta(a, b)


class TestSingularTimeConvolution:
    def test_no_singularity_reduces_to_length(self):
        assert singular_time_convolution(0.0, 0.0, 2.5) == pytest.approx(2.5, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_matches_beta_closed_form(self, alpha):
        a, b = 1 / alpha, (alpha - 1) / alpha
        got = singular_time_convolution(a, b, 1.0)
        assert got == pytest.approx(beta(1 - b, 1 - a), rel=1e-8)

    def test_named_value(self):
        # a = 1/alpha, b = (alpha-1)/alpha at alpha = 1.5, t = 1
        got = singular_time_convolution(2 / 3, 1 / 3, 1.0)
        assert got == pytest.approx(beta(2 / 3, 1 / 3), rel=1e-8)
        assert got == pytest.approx(3.62760, abs=5e-6)

    def test_time_scaling_exponent(self):
        a, b = 0.55, 0.2
        v1 = singular_time_convolution(a, b, 1.0)
        v2 = singular_time_convolution(a, b, 2.0)
        slope = math.log(v2 / v1) / math.log(2.0)
        assert slope == pytest.approx(1 - a - b, abs=1e-9)

    @pytest.mark.parametrize("a,b", [(1.0, 0.0), (0.0, 1.2), (-0.1, 0.0)])
    def test_divergent_exponents_rejected(self, a, b):
        with pytest.raises(ValueError):
            singular_time_convolution(a, b, 1.0)


class TestLemmaTechIntegral:
    @pytest.mark.parametrize("alpha,beta_param", [(1.2, 1.0), (1.5, 1.0), (1.8, 1.44)])
    def test_two_sided_ratio(self, alpha, beta_param):
        vs = np.linspace(0.01, 0.99, 33)
        ratios = [radial_singular_integral(alpha, beta_param, float(v))[1] for v in vs]
        assert 0 < min(ratios) <= max(ratios) < np.inf
        assert max(ratios) / min(ratios) < 10.0

    def test_refinement_stability(self):
        # sweep endpoints stable under a 10x node-count refinement
        vs = np.linspace(0.01, 0.99, 17)
        coarse = [radial_singular_integral(1.5, 1.0, float(v), n_panels=24)[1] for v in vs]
        fine = [radial_singular_integral(1.5, 1.0, float(v), n_panels=240)[1] for v in vs]
        assert abs(min(coarse) - min(fine)) < 0.05 * min(fine)
        assert abs(max(coarse) - max(fine)) < 0.05 * max(fine)

    def test_against_adaptive_quadrature(self):
        alpha, b, v = 1.5, 1.0, 0.37
        got, _ = radial_singular_integral(alpha, b, v)
        ref, _ = si.quad(
            lambda r: r**-b * (1 - r**alpha) ** (-1 / alpha) * (r**alpha - v**alpha) ** (-1 / alpha),
            v,
            1,
            points=[v, 1],
            limit=400,
        )
        assert got == pytest.approx(ref, rel=1e-8)

    def test_upper_bound_form(self):
        # I(v) <= C_beta v^(-beta) (1-v)^(-1/alpha) with finite sweep constant
        alpha, b = 1.5, 1.0
        vs = np.linspace(0.01, 0.99, 33)
        cs = [
            radial_singular_integral(alpha, b, float(v))[0] * v**b * (1 - v) ** (1 / alpha)
            for v in vs
        ]
        assert max(cs) < np.inf and max(cs) > 0

    @pytest.mark.parametrize("v", [0.0, 1.0, -0.1, 1.5])
    def test_v_domain(self, v):
        with pytest.raises(ValueError):
            radial_singular_integral(1.5, 1.0, v)


def test_cached_panel_rule_is_read_only():
    from sqglab.special import _gauss_panels, _gauss_rule

    gx, gw = _gauss_rule(12)
    with pytest.raises(ValueError):
        gx[0] = 0.0
    with pytest.raises(ValueError):
        gw[0] = 0.0
    # a rule of order n is exact on polynomials of degree 2n - 1
    nodes, weights = _gauss_panels(np.array([0.0, 0.5, 2.0]), 12)
    assert np.sum(weights * nodes**23) == pytest.approx(2.0**24 / 24, rel=1e-13)


def grid_weights(tg):
    """The product rule on a time grid's nodes, as ``apply_T_gamma`` forms it."""
    return product_weights(tg.nodes, tg.t_end, tg.a, tg.b)


class TestTimeGrid:
    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (2 / 3, 0.0), (2 / 3, 0.55), (0.3, 0.9)])
    def test_exact_on_constants(self, a, b):
        tg = TimeGrid(2.0, a=a, b=b, m=48)
        # int_0^t (t-s)^(-a) s^(-b) ds = t^(1-a-b) B(1-b, 1-a)
        exact = tg.t_end ** (1.0 - a - b) * beta(1.0 - b, 1.0 - a)
        assert grid_weights(tg).sum() == pytest.approx(exact, rel=1e-10)

    def test_weights_positive_nodes_graded(self):
        tg = TimeGrid(1.0, a=0.5, b=0.3, m=32)
        assert np.all(grid_weights(tg) > 0)
        gaps = np.diff(np.concatenate([[0.0], tg.nodes, [1.0]]))
        assert gaps[0] < gaps[len(gaps) // 2] and gaps[-1] < gaps[len(gaps) // 2]

    def test_product_rule_on_smooth_integrand(self):
        # int_0^1 (1-s)^(-a) s^(-b) cos(s) ds against adaptive reference
        a, b = 0.6, 0.4
        ref, _ = si.quad(lambda s: (1 - s) ** -a * s**-b * np.cos(s), 0, 1, points=[0, 1])
        errs = []
        for m in (64, 256):
            tg = TimeGrid(1.0, a=a, b=b, m=m)
            got = float(np.sum(grid_weights(tg) * np.cos(tg.nodes)))
            errs.append(abs(got - ref) / ref)
        assert errs[1] < 1e-5
        assert errs[1] < errs[0] / 8  # roughly second-order in the node count

    def test_prefix_weights_match_shorter_horizon(self):
        nodes = np.array([0.1, 0.3, 0.5])
        w = product_weights(nodes, 0.5, 0.5, 0.0)
        assert w.sum() == pytest.approx(2 * math.sqrt(0.5), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, a=1.2, b=0.0)
        with pytest.raises(ValueError):
            product_weights(np.array([0.5, 0.2]), 1.0, 0.5, 0.0)


class TestApplyTGamma:
    alpha = 1.5
    gamma = 0.3

    def _grid(self):
        return GridSpec(48, 16.0)

    def _semigroup(self):
        return lambda f, dt: apply_semigroup(f, dt, self.alpha)

    def _timegrid(self, t_end=1.5, m=48):
        return TimeGrid(t_end, a=1 / self.alpha, b=self.gamma + (self.alpha - 1) / self.alpha, m=m)

    def test_zero_maps_to_zero(self):
        g = self._grid()
        tg = self._timegrid()
        z = [RealField(g, np.zeros(g.shape))] * len(tg.nodes)
        out = apply_T_gamma(tg, z, self.gamma, self.alpha, self._semigroup())
        assert np.all(out[-1][1].values == 0.0)

    def test_beta_identity_on_semigroup_orbit(self):
        # f(s) = P_s theta0 collapses to the exact Beta-function multiple
        g = self._grid()
        th0 = gaussian_bump(g, 1.0, 1.2, aspect=1.5)
        tg = self._timegrid()
        fields = [apply_semigroup(th0, float(s), self.alpha) for s in tg.nodes]
        t_j, Tf = apply_T_gamma(tg, fields, self.gamma, self.alpha, self._semigroup())[-1]
        bound = beta(1 - self.gamma - (self.alpha - 1) / self.alpha, 1 - 1 / self.alpha)
        pt = apply_semigroup(th0, t_j, self.alpha)
        assert np.max(np.abs(Tf.values / (bound * pt.values) - 1.0)) < 1e-3

    def test_monotone_in_argument(self):
        g = self._grid()
        th0 = gaussian_bump(g, 1.0, 1.2, aspect=1.5)
        tg = self._timegrid(m=24)
        f1 = [apply_semigroup(th0, float(s), self.alpha) for s in tg.nodes]
        f2 = [RealField(g, 2.0 * f.values) for f in f1]
        a = apply_T_gamma(tg, f1, self.gamma, self.alpha, self._semigroup())[-1][1]
        b = apply_T_gamma(tg, f2, self.gamma, self.alpha, self._semigroup())[-1][1]
        assert np.all(b.values >= a.values - 1e-14)

    def test_outputs_nonnegative_for_signed_input(self):
        g = self._grid()
        rng = np.random.default_rng(5)
        tg = self._timegrid(m=16)
        fields = [RealField(g, rng.standard_normal(g.shape)) for _ in tg.nodes]
        out = apply_T_gamma(tg, fields, self.gamma, self.alpha, self._semigroup())
        assert np.all(out[-1][1].values >= 0.0)

    def test_gamma_domain(self):
        g = self._grid()
        tg = self._timegrid(m=8)
        z = [RealField(g, np.zeros(g.shape))] * len(tg.nodes)
        with pytest.raises(ValueError):
            apply_T_gamma(tg, z, 0.9, self.alpha, self._semigroup())

    def test_contraction_constant_study(self):
        # the two-level constant is the sup of the scaled inner integral;
        # its reciprocal is the admissible drift size of the bootstrap
        us = np.linspace(0.02, 0.98, 21)
        ds = [tgamma_inner_ratio(self.gamma, self.alpha, float(u)) for u in us]
        assert all(np.isfinite(d) and d > 0 for d in ds)
        c2 = max(ds)
        assert 0 < 1 / c2 < 1
