import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqglab.grid import (
    GridSpec,
    MultiIndex,
    RealField,
    _Spectra,
    apply_derivative,
    apply_riesz,
    apply_riesz_perp,
    apply_semigroup,
    lp_norm,
    semigroup_orbit,
)
import sqglab
import sqglab.initial_data as initial_data

from conftest import random_band_limited


def sine_field(grid, k=1, axis=0):
    X, Y = grid.coordinates()
    c = 2 * np.pi / grid.box_length
    return RealField(grid, np.sin(k * c * (X if axis == 0 else Y)))


class TestGridSpec:
    def test_invariants(self):
        g = GridSpec(64, 10.0)
        assert g.dx == 10.0 / 64

    @pytest.mark.parametrize("n", [8, 15, 17])
    def test_bad_n(self, n):
        with pytest.raises(ValueError):
            GridSpec(n, 1.0)

    @pytest.mark.parametrize("length", [-1.0, 0.0, np.nan, np.inf, 5e-324, 1e-300, 1e-149, 1e152, 1e300])
    def test_bad_length(self, length):
        # the cell area and the squared wavenumbers must stay normal floats
        GridSpec(32, 1e-147)
        GridSpec(32, 1e151)
        with pytest.raises(ValueError, match=r"box_length / n must lie in \(1e-150, 1e150\)"):
            GridSpec(32, length)

    def test_wavenumber_range(self):
        g = GridSpec(16, 4.0)
        kx = _Spectra.of(g).kx
        base = 2 * np.pi / 4.0
        assert kx.min() == pytest.approx(-8 * base)
        assert kx.max() == pytest.approx(7 * base)


class TestSemigroup:
    def test_identity_at_zero(self, grid_small):
        f = random_band_limited(grid_small, 1)
        out = apply_semigroup(f, 0.0, 1.5)
        assert np.abs(out.values - f.values).max() < 1e-14

    def test_eigenmode_decay(self, grid_2pi):
        f = sine_field(grid_2pi)
        for alpha in (1.2, 1.8):
            out = apply_semigroup(f, 0.7, alpha)
            assert np.abs(out.values - np.exp(-0.7) * f.values).max() < 1e-12

    def test_composition(self, grid_small):
        f = random_band_limited(grid_small, 2)
        one = apply_semigroup(f, 0.9, 1.5)
        two = apply_semigroup(apply_semigroup(f, 0.5, 1.5), 0.4, 1.5)
        assert np.abs(one.values - two.values).max() < 1e-12

    def test_negative_time_rejected(self, grid_2pi):
        with pytest.raises(ValueError):
            apply_semigroup(sine_field(grid_2pi), -0.1, 1.5)

    def test_mean_preserved(self, grid_small):
        f = random_band_limited(grid_small, 5)
        out = apply_semigroup(f, 2.0, 1.3)
        assert out.values.mean() == pytest.approx(f.values.mean(), abs=1e-13)

    @pytest.mark.parametrize("p", [2.0, 4.0, np.inf])
    def test_contraction(self, grid_small, p):
        f = random_band_limited(grid_small, 7)
        for t in (0.1, 1.0, 10.0):
            assert lp_norm(apply_semigroup(f, t, 1.5), p) <= lp_norm(f, p) * (1 + 1e-12)


def multiplier_semigroup(f, t, alpha):
    """P_t f as one forward transform, the exp(-t |xi|^alpha) multiplier and one inverse."""
    sp = _Spectra.of(f.grid)
    return RealField(f.grid, sp.inverse(np.exp(-t * sp.kmod**alpha) * sp.forward(f.values)))


class TestSemigroupOrbit:
    TIMES = (0.0, 0.03, 0.5, 2.0, 0.5, 11.0)

    @pytest.mark.parametrize("alpha", [1.0, 1.3, 2.0])
    def test_each_time_is_the_one_time_semigroup(self, grid_small, alpha):
        f = random_band_limited(grid_small, 3)
        got = list(semigroup_orbit(f, self.TIMES, alpha))
        assert len(got) == len(self.TIMES)
        for t, pt in zip(self.TIMES, got):
            assert np.array_equal(pt.values, apply_semigroup(f, t, alpha).values)
            assert np.array_equal(pt.values, multiplier_semigroup(f, t, alpha).values)

    def test_one_forward_transform(self, grid_small, monkeypatch):
        f = random_band_limited(grid_small, 4)
        calls = []
        forward = _Spectra.forward
        monkeypatch.setattr(_Spectra, "forward", lambda self, v: calls.append(1) or forward(self, v))
        orbit = semigroup_orbit(f, self.TIMES, 1.5)
        assert calls == []  # lazy: nothing is transformed before the first field is asked for
        assert len(list(orbit)) == len(self.TIMES)
        assert len(calls) == 1

    @pytest.mark.parametrize("times, alpha", [((0.1, 0.2, -0.1), 1.5), ((0.1,), 2.5), ((0.1,), 0.9)])
    def test_bad_time_or_alpha_raises_before_any_field(self, grid_small, times, alpha, monkeypatch):
        f = random_band_limited(grid_small, 5)
        calls = []
        monkeypatch.setattr(_Spectra, "forward", lambda self, v: calls.append(1))
        with pytest.raises(ValueError):
            semigroup_orbit(f, times, alpha)
        assert calls == []

    @pytest.mark.parametrize("t", [-1.0, np.nan, np.inf])
    def test_non_finite_or_negative_time_raises_before_any_field(self, grid_small, t, monkeypatch):
        f = random_band_limited(grid_small, 6)
        calls = []
        monkeypatch.setattr(_Spectra, "forward", lambda self, v: calls.append(1))
        with pytest.raises(ValueError, match=f"got {t}"):
            semigroup_orbit(f, (0.1, t), 1.5)
        assert calls == []

    @pytest.mark.parametrize("norm", ["linf", "riesz", "riesz_grad"])
    def test_ladder_tie_phase_unchanged(self, norm, monkeypatch):
        def per_time(f, times, alpha):
            return (multiplier_semigroup(f, t, alpha) for t in times)

        try:
            initial_data.ladder_tie_phase.cache_clear()
            got = initial_data.ladder_tie_phase(1.5, 2**0.5, norm)
            initial_data.ladder_tie_phase.cache_clear()
            with monkeypatch.context() as m:
                m.setattr(initial_data, "semigroup_orbit", per_time)
                want = initial_data.ladder_tie_phase(1.5, 2**0.5, norm)
        finally:
            initial_data.ladder_tie_phase.cache_clear()
        assert got == want


def test_ladder_tie_phase_without_crossing_is_value_error(monkeypatch):
    # a flat orbit never reaches the per-stair ratio, so no phase ties
    monkeypatch.setattr(initial_data, "semigroup_orbit", lambda f, times, alpha: (f for _ in times))
    with pytest.raises(ValueError, match="no tie phase found"):
        initial_data.ladder_tie_phase(1.5, 3.0)


class TestRiesz:
    def test_quarter_turn_on_harmonic(self, grid_2pi):
        f = sine_field(grid_2pi)
        X, _ = grid_2pi.coordinates()
        out = apply_riesz(f, 1)
        assert np.abs(out.values - np.cos(X)).max() < 1e-12

    def test_transverse_component_vanishes(self, grid_2pi):
        out = apply_riesz(sine_field(grid_2pi), 2)
        assert np.abs(out.values).max() < 1e-12

    def test_perp_is_divergence_free(self, grid_small):
        f = random_band_limited(grid_small, 11)
        u1, u2 = apply_riesz_perp(f)
        div = apply_derivative(u1, MultiIndex(1, 0)) + apply_derivative(u2, MultiIndex(0, 1))
        assert np.abs(div.values).max() < 1e-12 * max(1.0, np.abs(u1.values).max())

    @pytest.mark.parametrize("p", [2.0, 4.0, 2.0 / 0.5])
    def test_lp_bounded_ratio(self, p):
        # bounded-ratio property, stable across resolutions
        worst = {}
        for n in (64, 128):
            g = GridSpec(n, 20.0)
            ratios = []
            for seed in range(6):
                f = random_band_limited(g, seed, kmax_frac=0.5)
                ratios.append(lp_norm(apply_riesz(f, 1), p) / lp_norm(f, p))
            worst[n] = max(ratios)
            assert worst[n] < 2.0
        assert abs(worst[64] - worst[128]) < 0.5 * max(worst.values())

    def test_l2_isometry_mean_zero(self, grid_small):
        f = random_band_limited(grid_small, 13)
        f = RealField(grid_small, f.values - f.values.mean())
        r1 = apply_riesz(f, 1)
        r2 = apply_riesz(f, 2)
        total = np.sqrt(lp_norm(r1, 2) ** 2 + lp_norm(r2, 2) ** 2)
        assert total == pytest.approx(lp_norm(f, 2), rel=1e-10)

    def test_commutes_with_derivative(self, grid_small):
        f = random_band_limited(grid_small, 17)
        k = MultiIndex(1, 1)
        a = apply_riesz(apply_derivative(f, k), 1)
        b = apply_derivative(apply_riesz(f, 1), k)
        assert np.abs(a.values - b.values).max() < 1e-12 * max(1.0, np.abs(a.values).max())


class TestDerivative:
    def test_first(self, grid_2pi):
        X, _ = grid_2pi.coordinates()
        out = apply_derivative(sine_field(grid_2pi), MultiIndex(1, 0))
        assert np.abs(out.values - np.cos(X)).max() < 1e-12

    def test_transverse_second_vanishes(self, grid_2pi):
        out = apply_derivative(sine_field(grid_2pi), MultiIndex(0, 2))
        assert np.abs(out.values).max() < 1e-12

    def test_second(self, grid_2pi):
        f = sine_field(grid_2pi)
        out = apply_derivative(f, MultiIndex(2, 0))
        assert np.abs(out.values + f.values).max() < 1e-12

    def test_order_cap(self):
        with pytest.raises(ValueError):
            MultiIndex(3, 2)


class TestDealias:
    """The 2/3-rule mask ``_Stepper`` multiplies by, on the half plane of ``_Spectra.forward``."""

    def test_band_limited_unchanged(self, grid_small):
        sp = _Spectra.of(grid_small)
        F = sp.forward(random_band_limited(grid_small, 3, kmax_frac=0.3).values)
        assert np.abs(np.where(sp.dealias_mask, F, 0.0) - F).max() < 1e-12

    def test_top_mode_zeroed(self):
        g = GridSpec(32, 2 * np.pi)
        sp = _Spectra.of(g)
        F = sp.forward(sine_field(g, k=12).values)
        assert np.abs(F).max() > 1.0
        assert np.abs(np.where(sp.dealias_mask, F, 0.0)).max() < 1e-10

    def test_cut_at_a_third_of_n(self):
        # |k| <= floor(n/3) in grid units is kept, on both axes and nowhere else
        g = GridSpec(48, 2 * np.pi)
        sp = _Spectra.of(g)
        kx, ky = np.rint(sp.kx).astype(int), np.rint(sp.ky).astype(int)
        assert np.array_equal(sp.dealias_mask, (np.abs(kx) <= 16) & (ky <= 16))

    @pytest.mark.parametrize("n, kept", [(16, 66), (64, 946), (96, 2145)])
    def test_mask_does_not_depend_on_units(self, n, kept):
        # the rule counts integer modes, so the smallest and largest boxes
        # GridSpec admits keep the modes a box of length 40 keeps
        for box_length in (n * 1e-140, 40.0, n * 1e140):
            mask = _Spectra.of(GridSpec(n, box_length)).dealias_mask
            assert np.count_nonzero(mask) == kept
            assert np.array_equal(mask, _Spectra.of(GridSpec(n, 2 * np.pi)).dealias_mask)


class TestBandTransforms:
    """The buffer-writing pair that serves the flux term, against the full transforms."""

    def test_band_holds_the_dealias_mask(self):
        sp = _Spectra.of(GridSpec(96, 20.0))
        assert sp.dealias_mask[0, sp.band_cols - 1]
        assert not sp.dealias_mask[:, sp.band_cols:].any()

    @pytest.mark.parametrize("transform", ["inverse", "forward"])
    @pytest.mark.parametrize("n", [32, 48, 64, 96, 256])
    @pytest.mark.parametrize("band", [True, False])
    def test_match_full_transforms_on_the_band_columns(self, n, band, transform):
        sp = _Spectra.of(GridSpec(n, 20.0))
        cols = sp.band_cols if band else sp.half_cols
        # band-limited white noise: every mode of the leading cols columns
        coeffs = sp.forward(np.random.default_rng(n).standard_normal(sp.shape))
        coeffs[:, cols:] = 0.0
        values = sp.inverse(coeffs)
        if transform == "inverse":
            got, want = sp.inverse_into(coeffs.copy(), cols, np.empty(sp.shape)), values
        else:
            got = sp.forward_into(values, cols, np.empty_like(coeffs))[:, :cols]
            want = sp.forward(values)[:, :cols]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [16, 48, 64, 130, 384])
    def test_full_transforms_match_scipy(self, n):
        # an oracle outside the pair: scipy's two-dimensional real transforms
        from scipy import fft

        sp = _Spectra.of(GridSpec(n, 20.0))
        values = np.random.default_rng(n).standard_normal(sp.shape)
        coeffs = fft.rfft2(values)
        assert np.array_equal(sp.forward(values), coeffs)
        got, want = sp.inverse(coeffs), fft.irfft2(coeffs, s=sp.shape)
        if n & (n - 1) == 0:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_write_into_the_caller_buffers(self):
        sp = _Spectra.of(GridSpec(32, 20.0))
        values = np.random.default_rng(5).standard_normal(sp.shape)
        kept = values.copy()
        half, phys = np.empty((32, sp.half_cols), dtype=complex), np.empty(sp.shape)
        assert sp.forward_into(values, sp.half_cols, half) is half
        assert np.array_equal(values, kept)
        assert sp.inverse_into(half, sp.half_cols, phys) is phys
        assert np.abs(phys - values).max() <= 1e-14


class TestNorms:
    def test_zero(self, grid_2pi):
        z = RealField(grid_2pi, np.zeros(grid_2pi.shape))
        for p in (1, 2, np.inf):
            assert lp_norm(z, p) == 0.0

    def test_sup_of_one(self, grid_small):
        assert lp_norm(RealField(grid_small, np.ones(grid_small.shape)), np.inf) == 1.0

    def test_sine_l2(self, grid_2pi):
        # int sin^2 over the 2pi-periodic box = 2 pi^2
        assert lp_norm(sine_field(grid_2pi), 2) == pytest.approx(np.sqrt(2 * np.pi**2), rel=1e-12)

    @given(c=st.floats(0.01, 100.0), p=st.sampled_from([1.0, 2.0, 3.5, np.inf]))
    @settings(max_examples=25, deadline=None)
    def test_homogeneous(self, c, p):
        g = GridSpec(32, 5.0)
        f = random_band_limited(g, 23)
        assert lp_norm(RealField(g, c * f.values), p) == pytest.approx(c * lp_norm(f, p), rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 2.5, 4.0, 10.0])
    def test_matches_the_plain_expression(self, p):
        # bit for bit: the stepper's diagnostics are held to lp_norm
        g = GridSpec(48, 5.0)
        f = random_band_limited(g, 29)
        assert lp_norm(f, p) == float((np.sum(np.abs(f.values) ** p) * g.dx**2) ** (1.0 / p))

    def test_p_below_one(self, grid_2pi):
        with pytest.raises(ValueError):
            lp_norm(sine_field(grid_2pi), 0.5)


def test_fields_are_immutable(grid_2pi):
    f = sine_field(grid_2pi)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def _spectral_nodes(tree):
    """Nodes of ``tree`` that use numpy.fft or scipy.fft, or form the half-plane width n // 2 + 1."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, (ast.Attribute, ast.BinOp)):
            names = [ast.unparse(node)]
        else:
            continue
        if any(re.match(r"(np|numpy|scipy)\.fft(\.|$)|.* // 2 \+ 1$", n) for n in names):
            yield node


def test_spectra_alone_owns_the_half_plane():
    # the FFT calls and the rfft half-plane width appear in grid._Spectra and nowhere else in the package
    owned, stray = [], []
    for path in sorted(Path(sqglab.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            inside = path.name == "grid.py" and isinstance(stmt, ast.ClassDef) and stmt.name == "_Spectra"
            found = [f"{path.name}:{node.lineno}" for node in _spectral_nodes(stmt)]
            (owned if inside else stray).extend(found)
    assert stray == []
    assert owned  # the walk sees what _Spectra does own
