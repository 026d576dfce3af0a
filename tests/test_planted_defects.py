"""
Planted defects and the checks that see them, in the manner of mutation
testing (DeMillo, Lipton & Sayward 1978, IEEE Computer 11(4)).

Each row plants one defect into ``KernelProfile.at``, the one place where
p(1, .) and its rows become p(t, .), and names the checks of
``test_stable_kernel`` that must fail under it; every other check of the
catalogue must still pass, so a row also records how thin its coverage is.
The checks are called directly, not through a nested pytest run.
"""

import numpy as np
import pytest

import test_stable_kernel as sk
from sqglab.grid import MultiIndex
from sqglab.kernel import KernelProfile


def planted_at(p_exponent=2.0, arg_exponent=1.0, a_sign=1.0, b_scale=1.0):
    """``KernelProfile.at`` with p(t, x) = t^(-p_exponent/alpha) p(1, t^(-arg_exponent/alpha) x)
    (row k scaled by t^(-(p_exponent + 2k)/alpha)), its A row times ``a_sign``
    and its B row times ``b_scale``."""

    def at(self, t, r):
        rows = self.radial(np.asarray(r, dtype=float) * t ** (-arg_exponent / self.alpha))
        for k, row in enumerate(rows):
            row *= t ** (-(p_exponent + 2 * k) / self.alpha)
        rows[1] *= a_sign
        rows[2] *= b_scale
        return rows

    return at


def catalogue(profile15, dprofile15_10, dprofile15_20):
    """The checks a planted defect may fail, by name."""
    return {
        "scaling_at_origin": lambda: sk.TestKernelEval().test_scaling_at_origin(profile15),
        "scale_invariance": lambda: sk.TestTwoSidedEstimate().test_scale_invariance(profile15),
        "lp_slope_p2": lambda: sk.TestLpNorms().test_slopes(profile15, dprofile15_10, MultiIndex(0, 0), 2.0),
        "lp_slope_grad_p2": lambda: sk.TestLpNorms().test_slopes(profile15, dprofile15_10, MultiIndex(1, 0), 2.0),
        "fd_first": lambda: sk.TestDerivatives().test_fd_consistency_first(profile15, dprofile15_10),
        "fd_second": lambda: sk.TestDerivatives().test_fd_consistency_second(profile15, dprofile15_20),
        "gradient_exponent": lambda: sk.TestDerivatives().test_scaling_exponent_recovered(dprofile15_10),
        "hessian_at_origin": lambda: sk.TestSplineDerivatives().test_hessian_at_origin(1.5),
    }


PLANTED = [
    # (defect, the planted ``at``, the checks that must fail)
    ("none", planted_at(), set()),
    ("time exponent -(2.1 + 2k)/alpha", planted_at(p_exponent=2.1),
     {"scaling_at_origin", "scale_invariance", "lp_slope_p2", "lp_slope_grad_p2", "gradient_exponent"}),
    ("argument scale t^(-1.05/alpha)", planted_at(arg_exponent=1.05),
     {"scale_invariance", "lp_slope_p2", "lp_slope_grad_p2", "fd_first", "fd_second", "gradient_exponent"}),
    ("A row's sign flipped", planted_at(a_sign=-1.0), {"fd_first", "fd_second", "hessian_at_origin"}),
    # thin: of the catalogue only the second-derivative FD check reads B
    ("B row zeroed", planted_at(b_scale=0.0), {"fd_second"}),
]


def _fails(check) -> bool:
    try:
        check()
    except (AssertionError, ValueError):
        return True
    return False


@pytest.mark.parametrize("defect, at, must_fail", PLANTED, ids=[row[0] for row in PLANTED])
def test_planted_defect_is_seen(monkeypatch, profile15, dprofile15_10, dprofile15_20, defect, at, must_fail):
    monkeypatch.setattr(KernelProfile, "at", at)
    checks = catalogue(profile15, dprofile15_10, dprofile15_20)
    assert must_fail <= checks.keys()
    failed = {name for name, check in checks.items() if _fails(check)}
    assert failed == must_fail, f"{defect}: failed {sorted(failed)}"
