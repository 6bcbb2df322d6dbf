"""fine_integral_eval applies the domain rule of every kernel entry point
(check_paravector) before its contour check: an inf or NaN slot of x is
NotFinite, a higher blade NotParavector, whatever the contour."""

import pytest

from finestruct.clifford_core import Multivector
from finestruct.contour import circle, fine_integral_eval
from finestruct.errors import NotFinite, NotParavector, PointOutsideDomain
from finestruct.slice_poly import SlicePolynomial

C = circle(0.0, 2.0, Multivector.basis(1), 32)
P = SlicePolynomial.monomial(2)


@pytest.mark.parametrize("bad", (float("inf"), float("-inf"), float("nan")))
@pytest.mark.parametrize("slot", (0, 1))
def test_a_non_finite_point_is_not_finite(bad, slot):
    parts = [0.1, 0.1]
    parts[slot] = bad
    with pytest.raises(NotFinite):
        fine_integral_eval("Cauchy", P, Multivector.paravector(*parts), C)


def test_a_higher_blade_is_not_a_paravector():
    x = Multivector.paravector(0.1, 0.1) + Multivector.basis(3) * 0.5
    with pytest.raises(NotParavector):
        fine_integral_eval("F5", P, x, C)
    far = Multivector.paravector(5.0, 0.1) + Multivector.basis(3) * 0.5
    with pytest.raises(NotParavector):
        fine_integral_eval("Cauchy", P, far, C)


def test_a_finite_point_outside_is_still_outside():
    with pytest.raises(PointOutsideDomain):
        fine_integral_eval("Cauchy", P, Multivector.paravector(5.0, 0.1), C)
