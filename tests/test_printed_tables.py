"""The printed monomial-image tables and the F5 combinations are one table
each, fueter_ops.MONOMIAL_TABLES and kernels.F5_COMBINATIONS, read by one
function each.  The hand-written branch chains they replaced are kept below,
verbatim, as the printed reference: both readers give the same terms and the
same bytes.  The module also pins the one registry of kernel kinds, the
exact agreement of the engine with the printed tables up to m = 160, and the
NotFinite guard of the printed axial systems."""

from math import inf, nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finestruct import harness
from finestruct.clifford_core import (
    ONE,
    PARAVECTOR_INDEX,
    Multivector,
    paravector_conjugate,
    paravector_norm_sq,
)
from finestruct.errors import AxisTooClose, NotFinite
from finestruct.fueter_ops import (
    KIND_ORDER,
    KIND_WORDS,
    MONOMIAL_TABLES,
    SYSTEM_TAGS,
    apply_word,
    axial_parts,
    monomial_image,
    vekua_residual,
    word_image,
)
from finestruct.kernels import (
    F5_COMBINATIONS,
    KERNEL_TERMS,
    f5_kernel,
    fine_kernel_via_f5,
)
from finestruct.slice_poly import LEFT, RIGHT, SlicePolynomial, XBarPolynomial
from test_fueter_ops import _exact_canonical

FINE_KINDS = harness.FINE_KINDS


# The branch chains that held the printed formulas before MONOMIAL_TABLES
# and F5_COMBINATIONS, copied unchanged.
def reference_monomial_image(kind: str, m: int) -> XBarPolynomial:
    """Image of x^m under the operator word of the given kind, as an exact
    integer-coefficient left polynomial in (x, x̄)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    terms: list[tuple[int, int, float]] = []
    if kind == "D":
        if m >= 1:
            terms = [(m - k, k - 1, -4) for k in range(1, m + 1)]
    elif kind == "Delta":
        if m >= 2:
            terms = [(m - k - 1, k - 1, -8 * (m - k)) for k in range(1, m)]
    elif kind == "D2":
        if m >= 2:
            terms = [(m - k - 1, k - 1, -8 * k) for k in range(1, m)]
    elif kind == "DeltaD":
        if m >= 3:
            terms = [(m - k - 2, k - 1, 16 * (m - k - 1) * k)
                     for k in range(1, m - 1)]
    elif kind == "Dbar":
        if m >= 1:
            terms = [(m - 1, 0, 2 * m)]
            terms += [(m - k, k - 1, 4) for k in range(1, m + 1)]
    elif kind == "Dbar2":
        if m >= 2:
            terms = [(m - 2, 0, 4 * m * (m - 1))]
            terms += [(m - k - 1, k - 1, 8 * (2 * m - k)) for k in range(1, m)]
    elif kind == "DeltaDbar":
        if m >= 3:
            terms = [(m - k - 2, k - 1, -16 * (m - k - 1) * (m + k))
                     for k in range(1, m - 1)]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return XBarPolynomial(terms)


def reference_fine_kernel_via_f5(kind: str, side: str, s: Multivector, x: Multivector) -> Multivector:
    """Evaluate the kernel as a polynomial combination of the F5 kernel."""
    F = f5_kernel(side, s, x)
    x0 = x[0]
    xn2 = paravector_norm_sq(x)
    xbar = paravector_conjugate(x)

    def term(left_factor, s_power: int):
        acc = F
        for _ in range(s_power):
            acc = (acc * s) if side == LEFT else (s * acc)
        if left_factor is None:
            return acc
        return (left_factor * acc) if side == LEFT else (acc * left_factor)

    if kind == "D":
        combo = (term(None, 3) - term(x + ONE * (2 * x0), 2)
                 + term(x * (2 * x0) + ONE * xn2, 1) - term(x * xn2, 0))
        return combo * (-1.0 / 16.0)
    if kind == "Delta":
        combo = term(None, 2) - term(ONE * (2 * x0), 1) + term(ONE * xn2, 0)
        return combo * (-1.0 / 8.0)
    if kind == "DeltaD":
        combo = term(None, 1) - term(x, 0)
        return combo * 0.25
    if kind == "Dbar":
        combo = (term(None, 3) * 3.0 - term(x + ONE * (8 * x0), 2)
                 + term(x * (2 * x0) + ONE * (4 * x0 * x0 + 3 * xn2), 1)
                 - term(x * xn2 + ONE * (2 * x0 * xn2), 0))
        return combo * (1.0 / 32.0)
    if kind == "D2":
        combo = term(None, 2) - term(x * 2.0, 1) + term(x * x, 0)
        return combo * (-1.0 / 8.0)
    if kind == "Dbar2":
        combo = (term(None, 2) - term(ONE * (2 * x0), 1)
                 + term(ONE * (x0 * x0), 0))
        return combo * 0.5
    if kind == "DeltaDbar":
        return -term(None, 1) + term(ONE * x0, 0)
    raise ValueError(f"no F5 combination for kind {kind!r}")


def _outcome(f, *args):
    """The raw bytes f(*args) returns, or the type and text of its error."""
    try:
        return f(*args).c.tobytes()
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)


def _slots(rng, zeros: bool) -> list:
    """Six random paravector slots; with zeros, each slot is an exact +0.0
    or -0.0 with probability 1/3."""
    v = rng.normal(size=6)
    if zeros:
        mask = rng.random(6) < 1 / 3
        v[mask] = np.where(rng.random(6) < 0.5, 0.0, -0.0)[mask]
    return v.tolist()


def _pairs(n: int, seed: int):
    rng = np.random.default_rng(seed)
    for i in range(n):
        s = Multivector.paravector(*_slots(rng, False))
        yield s, Multivector.paravector(*_slots(rng, i % 2 == 0))


PAIRS = list(_pairs(2000, 47))


def test_pairs_hold_signed_zero_slots():
    raw = np.array([x.c[PARAVECTOR_INDEX] for _, x in PAIRS])
    zero = raw == 0.0
    assert np.sum(zero & np.signbit(raw)) > 500
    assert np.sum(zero & ~np.signbit(raw)) > 500


@pytest.mark.parametrize("kind", FINE_KINDS)
def test_via_f5_bytes_equal_reference(kind):
    for s, x in PAIRS:
        for side in (LEFT, RIGHT):
            assert (_outcome(fine_kernel_via_f5, kind, side, s, x)
                    == _outcome(reference_fine_kernel_via_f5, kind, side, s,
                                x)), (kind, side, s.c, x.c)


@pytest.mark.parametrize("kind", FINE_KINDS)
def test_monomial_terms_equal_reference(kind):
    for m in range(121):
        got, ref = monomial_image(kind, m), reference_monomial_image(kind, m)
        assert got.side == ref.side
        assert ([(a, b, c.c.tobytes()) for a, b, c in got.terms]
                == [(a, b, c.c.tobytes()) for a, b, c in ref.terms]), m


def test_errors_equal_reference():
    s, x = PAIRS[0]
    bivector = Multivector.basis(3)
    cases = [(kind, side, s, x) for kind in ("F5", "Cauchy", "nope")
             for side in (LEFT, RIGHT, "middle")]
    cases += [("D", "middle", s, x), ("D", LEFT, s, bivector),
              ("F5", "middle", s, bivector), ("D", LEFT, s, s)]
    for args in cases:
        got = _outcome(fine_kernel_via_f5, *args)
        assert isinstance(got, tuple) and got == _outcome(
            reference_fine_kernel_via_f5, *args), args
    assert _outcome(fine_kernel_via_f5, "F5", LEFT, s, x) == (
        ValueError, "no F5 combination for kind 'F5'")
    for kind, m in (("D", -1), ("nope", -1), ("nope", 0), ("F5", 3)):
        with pytest.raises(ValueError) as got:
            monomial_image(kind, m)
        with pytest.raises(ValueError) as ref:
            reference_monomial_image(kind, m)
        assert str(got.value) == str(ref.value)


def _products_by_s(f, kind, side, monkeypatch):
    """The number of Clifford products by s that f(kind, side, s, x) makes."""
    s, x = PAIRS[1]
    count = 0
    mul = Multivector.__mul__

    def counting(a, b):
        nonlocal count
        count += (b is s) if side == LEFT else (a is s)
        return mul(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(Multivector, "__mul__", counting)
        f(kind, side, s, x)
    return count


def test_d_on_the_left_makes_three_products_by_s(monkeypatch):
    # The highest power is s^3: one chain F s, F s^2, F s^3, where the
    # branch chain rebuilt each power from F (3 + 2 + 1 products).
    assert _products_by_s(fine_kernel_via_f5, "D", LEFT, monkeypatch) == 3
    assert _products_by_s(reference_fine_kernel_via_f5, "D", LEFT,
                          monkeypatch) == 6


@pytest.mark.parametrize("side", (LEFT, RIGHT))
def test_products_by_s_are_the_highest_power(side, monkeypatch):
    highest = {"D": 3, "Delta": 2, "DeltaD": 1, "Dbar": 3, "Dbar2": 2,
               "D2": 2, "DeltaDbar": 1}
    for kind in FINE_KINDS:
        assert _products_by_s(fine_kernel_via_f5, kind, side,
                              monkeypatch) == highest[kind], kind


def test_one_registry_of_kinds():
    assert tuple(MONOMIAL_TABLES) == FINE_KINDS
    assert tuple(F5_COMBINATIONS) == FINE_KINDS
    assert tuple(KERNEL_TERMS) == tuple(KIND_WORDS)
    for kind, (o, _, _) in MONOMIAL_TABLES.items():
        assert o == KIND_ORDER[kind] - 1, kind


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(FINE_KINDS), st.integers(0, 160))
def test_word_image_equals_printed_table_up_to_m_160(kind, m):
    assert dict(word_image(KIND_WORDS[kind], m)) == _exact_canonical(
        monomial_image(kind, m))


def _harmonic_fixture():
    """The report's Harmonic fixture (harness._suite_vekua)."""
    C = apply_word(harness.TAG_COMPLEMENTS[SYSTEM_TAGS["Harmonic"]],
                   SlicePolynomial.monomial(5))
    return axial_parts(C)


@pytest.mark.parametrize("point", [(0.7, nan), (0.7, inf), (inf, 1.1),
                                   (nan, 1.1), (-inf, 1.1), (0.7, -inf),
                                   (nan, 0.01), (inf, nan)])
def test_vekua_residual_rejects_a_non_finite_point(point):
    A, B = _harmonic_fixture()
    with pytest.raises(NotFinite):
        vekua_residual("Harmonic", A, B, point)


def test_vekua_residual_finite_point_unchanged():
    A, B = _harmonic_fixture()
    r1, r2 = vekua_residual("Harmonic", A, B, (0.7, 1.1))
    assert max(r1.norm_inf(), r2.norm_inf()) == 0.0
    with pytest.raises(AxisTooClose):
        vekua_residual("Harmonic", A, B, (0.7, 0.01))
