"""The axial evaluator of operator words, A + V·B, against the dense
evaluator it replaced, on diagonalizable and non-diagonalizable commuting
tuples; the cost of the resolvent series in CliffordMatrix products; and
the powers of T0 and -R shared across the images of one call."""

import itertools

import numpy as np
import pytest

from finestruct.clifford_core import Multivector
from finestruct.fueter_ops import KIND_WORDS, TAG_WORDS, word_image
from finestruct.harness import _rand_slice_poly, _rand_tuple
from finestruct.kernels import _slice_inverse_powers
from finestruct.op_calculus import (
    CliffordMatrix,
    OperatorTuple,
    canonical_operator_eval,
    fine_resolvent,
    fine_resolvent_series,
    poly_calculus_exact,
)
from finestruct.slice_poly import LEFT, RIGHT, SlicePolynomial

WORDS = sorted(set(KIND_WORDS.values()) | set(TAG_WORDS.values()))
ALL_KINDS = ("SC",) + tuple(KIND_WORDS)


def dense_reference(image, T: OperatorTuple):
    """Sum of n T0^a V^b over the image, with V = sum_i Ti e_i and V^b built
    by dense CliffordMatrix products; also returns sum |n| |T0^a V^b|_inf,
    the size of the terms, as the scale of the roundoff."""
    d = T.d
    V = T.as_clifford() - CliffordMatrix.from_blade(0, T.T0)
    t0_pows = [np.eye(d)]
    v_pows = [CliffordMatrix.identity(d)]
    out = CliffordMatrix.zero(d)
    scale = 0.0
    for (a, b), n in sorted(image.items()):
        while len(t0_pows) <= a:
            t0_pows.append(t0_pows[-1] @ T.T0)
        while len(v_pows) <= b:
            v_pows.append(v_pows[-1] * V)
        term = v_pows[b] * CliffordMatrix.from_blade(0, t0_pows[a])
        term = term.scale(float(n))
        out = out + term
        scale += term.norm_inf()
    return out, scale


def jordan_tuple():
    """Commuting tuple of polynomials in one 4 x 4 Jordan block, under a
    similarity; T0 - 0.03 I is nilpotent but not zero, so no component
    basis diagonalizes the tuple."""
    rng = np.random.default_rng(11)
    X = 0.3 * np.eye(4) + np.diag(np.ones(3), 1)
    S = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
    Si = np.linalg.inv(S)
    polys = [(0.0, 0.1, 0.0), (0.05, 0.1, 0.02), (-0.04, 0.08, 0.0),
             (0.0, 0.06, -0.03), (0.03, -0.05, 0.01), (-0.02, 0.0, 0.05)]
    mats = []
    for c0, c1, c2 in polys:
        mats.append(S @ (c0 * np.eye(4) + c1 * X + c2 * X @ X) @ Si)
    return OperatorTuple(mats)


def test_jordan_tuple_is_defective():
    N = jordan_tuple().T0 - 0.03 * np.eye(4)
    assert np.linalg.norm(N) > 1e-3
    assert np.linalg.norm(np.linalg.matrix_power(N, 4)) < 1e-14


def _tuples(d):
    rng = np.random.default_rng(100 + d)
    out = [_rand_tuple(rng, d)[0] for _ in range(2)]
    if d == 4:
        out.append(jordan_tuple())
    return out


@pytest.mark.parametrize("d", (1, 3, 4))
@pytest.mark.parametrize("word", WORDS,
                         ids=lambda w: "-".join(w) or "empty")
def test_axial_eval_matches_dense_reference(word, d):
    for T in _tuples(d):
        for m in range(21):
            image = word_image(word, m)
            ref, scale = dense_reference(image, T)
            got = canonical_operator_eval(image, T)
            assert (got - ref).norm_inf() <= 1e-12 * scale


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_series_matches_resolvent_on_defective_tuple(kind):
    T = jordan_tuple()
    s = Multivector.paravector(0.8, 0.3, 0.0, 0.2)
    for side in (LEFT, RIGHT):
        closed = fine_resolvent(kind, side, T, s)
        series = fine_resolvent_series(kind, side, T, s, 60)
        assert (series - closed).norm_inf() < 1e-10


def test_series_costs_one_product_per_term(monkeypatch):
    rng = np.random.default_rng(4)
    T, _ = _rand_tuple(rng, 3, 0.2)
    s = Multivector.paravector(1.5, 0.4, 0.0, 0.2)
    calls = []
    mul = CliffordMatrix.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(CliffordMatrix, "__mul__", counting_mul)
    for kind in ALL_KINDS:
        for side in (LEFT, RIGHT):
            calls.clear()
            fine_resolvent_series(kind, side, T, s, 60)
            assert len(calls) == 61, (kind, side)


def test_shared_axial_powers_keep_every_bit():
    """The series and the exact substitution grow the powers of T0 and -R
    once per call; each image still gets the bits of its own evaluation."""
    rng = np.random.default_rng(8)
    for T in (jordan_tuple(), _rand_tuple(rng, 3, 0.1)[0]):
        s = Multivector.paravector(0.8 + T.norm_bound(), 0.3, 0.0, 0.2)
        P = _rand_slice_poly(rng, 6)
        P = SlicePolynomial(P.coeffs[:2] + [Multivector()] + P.coeffs[3:], LEFT)
        for kind, side in itertools.product(ALL_KINDS, (LEFT, RIGHT)):
            word = KIND_WORDS["Cauchy" if kind == "SC" else kind]
            series = CliffordMatrix.zero(T.d)
            for m, sp in enumerate(_slice_inverse_powers(s, 30)):
                image = canonical_operator_eval(word_image(word, m), T)
                series = series + (image * sp if side == LEFT else sp * image)
            got = fine_resolvent_series(kind, side, T, s, 30)
            assert got.a.tobytes() == series.a.tobytes(), (kind, side)
            exact = CliffordMatrix.zero(T.d)
            for m, coeff in enumerate(P.coeffs):
                if not coeff.is_zero():
                    image = canonical_operator_eval(word_image(word, m), T)
                    exact = exact + (image * coeff if side == LEFT
                                     else coeff * image)
            got = poly_calculus_exact(kind, side, P, T)
            assert got.a.tobytes() == exact.a.tobytes(), (kind, side)
