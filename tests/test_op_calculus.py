from math import hypot

import numpy as np
import pytest

from finestruct.clifford_core import DIM, LEFT_SIGNED, Multivector, blade_product
from finestruct.contour import circle
from finestruct.errors import (
    OnSpectrum,
    OutsideConvergenceDisk,
    SpectrumNotEnclosed,
)
from finestruct.harness import _rand_slice_poly, _rand_tuple
from finestruct.op_calculus import (
    CliffordMatrix,
    OperatorTuple,
    _mul_stack,
    f5_moment,
    f_resolvent_equation_residual,
    fine_resolvent,
    fine_resolvent_series,
    p0_operator_residual,
    poly_calculus_exact,
    poly_calculus_integral,
    product_rule_residual,
    q_resolvent,
    s_spectrum,
    spectral_circle,
)
from finestruct.slice_poly import LEFT, RIGHT, SlicePolynomial

E1 = Multivector.basis(1)
ALL_KINDS = ("SC", "Cauchy", "D", "Delta", "DeltaD", "Dbar", "Dbar2", "D2",
             "DeltaDbar", "F5")


def test_clifford_matrix_mirrors_multivector_product():
    rng = np.random.default_rng(1)
    a = Multivector(rng.normal(size=32))
    b = Multivector(rng.normal(size=32))
    A = CliffordMatrix.from_multivector(a, 3)
    B = CliffordMatrix.from_multivector(b, 3)
    C = CliffordMatrix.from_multivector(a * b, 3)
    assert (A * B - C).norm_inf() < 1e-13


def test_from_multivector_scales_the_identity_per_blade():
    rng = np.random.default_rng(3)
    c = Multivector(rng.normal(size=32))
    for d in (1, 3, 4):
        A = CliffordMatrix.from_multivector(c, d)
        ref = c.c[:, None, None] * np.eye(d)[None, :, :]
        assert A.a.tobytes() == ref.tobytes()
        A.a[0, 0, 0] = 7.0  # a fresh array, not the shared identity
        assert CliffordMatrix.from_multivector(c, d).a.tobytes() == ref.tobytes()


def _reference_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum over all blade pairs (a, b) of sign * A[a] @ B[b] into blade a ^ b."""
    out = np.zeros_like(A)
    for a in range(DIM):
        for b in range(DIM):
            sign, k = blade_product(a, b)
            out[k] += sign * (A[a] @ B[b])
    return out


def _operand(rng, kind: str, d: int) -> np.ndarray:
    if kind == "zero":
        return np.zeros((DIM, d, d))
    a = rng.normal(size=(DIM, d, d))
    if kind == "sparse":
        a[rng.random(DIM) < 0.75] = 0.0
    return a


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_clifford_matrix_product_matches_definition(d):
    rng = np.random.default_rng(10 + d)
    kinds = ("dense", "sparse", "zero")
    for ka in kinds:
        for kb in kinds:
            A, B = _operand(rng, ka, d), _operand(rng, kb, d)
            ref = _reference_product(A, B)
            got = (CliffordMatrix(A) * CliffordMatrix(B)).a
            assert got.shape == (DIM, d, d)
            assert np.abs(got - ref).max() <= 1e-13 * max(np.abs(ref).max(), 1.0)
    # A Multivector on either side acts as c (x) I.
    A = _operand(rng, "dense", d)
    c = Multivector(rng.normal(size=DIM))
    C = c.c[:, None, None] * np.eye(d)
    for got, ref in ((CliffordMatrix(A) * c, _reference_product(A, C)),
                     (c * CliffordMatrix(A), _reference_product(C, A))):
        assert np.abs(got.a - ref).max() <= 1e-13 * np.abs(ref).max()


def _element_gather_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The product as one element gather and one matmul: the left-regular
    matrix L[(k, i), (b, j)] = [A, -A][LEFT_SIGNED[k, b], i, j] built entry
    by entry, then L @ B.reshape(32 d, d)."""
    d = A.shape[1]
    i = np.arange(d)
    idx = (LEFT_SIGNED[:, None, :, None] * d + i[:, None, None]) * d + i
    left = np.concatenate((A, -A)).take(idx.reshape(DIM * d, DIM * d))
    return (left @ B.reshape(DIM * d, d)).reshape(DIM, d, d)


def _signed_zero_operand(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(DIM, d, d))
    a[rng.random(DIM) < 0.3] = 0.0
    a[rng.random(DIM) < 0.3] = -0.0
    a[rng.random((DIM, d, d)) < 0.1] = -0.0
    return a


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_stacked_product_equals_the_element_gather_byte_for_byte(d):
    rng = np.random.default_rng(40 + d)
    dense = [_signed_zero_operand(rng, d) for _ in range(5)]
    coeffs = rng.normal(size=DIM)
    coeffs[rng.random(DIM) < 0.3] = -0.0
    c = Multivector(coeffs)
    expanded = CliffordMatrix.from_multivector(c, d).a
    pairs = [(dense[0], dense[1]), (dense[2], expanded), (expanded, dense[3]),
             (expanded, expanded), (dense[4], -dense[4])]
    want = [_element_gather_product(A, B).tobytes() for A, B in pairs]
    stacked = _mul_stack(np.array([A for A, _ in pairs]),
                         np.array([B for _, B in pairs]))
    assert [p.tobytes() for p in stacked] == want
    for (A, B), ref in zip(pairs, want):
        assert _mul_stack(A[None], B[None])[0].tobytes() == ref
        assert (CliffordMatrix(A) * CliffordMatrix(B)).a.tobytes() == ref
    assert (CliffordMatrix(dense[2]) * c).a.tobytes() == want[1]
    assert (c * CliffordMatrix(dense[3])).a.tobytes() == want[2]


@pytest.mark.parametrize("shape", [(DIM,), (DIM, 3), (DIM, 3, 2), (16, 3, 3),
                                   (1, DIM, 3, 3)])
def test_clifford_matrix_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match=r"expected shape \(32, d, d\)"):
        CliffordMatrix(np.zeros(shape))


def test_qmat_is_computed_once_and_read_only():
    T, _ = _rand_tuple(np.random.default_rng(3), 3, 0.5)
    Q = T.qmat()
    assert Q is T.qmat()
    assert np.array_equal(Q, sum(m @ m for m in T.mats))
    with pytest.raises(ValueError):
        Q[0, 0] = 1.0


def test_noncommuting_tuple_rejected():
    mats = [np.eye(2)] * 6
    mats[1] = np.array([[0.0, 1.0], [0.0, 0.0]])
    mats[2] = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        OperatorTuple(mats)


def test_s_spectrum_diagonal_example():
    mats = [np.diag([1.0, 2.0]), np.diag([3.0, 0.0]),
            np.diag([4.0, 0.0])] + [np.zeros((2, 2))] * 3
    spheres = s_spectrum(OperatorTuple(mats))
    assert len(spheres) == 2
    (u1, v1), (u2, v2) = spheres
    assert abs(u1 - 1.0) < 1e-10 and abs(v1 - 5.0) < 1e-10
    assert abs(u2 - 2.0) < 1e-10 and abs(v2 - 0.0) < 1e-10


def test_s_spectrum_matches_ground_truth():
    rng = np.random.default_rng(2)
    for _ in range(5):
        T, truth = _rand_tuple(rng, 4)
        spheres = s_spectrum(T)
        assert len(spheres) == len(truth)
        for (u, v), (tu, tv) in zip(spheres, truth):
            assert abs(u - tu) < 1e-10 and abs(v - tv) < 1e-10


def test_s_spectrum_keeps_spheres_closer_than_a_loose_tolerance():
    # T0 and T1 are similar, by the same integer U, to diagonal matrices,
    # so they commute exactly.  The two spheres are 2^-20 apart in u: far
    # above the 1e-8 relative dedupe, far below an absolute 1e-3.
    U = np.array([[1.0, 1.0], [0.0, 1.0]])
    U_inv = np.array([[1.0, -1.0], [0.0, 1.0]])
    u1 = 0.25 + 2.0 ** -20
    mats = [U @ np.diag([0.25, u1]) @ U_inv, U @ np.diag([0.5, 0.5]) @ U_inv]
    mats += [np.zeros((2, 2))] * 4
    spheres = s_spectrum(OperatorTuple(mats))
    assert len(spheres) == 2
    for (u, v), (tu, tv) in zip(spheres, [(0.25, 0.5), (u1, 0.5)]):
        assert abs(u - tu) < 1e-15 and abs(v - tv) < 1e-15


def test_q_resolvent_inverts():
    rng = np.random.default_rng(3)
    T, _ = _rand_tuple(rng, 3)
    s = Multivector.paravector(2.0, 0.5, 0.0, 0.3)
    Q = (CliffordMatrix.from_multivector(s * s, 3)
         - CliffordMatrix.from_blade(0, 2.0 * T.T0) * s
         + CliffordMatrix.from_blade(0, T.qmat()))
    eye = CliffordMatrix.identity(3)
    assert (Q * q_resolvent(T, s, 1) - eye).norm_inf() < 1e-12


def test_on_spectrum_guard():
    mats = [np.diag([1.0, 2.0])] + [np.zeros((2, 2))] * 5
    T = OperatorTuple(mats)
    with pytest.raises(OnSpectrum):
        q_resolvent(T, Multivector.scalar(1.0))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_series_matches_resolvent(kind):
    rng = np.random.default_rng(4)
    T, _ = _rand_tuple(rng, 3, 0.2)
    s = Multivector.paravector(1.5, 0.4, 0.0, 0.2)
    for side in (LEFT, RIGHT):
        closed = fine_resolvent(kind, side, T, s)
        series = fine_resolvent_series(kind, side, T, s, 60)
        assert (series - closed).norm_inf() < 1e-10


def test_series_divergence_guard():
    rng = np.random.default_rng(5)
    T, _ = _rand_tuple(rng, 3, 1.0)
    with pytest.raises(OutsideConvergenceDisk):
        fine_resolvent_series("D", LEFT, T, Multivector.scalar(1e-3), 10)


@pytest.mark.parametrize("kind", ("SC", "D", "Delta", "F5"))
def test_integral_matches_exact_substitution(kind):
    rng = np.random.default_rng(6)
    T, _ = _rand_tuple(rng, 3, 0.3)
    c = circle(0.0, 1.5 * T.norm_bound(), E1, 192)
    for side in (LEFT, RIGHT):
        P = _rand_slice_poly(rng, 5, side)
        assert (poly_calculus_integral(kind, side, P, T, c)
                - poly_calculus_exact(kind, side, P, T)).norm_inf() < 1e-9


def test_spectral_circle_encloses_the_s_spectrum_at_the_stated_radius():
    rng = np.random.default_rng(9)
    E3 = Multivector.basis(4)
    for d in (3, 4):
        T, _ = _rand_tuple(rng, d)
        rho = max(hypot(u, v) for u, v in T.spectrum())
        for J, margin in ((E3, 1.25), (E1, 1.6)):
            c = spectral_circle(T, J, 64, margin)
            radius = margin * (rho + 0.2)
            assert (c.center, c.radius) == (0.0, radius)
            want = circle(0.0, radius, J, 64)
            assert c.node_rows.tobytes() == want.node_rows.tobytes()
            assert c.dsj_rows.tobytes() == want.dsj_rows.tobytes()
            for u, v in T.spectrum():
                assert hypot(u, v) + 0.2 * margin <= radius
        # The circle is sized by the spectrum, not by the norm bound.
        assert radius < T.norm_bound()


def test_spectrum_enclosure_guard():
    rng = np.random.default_rng(7)
    T, _ = _rand_tuple(rng, 3, 0.5)
    c = circle(10.0, 1.0, E1, 64)
    with pytest.raises(SpectrumNotEnclosed):
        poly_calculus_integral("SC", LEFT, SlicePolynomial.monomial(1), T, c)


def test_moment_vanishing():
    rng = np.random.default_rng(8)
    T, _ = _rand_tuple(rng, 3, 0.3)
    c = circle(0.0, 1.5 * T.norm_bound(), E1, 192)
    for j in range(4):
        assert f5_moment(T, c, j).norm_inf() < 1e-10


def test_p0_operator_identity():
    rng = np.random.default_rng(9)
    for _ in range(5):
        T, _ = _rand_tuple(rng, 3, 0.3)
        s = Multivector.paravector(1.8, 0.3, 0.0, 0.0, 0.2)
        assert p0_operator_residual(T, s).norm_inf() < 1e-12


def test_f_resolvent_equation():
    rng = np.random.default_rng(10)
    for _ in range(5):
        T, _ = _rand_tuple(rng, 3, 0.3)
        s = Multivector.paravector(2.0, 0.2, 0.1)
        p = Multivector.paravector(-1.8, 0.0, 0.3)
        assert f_resolvent_equation_residual(T, s, p).norm_inf() < 1e-11


def test_product_rule():
    rng = np.random.default_rng(11)
    T, _ = _rand_tuple(rng, 2, 0.3)
    c = circle(0.0, 1.6 * T.norm_bound(), E1, 128)
    f = SlicePolynomial([rng.normal() for _ in range(4)], LEFT)
    g = _rand_slice_poly(rng, 4, LEFT)
    assert product_rule_residual(f, g, T, c).norm_inf() < 1e-9


def test_delta_squared_of_s4_is_64():
    rng = np.random.default_rng(12)
    T, _ = _rand_tuple(rng, 3, 0.3)
    c = circle(0.0, 1.5 * T.norm_bound(), E1, 192)
    got = poly_calculus_integral("F5", LEFT, SlicePolynomial.monomial(4), T, c)
    expected = CliffordMatrix.identity(3).scale(64.0)
    assert (got - expected).norm_inf() < 1e-9


def test_clifford_matrix_scales_by_a_number_from_the_left_only():
    rng = np.random.default_rng(8)
    M = CliffordMatrix(rng.normal(size=(DIM, 3, 3)))
    assert (2.0 * M).a.tobytes() == (M.a * 2.0).tobytes()
    assert (2 * M).a.tobytes() == (M.a * 2.0).tobytes()
    with pytest.raises(TypeError):
        M * 2.0
