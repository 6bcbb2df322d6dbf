"""The paravector step of mv_mul_rows: bit for bit equal to mv_mul on each
row (raw bytes, so signed zeros count), the old steps' bytes for operands
with an inf or NaN, and taken only by products of two finite paravector
operands with at least three blades each; with the Q^(-k) chain it serves."""

import numpy as np
import pytest

from finestruct import clifford_core, kernels
from finestruct.clifford_core import (
    PARAVECTOR_INDEX,
    Multivector,
    _HIGHER,
    _gather_product,
    mv_mul_rows,
    paravector_norm_sq_rows,
)
from finestruct.kernels import _q_powers, fine_kernel_rows
from finestruct.slice_poly import LEFT, SlicePolynomial, eval_slice_poly_rows

# Small integers make exact cancellations (and their signed zeros) common.
VALUES = np.array([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])


def _per_row(A, B) -> np.ndarray:
    A, B = np.broadcast_arrays(A, B)
    return np.array([_gather_product(a, b) for a, b in zip(A, B)])


def _paravector_rows(rng, n) -> np.ndarray:
    """n rows over a random set of 2 to 6 paravector blades, some of them
    all zero (a zero column); entries are normal or small integers, with
    +0.0 and -0.0 sprinkled in."""
    X = np.zeros((n, 32))
    blades = rng.choice(PARAVECTOR_INDEX, int(rng.integers(2, 7)), replace=False)
    if rng.random() < 0.5:
        X[:, blades] = rng.choice(VALUES, (n, len(blades)))
    else:
        X[:, blades] = rng.standard_normal((n, len(blades)))
        X[rng.random(X.shape) < 0.15] = -0.0
    if rng.random() < 0.3:
        X[:, rng.choice(blades)] = 0.0
    return X


def _shapes(rng, t):
    n = int(rng.integers(2, 9))
    return ((n, n), (1, n), (n, 1))[t % 3]


def _bytes_without_the_step(monkeypatch, A, B) -> bytes:
    """mv_mul_rows with the paravector step switched off: the bytes of the
    steps that were there before it, unchanged."""
    with monkeypatch.context() as m:
        m.setattr(clifford_core, "_PARAVECTOR_SET", frozenset())
        return mv_mul_rows(A, B).tobytes()


@pytest.fixture
def kind_calls(monkeypatch):
    calls = []
    original = clifford_core._paravector_product_slots

    def counted(p, q):
        calls.append(1)
        return original(p, q)

    monkeypatch.setattr(clifford_core, "_paravector_product_slots", counted)
    return calls


@pytest.fixture
def madds(monkeypatch):
    steps = []
    original = clifford_core._madd

    def counted(acc, x, y):
        steps.append(1)
        original(acc, x, y)

    monkeypatch.setattr(clifford_core, "_madd", counted)
    return steps


def test_the_step_equals_mv_mul_per_row_on_finite_paravectors(kind_calls):
    rng = np.random.default_rng(43)
    for t in range(5400):
        na, nb = _shapes(rng, t)
        A, B = _paravector_rows(rng, na), _paravector_rows(rng, nb)
        if t % 9 == 0 and na == nb:
            B = A.copy()   # p_i q_j + p_j (-q_i) cancels to +0.0
        assert mv_mul_rows(A, B).tobytes() == _per_row(A, B).tobytes()
    assert len(kind_calls) > 2000


@pytest.mark.parametrize("operand", ("A", "B"))
def test_non_finite_operands_keep_the_old_steps_bytes(monkeypatch, kind_calls,
                                                      operand):
    """An inf or NaN in either operand, also where the other operand's
    column is zero (the step would make inf * 0 there), gives the bytes
    of the old steps, and the step never runs."""
    rng = np.random.default_rng(7 if operand == "A" else 8)
    with np.errstate(invalid="ignore", over="ignore"):
        for t in range(600):
            na, nb = _shapes(rng, t)
            A, B = _paravector_rows(rng, na), _paravector_rows(rng, nb)
            X = A if operand == "A" else B
            X[rng.integers(len(X)), rng.choice(PARAVECTOR_INDEX)] = rng.choice(
                (np.inf, -np.inf, np.nan))
            assert (mv_mul_rows(A, B).tobytes()
                    == _bytes_without_the_step(monkeypatch, A, B))
    assert kind_calls == []


def test_a_dropped_finiteness_test_would_change_bytes(monkeypatch):
    """The guard matters: the step itself on an infinite B blade that meets
    a zero column of A gives NaN where mv_mul gives a number."""
    A = np.zeros((2, 32))
    A[:, [0, 1, 2]] = [[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]]
    B = np.zeros((2, 32))
    B[:, [0, 1, 4]] = [[1.0, 1.0, np.inf], [2.0, 1.0, 1.0]]
    with np.errstate(invalid="ignore"):
        step = np.zeros((2, 32))
        step[:, clifford_core._PRODUCT_INDEX] = np.transpose(
            clifford_core._paravector_product_slots(
                A.T[PARAVECTOR_INDEX], B.T[PARAVECTOR_INDEX]))
        assert step.tobytes() != _per_row(A, B).tobytes()
        assert (mv_mul_rows(A, B).tobytes()
                == _bytes_without_the_step(monkeypatch, A, B))


def _paravector_256(rng, blades=PARAVECTOR_INDEX):
    X = np.zeros((256, 32))
    X[:, blades] = rng.standard_normal((256, len(blades)))
    return X


def test_six_by_six_blades_at_256_rows_make_no_madd(kind_calls, madds):
    rng = np.random.default_rng(1)
    A, B = _paravector_256(rng), _paravector_256(rng)
    assert mv_mul_rows(A, B).tobytes() == _per_row(A, B).tobytes()
    assert (len(madds), len(kind_calls)) == (0, 1)
    mv_mul_rows(_paravector_256(rng, [0, 1, 2]), B)
    assert len(kind_calls) == 2   # three blades are enough


def _counts(monkeypatch, madds, kind_calls, A, B):
    madds.clear()
    got = mv_mul_rows(A, B).tobytes()
    before = len(madds)
    madds.clear()
    assert got == _bytes_without_the_step(monkeypatch, A, B)
    return before, len(madds), len(kind_calls)


def test_other_products_keep_their_steps(monkeypatch, kind_calls, madds):
    """Horner's two-blade node rows against dense rows and against a zero
    accumulator, paravector rows against a zero accumulator, two blades
    against six, dense against paravector rows, and one row times one row
    (mv_mul's gather) make the same madds as without the step, and none
    takes it."""
    rng = np.random.default_rng(2)
    nodes = _paravector_256(rng, [0, 4])
    para = _paravector_256(rng)
    dense = rng.standard_normal((256, 32))
    zero = np.zeros((256, 32))
    for A, B in ((nodes, dense), (dense, nodes), (nodes, zero), (para, zero),
                 (zero, para), (nodes, para), (para, nodes), (para, dense),
                 (dense, para), (para[:1], para[1:2])):
        with_step, without, calls = _counts(monkeypatch, madds, kind_calls, A, B)
        assert with_step == without and calls == 0
    assert _counts(monkeypatch, madds, kind_calls, nodes, dense)[0] == 2


def test_q_minus_two_is_exactly_a_paravector(kind_calls):
    """Q^(-1) Q^(-1) by the step: each bivector slot is x + (-x) = +0.0,
    and so is every other slot outside the paravector ones; Q^(-2) Q^(-1)
    then takes the step too."""
    rng = np.random.default_rng(5)
    q = np.zeros((500, 32))
    q[:, PARAVECTOR_INDEX] = rng.standard_normal((500, 6))
    q[rng.random(q.shape) < 0.1] = -0.0
    q[:, 0] += 3.0
    powers = _q_powers(q, paravector_norm_sq_rows(q)[:, None])
    q2 = powers(2)
    assert len(kind_calls) == 1
    assert q2[:, _HIGHER].tobytes() == np.zeros((500, len(_HIGHER))).tobytes()
    powers(3)
    assert len(kind_calls) == 3


@pytest.mark.parametrize("kind, calls", (("Cauchy", 1), ("F5", 2), ("D2", 2),
                                         ("Delta", 2)))
def test_the_kernel_rows_take_the_step(kind_calls, kind, calls):
    """(s - xbar) Q^(-1), (s - xbar) Q^(-2), (x - s) Q^(-2), Q^(-1) Q^(-1)
    and Q^(-2) Q^(-1) take the step, (s - xbar) Q^(-3) does not (Q^(-3)
    has bivectors); each kernel row still equals fine_kernel at its row."""
    rng = np.random.default_rng(6)
    s = Multivector.paravector(1.7, 0.3, -0.2, 0.1)
    X = np.zeros((40, 32))
    X[:, PARAVECTOR_INDEX] = rng.standard_normal((40, 6)) * 0.3
    rows = fine_kernel_rows(kind, LEFT, s, X)
    assert len(kind_calls) == calls
    want = [kernels.fine_kernel(kind, LEFT, s, Multivector(x)).c for x in X]
    assert rows.tobytes() == np.array(want).tobytes()


def test_horner_on_paravector_nodes_is_unchanged(monkeypatch, kind_calls):
    """Horner's zero accumulator never takes the step; the second product,
    paravector nodes times the paravector accumulator, does, with the bytes
    of the old steps; after it the accumulator has bivectors."""
    rng = np.random.default_rng(9)
    P = SlicePolynomial([Multivector.paravector(*rng.standard_normal(6))
                         for _ in range(4)])
    X = _paravector_256(rng)
    got = eval_slice_poly_rows(P, X).tobytes()
    with monkeypatch.context() as m:
        m.setattr(clifford_core, "_PARAVECTOR_SET", frozenset())
        assert got == eval_slice_poly_rows(P, X).tobytes()
    assert len(kind_calls) == 1


def test_a_one_row_side_reaches_the_q_slots_as_floats(monkeypatch):
    seen = []
    original = kernels._q_slots

    def recorded(s, x, nx):
        seen.append((type(s), type(x)))
        return original(s, x, nx)

    monkeypatch.setattr(kernels, "_q_slots", recorded)
    s = Multivector.paravector(1.5, 0.2)
    X = np.zeros((3, 32))
    X[:, PARAVECTOR_INDEX] = 0.1
    fine_kernel_rows("Cauchy", LEFT, s, X)
    fine_kernel_rows("Cauchy", LEFT, X, s)
    assert seen == [(list, np.ndarray), (np.ndarray, list)]
