"""Row products over the sparser operand, and contours built as rows: both
compared bit for bit (raw bytes, so signed zeros count) with the per-row
and per-node code they replace."""

from math import cos, pi, sin, sqrt

import numpy as np
import pytest

from finestruct import clifford_core
from finestruct.clifford_core import Multivector, _gather_product, mv_mul_rows
from finestruct.contour import circle
from finestruct.errors import DegenerateRadius

J1 = Multivector.basis(4)
J5 = Multivector.paravector(0.0, *(v / sqrt(55.0) for v in (1, -2, 3, -4, 5)))


def _per_row(A, B) -> np.ndarray:
    A, B = np.broadcast_arrays(A, B)
    return np.array([_gather_product(a, b) for a, b in zip(A, B)])


def _check_both_orders(A, B):
    for P, Q in ((A, B), (B, A)):
        assert mv_mul_rows(P, Q).tobytes() == _per_row(P, Q).tobytes()


def _rows(rng, n, blades):
    """n rows, nonzero only at the given blades; some entries are +0.0 or
    -0.0, and one row is all zero."""
    X = np.zeros((n, 32))
    X[:, blades] = rng.standard_normal((n, len(blades)))
    X[rng.random(X.shape) < 0.15] = 0.0
    X[rng.random(X.shape) < 0.15] = -0.0
    X[rng.integers(n)] = 0.0
    return X


@pytest.mark.parametrize("nb", range(32))
def test_mv_mul_rows_equals_the_gather_per_row(nb):
    rng = np.random.default_rng(nb)
    for n in (2, 3, 7):
        B = _rows(rng, n, rng.choice(32, nb, replace=False))
        for na in (0, 1, nb, 32):
            _check_both_orders(_rows(rng, n, rng.choice(32, na, replace=False)), B)


def test_mv_mul_rows_on_broadcast_operands():
    rng = np.random.default_rng(1)
    A = _rows(rng, 5, np.arange(32))
    for blades in ((0,), (0, 2), (0, 1, 2, 4, 8, 16), tuple(range(20))):
        row = _rows(rng, 2, list(blades))[0] + 0.0
        row[blades[0]] = -0.0
        B = np.broadcast_to(row, A.shape)
        _check_both_orders(A, B)
        _check_both_orders(np.broadcast_to(A[0], A.shape), B)


@pytest.mark.parametrize("J", (J1, J5), ids=("J1", "J5"))
def test_mv_mul_rows_on_contour_rows(J):
    rng = np.random.default_rng(2)
    c = circle(0.3, 1.1, J, 33)
    dense = _rows(rng, 33, np.arange(32))
    for X in (c.node_rows, c.dsj_rows):
        _check_both_orders(dense, X)
        _check_both_orders(X, X)


@pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
def test_mv_mul_rows_with_a_non_finite_left_operand(bad):
    """mv_mul multiplies every nonzero blade of A with all of B, so an
    infinite A blade meets B's zeros (inf * 0 is NaN).  Both loops must
    keep that, whichever operand is sparser."""
    rng = np.random.default_rng(4)
    X = _rows(rng, 6, [0, 2])
    for blades in (list(range(32)), [0, 2, 7], [5]):
        A = _rows(rng, 6, blades)
        A[1, blades[-1]] = bad
        A[3] = 0.0
        A[3, blades[0]] = bad
        for B in (X, np.zeros((6, 32)), _rows(rng, 6, list(range(32)))):
            with np.errstate(invalid="ignore"):
                assert mv_mul_rows(A, B).tobytes() == _per_row(A, B).tobytes()


@pytest.mark.parametrize("na, nb, loop_width", ((2, 32, 1), (32, 2, 32)),
                         ids=("loop_over_A", "loop_over_B"))
@pytest.mark.parametrize("rows_a, rows_b", ((1, 5), (5, 1)), ids=("1xn", "nx1"))
def test_mv_mul_rows_broadcasts_a_one_row_operand(monkeypatch, na, nb,
                                                   loop_width, rows_a, rows_b):
    """A one-row operand meets every row of the other, on either loop:
    the loop over A adds (n, 1) columns of A, the loop over B (n, 32)
    gathers."""
    widths = []
    madd = clifford_core._madd

    def recorded(acc, x, y):
        widths.append(x.shape[1])
        madd(acc, x, y)

    monkeypatch.setattr(clifford_core, "_madd", recorded)
    rng = np.random.default_rng(6)
    A = np.zeros((rows_a, 32))
    A[:, rng.choice(32, na, replace=False)] = rng.standard_normal((rows_a, na))
    B = np.zeros((rows_b, 32))
    B[:, rng.choice(32, nb, replace=False)] = rng.standard_normal((rows_b, nb))
    B[-1, :3] = -0.0
    out = mv_mul_rows(A, B)
    assert out.shape == (5, 32)
    assert out.tobytes() == _per_row(A, B).tobytes()
    assert widths and set(widths) == {loop_width}


def test_dense_times_two_blade_rows_makes_two_steps(monkeypatch):
    steps = []
    madd = clifford_core._madd

    def counted(acc, x, y):
        steps.append(x.shape)
        madd(acc, x, y)

    monkeypatch.setattr(clifford_core, "_madd", counted)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 32))
    X = np.zeros((8, 32))
    X[:, [0, 2]] = rng.standard_normal((8, 2))
    assert mv_mul_rows(A, X).tobytes() == _per_row(A, X).tobytes()
    assert len(steps) == 2
    steps.clear()
    mv_mul_rows(X, A)
    assert len(steps) == 2


@pytest.mark.parametrize("center, radius, J, N", (
    (0.0, 1.0, J1, 17), (5.0, 1.2, Multivector.basis(2), 33),
    (-0.3, 0.7, J5, 257), (-0.0, 2.5, Multivector.basis(16), 19)))
def test_circle_rows_equal_the_multivector_construction(center, radius, J, N):
    c = circle(center, radius, J, N)
    weight = 2.0 * pi / N
    nodes, dsj = [], []
    for i in range(N):
        co, si = cos(weight * i), sin(weight * i)
        nodes.append(Multivector.scalar(center + radius * co) + J * (radius * si))
        dsj.append((Multivector.scalar(co) + J * si) * (radius * weight))
    for rows, values, mvs in ((c.node_rows, nodes, c.nodes),
                              (c.dsj_rows, dsj, c.dsj)):
        want = np.array([v.c for v in values])
        assert rows.tobytes() == want.tobytes()
        assert np.array([v.c for v in mvs]).tobytes() == want.tobytes()
        assert not rows.flags.writeable


@pytest.mark.parametrize("center, radius", (
    (0.0, float("nan")), (0.0, float("inf")), (float("inf"), 1.0)))
def test_circle_rejects_a_non_finite_center_or_radius(center, radius):
    with pytest.raises(DegenerateRadius):
        circle(center, radius, J1)
