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


def _record_steps(monkeypatch):
    """Replace clifford_core._madd by a copy that records the widths of
    each step's two factors."""
    steps = []
    madd = clifford_core._madd

    def recorded(acc, x, y):
        steps.append((x.shape[1], y.shape[1]))
        madd(acc, x, y)

    monkeypatch.setattr(clifford_core, "_madd", recorded)
    return steps


SPARSE_RIGHTS = [(b,) for b in range(32)] + [(0, 1), (3, 17), (30, 31)]


@pytest.mark.parametrize("right", SPARSE_RIGHTS, ids=str)
def test_mv_mul_rows_with_a_one_or_two_blade_operand(right):
    """The loop over B's blades (a dense or paravector A against one or two
    B blades) and its mirror, with and without blade 0, on full rows and
    on one-row broadcasts on either side; the rows carry +0.0, -0.0 and an
    all-zero row."""
    rng = np.random.default_rng(sum(right) + 100 * len(right))
    n = 7
    X = _rows(rng, n, list(right))
    for blades in (range(32), (0, 1, 2, 4, 8, 16), (5, 9)):
        A = _rows(rng, n, list(blades))
        _check_both_orders(A, X)
        _check_both_orders(A[:1], X)
        _check_both_orders(A, X[1:2])
        _check_both_orders(np.broadcast_to(A[2], A.shape), X)


@pytest.mark.parametrize("right", ((0, 1), (3, 17), (30, 31)), ids=str)
def test_two_blade_rows_whose_terms_overflow_to_both_infinities(right):
    """Finite operands whose two terms in a slot are +inf and -inf (NaN),
    inf and inf, or inf and a finite value: the order of the two terms
    must not show in the sum."""
    rng = np.random.default_rng(9)
    A = rng.choice((-1e200, 1e200, 3.0, -0.0), size=(16, 32))
    X = np.zeros((16, 32))
    X[:, list(right)] = rng.choice((-1e200, 1e200, 2.0), size=(16, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for P, Q in ((A, X), (X, A)):
            got = mv_mul_rows(P, Q)
            assert got.tobytes() == _per_row(P, Q).tobytes()
            assert np.isnan(got).any() and np.isinf(got).any()
            assert np.isfinite(got).any()


@pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
def test_a_non_finite_left_operand_loops_over_its_own_blades(monkeypatch, bad):
    """Against a two-blade B, a non-finite dense A keeps the loop over A
    ((n, 1) columns of A, one step per blade of A), so an infinite A blade
    still meets B's zero blades and gives NaN there, as in mv_mul."""
    steps = _record_steps(monkeypatch)
    rng = np.random.default_rng(10)
    A = rng.standard_normal((4, 32))
    A[1, 6] = bad
    X = np.zeros((4, 32))
    X[:, [0, 2]] = rng.standard_normal((4, 2))
    with np.errstate(invalid="ignore"):
        got = mv_mul_rows(A, X)
        assert got.tobytes() == _per_row(A, X).tobytes()
    # Slots 6 and 6 ^ 2 pair blade 6 with B's two blades; the other 30
    # pair it with a zero of B.
    assert np.isnan(got[1]).sum() == (32 if np.isnan(bad) else 30)
    assert not np.isnan(got[[0, 2, 3]]).any()
    assert steps == [(1, 32)] * 32


@pytest.mark.parametrize("right", ((0,), (7,), (0, 1), (3, 17), (1, 2, 4)),
                         ids=str)
def test_a_dense_times_sparse_product_makes_one_step_per_right_blade(
        monkeypatch, right):
    """One (n, 32) gather of A times one (n, 1) column of B per blade of B
    for one or two blades; from three blades on, the ranked loop's two
    (n, 32) gathers per step."""
    steps = _record_steps(monkeypatch)
    rng = np.random.default_rng(11)
    A = rng.standard_normal((5, 32))
    X = np.zeros((5, 32))
    X[:, list(right)] = rng.standard_normal((5, len(right)))
    assert mv_mul_rows(A, X).tobytes() == _per_row(A, X).tobytes()
    width = 1 if len(right) <= 2 else 32
    assert steps == [(32, width)] * len(right)


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
