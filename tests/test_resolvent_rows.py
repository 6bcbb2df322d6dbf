"""The stacked resolvent solve: resolvent_rows gives fine_resolvent at every
node of a contour, and q_resolvent gives its per-point formula, both compared
bit for bit (raw bytes, so signed zeros count); one solve and one axis
decomposition per stacked solve, matching the per-node split; the typed
errors of the solve."""

import itertools
from math import hypot

import numpy as np
import pytest

from finestruct import op_calculus
from finestruct.clifford_core import DIM, Multivector, PARAVECTOR_MASKS, axis_decompose
from finestruct.contour import circle
from finestruct.errors import OnSpectrum, SingularSolve
from finestruct.harness import ALL_KINDS, _rand_tuple
from finestruct.kernels import S_MINUS_X0, S_MINUS_XBAR, kernel_from_table
from finestruct.op_calculus import (
    CliffordMatrix,
    OperatorTuple,
    fine_resolvent,
    q_resolvent,
    resolvent_rows,
)
from finestruct.slice_poly import LEFT, RIGHT

KINDS = ALL_KINDS + ("SC",)


# -- the per-point formulas, as they were before the stacked solve -------------


def _reference_q_resolvent(T, s, k=1):
    u0v0 = T.spectrum()
    u, v, _ = axis_decompose(s)
    if min(hypot(u - a, v - b) for (a, b) in u0v0) <= 1e-8:
        raise OnSpectrum("s is too close to the S-spectrum")
    u, v, J = axis_decompose(s)
    z = complex(u, v)
    Z = (z * z) * np.eye(T.d) - (2.0 * z) * T.T0 + T.qmat()
    W = np.linalg.matrix_power(np.linalg.inv(Z), k)
    a = np.zeros((DIM, T.d, T.d))
    a[0] = np.real(W)
    if J is not None:
        im = np.imag(W)
        for mask in PARAVECTOR_MASKS[1:]:
            a[mask] = J[mask] * im
    return CliffordMatrix(a)


def _reference_fine_resolvent(kind, side, T, s):
    sI = CliffordMatrix.from_multivector(s, T.d)

    def factor(name):
        if name == S_MINUS_XBAR:
            return sI - T.conj_clifford()
        if name == S_MINUS_X0:
            return sI - CliffordMatrix.from_blade(0, T.T0)
        return T.as_clifford() - sI

    return kernel_from_table("Cauchy" if kind == "SC" else kind, side, factor,
                             lambda k: _reference_q_resolvent(T, s, k))


def _same_bytes(a: CliffordMatrix, b: CliffordMatrix) -> bool:
    return np.array_equal(a.a, b.a) and a.a.tobytes() == b.a.tobytes()


def _unit(rng) -> Multivector:
    v = rng.normal(size=5)
    return Multivector.paravector(0.0, *(v / np.linalg.norm(v)))


def _assert_rows_match(T, c):
    for kind, side in itertools.product(KINDS, (LEFT, RIGHT)):
        rows = resolvent_rows(kind, side, T, c)
        assert len(rows) == len(c.nodes)
        for n, (K, s) in enumerate(zip(rows, c.nodes)):
            assert _same_bytes(K, fine_resolvent(kind, side, T, s)), (kind, side, n)
            assert _same_bytes(K, _reference_fine_resolvent(kind, side, T, s)), (
                kind, side, n)


# -- resolvent_rows -------------------------------------------------------------


@pytest.mark.parametrize("d", range(1, 7))
def test_resolvent_rows_equal_fine_resolvent_per_node(d):
    rng = np.random.default_rng(200 + d)
    T, _ = _rand_tuple(rng, d)
    c = circle(0.0, 1.25 * T.norm_bound(), _unit(rng), 24)
    # Node 0 lies on the real axis (sin 0 = 0), where J is None.
    assert axis_decompose(c.nodes[0])[2] is None
    _assert_rows_match(T, c)


def test_resolvent_rows_on_the_two_contours_of_a_disconnected_spectrum():
    """The block tuple and the two circles of the two-component Tcost check."""
    rng = np.random.default_rng(5)
    T1, _ = _rand_tuple(rng, 2, 0.3, vanish45=True)
    T2, _ = _rand_tuple(rng, 2, 0.3, vanish45=True, shifts=np.full(2, 5.0))
    zeros = np.zeros((2, 2))
    T = OperatorTuple([np.block([[a, zeros], [zeros, b]])
                       for a, b in zip(T1.mats, T2.mats)])
    e1 = Multivector.basis(1)
    for c in (circle(0.0, 1.2, e1, 32), circle(5.0, 1.2, e1, 32)):
        _assert_rows_match(T, c)


def _diagonal_tuple():
    """Spectral spheres (0.3, 0.2) and (1.0, 0.5)."""
    zeros = np.zeros((2, 2))
    return OperatorTuple([np.diag([0.3, 1.0]), np.diag([0.2, 0.5])]
                         + [zeros] * 4)


@pytest.mark.parametrize("offset", (0.0, 5e-9))
def test_resolvent_rows_raise_on_spectrum(offset):
    # Node 4 of 16 sits at (1.0, 0.5 + offset), within 1e-8 of a sphere.
    c = circle(1.0, 0.5 + offset, Multivector.basis(1), 16)
    with pytest.raises(OnSpectrum):
        resolvent_rows("F5", LEFT, _diagonal_tuple(), c)


def test_singular_solve_is_typed(monkeypatch):
    def singular(Z):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(op_calculus.np.linalg, "inv", singular)
    T = _diagonal_tuple()
    with pytest.raises(SingularSolve):
        q_resolvent(T, Multivector.scalar(3.0))
    with pytest.raises(SingularSolve):
        resolvent_rows("D", LEFT, T, circle(0.0, 2.0, Multivector.basis(1), 16))


# -- q_resolvent and fine_resolvent per point -------------------------------------


@pytest.mark.parametrize("d", range(1, 7))
def test_q_resolvent_equals_the_per_point_formula(d):
    rng = np.random.default_rng(300 + d)
    T, _ = _rand_tuple(rng, d)
    points = [Multivector.paravector(*(rng.normal(size=6) * 1.5))
              for _ in range(4)]
    points.append(Multivector.scalar(3.0 + T.norm_bound()))  # J is None
    points.append(Multivector.paravector(0.5, -0.0, 0.7, 0.0, -0.2, 0.0))
    for s, k in itertools.product(points, (1, 2, 3)):
        assert _same_bytes(q_resolvent(T, s, k), _reference_q_resolvent(T, s, k))


def test_q_resolvent_raises_on_spectrum():
    with pytest.raises(OnSpectrum):
        q_resolvent(_diagonal_tuple(), Multivector.paravector(1.0, 0.5 + 5e-9))


# -- the row solve against the per-node split ----------------------------------


def _reference_solve(T, nodes):
    """_stacked_solve as it was, splitting each node through axis_decompose:
    W and the J of each node (None for a real node)."""
    spectrum = T.spectrum()
    zz, tz, units = [], [], []
    for s in nodes:
        u, v, J = axis_decompose(s)
        if min(hypot(u - u0, v - v0) for (u0, v0) in spectrum) <= 1e-8:
            raise OnSpectrum("s is too close to the S-spectrum")
        z = complex(u, v)
        zz.append(z * z)
        tz.append(2.0 * z)
        units.append(J)
    Z = (np.array(zz)[:, None, None] * np.eye(T.d)
         - np.array(tz)[:, None, None] * T.T0 + T.qmat())
    return np.linalg.inv(Z), units


def _reference_slots(Wk, units):
    """The paravector slots of Wk with each node's J as a Multivector."""
    a = np.zeros((len(Wk), len(PARAVECTOR_MASKS)) + Wk.shape[1:])
    a[:, 0] = Wk.real
    rows = [n for n, J in enumerate(units) if J is not None]
    if rows:
        J = np.array([units[n].c[list(PARAVECTOR_MASKS[1:])] for n in rows])
        a[rows, 1:] = J[:, :, None, None] * Wk.imag[rows, None]
    return a


def _assert_solve_matches_the_per_node_split(T, S, nodes):
    W, units = op_calculus._stacked_solve(T, S)
    ref_W, ref_units = _reference_solve(T, nodes)
    assert W.tobytes() == ref_W.tobytes()
    assert [not row.any() for row in units] == [J is None for J in ref_units]
    for k in (1, 2, 3):
        Wk = np.linalg.matrix_power(W, k)
        assert (op_calculus._paravector_slots(Wk, units).tobytes()
                == _reference_slots(Wk, ref_units).tobytes()), k


def test_the_row_solve_equals_the_per_node_split():
    rng = np.random.default_rng(17)
    T, _ = _rand_tuple(rng, 3)
    c = circle(0.0, 1.25 * T.norm_bound(), _unit(rng), 16)
    # Node 0 (sin 0 = 0) is real, so its J row is zero; node 8 is not,
    # since sin(pi) rounds to 1.2e-16.
    assert axis_decompose(c.nodes[0])[2] is None
    assert axis_decompose(c.nodes[8])[2] is not None
    _assert_solve_matches_the_per_node_split(T, c.node_rows, c.nodes)
    s = Multivector.scalar(3.0 + T.norm_bound())
    _assert_solve_matches_the_per_node_split(T, s.c[None], [s])
    assert _same_bytes(q_resolvent(T, s, 2), _reference_q_resolvent(T, s, 2))


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_decomposition_and_one_solve_per_point(monkeypatch):
    """One axis_rows call on the node rows and one inverse per stacked
    solve: a point makes one of each, and so does a whole 16-node contour
    (16 decompositions and 1 inverse when each node was split alone)."""
    rng = np.random.default_rng(9)
    T, _ = _rand_tuple(rng, 3)
    s = Multivector.paravector(*(rng.normal(size=6) * 2.0))
    T.spectrum()
    decompositions = _counting(monkeypatch, op_calculus, "axis_rows")
    solves = _counting(monkeypatch, op_calculus.np.linalg, "inv")
    q_resolvent(T, s, 2)
    assert (len(decompositions), len(solves)) == (1, 1)
    fine_resolvent("Dbar", LEFT, T, s)  # the row needs Q^-2 and Q^-1
    assert (len(decompositions), len(solves)) == (2, 2)
    c = circle(0.0, 1.25 * T.norm_bound(), Multivector.basis(1), 16)
    resolvent_rows("Dbar", RIGHT, T, c)
    assert (len(decompositions), len(solves)) == (3, 3)
