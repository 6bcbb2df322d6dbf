"""poly_calculus_integrals: every job of one batched call equals
poly_calculus_integral and the per-node reference loop byte for byte (raw
bytes, so signed zeros count), in any job order; one stacked solve per
contour and one kernel set per (table row, side) and contour; the typed
errors come before any solve."""

import tracemalloc
from math import pi

import numpy as np
import pytest

from finestruct import harness, op_calculus
from finestruct.clifford_core import Multivector
from finestruct.contour import circle
from finestruct.errors import OnSpectrum, SpectrumNotEnclosed
from finestruct.harness import _rand_slice_poly, _rand_tuple
from finestruct.op_calculus import (
    CliffordMatrix,
    OperatorTuple,
    fine_resolvent,
    poly_calculus_integral,
    poly_calculus_integrals,
)
from finestruct.slice_poly import LEFT, RIGHT, SlicePolynomial, eval_slice_poly


def _reference_integral(kind, side, P, T, c):
    """One fine_resolvent and one product per node, added in node order."""
    if callable(P):
        f = P
    else:
        def f(s):
            return eval_slice_poly(P, s)
    d = T.d
    acc = CliffordMatrix.zero(d)
    for ci in (list(c) if isinstance(c, (list, tuple)) else [c]):
        for s, w in zip(ci.nodes, ci.dsj):
            K = fine_resolvent(kind, side, T, s)
            if side == LEFT:
                acc = acc + K * w * f(s)
            else:
                acc = acc + CliffordMatrix.from_multivector(f(s) * w, d) * K
    return acc.scale(1.0 / (2.0 * pi))


def _one_contour(rng, N):
    T, _ = _rand_tuple(rng, 3, 0.3)
    return T, circle(0.0, 1.25 * T.norm_bound(), Multivector.basis(1), N)


def _two_contours(rng, N, M):
    T1, _ = _rand_tuple(rng, 2, 0.3, vanish45=True)
    T2, _ = _rand_tuple(rng, 2, 0.3, vanish45=True, shifts=np.full(2, 5.0))
    zeros = np.zeros((2, 2))
    T = OperatorTuple([np.block([[a, zeros], [zeros, b]])
                       for a, b in zip(T1.mats, T2.mats)])
    e2 = Multivector.basis(2)
    return T, [circle(0.0, 1.2, e2, N), circle(5.0, 1.2, e2, M)]


# Partial last blocks of 8 nodes: 17 = 2 * 8 + 1 and 23 = 2 * 8 + 7.
CASES = {
    "one_N17": lambda rng: _one_contour(rng, 17),
    "one_N23": lambda rng: _one_contour(rng, 23),
    "two_N17_23": lambda rng: _two_contours(rng, 17, 23),
    "two_N23_17": lambda rng: _two_contours(rng, 23, 17),
}


def _jobs(rng):
    """Both sides; SC and Cauchy (one table row) in one list; Dbar, whose
    row reads two powers, and F5; a repeated (kind, side) holding a
    polynomial and a callable."""
    a = Multivector(rng.normal(size=32))
    jobs = []
    for side in (LEFT, RIGHT):
        P = _rand_slice_poly(rng, 5, side)
        Q = _rand_slice_poly(rng, 4, side)

        def f(s, _P=P):
            return eval_slice_poly(_P, s) * s + a

        jobs += [("SC", side, P), ("Dbar", side, Q), ("F5", side, P),
                 ("Cauchy", side, Q), ("Dbar", side, f), ("SC", side, f),
                 ("F5", side, Q)]
    return jobs


def _same_bytes(a: CliffordMatrix, b: CliffordMatrix) -> bool:
    return a.a.shape == b.a.shape and a.a.tobytes() == b.a.tobytes()


@pytest.mark.parametrize("case", CASES)
def test_each_job_equals_the_single_call_and_the_reference_loop(case):
    rng = np.random.default_rng(31)
    T, c = CASES[case](rng)
    jobs = _jobs(rng)
    got = poly_calculus_integrals(T, c, jobs)
    assert len(got) == len(jobs)
    for G, (kind, side, P) in zip(got, jobs):
        assert _same_bytes(G, poly_calculus_integral(kind, side, P, T, c)), (
            kind, side)
        assert _same_bytes(G, _reference_integral(kind, side, P, T, c)), (
            kind, side)


@pytest.mark.parametrize("case", CASES)
def test_reversing_the_jobs_keeps_each_jobs_bytes(case):
    rng = np.random.default_rng(37)
    T, c = CASES[case](rng)
    jobs = _jobs(rng)
    forward = poly_calculus_integrals(T, c, jobs)
    backward = poly_calculus_integrals(T, c, jobs[::-1])[::-1]
    for A, B in zip(forward, backward):
        assert _same_bytes(A, B)


def test_empty_jobs_give_an_empty_list_without_a_solve(monkeypatch):
    T, c = _one_contour(np.random.default_rng(2), 17)
    solves = _counting(monkeypatch, "_stacked_solve")
    assert poly_calculus_integrals(T, c, []) == []
    assert solves == []


# -- counts ------------------------------------------------------------------


def _counting(monkeypatch, name, record=lambda *args: None):
    original = getattr(op_calculus, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(record(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(op_calculus, name, counted)
    return calls


@pytest.mark.parametrize("case", ("one_N17", "two_N17_23"))
def test_one_solve_per_contour_and_one_kernel_set_per_row_side(monkeypatch,
                                                               case):
    rng = np.random.default_rng(41)
    T, c = CASES[case](rng)
    contours = c if isinstance(c, list) else [c]
    jobs = _jobs(rng)
    T.spectrum()
    solves = _counting(monkeypatch, "_stacked_solve",
                       lambda T, nodes: len(nodes))
    kernel_sets = _counting(monkeypatch, "_resolvent_blocks",
                            lambda kind, side, T, nodes, solve:
                            (kind, side, len(nodes)))
    poly_calculus_integrals(T, c, jobs)
    assert solves == [len(ci.nodes) for ci in contours]
    # SC reads the Cauchy row, so the 14 jobs share 3 rows on 2 sides.
    assert sorted(kernel_sets) == sorted(
        (kind, side, len(ci.nodes)) for kind in ("Cauchy", "Dbar", "F5")
        for side in (LEFT, RIGHT) for ci in contours)


def test_a_calculus_pass_makes_one_solve_per_contour(monkeypatch):
    """Seed 7 at the default configuration: with one batched call for every
    integral on the spectral contour c, the calculus suite makes 8 contour
    solves and 58 kernel sets (90 and 90 when every integral made its own);
    the one-node solves of the resolvent checks stay 198."""
    solves = _counting(monkeypatch, "_stacked_solve",
                       lambda T, nodes: len(nodes) > 1)
    kernel_sets = _counting(monkeypatch, "_resolvent_blocks",
                            lambda kind, side, T, nodes, solve:
                            len(nodes) > 1)
    cfg = harness.parse_config(["--suite", "calculus", "--seed", "7"])
    for _ in harness._suite_calculus(cfg, cfg["tol"]):
        pass
    assert (solves.count(True), kernel_sets.count(True)) == (8, 58)
    assert solves.count(False) == 198


def test_a_left_row_gathers_one_left_matrix_per_block(monkeypatch):
    """Three Left jobs of one row on 23 nodes (blocks of 8, 8 and 7): every
    product gathers its left operand's matrix, and beyond those the terms
    gather one matrix per block, K·dsJ's, which all three jobs read.  Each
    job keeps the bytes of its own one-job call."""
    rng = np.random.default_rng(43)
    T, c = _one_contour(rng, 23)
    jobs = [("F5", LEFT, _rand_slice_poly(rng, 5, LEFT)) for _ in range(3)]
    alone = [poly_calculus_integral(*job, T, c) for job in jobs]
    gathers = _counting(monkeypatch, "_left_regular", lambda A: len(A))
    products = _counting(monkeypatch, "_mul_stack", lambda A, B: len(A))
    got = poly_calculus_integrals(T, c, jobs)
    assert sorted(gathers) == sorted(products + [8, 8, 7])
    for G, A in zip(got, alone):
        assert _same_bytes(G, A)


def test_a_left_row_holds_one_blocks_left_matrix_at_a_time():
    """Four F5 Left jobs at d = 4 and N = 64 peak under two blocks' left
    matrices (2 x 8 x 128^2 floats, 2 MiB): a matrix that outlives its
    block is still held while the next block's kernels are built."""
    rng = np.random.default_rng(61)
    T, _ = _rand_tuple(rng, 4)
    c = op_calculus.spectral_circle(T, Multivector.basis(1), 64, 1.25)
    jobs = [("F5", LEFT, _rand_slice_poly(rng, 6, LEFT)) for _ in range(4)]
    poly_calculus_integrals(T, c, jobs)  # spectrum and gather rows cached
    tracemalloc.start()
    try:
        poly_calculus_integrals(T, c, jobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


# -- errors ------------------------------------------------------------------


def _diagonal_tuple():
    """Spectral spheres (0.3, 0.2) and (1.0, 0.5)."""
    zeros = np.zeros((2, 2))
    return OperatorTuple([np.diag([0.3, 1.0]), np.diag([0.2, 0.5])]
                         + [zeros] * 4)


def test_an_unenclosed_spectrum_raises_before_any_solve(monkeypatch):
    T = _diagonal_tuple()
    T.spectrum()
    solves = _counting(monkeypatch, "_stacked_solve")
    small = circle(0.0, 0.5, Multivector.basis(1), 16)  # misses (1.0, 0.5)
    jobs = [("F5", LEFT, SlicePolynomial.monomial(2))]
    for c in (small, [small, circle(3.0, 0.5, Multivector.basis(1), 16)]):
        with pytest.raises(SpectrumNotEnclosed):
            poly_calculus_integrals(T, c, jobs)
        with pytest.raises(SpectrumNotEnclosed):
            poly_calculus_integrals(T, c, [])
    assert solves == []


def test_a_node_on_a_sphere_raises():
    """The first circle encloses both spheres; node 4 of 16 of the second
    sits on the sphere (1.0, 0.5)."""
    e1 = Multivector.basis(1)
    c = [circle(0.5, 2.0, e1, 16), circle(1.0, 0.5, e1, 16)]
    jobs = [("F5", LEFT, SlicePolynomial.monomial(2)),
            ("SC", RIGHT, SlicePolynomial.monomial(1, 1.0, RIGHT))]
    with pytest.raises(OnSpectrum):
        poly_calculus_integrals(_diagonal_tuple(), c, jobs)
