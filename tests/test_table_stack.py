"""The one stacked evaluator of the kernel table, kernels._table_stack, held
to references that do not run it: the Multivector evaluation of the table
(factors from paravector_conjugate and Multivector.scalar, products mv_mul),
and the operator factors from OperatorTuple.conj_clifford and
CliffordMatrix.from_blade.  Compared as raw bytes, so signed zeros count."""

import importlib
import itertools
import pkgutil

import numpy as np
import pytest

import finestruct
from finestruct import kernels
from finestruct.clifford_core import Multivector, paravector_conjugate
from finestruct.contour import circle
from finestruct.fueter_ops import KIND_WORDS
from finestruct.kernels import (
    S_MINUS_X0,
    S_MINUS_XBAR,
    fine_kernel,
    fine_kernel_rows,
    inverse_power,
    kernel_from_table,
)
from finestruct.op_calculus import (
    CliffordMatrix,
    OperatorTuple,
    fine_resolvent,
    poly_calculus_integral,
    q_resolvent,
    resolvent_rows,
)
from finestruct.slice_poly import LEFT, RIGHT, SlicePolynomial

KINDS = tuple(KIND_WORDS)


def _multivector_fine_kernel(kind, side, s, x):
    """The table read with multivectors: each factor built from s and x as
    a Multivector, Q^(-k) from inverse_power, products by mv_mul."""
    q = kernels._guarded_q(s, x)

    def factor(name):
        if name == S_MINUS_XBAR:
            return s - paravector_conjugate(x)
        if name == S_MINUS_X0:
            return s - Multivector.scalar(x[0])
        return x - s

    return kernel_from_table(kind, side, factor, lambda k: inverse_power(q, k))


def _points(case, n=6):
    rng = np.random.default_rng({"generic": 1, "axis": 2, "signed_zeros": 3}[case])
    pairs = []
    for _ in range(n):
        s = rng.normal(size=6) * 2.0 + np.array([3.0, 0, 0, 0, 0, 0])
        x = rng.normal(size=6) * 0.6
        if case == "axis":
            x[1:] = 0.0
        elif case == "signed_zeros":
            x[rng.random(6) < 0.5] = -0.0
            s[rng.random(6) < 0.4] = -0.0
        pairs.append((Multivector.paravector(*s), Multivector.paravector(*x)))
    return pairs


@pytest.mark.parametrize("side", (LEFT, RIGHT))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", ("generic", "axis", "signed_zeros"))
def test_fine_kernel_equals_the_multivector_table_bit_for_bit(case, kind, side):
    pairs = _points(case)
    for s, x in pairs:
        want = _multivector_fine_kernel(kind, side, s, x).c.tobytes()
        assert fine_kernel(kind, side, s, x).c.tobytes() == want
    s = pairs[0][0]
    X = np.array([x.c for _, x in pairs])
    rows = fine_kernel_rows(kind, side, s, X)
    for row, (_, x) in zip(rows, pairs):
        assert row.tobytes() == _multivector_fine_kernel(kind, side, s, x).c.tobytes()


def _signed_zero_tuple():
    """Diagonal (so commuting) components whose zero entries are +0.0 and
    -0.0; spectral spheres (0.3, 0.2) and (1.0, 0.5)."""
    z = -0.0
    mats = [[[0.3, z], [0.0, 1.0]],
            [[0.2, 0.0], [z, 0.5]],
            [[z, z], [z, z]],
            [[0.0, 0.0], [0.0, 0.0]],
            [[z, 0.0], [0.0, z]],
            [[0.0, z], [z, 0.0]]]
    T = OperatorTuple(mats)
    signs = np.signbit(np.array(T.mats)) & (np.array(T.mats) == 0.0)
    assert signs.any() and (~signs & (np.array(T.mats) == 0.0)).any()
    return T


def _conj_clifford_resolvent(kind, side, T, s):
    sI = CliffordMatrix.from_multivector(s, T.d)

    def factor(name):
        if name == S_MINUS_XBAR:
            return sI - T.conj_clifford()
        if name == S_MINUS_X0:
            return sI - CliffordMatrix.from_blade(0, T.T0)
        return T.as_clifford() - sI

    return kernel_from_table("Cauchy" if kind == "SC" else kind, side, factor,
                             lambda k: q_resolvent(T, s, k))


def test_resolvents_of_a_signed_zero_tuple_equal_the_conj_clifford_form():
    T = _signed_zero_tuple()
    c = circle(0.5, 1.5, Multivector.paravector(0.0, 0.6, -0.0, 0.8), 20)
    points = [Multivector.paravector(0.5, -0.0, 0.7, 0.0, -0.2, 0.0),
              Multivector.scalar(-2.0)]
    for kind, side in itertools.product(KINDS + ("SC",), (LEFT, RIGHT)):
        rows = resolvent_rows(kind, side, T, c)
        for K, s in zip(rows, c.nodes):
            assert K.a.tobytes() == _conj_clifford_resolvent(kind, side, T, s).a.tobytes()
        for s in points:
            assert (fine_resolvent(kind, side, T, s).a.tobytes()
                    == _conj_clifford_resolvent(kind, side, T, s).a.tobytes())


def test_every_reader_of_the_table_reaches_the_one_stacked_evaluator(monkeypatch):
    original = kernels._table_stack
    calls = []

    def counted(kind, side, S, X, q_power, mul):
        calls.append(S.ndim)
        return original(kind, side, S, X, q_power, mul)

    patched = []
    for info in pkgutil.iter_modules(finestruct.__path__):
        module = importlib.import_module(f"finestruct.{info.name}")
        if getattr(module, "_table_stack", None) is original:
            monkeypatch.setattr(module, "_table_stack", counted)
            patched.append(info.name)
    assert {"kernels", "op_calculus"} <= set(patched)

    s, x = _points("generic", 1)[0]
    fine_kernel("Dbar", LEFT, s, x)
    assert calls == [2]
    fine_kernel_rows("F5", RIGHT, s, np.array([x.c, x.c * 0.5]))
    assert calls == [2, 2]
    calls.clear()
    T = _signed_zero_tuple()
    c = circle(0.5, 1.5, Multivector.basis(1), 20)  # blocks of 8, 8 and 4 nodes
    poly_calculus_integral("Delta", LEFT, SlicePolynomial.monomial(2), T, c)
    assert calls == [4, 4, 4]
