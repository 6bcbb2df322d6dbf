"""The pseudo-kernel chain of kernels keeps one copy of each rule: the table
reader takes the ring product as an argument, the sphere guard's bound and
form I's guarded inverse have one definition each, and every kernel and
resolvent entry point rejects a point that is not a paravector with
NotParavector, -0.0 in a higher blade being zero."""

import numpy as np
import pytest

from finestruct import contour, kernels, op_calculus
from finestruct.clifford_core import Multivector, check_paravector
from finestruct.contour import circle, fine_integral_eval
from finestruct.errors import NotParavector, SpectralSphereHit
from finestruct.harness import _rand_tuple
from finestruct.kernels import (
    KERNEL_TERMS,
    S_MINUS_X0,
    S_MINUS_X0_SQ,
    cauchy_kernel,
    cauchy_kernel_batch,
    f5_kernel,
    fine_kernel,
    fine_kernel_rows,
    fine_kernel_series,
    fine_kernel_via_f5,
    kernel_from_table,
    p0_residual,
)
from finestruct.op_calculus import (
    f_resolvent_equation_residual,
    fine_resolvent,
    fine_resolvent_series,
    q_resolvent,
    resolvent_rows,
)
from finestruct.slice_poly import LEFT, RIGHT, SlicePolynomial

SIDES = (LEFT, RIGHT)
E12 = 3  # the blade e1 e2, outside the paravector slots

# -- the reader takes the product ---------------------------------------------


def _expected_products(kind, side):
    """The products a row names, in evaluation order: (s - x0)^2 is one
    product of its factor by itself, then L * Q^(-k), then (...) * R."""
    out = []
    for _, left, k, right in KERNEL_TERMS[kind]:
        if side != LEFT:
            left, right = right, left
        term = f"Q^-{k}"
        if left is not None:
            if left == S_MINUS_X0_SQ:
                out.append((S_MINUS_X0, S_MINUS_X0))
            out.append((left, term))
            term = f"{left} {term}"
        if right is not None:
            if right == S_MINUS_X0_SQ:
                out.append((S_MINUS_X0, S_MINUS_X0))
            out.append((term, right))
    return out


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("kind", tuple(KERNEL_TERMS))
def test_a_counting_mul_sees_every_product_the_row_names(kind, side):
    rng = np.random.default_rng(3)
    labels = {}
    alive = []  # keeps every labelled array alive, so no id is reused

    def labelled(a, name):
        labels[id(a)] = name
        alive.append(a)
        return a

    def factor(name):
        return labelled(rng.normal(size=(4, 32)), name)

    def q_power(k):
        return labelled(rng.normal(size=(4, 32)), f"Q^-{k}")

    seen = []

    def mul(A, B):
        a, b = labels[id(A)], labels[id(B)]
        seen.append((a, b))
        name = S_MINUS_X0_SQ if a == b == S_MINUS_X0 else f"{a} {b}"
        return labelled(A * B, name)

    got = kernel_from_table(kind, side, factor, q_power, mul)
    assert seen == _expected_products(kind, side)
    assert got.shape == (4, 32)


def test_the_ring_adapter_and_the_restated_helpers_are_gone():
    assert not hasattr(kernels, "_Ring")
    assert not hasattr(kernels, "_q_inverse_power")
    assert not hasattr(contour, "_rows_at")


# -- one sphere bound, one guarded form-I inverse ---------------------------------


def test_both_kernel_paths_read_the_one_sphere_bound(monkeypatch):
    s = Multivector.paravector(2.0, 0.5)
    x = Multivector.paravector(0.3, 0.1, 0.2)
    fine_kernel("Dbar", LEFT, s, x)
    fine_kernel_rows("Dbar", LEFT, s, x.c[None])
    monkeypatch.setattr(kernels, "_sphere_bound",
                        lambda ns, nx: np.full(np.shape(ns), np.inf))
    for call in (lambda: fine_kernel("Dbar", LEFT, s, x),
                 lambda: fine_kernel_rows("Dbar", LEFT, s, x.c[None]),
                 lambda: fine_kernel_rows("Dbar", LEFT, s.c[None], x),
                 lambda: cauchy_kernel(RIGHT, "I", s, x)):
        with pytest.raises(SpectralSphereHit):
            call()


def test_op_calculus_reads_form_one_through_the_one_guarded_inverse():
    for name in ("_sphere_guarded", "pseudo_kernel", "paravector_inverse"):
        assert not hasattr(op_calculus, name)
    assert op_calculus._qn_inverse is kernels._qn_inverse


# -- the paravector domain ----------------------------------------------------------


def _with_e12(p, value=0.05):
    c = p.c.copy()
    c[E12] = value
    return Multivector(c)


S = Multivector.paravector(1.1, 0.3, 0.2)
X = Multivector.paravector(0.2, 0.1)


def _kernel_calls(s, x):
    return {
        "fine_kernel": lambda: fine_kernel("F5", LEFT, s, x),
        "fine_kernel_rows": lambda: fine_kernel_rows("F5", LEFT, s.c[None], x),
        "fine_kernel_rows x rows": lambda: fine_kernel_rows(
            "Dbar", RIGHT, s, x.c[None]),
        "cauchy_kernel I": lambda: cauchy_kernel(LEFT, "I", s, x),
        "cauchy_kernel II": lambda: cauchy_kernel(RIGHT, "II", s, x),
        "cauchy_kernel_batch": lambda: cauchy_kernel_batch(LEFT, s, x.c[None]),
        "f5_kernel": lambda: f5_kernel(LEFT, s, x),
        "fine_kernel_series": lambda: fine_kernel_series("F5", LEFT, s, x, 6),
        "fine_kernel_via_f5": lambda: fine_kernel_via_f5("D", LEFT, s, x),
        "p0_residual": lambda: p0_residual(s, x),
    }


def _resolvent_calls(s, x):
    T, _ = _rand_tuple(np.random.default_rng(5), 2, 0.2)
    return {
        "q_resolvent": lambda: q_resolvent(T, s, 1),
        "fine_resolvent": lambda: fine_resolvent("F5", LEFT, T, s),
        "fine_resolvent_series": lambda: fine_resolvent_series(
            "D", LEFT, T, s * 2.0, 4),
        "f_resolvent_equation_residual s": lambda: f_resolvent_equation_residual(
            T, s, x + Multivector.scalar(1.0)),
        "f_resolvent_equation_residual p": lambda: f_resolvent_equation_residual(
            T, x + Multivector.scalar(1.0), s),
    }


@pytest.mark.parametrize("where", ("s", "x"))
def test_every_kernel_entry_point_rejects_a_higher_blade(where):
    s, x = (_with_e12(S), X) if where == "s" else (S, _with_e12(X))
    for name, call in _kernel_calls(s, x).items():
        with pytest.raises(NotParavector):
            call()
            pytest.fail(name)


def test_every_resolvent_entry_point_rejects_a_higher_blade():
    for name, call in _resolvent_calls(_with_e12(S), X).items():
        with pytest.raises(NotParavector):
            call()
            pytest.fail(name)


def test_the_contour_integral_rejects_a_higher_blade_in_x():
    c = circle(0.0, 2.0, Multivector.basis(1), 32)
    P = SlicePolynomial.monomial(3)
    fine_integral_eval("F5", P, X, c)
    with pytest.raises(NotParavector):
        fine_integral_eval("F5", P, _with_e12(X), c)


def test_resolvent_rows_reject_a_node_with_a_higher_blade():
    T, _ = _rand_tuple(np.random.default_rng(5), 2, 0.2)
    c = circle(0.0, 1.5, Multivector.basis(1), 16)
    rows = c.node_rows.copy()
    rows[3, E12] = 1e-3
    with pytest.raises(NotParavector):
        op_calculus._stacked_solve(T, rows)
    bad = contour.Contour(c.J, c.center, c.radius, rows, c.dsj_rows)
    with pytest.raises(NotParavector):
        resolvent_rows("F5", LEFT, T, bad)


def test_a_negative_zero_in_a_higher_blade_is_a_paravector():
    s, x = _with_e12(S, -0.0), _with_e12(X, -0.0)
    check_paravector(s.c, x.c, np.array([s.c, x.c]))
    for call in {**_kernel_calls(s, x), **_resolvent_calls(s, x)}.values():
        call()
    assert fine_kernel("F5", LEFT, s, x) == fine_kernel("F5", LEFT, S, X)
    assert np.array_equal(fine_kernel_rows("F5", LEFT, s, x.c[None])[0],
                          fine_kernel("F5", LEFT, S, X).c)


@pytest.mark.parametrize("kind", ("Cauchy", "F5", "Dbar"))
@pytest.mark.parametrize("where", ("s", "x"))
def test_the_scalar_and_row_kernels_raise_alike(kind, where):
    s, x = (_with_e12(S), X) if where == "s" else (S, _with_e12(X))
    errors = []
    for call in (lambda: fine_kernel(kind, LEFT, s, x),
                 lambda: fine_kernel_rows(kind, LEFT, s.c[None], x.c[None])):
        with pytest.raises(NotParavector) as info:
            call()
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
