"""An unknown side, a negative series length N, an unknown kind, a negative
degree, an FD step that is not finite and positive, and an operator tuple
with a non-finite component raise ValueError at every public entry point
instead of computing something else."""

import numpy as np
import pytest

from finestruct.clifford_core import Multivector
from finestruct.contour import (
    circle,
    fine_integral_eval,
    slice_integral,
    word_eval,
)
from finestruct.fueter_ops import (
    fd_apply,
    fd_apply_batch,
    monomial_image,
    word_image,
)
from finestruct.harness import _rand_slice_poly, _rand_tuple
from finestruct.kernels import (
    cauchy_kernel,
    cauchy_kernel_batch,
    f5_kernel,
    fine_kernel,
    fine_kernel_rows,
    fine_kernel_series,
    fine_kernel_via_f5,
    kernel_from_table,
)
from finestruct.op_calculus import (
    OperatorTuple,
    f5_moment,
    fine_resolvent,
    fine_resolvent_series,
    poly_calculus_exact,
    poly_calculus_integral,
    poly_calculus_integrals,
    resolvent_rows,
)
from finestruct.slice_poly import LEFT, SlicePolynomial

S = Multivector.paravector(2.0, 0.3, 0.0, 0.1)
X = Multivector.paravector(0.3, 0.1, -0.2, 0.0)
E1 = Multivector.basis(1)
BAD = "LEFT"


def _operator_fixture():
    rng = np.random.default_rng(5)
    T, _ = _rand_tuple(rng, 2, 0.2)
    return T, circle(0.0, 1.5 * T.norm_bound(), E1, 16), \
        _rand_slice_poly(rng, 3, LEFT)


def _entry_points():
    T, c, P = _operator_fixture()
    return {
        "cauchy_kernel I": lambda: cauchy_kernel(BAD, "I", S, X),
        "cauchy_kernel II": lambda: cauchy_kernel(BAD, "II", S, X),
        "cauchy_kernel_batch": lambda: cauchy_kernel_batch(BAD, S, X.c[None]),
        "f5_kernel": lambda: f5_kernel(BAD, S, X),
        "fine_kernel": lambda: fine_kernel("D", BAD, S, X),
        "fine_kernel_rows": lambda: fine_kernel_rows("D", BAD, S, X),
        "fine_kernel_series": lambda: fine_kernel_series("D", BAD, S, X, 4),
        "fine_kernel_via_f5": lambda: fine_kernel_via_f5("D", BAD, S, X),
        "kernel_from_table": lambda: kernel_from_table(
            "D", BAD, lambda name: X, lambda k: X),
        "fine_resolvent": lambda: fine_resolvent("D", BAD, T, S),
        "resolvent_rows": lambda: resolvent_rows("D", BAD, T, c),
        "fine_resolvent_series": lambda: fine_resolvent_series(
            "D", BAD, T, S, 4),
        "poly_calculus_exact": lambda: poly_calculus_exact("D", BAD, P, T),
        "poly_calculus_integral": lambda: poly_calculus_integral(
            "D", BAD, P, T, c),
        "poly_calculus_integrals": lambda: poly_calculus_integrals(
            T, c, [("D", BAD, P)]),
        "slice_integral": lambda: slice_integral(
            lambda Y: X, c, lambda Y: X, BAD),
        "fd_apply D": lambda: fd_apply(("D",), lambda y: y, X, side=BAD),
        "fd_apply Delta": lambda: fd_apply(("Delta",), lambda y: y, X,
                                           side=BAD),
        "fd_apply_batch": lambda: fd_apply_batch(("Dbar",), lambda Y: Y, X,
                                                 side=BAD),
    }


@pytest.mark.parametrize("name", sorted(_entry_points()))
def test_unknown_side_is_rejected(name):
    with pytest.raises(ValueError, match="side must be"):
        _entry_points()[name]()


def test_negative_kernel_series_length_is_rejected():
    with pytest.raises(ValueError, match="N >= 0, got -1"):
        fine_kernel_series("D", LEFT, S, X, -1)
    # Before any other work: x outside the disk does not decide the error.
    with pytest.raises(ValueError, match="N >= 0, got -1"):
        fine_kernel_series("D", LEFT, X, S, -1)


def test_negative_resolvent_series_length_is_rejected():
    T, _, _ = _operator_fixture()
    with pytest.raises(ValueError, match="N >= 0, got -1"):
        fine_resolvent_series("D", LEFT, T, S, -1)
    with pytest.raises(ValueError, match="N >= 0, got -1"):
        fine_resolvent_series("D", LEFT, T, Multivector.scalar(1e-6), -1)


# -- unknown kinds -------------------------------------------------------------


def _kind_entry_points():
    T, c, P = _operator_fixture()
    return {
        "fine_kernel": lambda: fine_kernel("Foo", LEFT, S, X),
        "fine_kernel_rows": lambda: fine_kernel_rows("Foo", LEFT, S, X),
        "fine_kernel_series": lambda: fine_kernel_series("Foo", LEFT, S, X, 4),
        "kernel_from_table": lambda: kernel_from_table(
            "Foo", LEFT, lambda name: X, lambda k: X),
        "fine_resolvent": lambda: fine_resolvent("Foo", LEFT, T, S),
        "resolvent_rows": lambda: resolvent_rows("Foo", LEFT, T, c),
        "fine_resolvent_series": lambda: fine_resolvent_series(
            "Foo", LEFT, T, S, 4),
        "poly_calculus_exact": lambda: poly_calculus_exact("Foo", LEFT, P, T),
        "poly_calculus_integral": lambda: poly_calculus_integral(
            "Foo", LEFT, P, T, c),
        "poly_calculus_integrals": lambda: poly_calculus_integrals(
            T, c, [("Foo", LEFT, P)]),
        "fine_integral_eval": lambda: fine_integral_eval(
            "Foo", P, X * 0.1, circle(0.0, 1.0, E1, 16)),
        "word_eval": lambda: word_eval("Foo", P, X),
        "monomial_image": lambda: monomial_image("Foo", 3),
    }


@pytest.mark.parametrize("name", sorted(_kind_entry_points()))
def test_unknown_kind_is_rejected(name):
    with pytest.raises(ValueError, match="unknown kind 'Foo'"):
        _kind_entry_points()[name]()


# -- negative degrees ----------------------------------------------------------


def test_negative_monomial_degree_is_rejected():
    with pytest.raises(ValueError, match="m must be nonnegative"):
        SlicePolynomial.monomial(-1)


def test_negative_word_image_degree_is_rejected():
    with pytest.raises(ValueError, match="m must be nonnegative"):
        word_image(("D",), -1)
    with pytest.raises(ValueError, match="m must be nonnegative"):
        word_image((), -1)


def test_negative_f5_moment_degree_is_rejected():
    T, c, _ = _operator_fixture()
    with pytest.raises(ValueError, match="m must be nonnegative"):
        f5_moment(T, c, -1)


# -- the FD oracle's steps -----------------------------------------------------

BAD_STEPS = (0.0, -1e-3, float("nan"), float("inf"), -float("inf"))


def _never_called(*_):
    raise AssertionError("F was called")


@pytest.mark.parametrize("name", ("h", "step_growth"))
@pytest.mark.parametrize("bad", BAD_STEPS)
def test_bad_fd_step_is_rejected_before_f_is_called(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        fd_apply_batch(("Delta", "D"), _never_called, X, **{name: bad})
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        fd_apply(("D",), _never_called, X, **{name: bad})


# -- finite operator tuples ----------------------------------------------------


@pytest.mark.parametrize("bad", (float("inf"), -float("inf"), float("nan")))
def test_non_finite_operator_component_is_rejected(bad):
    mats = [np.eye(2) * 0.1 * (i + 1) for i in range(6)]
    mats[3] = mats[3].copy()
    mats[3][0, 0] = bad
    with pytest.raises(ValueError, match="must be finite"):
        OperatorTuple(mats)
