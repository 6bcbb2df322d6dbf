"""An unknown side, or a negative series length N, raises ValueError at
every public entry point instead of computing something else."""

import numpy as np
import pytest

from finestruct.clifford_core import Multivector
from finestruct.contour import circle, slice_integral
from finestruct.fueter_ops import fd_apply, fd_apply_batch
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
    fine_resolvent,
    fine_resolvent_series,
    poly_calculus_exact,
    poly_calculus_integral,
    poly_calculus_integrals,
    resolvent_rows,
)
from finestruct.slice_poly import LEFT

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
