"""An unknown side, a negative series length N, an unknown kind, a negative
degree, an FD step that is not finite and positive, and an operator tuple
with a non-finite component raise ValueError at every public entry point
instead of computing something else.  The typed rejections of the engine
and the harness that no other test reaches are each reached once, with their
own error."""

import numpy as np
import pytest

from finestruct import harness
from finestruct.clifford_core import Multivector
from finestruct.contour import (
    circle,
    fine_integral_eval,
    slice_integral,
    word_eval,
)
from finestruct.errors import (
    ConfigError,
    EigensolverFailure,
    NotIntrinsic,
    SingularSolve,
    UnknownSuite,
)
from finestruct.fueter_ops import (
    fd_apply,
    fd_apply_batch,
    monomial_image,
    word_degrees,
    word_image,
)
from finestruct.harness import _rand_slice_poly, _rand_tuple
from finestruct.fueter_ops import AxialPoly, axial_parts, vekua_residual
from finestruct.kernels import (
    cauchy_kernel,
    cauchy_kernel_batch,
    f5_kernel,
    fine_kernel,
    fine_kernel_rows,
    fine_kernel_series,
    fine_kernel_via_f5,
    kernel_from_table,
    pseudo_kernel,
)
from finestruct.op_calculus import (
    OperatorTuple,
    f5_moment,
    fine_resolvent,
    fine_resolvent_series,
    poly_calculus_exact,
    poly_calculus_integral,
    poly_calculus_integrals,
    product_rule_residual,
    resolvent_rows,
    s_spectrum,
)
from finestruct.slice_poly import (
    LEFT,
    RIGHT,
    CanonicalPoly,
    SlicePolynomial,
    to_canonical,
)

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


# -- every other typed rejection ---------------------------------------------


def _assign_coefficients(mv):
    mv.c = np.zeros(32)


def _failing_eigensolver(monkeypatch):
    def fail(M):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    return s_spectrum(_operator_fixture()[0])


def _config_file_without_equals(tmp_path):
    path = tmp_path / "verify.cfg"
    path.write_text("seed 7\n", encoding="utf-8")
    return harness.parse_config(["--config", str(path)])


def _suite_raising_an_engine_error(monkeypatch):
    def suite(cfg, tol):
        raise SingularSolve("Singular matrix")

    monkeypatch.setitem(harness._SUITE_FUNCS, "structures", suite)
    return harness.main(["--suite", "structures"])


def _equal_canonical_polys():
    return to_canonical(SlicePolynomial.monomial(2)).equals(
        to_canonical(SlicePolynomial.monomial(3)))


# name -> (call of monkeypatch and tmp_path, the error it raises or the value
# it returns, the error's message or a part of what it writes to stderr).
REJECTIONS = {
    "Multivector of 31 coefficients": (
        lambda mp, tmp: Multivector(np.zeros(31)),
        ValueError, "expected 32 blade coefficients"),
    "Multivector.c assigned": (
        lambda mp, tmp: _assign_coefficients(X),
        AttributeError, "Multivector is immutable"),
    "Multivector.paravector of 6 vector parts": (
        lambda mp, tmp: Multivector.paravector(0.0, *range(6)),
        ValueError, "too many vector components"),
    "word_degrees of an unknown letter": (
        lambda mp, tmp: word_degrees(("X",)),
        ValueError, "unknown letter 'X'"),
    "monomial_image of a negative degree": (
        lambda mp, tmp: monomial_image("D", -1),
        ValueError, "m must be nonnegative"),
    "fd_apply_batch of an unknown letter": (
        lambda mp, tmp: fd_apply_batch(("X",), _never_called, X),
        ValueError, "unknown letter 'X'"),
    "axial_parts of a right polynomial": (
        lambda mp, tmp: axial_parts(CanonicalPoly(side=RIGHT)),
        ValueError, "defined for left polynomials"),
    "vekua_residual of an unknown system": (
        lambda mp, tmp: vekua_residual("Nope", AxialPoly(), AxialPoly(),
                                       (0.0, 1.0)),
        ValueError, "unknown system 'Nope'"),
    "pseudo_kernel of an unknown variant": (
        lambda mp, tmp: pseudo_kernel("other", S, X),
        ValueError, "unknown variant 'other'"),
    "cauchy_kernel of form III": (
        lambda mp, tmp: cauchy_kernel(LEFT, "III", S, X),
        ValueError, "form must be 'I' or 'II', got 'III'"),
    "fine_kernel_via_f5 of F5": (
        lambda mp, tmp: fine_kernel_via_f5("F5", LEFT, S, X),
        ValueError, "no F5 combination for kind 'F5'"),
    "OperatorTuple of 5 matrices": (
        lambda mp, tmp: OperatorTuple([np.eye(2)] * 5),
        ValueError, "expected six matrices"),
    "OperatorTuple of unequal shapes": (
        lambda mp, tmp: OperatorTuple([np.eye(2)] * 5 + [np.eye(3)]),
        ValueError, "square of equal size"),
    "s_spectrum when the eigensolver fails": (
        lambda mp, tmp: _failing_eigensolver(mp),
        EigensolverFailure, "no convergence"),
    "product_rule_residual of a non-real f": (
        lambda mp, tmp: product_rule_residual(
            SlicePolynomial([E1], LEFT), SlicePolynomial.monomial(1),
            *_operator_fixture()[:2]),
        NotIntrinsic, "real coefficients"),
    "to_canonical of an int": (
        lambda mp, tmp: to_canonical(3),
        TypeError, "cannot canonicalize"),
    "CanonicalPoly.equals of different polynomials": (
        lambda mp, tmp: _equal_canonical_polys(), False, ""),
    "parse_config of an unknown flag": (
        lambda mp, tmp: harness.parse_config(["--bogus"]),
        ConfigError, "invalid command line"),
    "parse_config of a config line without =": (
        lambda mp, tmp: _config_file_without_equals(tmp),
        ConfigError, "verify.cfg:1: expected key=value"),
    "parse_config of --tol without =": (
        lambda mp, tmp: harness.parse_config(["--tol", "foo"]),
        ConfigError, "--tol expects key=value, got 'foo'"),
    "run_suite of an unknown suite": (
        lambda mp, tmp: harness.run_suite(
            {**harness.parse_config([]), "suite": "nope"}),
        UnknownSuite, "unknown suite 'nope'"),
    "main when a suite raises an engine error": (
        lambda mp, tmp: _suite_raising_an_engine_error(mp),
        2, "runtime error: Singular matrix"),
}


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_every_other_typed_rejection_is_reached(name, monkeypatch, tmp_path,
                                               capsys):
    call, outcome, message = REJECTIONS[name]
    if isinstance(outcome, type):
        with pytest.raises(outcome, match=message):
            call(monkeypatch, tmp_path)
    else:
        assert call(monkeypatch, tmp_path) == outcome
        assert message in capsys.readouterr().err
