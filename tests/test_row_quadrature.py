"""Kernel quadrature on node rows: the row kernel, the row Horner evaluation
and the slice integral, compared bit for bit (raw bytes, so signed zeros
count) with the per-node code they replace, kept here as references."""

import sys
from math import pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finestruct import contour
from finestruct.clifford_core import PARAVECTOR_MASKS, ZERO, Multivector
from finestruct.contour import circle, fine_integral_eval, slice_integral
from finestruct.errors import SpectralSphereHit
from finestruct.fueter_ops import KIND_WORDS
from finestruct.kernels import fine_kernel, fine_kernel_rows
from finestruct.slice_poly import (
    LEFT,
    RIGHT,
    SlicePolynomial,
    eval_slice_poly,
    eval_slice_poly_rows,
)

KINDS = tuple(KIND_WORDS)
SIDES = (LEFT, RIGHT)
E1 = Multivector.basis(1)


def _same_rows(rows: np.ndarray, mvs) -> bool:
    return (rows.shape == (len(mvs), 32)
            and all(r.tobytes() == m.c.tobytes() for r, m in zip(rows, mvs)))


def _signed_zero_point():
    """A paravector whose zero vector slots are -0.0."""
    c = np.zeros(32)
    c[0] = 0.15
    c[1] = 0.2
    for m in PARAVECTOR_MASKS[2:]:
        c[m] = -0.0
    c[8] = -0.1
    return Multivector(c)


POINTS = (
    Multivector.paravector(0.2, 0.1, -0.15, 0.05, 0.0, 0.1),
    Multivector.scalar(0.3),          # on the slice axis
    Multivector.scalar(-0.0),
    _signed_zero_point(),
)

# N = 16 puts nodes at theta = 0 and pi, where s is real up to sin(pi).
CONTOURS = (
    circle(0.0, 1.0, E1, 16),
    circle(0.1, 1.4, Multivector.basis(8), 32),
)


def _rand_poly(rng, degree, side):
    return SlicePolynomial([Multivector(rng.normal(size=32))
                            for _ in range(degree + 1)], side)


# -- fine_kernel_rows --------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("side", SIDES)
def test_fine_kernel_rows_equals_fine_kernel_per_node(kind, side):
    for c in CONTOURS:
        for x in POINTS:
            want = [fine_kernel(kind, side, s, x) for s in c.nodes]
            assert _same_rows(fine_kernel_rows(kind, side, c.node_rows, x), want)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("side", SIDES)
def test_fine_kernel_rows_equals_fine_kernel_per_point(kind, side):
    s = Multivector.paravector(0.9, 0.3, -0.4, 0.2, 0.1, 0.25)
    X = np.array([x.c for x in POINTS])
    want = [fine_kernel(kind, side, s, x) for x in POINTS]
    assert _same_rows(fine_kernel_rows(kind, side, s, X), want)
    one = fine_kernel_rows(kind, side, s, POINTS[0])
    assert _same_rows(one, want[:1])


paravectors = st.lists(st.floats(-1.5, 1.5), min_size=6, max_size=6).map(
    lambda v: Multivector.paravector(*v))


@settings(max_examples=40, deadline=None)
@given(st.lists(paravectors, min_size=1, max_size=5), paravectors,
       st.sampled_from(KINDS), st.sampled_from(SIDES))
def test_fine_kernel_rows_equals_fine_kernel_on_random_rows(ss, x, kind, side):
    S = np.array([s.c for s in ss])
    try:
        want = [fine_kernel(kind, side, s, x) for s in ss]
    except SpectralSphereHit:
        with pytest.raises(SpectralSphereHit):
            fine_kernel_rows(kind, side, S, x)
        return
    assert _same_rows(fine_kernel_rows(kind, side, S, x), want)


@pytest.mark.parametrize("side", SIDES)
def test_fine_kernel_rows_raises_when_one_node_is_on_the_sphere_of_x(side):
    c = circle(0.0, 1.0, E1, 16)
    s = c.nodes[4]                      # theta = pi/2
    x = Multivector.paravector(s[0], 0.0, 1.0)
    with pytest.raises(SpectralSphereHit):
        fine_kernel("Delta", side, s, x)
    for kind in KINDS:
        with pytest.raises(SpectralSphereHit):
            fine_kernel_rows(kind, side, c.node_rows, x)


# -- eval_slice_poly_rows --------------------------------------------------------------


@pytest.mark.parametrize("side", SIDES)
def test_eval_slice_poly_rows_equals_eval_slice_poly_per_row(side):
    rng = np.random.default_rng(5)
    for P in (_rand_poly(rng, 8, side), SlicePolynomial([], side),
              SlicePolynomial([Multivector.scalar(-0.0)], side),
              SlicePolynomial([ZERO, Multivector.scalar(-0.0)], side)):
        for c in CONTOURS:
            want = [eval_slice_poly(P, s) for s in c.nodes]
            assert _same_rows(eval_slice_poly_rows(P, c.node_rows), want)


def _reference_horner(P, x):
    """The Multivector Horner loop that eval_slice_poly was before it became
    the one-row case of eval_slice_poly_rows."""
    acc = ZERO
    for c in reversed(P.coeffs):
        acc = (x * acc if P.side == LEFT else acc * x) + c
    return acc


@pytest.mark.parametrize("side", SIDES)
def test_eval_slice_poly_equals_the_multivector_horner_loop(side):
    rng = np.random.default_rng(6)
    points = POINTS + CONTOURS[1].nodes[:4]
    for P in (_rand_poly(rng, 8, side), SlicePolynomial([], side),
              SlicePolynomial([ZERO, Multivector.scalar(-0.0)], side)):
        for x in points:
            assert (eval_slice_poly(P, x).c.tobytes()
                    == _reference_horner(P, x).c.tobytes())


# -- slice_integral --------------------------------------------------------------


def _reference_slice_integral(K, c, f, side):
    """The per-node sum as slice_integral made it before it ran on rows."""
    acc = ZERO
    for s, w in zip(c.nodes, c.dsj):
        if side == LEFT:
            acc = acc + K(s) * w * f(s)
        else:
            acc = acc + f(s) * w * K(s)
    return acc * (1.0 / (2.0 * pi))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("side", SIDES)
def test_fine_integral_eval_equals_the_reference_loop(kind, side):
    rng = np.random.default_rng(9)
    for c in CONTOURS + (circle(0.0, 1.0, E1, 256),):
        P = _rand_poly(rng, 8, side)
        for x in POINTS:
            got = fine_integral_eval(kind, P, x, c)
            want = _reference_slice_integral(
                lambda s: fine_kernel(kind, side, s, x), c,
                lambda s: eval_slice_poly(P, s), side)
            assert got.c.tobytes() == want.c.tobytes()


@pytest.mark.parametrize("side", SIDES)
def test_constant_integrands_are_the_same_at_every_node(side):
    rng = np.random.default_rng(4)
    a, b = (Multivector(rng.normal(size=32)) for _ in range(2))
    P = _rand_poly(rng, 5, side)
    x = POINTS[0]
    for c in CONTOURS:
        cases = (
            (lambda S: a, lambda S: b, lambda s: a, lambda s: b),
            (lambda S: a, lambda S: eval_slice_poly_rows(P, S),
             lambda s: a, lambda s: eval_slice_poly(P, s)),
            (lambda S: fine_kernel_rows("Dbar", side, S, x), lambda S: b,
             lambda s: fine_kernel("Dbar", side, s, x), lambda s: b),
        )
        for K_rows, f_rows, K, f in cases:
            got = slice_integral(K_rows, c, f_rows, side)
            want = _reference_slice_integral(K, c, f, side)
            assert got.c.tobytes() == want.c.tobytes()


def test_fine_integral_eval_makes_one_row_kernel_call_per_contour(monkeypatch):
    """The kernel and the polynomial are evaluated once on the node rows,
    never per node."""
    calls = {"rows": 0, "point": 0, "horner": 0}

    def counter(key, original):
        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(contour, "fine_kernel_rows",
                        counter("rows", contour.fine_kernel_rows))
    for key, original in (("point", fine_kernel), ("horner", eval_slice_poly)):
        wrapper = counter(key, original)
        for name, module in list(sys.modules.items()):
            if name == "finestruct" or name.startswith("finestruct."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)

    rng = np.random.default_rng(2)
    n = 0
    for kind in KINDS:
        for side in SIDES:
            for c in CONTOURS:
                fine_integral_eval(kind, _rand_poly(rng, 4, side), POINTS[0], c)
                n += 1
    assert calls == {"rows": n, "point": 0, "horner": 0}
