"""apply_operator runs every letter through the one letter loop that the
integer engine (word_image) also uses.  It must give, byte for byte and in
the same key order, what separate d0 and radial passes merged as
CanonicalPoly sums give; that reference is kept here."""

import numpy as np
import pytest

from finestruct.clifford_core import Multivector
from finestruct.fueter_ops import _radial_factor, apply_operator, word_image
from finestruct.slice_poly import LEFT, RIGHT, CanonicalPoly

OPS = ("d0", "Dradial", "D", "Dbar", "Delta")


def _ref_d0(C):
    out = CanonicalPoly(side=C.side)
    for (a, b), c in C.terms.items():
        if a > 0:
            out._add_term(a - 1, b, c * a)
    return out


def _ref_radial(C):
    out = CanonicalPoly(side=C.side)
    for (a, b), c in C.terms.items():
        if b > 0:
            out._add_term(a, b - 1, c * _radial_factor(b))
    return out


def _ref_apply(op, C):
    if op == "d0":
        return _ref_d0(C)
    if op == "Dradial":
        return _ref_radial(C)
    if op == "D":
        return _ref_d0(C) + _ref_radial(C)
    if op == "Dbar":
        return _ref_d0(C) - _ref_radial(C)
    if op == "Delta":
        return _ref_apply("D", _ref_apply("Dbar", C))
    raise ValueError(f"unknown operator {op!r}")


def _bytes(C):
    return C.side, [(key, c.c.tobytes()) for key, c in C.terms.items()]


def _random_poly(rng, side):
    terms = {}
    for _ in range(rng.integers(1, 10)):
        c = rng.normal(size=32) * 10.0 ** rng.integers(-3, 4)
        c[rng.random(32) < 0.3] = -0.0
        if rng.random() < 0.3:
            c = np.round(c)  # small integers, so that some sums cancel
        terms[(int(rng.integers(0, 6)), int(rng.integers(0, 6)))] = Multivector(c)
    return CanonicalPoly(terms, side)


@pytest.mark.parametrize("side", (LEFT, RIGHT))
@pytest.mark.parametrize("op", OPS)
def test_apply_operator_matches_separate_passes_byte_for_byte(op, side):
    rng = np.random.default_rng(29)
    for _ in range(100):
        C = _random_poly(rng, side)
        assert _bytes(apply_operator(op, C)) == _bytes(_ref_apply(op, C))


def _cancelling_poly(op, side):
    """A polynomial whose d0 and radial contributions cancel exactly at one
    key: (0, 0) for D and Dbar, and (1, 1) inside Delta's Dbar step."""
    c = np.linspace(-1.0, 1.0, 32)
    c[::4] = -0.0
    c = Multivector(c)
    if op == "Delta":
        return CanonicalPoly({(2, 1): c, (1, 2): -c}, side)
    sign = 1.0 if op == "D" else -1.0
    return CanonicalPoly({(1, 0): c * 5.0, (2, 2): c, (0, 1): c * sign}, side)


@pytest.mark.parametrize("side", (LEFT, RIGHT))
@pytest.mark.parametrize("op", ("D", "Dbar", "Delta"))
def test_cancelling_key_is_dropped_as_in_the_reference(op, side):
    C = _cancelling_poly(op, side)
    got = apply_operator(op, C)
    if op == "Delta":
        assert (1, 1) not in apply_operator("Dbar", C).terms
    else:
        assert (0, 0) not in got.terms
    assert got.terms
    assert _bytes(got) == _bytes(_ref_apply(op, C))


def test_unknown_letters_raise_value_error():
    C = CanonicalPoly({(1, 1): Multivector.scalar(1.0)})
    with pytest.raises(ValueError):
        apply_operator("Nabla", C)
    with pytest.raises(ValueError):
        word_image(("d0",), 3)
