"""to_canonical and apply_word's slice path sum on raw (32,) arrays.  Both
must give what a loop that builds one Multivector per term gives (kept
here as the reference, with its own zero-dropping sum): the same keys in
the same order, and the same bytes, signed zeros and NaN included."""

from math import comb

import numpy as np
import pytest

from finestruct.clifford_core import Multivector
from finestruct.fueter_ops import KIND_WORDS, apply_word, monomial_image, word_image
from finestruct.slice_poly import (
    LEFT,
    RIGHT,
    CanonicalPoly,
    SlicePolynomial,
    XBarPolynomial,
    _accumulate,
    to_canonical,
)


def _add(terms, key, c):
    """The rule of the canonical forms on Multivectors: skip a zero term,
    drop a key whose sum cancels."""
    if c.is_zero():
        return
    cur = terms.get(key)
    new = c if cur is None else cur + c
    if new.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = new


def _to_canonical_per_term(xbar):
    terms = {}
    for a, b, c in xbar.terms:
        for i in range(a + 1):
            for j in range(b + 1):
                coef = comb(a, i) * comb(b, j) * ((-1) ** j)
                _add(terms, (a + b - i - j, i + j), c * coef)
    return terms


def _apply_word_per_term(word, P):
    terms = {}
    for m, coeff in enumerate(P.coeffs):
        if coeff.is_zero():
            continue
        for (a, b), n in word_image(word, m).items():
            _add(terms, (a, b), coeff * float(n))
    return terms


def _assert_same(got: CanonicalPoly, want: dict):
    assert list(got.terms) == list(want)
    for key, c in want.items():
        assert isinstance(got.terms[key], Multivector)
        assert got.terms[key].c.tobytes() == c.c.tobytes(), key


def _coeff(rng) -> Multivector:
    c = np.zeros(32)
    pick = rng.integers(4)
    if pick == 0:
        c[:] = rng.standard_normal(32)
    elif pick == 1:
        c[rng.choice(32, 3)] = rng.choice((1.0, -1.0, 0.25, -0.0, 3.0), 3)
    elif pick == 2:
        c[0] = rng.choice((2.0, -0.5, 7.0))
    else:
        c[:] = -0.0   # a zero term, skipped
    c[rng.random(32) < 0.2] = -0.0
    return Multivector(c)


@pytest.mark.parametrize("side", (LEFT, RIGHT))
def test_to_canonical_matches_the_per_term_loop(side):
    rng = np.random.default_rng(11)
    for _ in range(300):
        terms = []
        for _ in range(int(rng.integers(1, 6))):
            a, b, c = int(rng.integers(4)), int(rng.integers(4)), _coeff(rng)
            terms.append((a, b, c))
            if rng.random() < 0.3:
                # Cancels every key of (a, b); a later term adds it again,
                # at the end of the order.
                terms.append((a, b, -c))
                terms.append((a, b, c * 0.5))
        xbar = XBarPolynomial(terms, side)
        _assert_same(to_canonical(xbar), _to_canonical_per_term(xbar))


def test_a_cancelled_key_comes_back_last():
    one = Multivector.scalar(1.0)
    xbar = XBarPolynomial([(1, 0, one), (0, 0, one), (1, 0, -one),
                           (1, 0, one * 2.0)])
    got = to_canonical(xbar)
    assert list(got.terms) == [(0, 0), (1, 0), (0, 1)]
    _assert_same(got, _to_canonical_per_term(xbar))


def test_the_printed_tables_match_the_per_term_loop():
    for kind in ("D", "Delta", "D2", "DeltaD", "Dbar", "Dbar2", "DeltaDbar"):
        for m in range(13):
            image = monomial_image(kind, m)
            _assert_same(to_canonical(image), _to_canonical_per_term(image))


@pytest.mark.parametrize("word", ((), ("D",), ("Dbar", "Dbar"),
                                  ("D", "Delta", "Delta"), ("Delta", "D")))
def test_apply_word_matches_the_per_term_loop(word):
    rng = np.random.default_rng(len(word))
    for t in range(60):
        coeffs = [_coeff(rng) for _ in range(int(rng.integers(1, 9)))]
        if t % 10 == 0:
            coeffs[0] = Multivector(np.full(32, np.nan))   # NaN is nonzero
        P = SlicePolynomial(coeffs, (LEFT, RIGHT)[t % 2])
        _assert_same(apply_word(word, P), _apply_word_per_term(word, P))
    for kind in KIND_WORDS:
        P = SlicePolynomial.monomial(7)
        _assert_same(apply_word(KIND_WORDS[kind], P),
                     _apply_word_per_term(KIND_WORDS[kind], P))


@pytest.mark.parametrize("raw", (False, True), ids=("multivector", "raw"))
def test_accumulate_drops_zero_terms_and_cancelled_sums(raw):
    def value(*c):
        v = np.zeros(32)
        v[:len(c)] = c
        return v if raw else Multivector(v)

    terms = {}
    _accumulate(terms, "a", value(-0.0, -0.0))
    assert terms == {}
    _accumulate(terms, "a", value(1.0, 2.0))
    _accumulate(terms, "b", value(np.nan))
    _accumulate(terms, "a", value(-1.0, -2.0))
    assert list(terms) == ["b"]
    _accumulate(terms, "a", value(0.0, 3.0))
    assert list(terms) == ["b", "a"]
    got = terms["a"] if raw else terms["a"].c
    assert got[:3].tolist() == [0.0, 3.0, 0.0]
