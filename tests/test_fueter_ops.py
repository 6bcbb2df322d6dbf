from math import comb

import numpy as np
import pytest

from finestruct.clifford_core import Multivector
from finestruct.errors import AxisTooClose
from finestruct.fueter_ops import (
    KIND_WORDS,
    SYSTEM_WORDS,
    VEKUA_SYSTEMS,
    apply_operator,
    apply_word,
    axial_parts,
    classify_space,
    enumerate_factorizations,
    fd_apply,
    monomial_image,
    sum_lemma_1,
    sum_lemma_2,
    vekua_residual,
    word_degrees,
    word_image,
)
from finestruct.slice_poly import (
    LEFT,
    RIGHT,
    CanonicalPoly,
    SlicePolynomial,
    canonical_eval,
    eval_slice_poly,
    to_canonical,
)

FINE_KINDS = ("D", "Delta", "DeltaD", "Dbar", "Dbar2", "D2", "DeltaDbar")


def test_radial_rule():
    # D_radial x_^2 = -2 x_, D_radial x_^3 = -7 x_^2
    from finestruct.slice_poly import CanonicalPoly

    C = apply_operator("Dradial", CanonicalPoly({(0, 2): 1.0}))
    assert C.terms[(0, 1)] == Multivector.scalar(-2.0)
    C = apply_operator("Dradial", CanonicalPoly({(0, 3): 1.0}))
    assert C.terms[(0, 2)] == Multivector.scalar(-7.0)


@pytest.mark.parametrize("kind", FINE_KINDS)
def test_monomial_tables_exact(kind):
    for m in range(13):
        lhs = apply_word(KIND_WORDS[kind], SlicePolynomial.monomial(m))
        rhs = to_canonical(monomial_image(kind, m))
        assert lhs.equals(rhs), f"{kind} table differs at m={m}"


def _exact_canonical(xbar) -> dict:
    """Python-int canonical form of an integer (x, x̄) polynomial:
    x^a x̄^b = sum_ij C(a,i) C(b,j) (-1)^j x0^(a+b-i-j) x_^(i+j)."""
    out: dict = {}
    for a, b, c in xbar.terms:
        n = int(c[0])
        assert n == c[0] and not (c - Multivector.scalar(c[0])).c.any()
        for i in range(a + 1):
            for j in range(b + 1):
                key = (a + b - i - j, i + j)
                out[key] = out.get(key, 0) + n * comb(a, i) * comb(b, j) * (-1) ** j
    return {k: n for k, n in out.items() if n}


@pytest.mark.parametrize("kind", FINE_KINDS)
def test_word_image_equals_printed_table_exactly(kind):
    for m in range(81):
        assert dict(word_image(KIND_WORDS[kind], m)) == _exact_canonical(
            monomial_image(kind, m)), f"{kind} differs at m={m}"


def test_fueter_sce_endpoint_image_is_empty():
    for m in range(81):
        assert len(word_image(("D", "Delta", "Delta"), m)) == 0


def test_word_image_is_read_only():
    table = word_image(("Delta", "D"), 6)
    with pytest.raises(TypeError):
        table[(0, 0)] = 1
    with pytest.raises(TypeError):
        del table[next(iter(table))]
    assert word_image(("Delta", "D"), 6) is table


def _clifford_engine_apply(word, P) -> CanonicalPoly:
    """apply_word on a slice polynomial as computed with Clifford
    coefficients throughout: each monomial through to_canonical and
    apply_operator, its scalar images times the polynomial's coefficient."""
    out = CanonicalPoly(side=P.side)
    for m, coeff in enumerate(P.coeffs):
        if coeff.is_zero():
            continue
        C = to_canonical(SlicePolynomial.monomial(m, 1.0, P.side))
        for letter in reversed(word):
            C = apply_operator(letter, C)
        for (a, b), c in C.terms.items():
            if c[0] != 0.0:
                out._add_term(a, b, coeff * c[0])
    return out


@pytest.mark.parametrize("kind", sorted(KIND_WORDS))
def test_apply_word_matches_clifford_engine_bit_for_bit(kind):
    rng = np.random.default_rng(8)
    for side in (LEFT, RIGHT):
        P = SlicePolynomial([Multivector(rng.normal(size=32))
                             for _ in range(41)], side)
        got = apply_word(KIND_WORDS[kind], P)
        ref = _clifford_engine_apply(KIND_WORDS[kind], P)
        assert ([(k, c.c.tobytes()) for k, c in got.terms.items()]
                == [(k, c.c.tobytes()) for k, c in ref.terms.items()])


def test_anchor_values():
    point = Multivector.scalar(0.9)
    anchors = [("D", 1, -4.0), ("Delta", 2, -8.0), ("D2", 2, -8.0),
               ("DeltaD", 3, 16.0), ("Dbar", 1, 6.0),
               ("Dbar2", 2, 32.0), ("DeltaDbar", 3, -64.0)]
    for kind, m, expected in anchors:
        got = canonical_eval(
            apply_word(KIND_WORDS[kind], SlicePolynomial.monomial(m)), point)
        assert (got - Multivector.scalar(expected)).norm_inf() == 0.0


def test_sum_lemmas():
    assert all(sum_lemma_1(m) and sum_lemma_2(m) for m in range(3, 60))


def test_word_degrees():
    assert word_degrees(("Delta", "D")) == (2, 1)
    assert word_degrees(("Dbar", "Dbar")) == (0, 2)


def test_endpoint_exact_zero():
    rng = np.random.default_rng(2)
    for _ in range(10):
        P = SlicePolynomial([Multivector(rng.normal(size=32))
                             for _ in range(int(rng.integers(1, 11)) + 1)])
        assert apply_word(("D", "Delta", "Delta"), P).is_zero()


def test_fd_matches_engine_on_polynomial():
    rng = np.random.default_rng(4)
    P = SlicePolynomial([rng.normal() for _ in range(5)])
    x = Multivector.paravector(0.4, 0.8, -0.3, 0.2, 0.0, 0.1)

    def f(y):
        return eval_slice_poly(P, y)

    for word in [("D",), ("Dbar",), ("Delta",), ("Delta", "D")]:
        fd = fd_apply(word, f, x, h=0.05)
        exact = canonical_eval(apply_word(word, P), x)
        assert (fd - exact).norm_inf() < 1e-7


@pytest.mark.parametrize("word, calls", [
    (("D",), 36),
    (("Dbar",), 36),
    (("Delta",), 37),
    (("Delta", "D"), 37 * 36),
])
def test_fd_apply_evaluates_each_stencil_once(word, calls):
    # Steps h, 2h and 4h, 12 points each, and one Laplacian centre; each
    # call of an outer letter's argument is a whole inner application.
    count = 0

    def f(y):
        nonlocal count
        count += 1
        return y * y

    fd_apply(word, f, Multivector.paravector(0.4, 0.8, -0.3, 0.2, 0.0, 0.1))
    assert count == calls


def test_axial_parts_reconstruct():
    rng = np.random.default_rng(6)
    C = apply_word(("D",), SlicePolynomial.monomial(5))
    A, B = axial_parts(C)
    for _ in range(5):
        v = rng.normal(size=6)
        x = Multivector.paravector(*v)
        x0 = v[0]
        r = float(np.linalg.norm(v[1:]))
        omega = (x - Multivector.scalar(x0)) * (1.0 / r)
        recon = Multivector.scalar(A(x0, r)[0]) + omega * B(x0, r)[0]
        assert (recon - canonical_eval(C, x)).norm_inf() < 1e-11


ZERO_RESIDUAL_SYSTEMS = {
    "AntiCliffordian": ("D", "D"),
    "Poly3": ("Dbar", "Dbar"),
    "Harmonic": ("Delta", "D"),
    "Poly2": ("Delta", "Dbar"),
}

NONZERO_RESIDUAL_SYSTEMS = {
    "BiHarmonic": ("D",),
    "Cliffordian1": ("Delta",),
    "PolyCliffordian12": ("Dbar",),
}


@pytest.mark.parametrize("sysname", sorted(VEKUA_SYSTEMS))
def test_vekua_membership_via_annihilator(sysname):
    comp = {**ZERO_RESIDUAL_SYSTEMS, **NONZERO_RESIDUAL_SYSTEMS}[sysname]
    C = apply_word(comp, SlicePolynomial.monomial(5))
    assert apply_word(SYSTEM_WORDS[sysname], C).is_zero()


@pytest.mark.parametrize("sysname", sorted(ZERO_RESIDUAL_SYSTEMS))
def test_vekua_residual_zero_systems(sysname):
    C = apply_word(ZERO_RESIDUAL_SYSTEMS[sysname],
                   SlicePolynomial.monomial(5))
    A, B = axial_parts(C)
    r1, r2 = vekua_residual(sysname, A, B, (0.7, 1.1))
    assert max(r1.norm_inf(), r2.norm_inf()) < 1e-9


@pytest.mark.parametrize("sysname", sorted(NONZERO_RESIDUAL_SYSTEMS))
def test_vekua_residual_flagged_systems(sysname):
    # These printed systems do not annihilate exact members of their spaces;
    # the harness reports them through the flag channel.
    C = apply_word(NONZERO_RESIDUAL_SYSTEMS[sysname],
                   SlicePolynomial.monomial(5))
    A, B = axial_parts(C)
    r1, r2 = vekua_residual(sysname, A, B, (0.7, 1.1))
    assert max(r1.norm_inf(), r2.norm_inf()) > 1.0


def test_vekua_axis_guard():
    C = apply_word(("D",), SlicePolynomial.monomial(4))
    A, B = axial_parts(C)
    with pytest.raises(AxisTooClose):
        vekua_residual("BiHarmonic", A, B, (0.5, 0.01))


def test_classification():
    fixtures = {
        "AM": ("Delta", "Delta"), "AH": ("Delta", "D"), "ABH": ("D",),
        "ACH1": ("Delta",), "AntiACH1": ("D", "D"), "AP2": ("Delta", "Dbar"),
        "AP3": ("Dbar", "Dbar"), "APC12": ("Dbar",),
    }
    for tag, comp in fixtures.items():
        P = apply_word(comp, SlicePolynomial.monomial(7))
        assert tag in classify_space(P)
    assert "SH" in classify_space(SlicePolynomial.monomial(6))


def test_enumeration_fine():
    chains = dict(enumerate_factorizations(False))
    assert len(chains) == 6
    assert chains[("D", "Dbar", "D", "Dbar")] == ["ABH", "ACH1", "AH", "AM"]
    assert all(labels[-1] == "AM" for labels in chains.values())


def test_enumeration_coarse():
    chains = dict(enumerate_factorizations(True))
    assert chains[("Delta", "Delta")] == ["ACH1", "AM"]
    assert chains[("D", "Delta", "Dbar")] == ["ABH", "AH", "AM"]
    assert chains[("Dbar2", "D", "D")] == ["AP3", "AP2", "AM"]
