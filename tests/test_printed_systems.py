"""The printed axial PDE systems are one table, fueter_ops.PRINTED_SYSTEMS,
read by one evaluator.  The seven hand-written expressions it replaced are
kept below, verbatim, as the printed reference: probe objects in place of A
and B read each equation of both as {(part, i, j, p): c}, and on the report's
fixtures both give the same bytes."""

from math import log2

import pytest

from finestruct import fueter_ops
from finestruct.clifford_core import Multivector
from finestruct.errors import AxisTooClose
from finestruct.fueter_ops import (
    PRINTED_SYSTEMS,
    SYSTEM_TAGS,
    VEKUA_SYSTEMS,
    AxialPoly,
    apply_word,
    axial_parts,
)
from finestruct.harness import TAG_COMPLEMENTS
from finestruct.slice_poly import SlicePolynomial

# The report's point (harness._suite_vekua).
POINT = (0.7, 1.1)


# The expressions that held the printed systems before PRINTED_SYSTEMS,
# copied unchanged.
def vekua_residual(sys: str, A: AxialPoly, B: AxialPoly,
                   p) -> tuple[Multivector, Multivector]:
    """Evaluate both equations of the named axial PDE system at p = (x0, r),
    with the exact partial derivatives of the axial polynomials A and B."""
    x0, r = float(p[0]), float(p[1])
    if r < 0.1:
        raise AxisTooClose(f"r = {r} below r_min = 0.1")

    def a(i: int, j: int) -> Multivector:
        return A.deriv(i, j)(x0, r)

    def b(i: int, j: int) -> Multivector:
        return B.deriv(i, j)(x0, r)

    if sys == "AntiCliffordian":
        res1 = (a(3, 0) + a(1, 2) + a(1, 1) * (4 / r) + b(2, 1) + b(0, 3)
                + b(0, 2) * (8 / r) + b(0, 1) * (8 / r ** 2)
                - b(0, 0) * (8 / r ** 3) + b(2, 0) * (4 / r))
        res2 = (b(3, 0) + b(1, 2)
                - (b(1, 1) * (1 / r) - b(1, 0) * (1 / r ** 2)) * 4
                - a(2, 1) - a(0, 3)
                - (a(0, 2) * (1 / r) - a(0, 1) * (1 / r ** 2)) * 4)
    elif sys == "BiHarmonic":
        res1 = (a(4, 0) + a(2, 2) * 2 + a(0, 4) - a(0, 1) * (8 / r ** 3)
                + a(0, 2) * (8 / r ** 2) + a(0, 3) * (8 / r) + a(2, 1) * (4 / r))
        res2 = (b(0, 4) + b(0, 3) * (8 / r) - b(0, 1) * (24 / r ** 3)
                + b(0, 0) * (24 / r ** 4) + b(2, 2) * 2 - b(2, 0) * (8 / r ** 2)
                + b(2, 1) * (8 / r) + b(4, 0))
    elif sys == "Poly3":
        res1 = (a(3, 0) + b(0, 3) - b(2, 1) * 3 - a(1, 2) * 3
                - b(2, 0) * (12 / r) - a(1, 1) * (12 / r) + b(0, 2) * (8 / r)
                + b(0, 1) * (8 / r ** 2) - b(0, 0) * (8 / r ** 3))
        res2 = (b(3, 0) - a(0, 3) + a(2, 1) * 3 - b(1, 2) * 3
                - b(1, 1) * (12 / r) + b(1, 0) * (12 / r ** 2)
                - a(0, 2) * (4 / r) + a(0, 1) * (4 / r ** 2))
    elif sys == "Cliffordian1":
        res1 = (a(1, 0) + a(1, 2) + a(1, 1) * (4 / r) - b(2, 1) - b(0, 3)
                - b(0, 1) * (8 / r ** 2) + b(0, 0) * (8 / r ** 3)
                - b(2, 0) * (4 / r))
        res2 = (b(3, 0) + b(1, 2)
                + (b(1, 1) * (1 / r) - b(1, 0) * (1 / r ** 2)) * 4
                + a(2, 1) + a(0, 3)
                + (a(0, 2) * (1 / r) - a(0, 1) * (2 / r ** 2)
                   + a(0, 0) * (2 / r ** 3)) * 4)
    elif sys == "Harmonic":
        res1 = a(2, 0) + a(0, 2) + a(0, 1) * (4 / r)
        res2 = (b(2, 0) + b(0, 2)
                + (b(0, 1) * (1 / r) - b(0, 0) * (1 / r ** 2)) * 4)
    elif sys == "Poly2":
        res1 = (a(2, 0) - b(1, 1) * 2 - b(1, 0) * (8 / r) - a(0, 2)
                - a(0, 1) * (4 / r))
        res2 = (b(2, 0) + a(1, 1) * 2 - b(0, 2)
                - (b(0, 1) * (1 / r) - b(0, 0) * (1 / r ** 2)) * 4)
    elif sys == "PolyCliffordian12":
        res1 = (a(4, 0) - b(3, 1) * 2 - b(1, 3) * 2 - b(3, 0) * (8 / r)
                - b(1, 2) * (8 / r) - a(0, 4) - a(0, 3) * (8 / r)
                - a(0, 1) * (8 / r ** 3) - a(0, 2) * (4 / r ** 2)
                - a(0, 0) * (8 / r ** 4) - b(1, 1) * (16 / r ** 2))
        res2 = (b(4, 0) + a(3, 1) * 2 + a(1, 3) * 2 + a(1, 2) * (8 / r)
                - a(1, 1) * (12 / r ** 2) - b(1, 1) * (4 / r ** 2) - b(0, 4)
                + a(1, 0) * (8 / r ** 3) - b(0, 2) * (8 / r ** 2)
                + b(0, 1) * (24 / r ** 3) - b(0, 0) * (24 / r ** 4)
                + b(2, 0) * (4 / r ** 2))
    else:
        raise ValueError(f"unknown system {sys!r}")
    return res1, res2


class _Term:
    """A linear combination {(part, i, j): coefficient} of the partial
    derivatives d0^i dr^j of A and B, in the order the terms first appear."""

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0.0) + c
        return _Term(out)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, scale):
        return _Term({key: c * scale for key, c in self.coeffs.items()})


class _Probe:
    """Stands for A or B: deriv(i, j), at any point, is the term (part, i, j)
    with coefficient 1."""

    def __init__(self, part):
        self.part = part

    def deriv(self, i, j):
        return lambda x0, r: _Term({(self.part, i, j): 1.0})


def _read_equations(residual, sysname):
    """The two equations of a system as lists of ((part, i, j, p), c), in
    the order the evaluator sums them: read at r = 1, each coefficient is c;
    at r = 2 it is c / 2^p."""
    at_1, at_2 = (residual(sysname, _Probe("A"), _Probe("B"), (0.5, r))
                  for r in (1.0, 2.0))
    equations = []
    for eq_1, eq_2 in zip(at_1, at_2):
        terms = []
        for (part, i, j), c in eq_1.coeffs.items():
            if c != 0.0:
                p = log2(c / eq_2.coeffs[part, i, j])
                terms.append(((part, i, j, int(p) if p.is_integer() else p),
                              c))
        equations.append(terms)
    return equations


def _table_equations(sysname):
    return [[((part, i, j, p), float(c)) for c, part, i, j, p in equation]
            for equation in PRINTED_SYSTEMS[sysname]]


def _fixture_parts(sysname, m):
    """A and B of the space's fixture: its complement word applied to x^m."""
    word = TAG_COMPLEMENTS[SYSTEM_TAGS[sysname]]
    return axial_parts(apply_word(word, SlicePolynomial.monomial(m)))


def test_the_table_holds_the_seven_systems_in_their_order():
    assert tuple(PRINTED_SYSTEMS) == VEKUA_SYSTEMS
    assert all(len(equations) == 2 for equations in PRINTED_SYSTEMS.values())


@pytest.mark.parametrize("sysname", VEKUA_SYSTEMS)
def test_the_table_is_the_printed_expressions_term_by_term(sysname):
    printed = _read_equations(vekua_residual, sysname)
    # Every printed term reads as an integer times r^-p.
    assert all(isinstance(key[3], int) and c.is_integer()
               for equation in printed for key, c in equation)
    assert _read_equations(fueter_ops.vekua_residual, sysname) == printed
    assert _table_equations(sysname) == printed


@pytest.mark.parametrize("sysname", VEKUA_SYSTEMS)
def test_report_fixture_residuals_are_the_printed_bytes(sysname):
    A, B = _fixture_parts(sysname, 5)
    got = fueter_ops.vekua_residual(sysname, A, B, POINT)
    want = vekua_residual(sysname, A, B, POINT)
    assert [r.c.tobytes() for r in got] == [r.c.tobytes() for r in want]


def _mutated(sysname, equation, index, term):
    """PRINTED_SYSTEMS with one term of one equation replaced by term, or
    dropped if term is None."""
    terms = list(PRINTED_SYSTEMS[sysname][equation])
    if term is None:
        del terms[index]
    else:
        terms[index] = term
    equations = list(PRINTED_SYSTEMS[sysname])
    equations[equation] = tuple(terms)
    return {**PRINTED_SYSTEMS, sysname: tuple(equations)}


MUTANTS = {
    # Harmonic's 4/r made 3/r.
    "coefficient": ("Harmonic", 0, 2, (3, "A", 0, 1, 1)),
    # BiHarmonic's 4 a21 / r read as 4 b21 / r.
    "part": ("BiHarmonic", 0, 6, (4, "B", 2, 1, 1)),
    "dropped": ("PolyCliffordian12", 1, 11, None),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_one_term_slip_in_the_table_is_seen(monkeypatch, mutant):
    sysname, equation, index, term = MUTANTS[mutant]
    if term is not None:
        # The slip replaces the term it names.
        old = PRINTED_SYSTEMS[sysname][equation][index]
        assert old[2:] == term[2:] and old != term
    monkeypatch.setattr(fueter_ops, "PRINTED_SYSTEMS",
                        _mutated(sysname, equation, index, term))
    assert (_read_equations(fueter_ops.vekua_residual, sysname)
            != _read_equations(vekua_residual, sysname))


def test_the_anticliffordian_slip_hides_on_its_degree_5_fixture():
    """Each space's fixtures x^m under its complement word, m = 5..9, at the
    report's point.  Four printed systems differ from their spaces, but the
    report's one fixture (m = 5) shows only three: AntiCliffordian's
    residual there is exactly zero, and from m = 6 on it is above 1e3."""
    worst = {}
    for sysname in VEKUA_SYSTEMS:
        worst[sysname] = []
        for m in range(5, 10):
            A, B = _fixture_parts(sysname, m)
            r1, r2 = fueter_ops.vekua_residual(sysname, A, B, POINT)
            worst[sysname].append(max(r1.norm_inf(), r2.norm_inf()))
    assert {sysname for sysname, values in worst.items()
            if max(values) > 1.0} == {"AntiCliffordian", "BiHarmonic",
                                      "Cliffordian1", "PolyCliffordian12"}
    for sysname in ("Harmonic", "Poly2", "Poly3"):
        assert max(worst[sysname]) <= 1e-9
    assert worst["AntiCliffordian"][0] == 0.0
