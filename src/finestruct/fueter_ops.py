"""Exact and numerical application of the Dirac operator D, its conjugate
Dbar, and the Laplacian Delta; monomial image tables; axial PDE residuals;
fine-structure space classification and factorization enumeration.

The operators act exactly on the canonical form: the scalar derivative acts
on x0^a, and the radial part of D acts on x_^b by -b x_^(b-1) for even b and
-(b+4) x_^(b-1) for odd b.  D = d0 + radial, Dbar = d0 - radial, and Delta is
the composition D(Dbar(.)).  On a monomial x^m the same rules run on Python
integers (word_image), so its images are exact at every degree.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from types import MappingProxyType

import numpy as np

from .clifford_core import (
    DIM,
    LEFT_SIGNED,
    PARAVECTOR_MASKS,
    SIGNED_INDEX,
    Multivector,
    ZERO,
)
from .errors import AxisTooClose
from .slice_poly import (
    LEFT,
    RIGHT,
    CanonicalPoly,
    SlicePolynomial,
    XBarPolynomial,
    is_slice,
    to_canonical,
)

# Operator words (composition, applied right to left) for each kernel kind.
KIND_WORDS = {
    "D": ("D",),
    "Delta": ("Delta",),
    "DeltaD": ("Delta", "D"),
    "Dbar": ("Dbar",),
    "Dbar2": ("Dbar", "Dbar"),
    "D2": ("D", "D"),
    "DeltaDbar": ("Delta", "Dbar"),
    "F5": ("Delta", "Delta"),
    "Cauchy": (),
}

# Annihilator word of each fine-structure space.
TAG_WORDS = {
    "AM": ("D",),
    "AH": ("Delta",),
    "ABH": ("Delta", "Delta"),
    "ACH1": ("Delta", "D"),
    "AntiACH1": ("Delta", "Dbar"),
    "AP2": ("D", "D"),
    "AP3": ("D", "D", "D"),
    "APC12": ("Delta", "D", "D"),
}


def word_degrees(word) -> tuple[int, int]:
    """Total (D-degree, Dbar-degree) of a word over {D, Dbar, Delta}."""
    a = b = 0
    for letter in word:
        if letter == "D":
            a += 1
        elif letter == "Dbar":
            b += 1
        elif letter == "Delta":
            a += 1
            b += 1
        else:
            raise ValueError(f"unknown letter {letter!r}")
    return a, b


# Degree of the annihilating polynomial of each kind (the total derivative
# order of its word).
KIND_ORDER = {kind: sum(word_degrees(word)) for kind, word in KIND_WORDS.items()}


# -- exact operator action on the canonical form ------------------------------


def _d0(C: CanonicalPoly) -> CanonicalPoly:
    out = CanonicalPoly(side=C.side)
    for (a, b), c in C.terms.items():
        if a > 0:
            out._add_term(a - 1, b, c * a)
    return out


def _radial(C: CanonicalPoly) -> CanonicalPoly:
    out = CanonicalPoly(side=C.side)
    for (a, b), c in C.terms.items():
        if b == 0:
            continue
        factor = -b if b % 2 == 0 else -(b + 4)
        out._add_term(a, b - 1, c * factor)
    return out


def apply_operator(op: str, C: CanonicalPoly) -> CanonicalPoly:
    if op == "d0":
        return _d0(C)
    if op == "Dradial":
        return _radial(C)
    if op == "D":
        return _d0(C) + _radial(C)
    if op == "Dbar":
        return _d0(C) - _radial(C)
    if op == "Delta":
        return apply_operator("D", apply_operator("Dbar", C))
    raise ValueError(f"unknown operator {op!r}")


def apply_word(word, P) -> CanonicalPoly:
    """Apply a composition word (leftmost letter applied last).

    A slice polynomial is processed one monomial at a time: the image of
    x^m is the exact Python-integer table word_image(word, m), rounded once
    to float at the end and multiplied by the polynomial's coefficient, so
    identities such as D(Δ²P) = 0 cancel exactly.  Other inputs go through
    the canonical form with Clifford coefficients.
    """
    word = tuple(word)
    if isinstance(P, SlicePolynomial):
        out = CanonicalPoly(side=P.side)
        for m, coeff in enumerate(P.coeffs):
            if coeff.is_zero():
                continue
            for (a, b), n in word_image(word, m).items():
                out._add_term(a, b, coeff * float(n))
        return out
    C = to_canonical(P)
    for letter in reversed(word):
        C = apply_operator(letter, C)
    return C


# -- exact integer images of monomials -------------------------------------------


@lru_cache(maxsize=None)
def _key(a: int, b: int) -> tuple[int, int]:
    """One shared (a, b) tuple per exponent pair, which keeps the memoised
    tables small."""
    return a, b


def _int_letter(letter: str, terms) -> dict:
    """One letter on an integer canonical image {(a, b): n}, by the rules of
    _d0 and _radial; terms are added as in CanonicalPoly.__add__/__sub__,
    so the result has their insertion order and no zero entries."""
    if letter == "Delta":
        return _int_letter("D", _int_letter("Dbar", terms))
    if letter not in ("D", "Dbar"):
        raise ValueError(f"unknown letter {letter!r}")
    sign = 1 if letter == "D" else -1
    out = {_key(a - 1, b): n * a for (a, b), n in terms.items() if a > 0}
    for (a, b), n in terms.items():
        if b > 0:
            key = _key(a, b - 1)
            new = out.get(key, 0) + sign * n * (-b if b % 2 == 0 else -(b + 4))
            if new:
                out[key] = new
            else:
                del out[key]
    return out


@lru_cache(maxsize=None)
def word_image(word: tuple[str, ...], m: int) -> MappingProxyType:
    """Canonical image of x^m under a composition word, as a read-only
    mapping (a, b) -> n meaning n x0^a x_^b, with Python-int n != 0.

    Built lazily and memoised: the image of a word is its first letter
    applied to the cached image of the rest of the word; the empty word
    gives the binomial expansion of x^m.  Terms come in the order the
    Clifford-coefficient engine (apply_operator on to_canonical) produces
    them.
    """
    if not word:
        terms = {_key(m - i, i): comb(m, i) for i in range(m + 1)}
    else:
        terms = _int_letter(word[0], word_image(word[1:], m))
    return MappingProxyType(terms)


# -- monomial image tables -----------------------------------------------------


def monomial_image(kind: str, m: int, side: str = LEFT) -> XBarPolynomial:
    """Image of x^m under the operator word of the given kind, as an exact
    integer-coefficient polynomial in (x, x̄)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    terms: list[tuple[int, int, float]] = []
    if kind == "D":
        if m >= 1:
            terms = [(m - k, k - 1, -4) for k in range(1, m + 1)]
    elif kind == "Delta":
        if m >= 2:
            terms = [(m - k - 1, k - 1, -8 * (m - k)) for k in range(1, m)]
    elif kind == "D2":
        if m >= 2:
            terms = [(m - k - 1, k - 1, -8 * k) for k in range(1, m)]
    elif kind == "DeltaD":
        if m >= 3:
            terms = [(m - k - 2, k - 1, 16 * (m - k - 1) * k)
                     for k in range(1, m - 1)]
    elif kind == "Dbar":
        if m >= 1:
            terms = [(m - 1, 0, 2 * m)]
            terms += [(m - k, k - 1, 4) for k in range(1, m + 1)]
    elif kind == "Dbar2":
        if m >= 2:
            terms = [(m - 2, 0, 4 * m * (m - 1))]
            terms += [(m - k - 1, k - 1, 8 * (2 * m - k)) for k in range(1, m)]
    elif kind == "DeltaDbar":
        if m >= 3:
            terms = [(m - k - 2, k - 1, -16 * (m - k - 1) * (m + k))
                     for k in range(1, m - 1)]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return XBarPolynomial(terms, side)


def sum_lemma_1(m: int) -> bool:
    """sum_{k=1}^{m-2} (m-k-1) k == m(m-1)(m-2)/6, exactly (integers)."""
    lhs = sum((m - k - 1) * k for k in range(1, m - 1))
    return 6 * lhs == m * (m - 1) * (m - 2)


def sum_lemma_2(m: int) -> bool:
    """sum_{k=1}^{m-2} (m-k-1)(m+k) == 2 m(m-1)(m-2)/3, exactly (integers)."""
    lhs = sum((m - k - 1) * (m + k) for k in range(1, m - 1))
    return 3 * lhs == 2 * m * (m - 1) * (m - 2)


# -- finite-difference application ----------------------------------------------

# At most this many points go to one call of fd_apply_batch's F.
_FD_BLOCK = 256

# Coefficients of the unit directions of x0, x1, ..., x5.
_UNIT_ROWS = np.eye(DIM)[list(PARAVECTOR_MASKS)]

# e_i d (left) and d e_i (right) for the units e_1 ... e_5, as indices into
# [d, -d]: the signed permutation that mv_mul applies.
_UNIT_PRODUCT = {
    LEFT: SIGNED_INDEX[list(PARAVECTOR_MASKS[1:])],
    RIGHT: LEFT_SIGNED[:, list(PARAVECTOR_MASKS[1:])].T,
}


def _richardson_steps(step: float) -> tuple[float, float, float]:
    return step, 2.0 * step, 4.0 * step


def _letter_offsets(letter: str, step: float) -> np.ndarray:
    """Offsets of one letter's stencil points, shape (36, 32): for each of
    the Richardson steps, for each unit e of x0, x1, ..., x5, the pair
    +e step, -e step."""
    if letter not in ("D", "Dbar", "Delta"):
        raise ValueError(f"unknown letter {letter!r}")
    units = np.array(_richardson_steps(step))[:, None, None] * _UNIT_ROWS
    return np.stack((units, -units), axis=2).reshape(-1, DIM)


def _fd_reduce(letter: str, V: np.ndarray, step: float, side: str) -> np.ndarray:
    """One letter's central differences and two Richardson levels.  The
    rows of V (m * 36 or m * 37, 32) hold, for each of m outer points, the
    values at the points of _letter_offsets, the Laplacian's centre first;
    the result has shape (m, 32)."""
    if letter == "Delta":
        V = V.reshape(-1, 37, DIM)
        center2 = V[:, 0] * 2.0
        V = V[:, 1:]
    V = V.reshape(-1, 3, 6, 2, DIM)
    stencils = []
    for j, st in enumerate(_richardson_steps(step)):
        plus, minus = V[:, j, :, 0], V[:, j, :, 1]
        if letter == "Delta":
            # Central second differences summed over the six coordinates.
            terms = ((plus - center2[:, None]) + minus) * (1.0 / (st * st))
            acc = np.zeros((len(V), DIM))
            for i in range(6):
                acc = acc + terms[:, i]
        else:
            # d0 g + sum_i e_i di g (Dbar: minus the sum), e_i on the side.
            partials = (plus - minus) * (1.0 / (2.0 * st))
            acc = partials[:, 0]
            for i, index in enumerate(_UNIT_PRODUCT[side], 1):
                d = partials[:, i]
                term = 0.0 + np.concatenate((d, -d), axis=1)[:, index]
                acc = acc - term if letter == "Dbar" else acc + term
        stencils.append(acc)
    s_h, s_2h, s_4h = stencils
    r1_h = (s_h * 4.0 - s_2h) * (1.0 / 3.0)
    r1_2h = (s_2h * 4.0 - s_4h) * (1.0 / 3.0)
    return (r1_h * 16.0 - r1_2h) * (1.0 / 15.0)


def fd_apply_batch(word, F, x: Multivector, h: float = 1e-3, side: str = LEFT,
                   step_growth: float = 4.0) -> Multivector:
    """Numerically apply a word of operators to a smooth function at x.

    F maps an (n, 32) array of points to the (n, 32) array of their values;
    it is called on blocks of at most 256 rows.

    Each letter is a central difference per coordinate at the steps h, 2h
    and 4h, combined by two Richardson extrapolation levels, so a single
    letter is accurate to O(h^6).  Letters apply right to left (composition
    order), and letter i of a word of length L uses the step
    h * step_growth ** (L - 1 - i): differencing an already-differenced
    value amplifies rounding noise by 1/step^2, so the outer steps must grow
    for composed words to stay near the accuracy of a single letter.

    A letter has 36 stencil points (3 steps x 6 coordinates x 2 signs); the
    Laplacian has its centre as a 37th.  The leaf points of the nested
    stencils are built as (x + d_outer) + d_inner, in nesting order, and F
    evaluates each of them exactly once: 36 points for D and Dbar, 37 for
    Delta, 37 x 36 for Delta∘D.  Coincident points are not merged.  The
    values are then reduced innermost letter first, each letter with the
    float operations of a single-letter stencil, for all points of the outer
    letters at once.
    """
    word = tuple(word)
    steps = [h * step_growth ** (len(word) - 1 - i) for i in range(len(word))]
    points = x.c[None, :]
    for letter, step in zip(word, steps):
        moved = points[:, None, :] + _letter_offsets(letter, step)
        if letter == "Delta":
            moved = np.concatenate((points[:, None, :], moved), axis=1)
        points = moved.reshape(-1, DIM)
    values = np.empty_like(points)
    for i in range(0, len(points), _FD_BLOCK):
        values[i:i + _FD_BLOCK] = F(points[i:i + _FD_BLOCK])
    for letter, step in zip(reversed(word), reversed(steps)):
        values = _fd_reduce(letter, values, step, side)
    return Multivector._wrap(values[0])


def fd_apply(word, f, x: Multivector, h: float = 1e-3, side: str = LEFT,
             step_growth: float = 4.0) -> Multivector:
    """fd_apply_batch for a function f of one Multivector point.

    f is called once per stencil point (D, Dbar: 36 calls; Delta: 37;
    Delta∘D: 37 x 36), at the same points, and the result is the same bit
    for bit.
    """
    def F(Y):
        return np.array([f(Multivector(y)).c for y in Y])

    return fd_apply_batch(word, F, x, h, side, step_growth)


# -- axial representation and the printed PDE systems ---------------------------


class AxialPoly:
    """Exact bivariate polynomial sum x0^i r^j c_ij with Clifford values."""

    def __init__(self, terms=None):
        self.terms: dict[tuple[int, int], Multivector] = {}
        if terms:
            for (i, j), c in dict(terms).items():
                self._add(int(i), int(j), c)

    def _add(self, i: int, j: int, c: Multivector) -> None:
        if c.is_zero():
            return
        key = (i, j)
        cur = self.terms.get(key)
        new = c if cur is None else cur + c
        if new.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def deriv(self, i: int, j: int) -> "AxialPoly":
        out = self
        for _ in range(i):
            out = out._d(0)
        for _ in range(j):
            out = out._d(1)
        return out

    def _d(self, axis: int) -> "AxialPoly":
        out = AxialPoly()
        for (i, j), c in self.terms.items():
            if axis == 0 and i > 0:
                out._add(i - 1, j, c * i)
            elif axis == 1 and j > 0:
                out._add(i, j - 1, c * j)
        return out

    def __call__(self, x0: float, r: float) -> Multivector:
        acc = ZERO
        for (i, j), c in self.terms.items():
            acc = acc + c * ((x0 ** i) * (r ** j))
        return acc


def axial_parts(C: CanonicalPoly) -> tuple[AxialPoly, AxialPoly]:
    """Split a left canonical polynomial into (A, B) with value A + omega B."""
    if C.side != LEFT:
        raise ValueError("axial split is defined for left polynomials")
    A = AxialPoly()
    B = AxialPoly()
    for (a, b), c in C.terms.items():
        if b % 2 == 0:
            A._add(a, b, c * ((-1.0) ** (b // 2)))
        else:
            B._add(a, b, c * ((-1.0) ** ((b - 1) // 2)))
    return A, B


VEKUA_SYSTEMS = (
    "AntiCliffordian", "BiHarmonic", "Poly3", "Cliffordian1",
    "Harmonic", "Poly2", "PolyCliffordian12",
)

# Annihilator word of the space characterized by each printed system.
SYSTEM_WORDS = {
    "AntiCliffordian": ("Delta", "Dbar"),
    "BiHarmonic": ("Delta", "Delta"),
    "Poly3": ("D", "D", "D"),
    "Cliffordian1": ("Delta", "D"),
    "Harmonic": ("Delta",),
    "Poly2": ("D", "D"),
    "PolyCliffordian12": ("Delta", "D", "D"),
}


def vekua_residual(sys: str, A: AxialPoly, B: AxialPoly, p,
                   r_min: float = 0.1) -> tuple[Multivector, Multivector]:
    """Evaluate both equations of the named axial PDE system at p = (x0, r),
    with the exact partial derivatives of the axial polynomials A and B."""
    x0, r = float(p[0]), float(p[1])
    if r < r_min:
        raise AxisTooClose(f"r = {r} below r_min = {r_min}")

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


# -- classification and enumeration ---------------------------------------------


def classify_space(P, atol: float = 0.0) -> set[str]:
    """Set of fine-structure tags whose annihilator word kills P exactly."""
    C = to_canonical(P)
    tags = {tag for tag, word in TAG_WORDS.items()
            if apply_word(word, C).is_zero(atol)}
    if is_slice(C):
        tags.add("SH")
    return tags


_BLOCKS_FINE = ("D", "Dbar")
_BLOCKS_COARSE = ("D", "Dbar", "Delta", "D2", "Dbar2")
_BLOCK_DEGREES = {
    "D": (1, 0), "Dbar": (0, 1), "Delta": (1, 1), "D2": (2, 0), "Dbar2": (0, 2),
}

_DEGREE_TAG = {
    (0, 1, 0): "AM",
    (1, 0, 0): "AH",
    (2, 0, 0): "ABH",
    (1, 1, 0): "ACH1",
    (1, 0, 1): "AntiACH1",
    (0, 2, 0): "AP2",
    (0, 3, 0): "AP3",
    (1, 2, 0): "APC12",
}


def _tag_of_degrees(a: int, b: int) -> str:
    k = min(a, b)
    return _DEGREE_TAG[(k, a - k, b - k)]


def enumerate_factorizations(coarse: bool = False):
    """All ordered factorizations of the degree-(2,2) word, labeled.

    With coarse=False the words run over single letters D, Dbar (four letters,
    two of each).  With coarse=True the blocks Delta, D2, Dbar2 are also
    allowed.  Each prefix is labeled by the space whose annihilator is D
    composed with the letters not yet applied.
    """
    blocks = _BLOCKS_COARSE if coarse else _BLOCKS_FINE
    results = []

    def rec(word, da, db):
        if da == 2 and db == 2:
            labels = []
            pa = pb = 0
            for block in word:
                ba, bb = _BLOCK_DEGREES[block]
                pa += ba
                pb += bb
                labels.append(_tag_of_degrees(2 - pa + 1, 2 - pb))
            results.append((tuple(word), labels))
            return
        for block in blocks:
            ba, bb = _BLOCK_DEGREES[block]
            if da + ba <= 2 and db + bb <= 2:
                rec(word + [block], da + ba, db + bb)

    rec([], 0, 0)
    return results
