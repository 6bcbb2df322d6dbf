"""Exact and numerical application of the Dirac operator D, its conjugate
Dbar, and the Laplacian Delta; monomial image tables; axial PDE residuals;
fine-structure space classification and factorization enumeration.

The operators act exactly on the canonical form: the scalar derivative acts
on x0^a, and the radial part of D acts on x_^b by -b x_^(b-1) for even b and
-(b+4) x_^(b-1) for odd b.  D = d0 + radial, Dbar = d0 - radial, and Delta is
the composition D(Dbar(.)).  One letter loop (_letter) applies these rules
to Clifford coefficients (apply_operator) and, on a monomial x^m, to Python
integers (word_image), so the monomial images are exact at every degree.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import comb, inf, isfinite, perm
from types import MappingProxyType

import numpy as np

from .clifford_core import DIM, PARAVECTOR_INDEX, Multivector, ZERO, mv_mul_rows
from .errors import AxisTooClose, NotFinite
from .slice_poly import (
    LEFT,
    CanonicalPoly,
    SlicePolynomial,
    XBarPolynomial,
    _accumulate,
    _canonical,
    _check_side,
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


def _kind_word(kind: str) -> tuple[str, ...]:
    """KIND_WORDS[kind], with ValueError for an unknown kind."""
    try:
        return KIND_WORDS[kind]
    except KeyError:
        raise ValueError(f"unknown kind {kind!r}") from None

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


def _radial_factor(b: int) -> int:
    """The radial part of D on x_^b is this factor times x_^(b-1)."""
    return -b if b % 2 == 0 else -(b + 4)


# (d0 weight, radial weight) of each first-order letter.
_LETTER_WEIGHTS = {"d0": (1, 0), "Dradial": (0, 1), "D": (1, 1), "Dbar": (1, -1)}


@lru_cache(maxsize=None)
def _key(a: int, b: int) -> tuple[int, int]:
    """One shared (a, b) tuple per exponent pair, which keeps the memoised
    tables small."""
    return a, b


def _letter(letter: str, terms, is_zero) -> dict:
    """One letter on a canonical image {(a, b): c} whose c are Python ints
    or Multivectors.  The d0 part {(a-1, b): c a} comes first; each radial
    term c (w _radial_factor(b)) is then added in the input's order, and a
    sum that cancels (is_zero) is dropped, as _accumulate does."""
    if letter == "Delta":
        return _letter("D", _letter("Dbar", terms, is_zero), is_zero)
    if letter not in _LETTER_WEIGHTS:
        raise ValueError(f"unknown operator {letter!r}")
    d0, w = _LETTER_WEIGHTS[letter]
    items = terms.items()
    out = {_key(a - 1, b): c * a for (a, b), c in items if d0 and a > 0}
    for (a, b), c in items:
        if w and b > 0:
            key, term = _key(a, b - 1), c * (w * _radial_factor(b))
            cur = out.get(key)
            new = term if cur is None else cur + term
            if is_zero(new):
                out.pop(key, None)
            else:
                out[key] = new
    return out


def apply_operator(op: str, C: CanonicalPoly) -> CanonicalPoly:
    out = CanonicalPoly(side=C.side)
    # _letter's dict has int keys and no zero value, so it is stored as is
    # rather than re-added term by term.
    out.terms = _letter(op, C.terms, Multivector.is_zero)
    return out


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
        terms = {}
        for m, coeff in enumerate(P.coeffs):
            if np.count_nonzero(coeff.c):
                for key, n in word_image(word, m).items():
                    _accumulate(terms, key, coeff.c * float(n))
        return _canonical(terms, P.side)
    C = to_canonical(P)
    for letter in reversed(word):
        C = apply_operator(letter, C)
    return C


# -- exact integer images of monomials -------------------------------------------


def _int_letter(letter: str, terms) -> dict:
    """One letter on an integer canonical image {(a, b): n}, by _letter."""
    if letter not in ("D", "Dbar", "Delta"):
        raise ValueError(f"unknown letter {letter!r}")
    return _letter(letter, terms, operator.not_)


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
    if m < 0:
        raise ValueError("m must be nonnegative")
    if not word:
        terms = {_key(m - i, i): comb(m, i) for i in range(m + 1)}
    else:
        terms = _int_letter(word[0], word_image(word[1:], m))
    return MappingProxyType(terms)


def image_terms(images) -> tuple:
    """The terms n x0^a x_^b of a sequence of canonical images {(a, b): n}
    as arrays: (a_max, e_max, even, odd), where even and odd hold the terms
    of even and of odd b.  Each is four (terms, k) arrays for k images: a,
    the exponent e = b - b % 2 of r, the sign (-1)^(b // 2) and float(n).
    Column i lists the terms of images[i] in the mapping's order, padded
    with zeros; a_max and e_max are the largest a and e.  The exponents are
    stored in the smallest integer type that holds them, which keeps the
    nine kinds' tables at N = 60 near 0.5 MB."""
    parts = []
    for parity in (0, 1):
        columns = [[(a, b - parity, (-1.0) ** (b // 2), float(n))
                    for (a, b), n in image.items() if b % 2 == parity]
                   for image in images]
        table = np.zeros((4, max(map(len, columns), default=0), len(columns)))
        for i, column in enumerate(columns):
            table[:, :len(column), i] = np.reshape(column, (-1, 4)).T
        parts.append(table)
    a_max, e_max = (int(max(t[j].max(initial=0) for t in parts))
                    for j in (0, 1))
    exponent = np.min_scalar_type(max(a_max, e_max))
    return (a_max, e_max, *((*t[:2].astype(exponent), *t[2:].copy())
                            for t in parts))


@lru_cache(maxsize=1)
def word_image_terms(word: tuple[str, ...], N: int) -> tuple:
    """image_terms of word_image(word, m) for m = 0..N: column m holds the
    terms of the image of x^m.  Memoised for the last (word, N) only: the
    kernel and resolvent series ask for one kind's table for every sample
    and side in turn, and one table held keeps a pass's peak memory where
    a fresh build per call left it."""
    return image_terms([word_image(word, m) for m in range(N + 1)])


# -- monomial image tables -----------------------------------------------------


# The printed image of x^m under each fine kind's word: a row (o, lead, coef)
# gives x^(m-o-1) lead(m), if lead is not None, then x^(m-o-k) x̄^(k-1)
# coef(m, k) for k = 1..m-o; it is empty for m <= o.  o is written out, not
# read from KIND_ORDER: the printed table never reads the engine.
MONOMIAL_TABLES = {
    "D": (0, None, lambda m, k: -4),
    "Delta": (1, None, lambda m, k: -8 * (m - k)),
    "DeltaD": (2, None, lambda m, k: 16 * (m - k - 1) * k),
    "Dbar": (0, lambda m: 2 * m, lambda m, k: 4),
    "Dbar2": (1, lambda m: 4 * m * (m - 1), lambda m, k: 8 * (2 * m - k)),
    "D2": (1, None, lambda m, k: -8 * k),
    "DeltaDbar": (2, None, lambda m, k: -16 * (m - k - 1) * (m + k)),
}


def monomial_image(kind: str, m: int) -> XBarPolynomial:
    """Image of x^m under the operator word of the given kind, as an exact
    integer-coefficient left polynomial in (x, x̄): its MONOMIAL_TABLES row."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    try:
        o, lead, coef = MONOMIAL_TABLES[kind]
    except KeyError:
        raise ValueError(f"unknown kind {kind!r}") from None
    terms = []
    if m > o:
        if lead is not None:
            terms.append((m - o - 1, 0, lead(m)))
        terms += [(m - o - k, k - 1, coef(m, k)) for k in range(1, m - o + 1)]
    return XBarPolynomial(terms)


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
_UNIT_ROWS = np.eye(DIM)[PARAVECTOR_INDEX]


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
    the result has shape (m, 32).  The three steps are reduced together:
    a first-order letter makes one mv_mul_rows per unit e_i, over the 3 m
    rows of di g."""
    if letter == "Delta":
        V = V.reshape(-1, 37, DIM)
        center2 = V[:, :1, None] * 2.0
        V = V[:, 1:]
    V = V.reshape(-1, 3, 6, 2, DIM)
    plus, minus = V[..., 0, :], V[..., 1, :]
    st = np.array(_richardson_steps(step))[:, None, None]
    if letter == "Delta":
        # Central second differences summed over the six coordinates.
        terms = ((plus - center2) + minus) * (1.0 / (st * st))
        stencils = np.add.reduce(terms, axis=2, initial=0.0)
    else:
        # d0 g + sum_i e_i di g (Dbar: minus the sum), e_i on the side.
        partials = (plus - minus) * (1.0 / (2.0 * st))
        stencils = partials[:, :, 0]
        for i, unit in enumerate(_UNIT_ROWS[1:, None], 1):
            d = partials[:, :, i].reshape(-1, DIM)
            term = (mv_mul_rows(unit, d) if side == LEFT
                    else mv_mul_rows(d, unit)).reshape(stencils.shape)
            stencils = stencils - term if letter == "Dbar" else stencils + term
    s_h, s_2h, s_4h = stencils.transpose(1, 0, 2)
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
    letters at once.  Where F gives inf or NaN, the sign bit of a NaN in the
    result is not specified: the left side passes di g as mv_mul_rows' B,
    whose bits are mv_mul's only for a finite B.
    """
    _check_side(side)
    for name, value in (("h", h), ("step_growth", step_growth)):
        if not 0.0 < value < inf:
            raise ValueError(
                f"{name} must be finite and positive, got {value!r}")
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

    def __init__(self):
        self.terms: dict[tuple[int, int], Multivector] = {}

    def deriv(self, i: int, j: int) -> "AxialPoly":
        """The partial derivative d^i/dx0^i d^j/dr^j, term by term."""
        out = AxialPoly()
        for (a, b), c in self.terms.items():
            if a >= i and b >= j:
                _accumulate(out.terms, (a - i, b - j),
                            c * (perm(a, i) * perm(b, j)))
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
        # x_^b = (-1)^(b // 2) r^b, times omega for odd b.
        _accumulate((B if b % 2 else A).terms, (a, b), c * (-1.0) ** (b // 2))
    return A, B


# The space each printed axial PDE system characterizes, as a TAG_WORDS key.
SYSTEM_TAGS = {
    "AntiCliffordian": "AntiACH1", "BiHarmonic": "ABH", "Poly3": "AP3",
    "Cliffordian1": "ACH1", "Harmonic": "AH", "Poly2": "AP2",
    "PolyCliffordian12": "APC12",
}
VEKUA_SYSTEMS = tuple(SYSTEM_TAGS)
SYSTEM_WORDS = {sys: TAG_WORDS[tag] for sys, tag in SYSTEM_TAGS.items()}


# The printed axial PDE systems for f = A + omega B, two equations each, in
# printed order; a term (c, part, i, j, p) is c d0^i dr^j part / r^p.
PRINTED_SYSTEMS = {
    "AntiCliffordian": (
        ((1, "A", 3, 0, 0), (1, "A", 1, 2, 0), (4, "A", 1, 1, 1),
         (1, "B", 2, 1, 0), (1, "B", 0, 3, 0), (8, "B", 0, 2, 1),
         (8, "B", 0, 1, 2), (-8, "B", 0, 0, 3), (4, "B", 2, 0, 1)),
        ((1, "B", 3, 0, 0), (1, "B", 1, 2, 0), (-4, "B", 1, 1, 1),
         (4, "B", 1, 0, 2), (-1, "A", 2, 1, 0), (-1, "A", 0, 3, 0),
         (-4, "A", 0, 2, 1), (4, "A", 0, 1, 2))),
    "BiHarmonic": (
        ((1, "A", 4, 0, 0), (2, "A", 2, 2, 0), (1, "A", 0, 4, 0),
         (-8, "A", 0, 1, 3), (8, "A", 0, 2, 2), (8, "A", 0, 3, 1),
         (4, "A", 2, 1, 1)),
        ((1, "B", 0, 4, 0), (8, "B", 0, 3, 1), (-24, "B", 0, 1, 3),
         (24, "B", 0, 0, 4), (2, "B", 2, 2, 0), (-8, "B", 2, 0, 2),
         (8, "B", 2, 1, 1), (1, "B", 4, 0, 0))),
    "Poly3": (
        ((1, "A", 3, 0, 0), (1, "B", 0, 3, 0), (-3, "B", 2, 1, 0),
         (-3, "A", 1, 2, 0), (-12, "B", 2, 0, 1), (-12, "A", 1, 1, 1),
         (8, "B", 0, 2, 1), (8, "B", 0, 1, 2), (-8, "B", 0, 0, 3)),
        ((1, "B", 3, 0, 0), (-1, "A", 0, 3, 0), (3, "A", 2, 1, 0),
         (-3, "B", 1, 2, 0), (-12, "B", 1, 1, 1), (12, "B", 1, 0, 2),
         (-4, "A", 0, 2, 1), (4, "A", 0, 1, 2))),
    "Cliffordian1": (
        ((1, "A", 1, 0, 0), (1, "A", 1, 2, 0), (4, "A", 1, 1, 1),
         (-1, "B", 2, 1, 0), (-1, "B", 0, 3, 0), (-8, "B", 0, 1, 2),
         (8, "B", 0, 0, 3), (-4, "B", 2, 0, 1)),
        ((1, "B", 3, 0, 0), (1, "B", 1, 2, 0), (4, "B", 1, 1, 1),
         (-4, "B", 1, 0, 2), (1, "A", 2, 1, 0), (1, "A", 0, 3, 0),
         (4, "A", 0, 2, 1), (-8, "A", 0, 1, 2), (8, "A", 0, 0, 3))),
    "Harmonic": (
        ((1, "A", 2, 0, 0), (1, "A", 0, 2, 0), (4, "A", 0, 1, 1)),
        ((1, "B", 2, 0, 0), (1, "B", 0, 2, 0), (4, "B", 0, 1, 1),
         (-4, "B", 0, 0, 2))),
    "Poly2": (
        ((1, "A", 2, 0, 0), (-2, "B", 1, 1, 0), (-8, "B", 1, 0, 1),
         (-1, "A", 0, 2, 0), (-4, "A", 0, 1, 1)),
        ((1, "B", 2, 0, 0), (2, "A", 1, 1, 0), (-1, "B", 0, 2, 0),
         (-4, "B", 0, 1, 1), (4, "B", 0, 0, 2))),
    "PolyCliffordian12": (
        ((1, "A", 4, 0, 0), (-2, "B", 3, 1, 0), (-2, "B", 1, 3, 0),
         (-8, "B", 3, 0, 1), (-8, "B", 1, 2, 1), (-1, "A", 0, 4, 0),
         (-8, "A", 0, 3, 1), (-8, "A", 0, 1, 3), (-4, "A", 0, 2, 2),
         (-8, "A", 0, 0, 4), (-16, "B", 1, 1, 2)),
        ((1, "B", 4, 0, 0), (2, "A", 3, 1, 0), (2, "A", 1, 3, 0),
         (8, "A", 1, 2, 1), (-12, "A", 1, 1, 2), (-4, "B", 1, 1, 2),
         (-1, "B", 0, 4, 0), (8, "A", 1, 0, 3), (-8, "B", 0, 2, 2),
         (24, "B", 0, 1, 3), (-24, "B", 0, 0, 4), (4, "B", 2, 0, 2))),
}


def vekua_residual(sys: str, A: AxialPoly, B: AxialPoly,
                   p) -> tuple[Multivector, Multivector]:
    """Both equations of PRINTED_SYSTEMS[sys] at p = (x0, r), each summed in
    table order from its first term (a sum from zero loses a -0.0).  Raises
    NotFinite if x0 or r is inf or NaN, then AxisTooClose if r < 0.1."""
    x0, r = float(p[0]), float(p[1])
    if not (isfinite(x0) and isfinite(r)):
        raise NotFinite(f"point ({x0}, {r}) is not finite")
    if r < 0.1:
        raise AxisTooClose(f"r = {r} below r_min = 0.1")
    if sys not in PRINTED_SYSTEMS:
        raise ValueError(f"unknown system {sys!r}")
    values = [[(A if part == "A" else B).deriv(i, j)(x0, r) * (c / r ** k)
               for c, part, i, j, k in equation]
              for equation in PRINTED_SYSTEMS[sys]]
    return tuple(sum(terms[1:], terms[0]) for terms in values)


# -- classification and enumeration ---------------------------------------------


def classify_space(P) -> set[str]:
    """Set of fine-structure tags whose annihilator word kills P exactly."""
    C = to_canonical(P)
    tags = {tag for tag, word in TAG_WORDS.items()
            if apply_word(word, C).is_zero()}
    if is_slice(C):
        tags.add("SH")
    return tags


_BLOCKS_FINE = ("D", "Dbar")
_BLOCKS_COARSE = ("D", "Dbar", "Delta", "D2", "Dbar2")
_BLOCK_DEGREES = {block: word_degrees(KIND_WORDS[block])
                  for block in _BLOCKS_COARSE}

# The space whose annihilator word has the given (D-degree, Dbar-degree).
_DEGREE_TAG = {word_degrees(word): tag for tag, word in TAG_WORDS.items()}


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
                labels.append(_DEGREE_TAG[(2 - pa + 1, 2 - pb)])
            results.append((tuple(word), labels))
            return
        for block in blocks:
            ba, bb = _BLOCK_DEGREES[block]
            if da + ba <= 2 and db + bb <= 2:
                rec(word + [block], da + ba, db + bb)

    rec([], 0, 0)
    return results
