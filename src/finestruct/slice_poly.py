"""Slice polynomials, stem/axial representations, and an exact canonical
polynomial form in the commuting scalar x0 and the vector part x_.

The canonical form stores terms x0^a x_^b c with Clifford coefficients c on
the right (left objects) or on the left (right objects).  Evaluation reduces
x_^2 to -r^2, so x_^b becomes (-1)^(b/2) r^b for even b and
(-1)^((b-1)/2) r^(b-1) x_ for odd b.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .clifford_core import (
    Multivector,
    ZERO,
    ONE,
    VECTOR_MASKS,
    axis_decompose,
    axis_rows,
    mv_mul_rows,
    paravector_conjugate,
)
from .errors import AxisSingularity

LEFT = "left"
RIGHT = "right"


def _check_side(side: str) -> str:
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}")
    return side


def _coerce_coeff(c) -> Multivector:
    if isinstance(c, Multivector):
        return c
    return Multivector.scalar(float(c))


class SlicePolynomial:
    """One-sided polynomial sum_m x^m a_m (left) or sum_m a_m x^m (right)."""

    def __init__(self, coeffs, side: str = LEFT):
        self.side = _check_side(side)
        self.coeffs = [_coerce_coeff(c) for c in coeffs]

    @staticmethod
    def monomial(m: int, coeff=1.0, side: str = LEFT) -> "SlicePolynomial":
        if m < 0:
            raise ValueError("m must be nonnegative")
        coeffs = [ZERO] * m + [_coerce_coeff(coeff)]
        return SlicePolynomial(coeffs, side)


class XBarPolynomial:
    """Polynomial in the pair (x, conjugate of x).

    Terms are (a, b, c) meaning x^a x̄^b c for left objects and c x^a x̄^b for
    right objects; factor order is preserved.
    """

    def __init__(self, terms, side: str = LEFT):
        self.side = _check_side(side)
        self.terms = [(int(a), int(b), _coerce_coeff(c)) for a, b, c in terms]


def _accumulate(terms: dict, key, c) -> None:
    """Add c into terms[key]: a zero c is skipped, and the key is dropped
    when the sum cancels to zero, so terms holds no zero value.  Values are
    Multivectors or raw (32,) arrays, zero if no slot is nonzero or NaN."""
    if not np.count_nonzero(_raw(c)):
        return
    cur = terms.get(key)
    new = c if cur is None else cur + c
    if np.count_nonzero(_raw(new)):
        terms[key] = new
    else:
        terms.pop(key, None)


def _raw(c) -> np.ndarray:
    return c.c if isinstance(c, Multivector) else c


def _canonical(terms: dict, side: str) -> "CanonicalPoly":
    """The CanonicalPoly of raw sums made by _accumulate, each wrapped once."""
    out = CanonicalPoly(side=side)
    out.terms = {key: Multivector._wrap(c) for key, c in terms.items()}
    return out


class CanonicalPoly:
    """Exact polynomial sum over (a, b) of x0^a x_^b c_ab."""

    def __init__(self, terms=None, side: str = LEFT):
        self.side = _check_side(side)
        self.terms: dict[tuple[int, int], Multivector] = {}
        if terms:
            for (a, b), c in dict(terms).items():
                self._add_term(int(a), int(b), _coerce_coeff(c))

    def _add_term(self, a: int, b: int, c: Multivector) -> None:
        _accumulate(self.terms, (a, b), c)

    def _merge(self, other: "CanonicalPoly", negate: bool) -> "CanonicalPoly":
        if self.side != other.side:
            raise ValueError("side mismatch")
        out = CanonicalPoly(self.terms, self.side)
        for (a, b), c in other.terms.items():
            out._add_term(a, b, -c if negate else c)
        return out

    def __add__(self, other: "CanonicalPoly") -> "CanonicalPoly":
        return self._merge(other, negate=False)

    def __sub__(self, other: "CanonicalPoly") -> "CanonicalPoly":
        return self._merge(other, negate=True)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.terms.values())

    def equals(self, other: "CanonicalPoly") -> bool:
        keys = set(self.terms) | set(other.terms)
        for k in keys:
            a = self.terms.get(k, ZERO)
            b = other.terms.get(k, ZERO)
            if not (a - b).is_zero():
                return False
        return True

    def __repr__(self):
        items = ", ".join(f"x0^{a} x_^{b}: {c!r}" for (a, b), c in sorted(self.terms.items()))
        return f"CanonicalPoly({items})"


class StemPair:
    """Pair of stem functions (u, v) -> Multivector with even-odd symmetry."""

    def __init__(self, alpha, beta):
        self.alpha = alpha
        self.beta = beta


def eval_slice_poly(P: SlicePolynomial, x: Multivector) -> Multivector:
    """Horner evaluation respecting the side of the coefficients:
    eval_slice_poly_rows on the single row x."""
    return Multivector._wrap(eval_slice_poly_rows(P, x.c[None, :])[0])


def eval_slice_poly_rows(P: SlicePolynomial, X: np.ndarray) -> np.ndarray:
    """Horner evaluation, x * acc + c (left) or acc * x + c (right) from
    acc = 0, at each row x of X (n, 32), with mv_mul_rows for the
    products."""
    acc = np.zeros_like(X)
    for c in reversed(P.coeffs):
        acc = (mv_mul_rows(X, acc) if P.side == LEFT
               else mv_mul_rows(acc, X)) + c.c
    return acc


def extend_stem(stem: StemPair, x: Multivector) -> Multivector:
    """Axial extension alpha(x0, r) + omega beta(x0, r) of a stem pair."""
    x0, r, omega = axis_decompose(x)
    beta = _coerce_coeff(stem.beta(x0, r))
    if omega is None:
        if beta.norm_inf() > 1e-12:
            raise AxisSingularity("odd stem part does not vanish on the axis")
        return _coerce_coeff(stem.alpha(x0, 0.0))
    return _coerce_coeff(stem.alpha(x0, r)) + omega * beta


def to_canonical(Q) -> CanonicalPoly:
    """Exact binomial expansion into the (x0, x_) canonical form."""
    if isinstance(Q, CanonicalPoly):
        return Q
    if isinstance(Q, SlicePolynomial):
        terms = [(m, 0, c) for m, c in enumerate(Q.coeffs) if not c.is_zero()]
        xbar = XBarPolynomial(terms, Q.side)
    elif isinstance(Q, XBarPolynomial):
        xbar = Q
    else:
        raise TypeError(f"cannot canonicalize {type(Q)!r}")

    # Summed on raw arrays with the products and order of c * coef.
    terms = {}
    for a, b, c in xbar.terms:
        # x^a = sum_i C(a,i) x0^(a-i) x_^i ; x̄^b = sum_j C(b,j) x0^(b-j) (-x_)^j
        for i in range(a + 1):
            for j in range(b + 1):
                coef = comb(a, i) * comb(b, j) * ((-1) ** j)
                _accumulate(terms, (a + b - i - j, i + j), c.c * float(coef))
    return _canonical(terms, xbar.side)


def canonical_eval(C: CanonicalPoly, x: Multivector) -> Multivector:
    """Numeric substitution with x_^2 reduced to -r^2: canonical_eval_rows
    on the single row x."""
    return Multivector._wrap(canonical_eval_rows(C, x.c[None, :])[0])


def canonical_eval_rows(C: CanonicalPoly, X: np.ndarray) -> np.ndarray:
    """Numeric substitution, with x_^2 reduced to -r^2, at each row x of
    X (n, 32).

    (x0, r, omega) come from axis_rows, and the scalar factor of each term
    from Python floats per point; the products with the coefficients and
    the sum over terms, from +0.0 in term order, run on all rows at once.
    A point on the axis (omega zero) adds +0.0 for each odd term, which
    leaves its sum unchanged.
    """
    x0s, rs, vectors = axis_rows(X)
    omega = np.zeros_like(X)
    omega[:, VECTOR_MASKS] = vectors
    acc = np.zeros_like(X)
    for (a, b), c in C.terms.items():
        scalar = np.array([(x0 ** a) * ((-1.0) ** (b // 2)) * (r ** (b - (b % 2)))
                           for x0, r in zip(x0s, rs)])
        if b % 2 == 0:
            # A real scalar times c, either side: 0.0 + scalar * c, as mv_mul.
            term = 0.0 + scalar[:, None] * c.c
        else:
            factor = omega * (scalar * rs)[:, None]
            cs = np.broadcast_to(c.c, X.shape)
            term = (mv_mul_rows(factor, cs) if C.side == LEFT
                    else mv_mul_rows(cs, factor))
        acc = acc + term
    return acc


def eval_xbar_poly(Q: XBarPolynomial, x: Multivector) -> Multivector:
    """Direct evaluation via multivector powers (oracle for to_canonical)."""
    xbar = paravector_conjugate(x)
    acc = ZERO
    for a, b, c in Q.terms:
        p = ONE
        for _ in range(a):
            p = p * x
        for _ in range(b):
            p = p * xbar
        acc = acc + (p * c if Q.side == LEFT else c * p)
    return acc


def is_intrinsic(P: SlicePolynomial) -> bool:
    """True iff every coefficient is a real scalar, exactly."""
    return all((c - Multivector.scalar(c[0])).is_zero() for c in P.coeffs)


def is_slice(C: CanonicalPoly) -> bool:
    """True iff the canonical polynomial equals the expansion of some
    one-sided slice polynomial sum_m x^m a_m.

    The expansion of x^m has coefficient C(m, b) on x0^(m-b) x_^b, so the
    canonical coefficients must satisfy c_ab = C(a+b, b) a_(a+b) for a single
    coefficient sequence a_m.
    """
    degree = max((a + b for a, b in C.terms), default=-1)
    for m in range(degree + 1):
        candidate = None
        for b in range(m + 1):
            c = C.terms.get((m - b, b), ZERO)
            value = c * (1.0 / comb(m, b))
            if candidate is None:
                candidate = value
            elif not ((candidate - value).norm_inf() <= max(1e-11, 1e-10 * max(
                    candidate.norm_inf(), value.norm_inf()))):
                return False
    return True


def slice_from_canonical(C: CanonicalPoly) -> SlicePolynomial | None:
    """Recover the slice polynomial whose expansion is C, or None."""
    if not is_slice(C):
        return None
    degree = max((a + b for a, b in C.terms), default=-1)
    coeffs = []
    for m in range(degree + 1):
        coeffs.append(C.terms.get((m, 0), ZERO))
    return SlicePolynomial(coeffs, C.side)


def stem_of_intrinsic(P: SlicePolynomial) -> StemPair:
    """Stem pair (alpha, beta) of an intrinsic slice polynomial, evaluated
    through the complex polynomial sum a_m (u + i v)^m."""
    reals = [c[0] for c in P.coeffs]

    def alpha(u, v):
        z = complex(u, v)
        return Multivector.scalar(float(np.real(sum(a * z ** m for m, a in enumerate(reals)))))

    def beta(u, v):
        z = complex(u, v)
        return Multivector.scalar(float(np.imag(sum(a * z ** m for m, a in enumerate(reals)))))

    return StemPair(alpha, beta)
