"""Float64 arithmetic in the real Clifford algebra with five anticommuting
generators, each squaring to -1, together with its paravector subspace.

A multivector is stored densely as 32 float64 coefficients indexed by the 5-bit
mask of the blade's index set (bit i-1 set means the generator e_i is a
factor, in ascending order).
"""

from __future__ import annotations

import numpy as np

from .errors import NotFinite, NotImaginaryUnit, NotParavector, ZeroParavector

N_GENERATORS = 5
DIM = 1 << N_GENERATORS

ATOL_DEFAULT = 1e-12


def blade_product(a: int, b: int) -> tuple[int, int]:
    """Product of two basis blades given as bit masks.

    Returns (sign, result_mask) where sign is +1 or -1 and result_mask is the
    symmetric difference of the index sets.  The sign counts the
    transpositions needed to interleave the generators plus a -1 for every
    repeated generator (e_i^2 = -1).
    """
    sign = 1
    acc = a
    for i in range(N_GENERATORS):
        if not (b >> i) & 1:
            continue
        higher = acc >> (i + 1)
        if bin(higher).count("1") & 1:
            sign = -sign
        if (acc >> i) & 1:
            sign = -sign
            acc &= ~(1 << i)
        else:
            acc |= 1 << i
    return sign, a ^ b


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    signs = np.empty((DIM, DIM), dtype=np.float64)
    index = np.empty((DIM, DIM), dtype=np.intp)
    for a in range(DIM):
        for b in range(DIM):
            s, r = blade_product(a, b)
            signs[a, b] = s
            index[a, b] = r
    return signs, index


SIGN_TABLE, INDEX_TABLE = _build_tables()

GRADE = np.array([bin(m).count("1") for m in range(DIM)])
PARAVECTOR_MASKS = (0, 1, 2, 4, 8, 16)
PARAVECTOR_INDEX = np.array(PARAVECTOR_MASKS)
_PARAVECTOR_SET = frozenset(PARAVECTOR_MASKS)
VECTOR_MASKS = PARAVECTOR_INDEX[1:]
# The blades outside the paravector slots, ascending.
_HIGHER = np.array([m for m in range(DIM) if m not in PARAVECTOR_MASKS])
# The bivectors e_i e_j, i < j, and the 16 blades of a paravector product.
_BIVECTOR_PAIRS = [(i, j) for j in range(2, 6) for i in range(1, j)]
_PRODUCT_INDEX = np.array(PARAVECTOR_MASKS + tuple(
    PARAVECTOR_MASKS[i] | PARAVECTOR_MASKS[j] for i, j in _BIVECTOR_PAIRS))
CONJUGATE_SIGNS = np.where(GRADE == 1, -1.0, 1.0)


class Multivector:
    """Immutable value of the 32-dimensional real Clifford algebra."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            c = np.zeros(DIM)
        else:
            c = np.asarray(coeffs, dtype=np.float64)
            if c.shape != (DIM,):
                raise ValueError(f"expected {DIM} blade coefficients")
            c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @staticmethod
    def _wrap(c: np.ndarray) -> "Multivector":
        """Adopt a freshly computed float64 array of shape (32,) without
        copying it; the caller must hold no other reference to it."""
        mv = object.__new__(Multivector)
        c.setflags(write=False)
        object.__setattr__(mv, "c", c)
        return mv

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def scalar(value: float) -> "Multivector":
        c = np.zeros(DIM)
        c[0] = value
        return Multivector._wrap(c)

    @staticmethod
    def basis(mask: int) -> "Multivector":
        c = np.zeros(DIM)
        c[mask] = 1.0
        return Multivector._wrap(c)

    @staticmethod
    def paravector(x0: float, *xs: float) -> "Multivector":
        if len(xs) > N_GENERATORS:
            raise ValueError("too many vector components")
        c = np.zeros(DIM)
        c[0] = x0
        for i, v in enumerate(xs):
            c[1 << i] = v
        return Multivector._wrap(c)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return Multivector._wrap(self.c + other.c)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return Multivector._wrap(self.c - other.c)

    def __neg__(self):
        return Multivector._wrap(-self.c)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return mv_mul(self, other)
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Multivector._wrap(self.c * float(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Multivector._wrap(self.c * float(other))
        return NotImplemented

    # -- queries ---------------------------------------------------------------

    def __getitem__(self, mask: int) -> float:
        return float(self.c[mask])

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.c)))

    def grade_part(self, g: int) -> "Multivector":
        c = np.where(GRADE == g, self.c, 0.0)
        return Multivector._wrap(c)

    def is_zero(self, atol: float = 0.0) -> bool:
        return bool(np.abs(self.c).max() <= atol)

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return bool(np.array_equal(self.c, other.c))

    def __hash__(self):
        return hash((self.c + 0.0).tobytes())  # -0.0 == 0.0, so hash them alike

    def __repr__(self):
        parts = []
        for m in range(DIM):
            v = self.c[m]
            if v == 0.0:
                continue
            name = "1" if m == 0 else "e" + "".join(
                str(i + 1) for i in range(N_GENERATORS) if (m >> i) & 1
            )
            parts.append(f"{v:+g}*{name}")
        return "MV(" + (" ".join(parts) if parts else "0") + ")"


ZERO = Multivector()
ONE = Multivector.scalar(1.0)


# The sign of the blade product at output slot k: LEFT_SIGN[a, k] =
# SIGN_TABLE[a, a ^ k] for left blade a, RIGHT_SIGN[b, k] = SIGN_TABLE[b ^ k, b]
# for right blade b.
LEFT_SIGN = np.take_along_axis(SIGN_TABLE, INDEX_TABLE, axis=1)
RIGHT_SIGN = SIGN_TABLE[INDEX_TABLE, np.arange(DIM)].T

# SIGNED_INDEX[a, k] picks LEFT_SIGN[a, k] * B[a ^ k] out of the concatenation
# [B, -B]: a ^ k when the sign is +1, 32 + (a ^ k) when it is -1.
SIGNED_INDEX = INDEX_TABLE + DIM * (LEFT_SIGN < 0)

# LEFT_SIGNED[k, b] picks RIGHT_SIGN[b, k] * A[k ^ b] out of [A, -A].
LEFT_SIGNED = INDEX_TABLE + DIM * (RIGHT_SIGN.T < 0)


def _gather_product(ac: np.ndarray, bc: np.ndarray) -> np.ndarray:
    """out[k] = sum_a A[a] * SIGN_TABLE[a, a ^ k] * B[a ^ k] over the nonzero
    blades a of A, added in ascending order of a starting from 0.0."""
    nz = ac.nonzero()[0]
    terms = np.concatenate((bc, -bc)).take(SIGNED_INDEX.take(nz, axis=0))
    terms *= ac.take(nz)[:, None]
    # Reducing over axis 0 adds whole rows one after another, so every slot
    # is summed sequentially in the order of nz (no pairwise summation).
    return np.add.reduce(terms, axis=0, initial=0.0)


def mv_mul(a: Multivector, b: Multivector) -> Multivector:
    """Bilinear extension of the blade product, as one gather."""
    return Multivector._wrap(_gather_product(a.c, b.c))


def _madd(acc: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """acc += x * y: one step of mv_mul_rows."""
    acc += x * y


def _paravector_product_slots(p, q) -> list:
    """The slots at _PRODUCT_INDEX of the product of paravectors p and q,
    six slots each (floats or row columns): mv_mul's terms p0 q0 + sum p_i
    (-q_i), p0 q_i + p_i q0 and p_i q_j + p_j (-q_i), each slot summed from
    +0.0 in ascending order of p's blade."""
    p, q = list(p), list(q)
    nq = [-v for v in q]
    scalar = 0.0 + p[0] * q[0]
    for i in range(1, 6):
        scalar = scalar + p[i] * nq[i]
    return ([scalar] + [(0.0 + p[0] * q[i]) + p[i] * q[0] for i in range(1, 6)]
            + [(0.0 + p[i] * q[j]) + p[j] * nq[i] for i, j in _BIVECTOR_PAIRS])


def mv_mul_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise product of two (n, 32) coefficient arrays, bit for bit equal
    to mv_mul on each row whenever B is finite (mv_mul's own skip of the
    zero blades of A assumes as much).

    A one-row operand broadcasts against the other's rows.  One row times
    one row is mv_mul's single gather.  Two finite operands whose blades
    nonzero in any row are 3 to 6 paravector slots each make one step,
    _paravector_product_slots on their slot columns; the 16 other slots
    stay +0.0.  Otherwise the sum runs from +0.0 over the operand with
    fewer blades nonzero in any row, one step per blade, and each step adds
    one column of that operand times one signed gather of the other (the
    scalar blade's gather is the identity):
    - over A's blades a, in ascending order (A no denser than B, or A not
      finite): step a adds A[:, a] * (LEFT_SIGN[a, k] * B[:, a ^ k]) to
      every slot k;
    - over B's one or two blades b (B sparser and A finite): step b adds
      (RIGHT_SIGN[b, k] * A[:, b ^ k]) * B[:, b];
    - over B's nb >= 3 blades (B sparser and A finite): step t adds, to
      each slot k, the term of the t-th left blade a, in ascending order,
      with a ^ k among B's blades, as two (n, 32) column gathers.
    A sign is +-1, so folding it into either factor gives the IEEE product
    of mv_mul.  The paravector step and the first and third loops add each
    slot's nonzero terms in ascending order of a, as mv_mul does.  The
    second adds at most two per slot, in ascending order of b, and for
    doubles x and y (+0.0 + x) + y is (+0.0 + y) + x, signed zeros and
    inf - inf included.  A skipped term, or a term of a row whose factor is
    zero, is a signed zero (the other factor being finite, hence the loops
    over B's blades and the paravector step only for a finite A), and
    adding a signed zero never changes a sum started at +0.0, which cannot
    become -0.0; so each row gets the bits of its own mv_mul.  A non-finite
    A stays on the loop over A, where inf * 0 gives NaN as in mv_mul, and a
    non-finite B off the paravector step, which would meet it with A's zero
    columns.  Temporaries stay (n, 32).
    """
    if len(A) == len(B) == 1:
        return _gather_product(A[0], B[0])[None]
    acc = np.zeros((max(len(A), len(B)), DIM))
    # A blade counts as nonzero if it is nonzero (not +-0.0) in any row.
    left = np.flatnonzero(A.any(axis=0))
    keep = B.any(axis=0)
    right = np.flatnonzero(keep)
    if (3 <= len(left) <= 6 and 3 <= len(right) <= 6
            and _PARAVECTOR_SET.issuperset(left.tolist() + right.tolist())
            and np.isfinite(A).all() and np.isfinite(B).all()):
        acc[:, _PRODUCT_INDEX] = np.transpose(_paravector_product_slots(
            A.T[PARAVECTOR_INDEX], B.T[PARAVECTOR_INDEX]))
    elif len(right) >= len(left) or not np.isfinite(A).all():
        for a in left:
            y = B.take(INDEX_TABLE[a], axis=1) * LEFT_SIGN[a] if a else B
            _madd(acc, A[:, a, None], y)
    elif len(right) <= 2:
        for b in right:
            x = A.take(INDEX_TABLE[b], axis=1) * RIGHT_SIGN[b] if b else A
            _madd(acc, x, B[:, b, None])
    else:
        signed = np.concatenate((B, -B), axis=1)
        nb = len(right)
        # a_idx[t, k]: the t-th a, ascending, whose partner a ^ k is kept.
        a_idx = np.argsort(~keep[INDEX_TABLE], axis=0, kind="stable")[:nb]
        s_idx = np.take_along_axis(SIGNED_INDEX, a_idx, axis=0)
        for a_t, s_t in zip(a_idx, s_idx):
            _madd(acc, A[:, a_t], signed[:, s_t])
    return acc


def is_paravector(x: Multivector) -> bool:
    return bool(np.max(np.abs(x.c[_HIGHER]), initial=0.0) <= ATOL_DEFAULT)


def paravector_conjugate(x: Multivector) -> Multivector:
    """x0 - x_ for a paravector x = x0 + x_ (grade-1 part negated)."""
    return Multivector._wrap(x.c * CONJUGATE_SIGNS)


def slots_norm_sq(v) -> float:
    """|v|^2 of six slots (floats) by ** 2, libm pow: v * v can differ."""
    v0, v1, v2, v3, v4, v5 = v
    return v0 ** 2 + v1 ** 2 + v2 ** 2 + v3 ** 2 + v4 ** 2 + v5 ** 2


def paravector_norm_sq(x: Multivector) -> float:
    return slots_norm_sq(x.c[PARAVECTOR_INDEX].tolist())


def paravector_norm_sq_rows(X: np.ndarray) -> np.ndarray:
    """paravector_norm_sq of each row of X (n, 32), bit for bit.

    The six paravector slots are taken as six rows of n columns and squared
    by np.float_power, whose float64 loop is libm pow, the call behind ** 2;
    the squares are then added left to right, one whole row after another.
    As with ** 2, a finite slot whose square overflows raises OverflowError,
    and a sum that overflows is inf, without a warning."""
    try:
        with np.errstate(over="raise"):
            sq = np.float_power(X.T[PARAVECTOR_INDEX], 2.0)
    except FloatingPointError:
        raise OverflowError("a paravector slot's square is out of range") from None
    with np.errstate(over="ignore"):
        return np.add.reduce(sq, axis=0)


def check_paravector(*coeffs: np.ndarray) -> None:
    """Raise NotParavector if any blade outside the six paravector slots is
    nonzero, exactly, in any of the coefficient arrays: (32,) for one
    multivector or (n, 32) rows, and NotFinite if a slot is inf or NaN.  A
    -0.0 counts as zero."""
    for c in coeffs:
        if np.count_nonzero(c.take(_HIGHER, axis=-1)):
            raise NotParavector("a blade outside the paravector slots is nonzero")
        if np.count_nonzero(np.isfinite(c)) < c.size:
            raise NotFinite("a paravector slot is inf or NaN")


def invertible_norm_sq(x: Multivector) -> float:
    """|x|^2 past check_paravector (else xbar / |x|^2 is no inverse), and
    ZeroParavector if it is 0."""
    check_paravector(x.c)
    n2 = paravector_norm_sq(x)
    if n2 == 0.0:
        raise ZeroParavector("cannot invert the zero paravector")
    return n2


def paravector_inverse(x: Multivector) -> Multivector:
    """xbar / |x|^2, past invertible_norm_sq."""
    return Multivector._wrap(x.c * (CONJUGATE_SIGNS * (1.0 / invertible_norm_sq(x))))


def axis_rows(X: np.ndarray):
    """x = x0 + r*omega at each row of X (n, 32): x0 and r as lists of floats,
    omega's vector slots as (n, 5) rows, zero where r = 0.  r is the ddot of
    np.linalg.norm over C-contiguous rows; v /= r divides in place."""
    v = X.take(VECTOR_MASKS, axis=1)
    r = np.sqrt(np.vecdot(v, v))
    rs = r.tolist()
    if 0.0 in rs:
        v[r == 0.0] = 0.0
        r[r == 0.0] = 1.0
    v /= r[:, None]
    return X[:, 0].tolist(), rs, v


def axis_decompose(x: Multivector):
    """(x0, r, omega) with x = x0 + r*omega, the one-row case of axis_rows;
    omega is the unit 1-vector, or None when r = 0."""
    (x0,), (r,), v = axis_rows(x.c[None])
    omega = np.zeros(DIM)
    omega[VECTOR_MASKS] = v[0]
    return x0, r, (Multivector._wrap(omega) if r else None)


def embed(u: float, v: float, J: Multivector) -> Multivector:
    """The point u + J v of the slice plane determined by the unit 1-vector J."""
    check_imaginary_unit(J)
    return Multivector.scalar(u) + J * v


def check_imaginary_unit(J: Multivector) -> None:
    try:
        check_paravector(J.c)
    except (NotParavector, NotFinite):
        raise NotImaginaryUnit("J must be a 1-vector") from None
    if abs(J[0]) > ATOL_DEFAULT:
        raise NotImaginaryUnit("J must be a 1-vector")
    if abs(paravector_norm_sq(J) - 1.0) > ATOL_DEFAULT:
        raise NotImaginaryUnit("J must have unit norm")
