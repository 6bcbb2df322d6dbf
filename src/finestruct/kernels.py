"""Closed-form, series, and F5-combination evaluation of the Cauchy kernel,
the F5 kernel, and the seven fine-structure kernels.

All kernels are rational in the commuting pseudo Cauchy kernel
Q(s, x) = s^2 - 2 x0 s + |x|^2 (a paravector commuting with s, x0 and every
scalar, but not with x or its conjugate), so factor order is semantic and is
preserved exactly.

The closed forms live in one table, KERNEL_TERMS: each kind is a sum of
terms c * L Q^(-k) R, written for the left kernel, with L and R among
s - xbar, s - x0, (s - x0)^2, x - s or nothing.  The right kernel is the
mirror image: L and R swap places.  kernel_from_table, the one reader of
the table, evaluates a row with the factors, Q^(-k) and the product it is
given.  One stacked evaluator, _table_stack, builds the factors for all
three callers: fine_kernel (one multivector row), fine_kernel_rows ((n, 32)
rows) and op_calculus's resolvents ((n, 32, d, d) operators, x -> T).
Every entry point raises NotParavector first if s or x is not a paravector,
and NotFinite if one of its slots is inf or NaN (check_paravector).
"""

from __future__ import annotations

import operator
from functools import lru_cache, reduce
from math import sqrt

import numpy as np

from .clifford_core import (
    CONJUGATE_SIGNS,
    DIM,
    Multivector,
    ONE,
    PARAVECTOR_INDEX,
    PARAVECTOR_MASKS,
    axis_decompose,
    check_paravector,
    invertible_norm_sq,
    mv_mul_rows,
    paravector_conjugate,
    paravector_inverse,
    paravector_norm_sq,
    paravector_norm_sq_rows,
)
from .errors import OutsideConvergenceDisk, SpectralSphereHit
from .fueter_ops import _kind_word, word_image_terms
from .slice_poly import LEFT, _check_side

GAMMA_5 = 64.0


def _q_slots(s, x, nx) -> list:
    """The six slots of Q = s s - s (2 x0) + nx from those of s and x (floats
    or row columns) and nx = |x|^2, by the ring's float operations in order
    (s s as in _gather_product); its other blades are +0.0 unless one
    overflows."""
    s0, *sv = s
    two_x0 = 2.0 * x[0]
    q0 = 0.0 + s0 * s0
    for si in sv:
        q0 = q0 + -si * si
    return [(q0 - s0 * two_x0) + nx] + [
        (((0.0 + s0 * si) + si * s0) - si * two_x0) + 0.0 for si in sv]


def pseudo_kernel(variant: str, s: Multivector, x: Multivector) -> Multivector:
    """Uninverted pseudo Cauchy kernel of paravectors (check_paravector).

    commutative    -> s^2 - 2 x0 s + |x|^2
    noncommutative -> x^2 - 2 s0 x + |s|^2, the commutative one at (x, s)
    """
    check_paravector(s.c, x.c)
    if variant == "noncommutative":
        s, x = x, s
    elif variant != "commutative":
        raise ValueError(f"unknown variant {variant!r}")
    sv, xv = s.c[PARAVECTOR_INDEX].tolist(), x.c[PARAVECTOR_INDEX].tolist()
    return Multivector.paravector(*_q_slots(sv, xv, paravector_norm_sq(x)))


def _q_powers(q: np.ndarray, nq):
    """k -> Q^(-k), k >= 1, for rows q (n, 32) and |q|^2 nq ((n, 1) or a
    float): qbar / nq, + 0.0 (conjugation's -0.0 becomes +0.0, as in a
    product), then k - 1 products by mv_mul_rows."""
    q_inv = q * (CONJUGATE_SIGNS * (1.0 / nq))
    return lambda k: reduce(mv_mul_rows, [q_inv] * (k - 1), q_inv + 0.0)


def inverse_power(q: Multivector, k: int) -> Multivector:
    """q^(-k), _q_powers' one-row case, past invertible_norm_sq."""
    if k < 0:
        raise ValueError(f"expected a power k >= 0, got {k}")
    nq = invertible_norm_sq(q)
    return ONE if k == 0 else Multivector._wrap(_q_powers(q.c[None], nq)(k)[0])


def _sphere_bound(ns, nx):
    """The sphere guard's bound on |q|, from |s|^2 and |x|^2 (floats or rows)."""
    return 1e-10 * (1.0 + ns + nx)


def _sphere_guarded(q: Multivector, s: Multivector, x: Multivector) -> float:
    """|q|^2 for q, a pseudo Cauchy kernel of (s, x), past the sphere guard."""
    nq = paravector_norm_sq(q)
    if sqrt(nq) <= _sphere_bound(paravector_norm_sq(s), paravector_norm_sq(x)):
        raise SpectralSphereHit("x lies on the sphere of s within tolerance")
    return nq


def _guarded_q(s: Multivector, x: Multivector) -> Multivector:
    """Q(s, x) with the sphere guard."""
    q = pseudo_kernel("commutative", s, x)
    _sphere_guarded(q, s, x)
    return q


def _qn_inverse(s: Multivector, x: Multivector) -> Multivector:
    """Form I's Q_n(s, x)^(-1): the noncommutative pseudo kernel, guarded."""
    q = pseudo_kernel("noncommutative", s, x)
    _sphere_guarded(q, s, x)
    return paravector_inverse(q)


def _slice_inverse_powers(s: Multivector, N: int) -> tuple:
    """(s^-1, s^-2, ..., s^-(N+1)) as multivectors, memoised for the last
    (s, N): a series evaluates both sides, or every kind, at one s in turn.
    The key is the raw bytes of s, as Multivector equality takes -0.0 for
    +0.0."""
    return _inverse_powers(s.c.tobytes(), N)


@lru_cache(maxsize=1)
def _inverse_powers(raw: bytes, N: int) -> tuple:
    inv = paravector_inverse(Multivector(np.frombuffer(raw)))
    out = [inv]
    for _ in range(N):
        out.append(out[-1] * inv)
    return tuple(out)


# Factors of the kernel-formula table.
S_MINUS_XBAR = "s - xbar"
S_MINUS_X0 = "s - x0"
S_MINUS_X0_SQ = "(s - x0)^2"
X_MINUS_S = "x - s"

# Left kernel of each kind: terms (c, L, k, R) meaning c ((L Q^(-k)) R).
KERNEL_TERMS = {
    "D": ((-4.0, None, 1, None),),
    "Delta": ((-8.0, S_MINUS_XBAR, 2, None),),
    "DeltaD": ((16.0, None, 2, None),),
    "Dbar": ((4.0, S_MINUS_XBAR, 2, S_MINUS_X0), (2.0, None, 1, None)),
    "Dbar2": ((32.0, S_MINUS_XBAR, 3, S_MINUS_X0_SQ),),
    "D2": ((8.0, X_MINUS_S, 2, None),),
    "DeltaDbar": ((-64.0, S_MINUS_XBAR, 3, S_MINUS_X0),),
    "F5": ((GAMMA_5, S_MINUS_XBAR, 3, None),),
    "Cauchy": ((1.0, S_MINUS_XBAR, 1, None),),
}


def kernel_from_table(kind: str, side: str, factor, q_power, mul=operator.mul):
    """Sum of the KERNEL_TERMS row of kind, mirrored for the right side.

    factor(name) builds S_MINUS_XBAR, S_MINUS_X0 or X_MINUS_S and is called
    only for the factors the row uses; q_power(k) gives Q^(-k); mul is the
    ring product of factors and powers, and c multiplies as c * term.  The
    terms are summed in table order from the first one, not from zero,
    which would turn a -0.0 into +0.0."""
    _check_side(side)
    terms = KERNEL_TERMS.get(kind)
    if terms is None:
        raise ValueError(f"unknown kind {kind!r}")
    acc = None
    for c, left, k, right in terms:
        if side != LEFT:
            left, right = right, left
        term = q_power(k)
        if left is not None:
            term = mul(_build_factor(factor, left, mul), term)
        if right is not None:
            term = mul(term, _build_factor(factor, right, mul))
        if c != 1.0:
            # A scalar multiplies elementwise from either side; from the
            # left, CliffordMatrix.__mul__ sees only ring products.
            term = c * term
        acc = term if acc is None else acc + term
    return acc


def _build_factor(factor, name, mul):
    if name == S_MINUS_X0_SQ:
        f = factor(S_MINUS_X0)
        return mul(f, f)
    return factor(name)


def cauchy_kernel(side: str, form: str, s: Multivector, x: Multivector) -> Multivector:
    if form == "I":
        _check_side(side)
        qn_inv = _qn_inverse(s, x)
        sbar_minus_x = paravector_conjugate(s) - x
        if side == LEFT:
            return qn_inv * sbar_minus_x
        return sbar_minus_x * qn_inv
    if form == "II":
        return fine_kernel("Cauchy", side, s, x)
    raise ValueError(f"form must be 'I' or 'II', got {form!r}")


def cauchy_kernel_batch(side: str, s: Multivector, X: np.ndarray) -> np.ndarray:
    """cauchy_kernel(side, "II", s, x) for each row x of X (n, 32), bit for
    bit.  Raises SpectralSphereHit if any row lies on the sphere of s."""
    return fine_kernel_rows("Cauchy", side, s, X)


def f5_kernel(side: str, s: Multivector, x: Multivector) -> Multivector:
    return fine_kernel("F5", side, s, x)


def fine_kernel(kind: str, side: str, s: Multivector, x: Multivector) -> Multivector:
    """Closed form of the kernel associated with the operator word of kind:
    fine_kernel_rows on one row, but with Python-float norms."""
    q = pseudo_kernel("commutative", s, x)
    q_power = _q_powers(q.c[None], _sphere_guarded(q, s, x))
    K = _table_stack(kind, side, s.c[None], x.c[None], q_power, mv_mul_rows)
    return Multivector._wrap(K[0])


def _table_stack(kind: str, side: str, S: np.ndarray, X: np.ndarray, q_power,
                 mul) -> np.ndarray:
    """The KERNEL_TERMS row of kind at the stacks S and X, whose blade axis
    is axis 1: (n, 32) multivector rows, or (n, 32, d, d) operators (s I and
    x -> T).  Either stack may have one element, which is broadcast.

    The one rule for the table's factors: s - xbar is S - X with the vector
    blades negated, s - x0 is S - X with only blade 0 kept, and x - s is
    X - S.  q_power(k) gives the stack of Q^(-k), and mul(A, B) is the
    product of two stacks element by element (mv_mul_rows or
    op_calculus._mul_stack)."""
    conj = CONJUGATE_SIGNS.reshape((DIM,) + (1,) * (X.ndim - 2))

    def factor(name):
        if name == S_MINUS_XBAR:
            return S - X * conj
        if name == S_MINUS_X0:
            x0 = np.zeros_like(X)
            x0[:, 0] = X[:, 0]
            return S - x0
        return X - S

    return kernel_from_table(kind, side, factor, q_power, mul)


def _as_rows(p) -> np.ndarray:
    return p.c[None, :] if isinstance(p, Multivector) else p


def fine_kernel_rows(kind: str, side: str, S, X) -> np.ndarray:
    """fine_kernel(kind, side, s, x) for each pair of rows of S and X, bit
    for bit; either argument is one Multivector or an (n, 32) array of rows.

    The float operations are fine_kernel's, row by row: Q from _q_slots,
    the guard of _sphere_guarded, Q^(-k) from _q_powers and the table from
    _table_stack.  Raises the errors of check_paravector, and
    SpectralSphereHit if any pair lies on one sphere."""
    S, X = _as_rows(S), _as_rows(X)
    check_paravector(S, X)
    nx = paravector_norm_sq_rows(X)
    q = np.zeros(np.broadcast_shapes(S.shape, X.shape))
    # A one-row side's slots are floats: no numpy calls on (1,) arrays.
    slots = [A[0, PARAVECTOR_INDEX].tolist() if len(A) == 1
             else A.T[PARAVECTOR_INDEX] for A in (S, X)]
    for k, v in zip(PARAVECTOR_MASKS, _q_slots(*slots, nx)):
        q[:, k] = v
    nq = paravector_norm_sq_rows(q)
    bound = _sphere_bound(paravector_norm_sq_rows(S), nx)
    if np.any(np.sqrt(nq) <= bound):
        raise SpectralSphereHit("x lies on the sphere of s within tolerance")
    return _table_stack(kind, side, S, X, _q_powers(q, nq[:, None]), mv_mul_rows)


def fine_kernel_series(kind: str, side: str, s: Multivector, x: Multivector,
                       N: int) -> Multivector:
    """Partial sum of the kernel expansion sum_m image_m(x) s^(-1-m), where
    image_m is the operator word of the kind applied to x^m.

    Each image is the memoised integer table word_image(word, m), evaluated
    at x = x0 + r omega as alpha_m + omega beta_m: with x_^b reduced as in
    canonical_eval, a term n x0^a x_^b is ((x0^a (-1)^(b // 2)) r^(b - b % 2))
    n, with a factor r before n if b is odd.  alpha_m sums the even-b terms
    and beta_m the odd-b ones in the mapping's order from +0.0, every m at
    once over the columns of fueter_ops.word_image_terms (a padded term is
    a signed zero, which leaves such a sum as it is).  The N + 1 terms are
    one row product of the values alpha_m + omega beta_m with the powers,
    summed row after row from +0.0.
    """
    _check_side(side)
    if N < 0:
        raise ValueError(f"expected a series length N >= 0, got {N}")
    check_paravector(s.c, x.c)
    if paravector_norm_sq(x) >= paravector_norm_sq(s):
        raise OutsideConvergenceDisk("series requires |x| < |s|")
    x0, r, omega = axis_decompose(x)
    a_max, e_max, even, odd = word_image_terms(_kind_word(kind), N)
    # Only the powers the terms use, so ** raises OverflowError just where
    # a term's own power overflows.
    x0_pow = np.array([x0 ** a for a in range(a_max + 1)])
    r_pow = np.array([r ** e for e in range(e_max + 1)])

    def image_sums(table, factor):
        # factor is 1.0 (exact) for alpha and r for beta.
        a, e, sign, n = table
        return np.add.reduce(((x0_pow[a] * sign) * r_pow[e]) * factor * n,
                             axis=0, initial=0.0)

    values = np.zeros((N + 1, DIM))
    values[:, 0] = image_sums(even, 1.0)
    if omega is not None:
        values = values + omega.c * image_sums(odd, r)[:, None]
    powers = np.array([p.c for p in _slice_inverse_powers(s, N)])
    if side == LEFT:
        terms = mv_mul_rows(values, powers)
    else:
        terms = mv_mul_rows(powers, values)
    return Multivector._wrap(np.add.reduce(terms, axis=0, initial=0.0))


# Each fine kernel as printed, a combination of the F5 kernel F: kind ->
# (scale, combination), the kernel being combination(t, x, x0, |x|^2) * scale,
# with t(k, P) = P F s^k on the left and s^k F P on the right (no P: F s^k).
F5_COMBINATIONS = {
    "D": (-1.0 / 16.0, lambda t, x, x0, nx: (
        t(3) - t(2, x + ONE * (2 * x0)) + t(1, x * (2 * x0) + ONE * nx)
        - t(0, x * nx))),
    "Delta": (-1.0 / 8.0, lambda t, x, x0, nx: (
        t(2) - t(1, ONE * (2 * x0)) + t(0, ONE * nx))),
    "DeltaD": (0.25, lambda t, x, x0, nx: t(1) - t(0, x)),
    "Dbar": (1.0 / 32.0, lambda t, x, x0, nx: (
        t(3) * 3.0 - t(2, x + ONE * (8 * x0))
        + t(1, x * (2 * x0) + ONE * (4 * x0 * x0 + 3 * nx))
        - t(0, x * nx + ONE * (2 * x0 * nx)))),
    "Dbar2": (0.5, lambda t, x, x0, nx: (
        t(2) - t(1, ONE * (2 * x0)) + t(0, ONE * (x0 * x0)))),
    "D2": (-1.0 / 8.0, lambda t, x, x0, nx: (
        t(2) - t(1, x * 2.0) + t(0, x * x))),
    "DeltaDbar": (1.0, lambda t, x, x0, nx: -t(1) + t(0, ONE * x0)),
}


def fine_kernel_via_f5(kind: str, side: str, s: Multivector, x: Multivector) -> Multivector:
    """Evaluate the kernel as its F5_COMBINATIONS row: F s^k (s^k F on the
    right) is built once per k, along one chain of products by s."""
    F = f5_kernel(side, s, x)
    if kind not in F5_COMBINATIONS:
        raise ValueError(f"no F5 combination for kind {kind!r}")
    scale, combination = F5_COMBINATIONS[kind]
    chain = [F]

    def t(k: int, P=None):
        while len(chain) <= k:
            chain.append(chain[-1] * s if side == LEFT else s * chain[-1])
        if P is None:
            return chain[k]
        return P * chain[k] if side == LEFT else chain[k] * P

    return combination(t, x, x[0], paravector_norm_sq(x)) * scale


def p0_residual(s: Multivector, x: Multivector) -> Multivector:
    """F5_L(s,x) s - x F5_L(s,x) - 64 Q(s,x)^(-2); identically zero."""
    F = f5_kernel(LEFT, s, x)
    return F * s - x * F - inverse_power(_guarded_q(s, x), 2) * GAMMA_5
