"""Closed-form, series, and F5-combination evaluation of the Cauchy kernel,
the F5 kernel, and the seven fine-structure kernels.

All kernels are rational in the commuting pseudo Cauchy kernel
Q(s, x) = s^2 - 2 x0 s + |x|^2 (a paravector commuting with s, x0 and every
scalar, but not with x or its conjugate), so factor order is semantic and is
preserved exactly.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from .clifford_core import (
    CONJUGATE_SIGNS,
    Multivector,
    ONE,
    ZERO,
    axis_decompose,
    mv_mul_rows,
    paravector_conjugate,
    paravector_inverse,
    paravector_norm_sq,
    paravector_norm_sq_rows,
)
from .errors import OutsideConvergenceDisk, SpectralSphereHit
from .fueter_ops import KIND_WORDS, word_image
from .slice_poly import LEFT

GAMMA_5 = 64.0


def pseudo_kernel(variant: str, s: Multivector, x: Multivector) -> Multivector:
    """Uninverted pseudo Cauchy kernel.

    commutative    -> s^2 - 2 x0 s + |x|^2
    noncommutative -> x^2 - 2 s0 x + |s|^2
    """
    if variant == "commutative":
        return s * s - s * (2.0 * x[0]) + Multivector.scalar(paravector_norm_sq(x))
    if variant == "noncommutative":
        return x * x - x * (2.0 * s[0]) + Multivector.scalar(paravector_norm_sq(s))
    raise ValueError(f"unknown variant {variant!r}")


def inverse_power(q: Multivector, k: int) -> Multivector:
    if k < 0:
        raise ValueError(f"expected a power k >= 0, got {k}")
    inv = paravector_inverse(q)
    if k == 0:
        return ONE
    # Conjugation leaves -0.0 in zero vector slots; adding 0.0 turns them
    # into +0.0, as a product ONE * inv would, so the signs of zeros that
    # callers see are those of a product.
    out = Multivector._wrap(inv.c + 0.0)
    for _ in range(k - 1):
        out = out * inv
    return out


def _q_inverse_power(s: Multivector, x: Multivector, k: int) -> Multivector:
    """Q(s, x)^(-k) with the sphere guard |Q| > 1e-10 (1 + |s|^2 + |x|^2)."""
    q = pseudo_kernel("commutative", s, x)
    bound = 1e-10 * (1.0 + paravector_norm_sq(s) + paravector_norm_sq(x))
    if sqrt(paravector_norm_sq(q)) <= bound:
        raise SpectralSphereHit("x lies on the sphere of s within tolerance")
    return inverse_power(q, k)


def cauchy_kernel(side: str, form: str, s: Multivector, x: Multivector) -> Multivector:
    if form == "I":
        qn = pseudo_kernel("noncommutative", s, x)
        bound = 1e-10 * (1.0 + paravector_norm_sq(s) + paravector_norm_sq(x))
        if sqrt(paravector_norm_sq(qn)) <= bound:
            raise SpectralSphereHit("x lies on the sphere of s within tolerance")
        qn_inv = paravector_inverse(qn)
        sbar_minus_x = paravector_conjugate(s) - x
        if side == LEFT:
            return qn_inv * sbar_minus_x
        return sbar_minus_x * qn_inv
    if form == "II":
        q_inv = _q_inverse_power(s, x, 1)
        s_minus_xbar = s - paravector_conjugate(x)
        if side == LEFT:
            return s_minus_xbar * q_inv
        return q_inv * s_minus_xbar
    raise ValueError(f"form must be 'I' or 'II', got {form!r}")


def cauchy_kernel_batch(side: str, s: Multivector, X: np.ndarray) -> np.ndarray:
    """cauchy_kernel(side, "II", s, x) for each row x of X (n, 32), bit for
    bit: the float operations of pseudo_kernel, _q_inverse_power and
    inverse_power, row by row.  Raises SpectralSphereHit if any row lies on
    the sphere of s."""
    nx = paravector_norm_sq_rows(X)
    shift = np.zeros_like(X)
    shift[:, 0] = nx
    q = ((s * s).c - s.c * (2.0 * X[:, 0])[:, None]) + shift
    nq = paravector_norm_sq_rows(q)
    bound = 1e-10 * (1.0 + paravector_norm_sq(s) + nx)
    if np.any(np.sqrt(nq) <= bound):
        raise SpectralSphereHit("x lies on the sphere of s within tolerance")
    q_inv = q * (CONJUGATE_SIGNS * (1.0 / nq)[:, None]) + 0.0
    s_minus_xbar = s.c - X * CONJUGATE_SIGNS
    if side == LEFT:
        return mv_mul_rows(s_minus_xbar, q_inv)
    return mv_mul_rows(q_inv, s_minus_xbar)


def f5_kernel(side: str, s: Multivector, x: Multivector) -> Multivector:
    q3 = _q_inverse_power(s, x, 3)
    s_minus_xbar = s - paravector_conjugate(x)
    if side == LEFT:
        return s_minus_xbar * q3 * GAMMA_5
    return q3 * s_minus_xbar * GAMMA_5


def fine_kernel(kind: str, side: str, s: Multivector, x: Multivector) -> Multivector:
    """Closed form of the kernel associated with the operator word of kind."""
    if kind == "Cauchy":
        return cauchy_kernel(side, "II", s, x)
    if kind == "F5":
        return f5_kernel(side, s, x)
    s_minus_xbar = s - paravector_conjugate(x)
    s_minus_x0 = s - Multivector.scalar(x[0])
    if kind == "D":
        return _q_inverse_power(s, x, 1) * (-4.0)
    if kind == "Delta":
        q2 = _q_inverse_power(s, x, 2)
        if side == LEFT:
            return s_minus_xbar * q2 * (-8.0)
        return q2 * s_minus_xbar * (-8.0)
    if kind == "DeltaD":
        return _q_inverse_power(s, x, 2) * 16.0
    if kind == "Dbar":
        q1 = _q_inverse_power(s, x, 1)
        q2 = _q_inverse_power(s, x, 2)
        if side == LEFT:
            return s_minus_xbar * q2 * s_minus_x0 * 4.0 + q1 * 2.0
        return s_minus_x0 * q2 * s_minus_xbar * 4.0 + q1 * 2.0
    if kind == "Dbar2":
        q3 = _q_inverse_power(s, x, 3)
        sq = s_minus_x0 * s_minus_x0
        if side == LEFT:
            return s_minus_xbar * q3 * sq * 32.0
        return sq * q3 * s_minus_xbar * 32.0
    if kind == "D2":
        q2 = _q_inverse_power(s, x, 2)
        if side == LEFT:
            return (x - s) * q2 * 8.0
        return q2 * (x - s) * 8.0
    if kind == "DeltaDbar":
        q3 = _q_inverse_power(s, x, 3)
        if side == LEFT:
            return s_minus_xbar * q3 * s_minus_x0 * (-64.0)
        return s_minus_x0 * q3 * s_minus_xbar * (-64.0)
    raise ValueError(f"unknown kind {kind!r}")


def fine_kernel_series(kind: str, side: str, s: Multivector, x: Multivector,
                       N: int) -> Multivector:
    """Partial sum of the kernel expansion sum_m image_m(x) s^(-1-m), where
    image_m is the operator word of the kind applied to x^m.

    Each image is the memoised integer table word_image(word, m), evaluated
    at x = x0 + r omega as alpha_m + omega beta_m: x_^b is reduced as in
    canonical_eval, the even-b terms summed into alpha_m and the odd-b terms
    into beta_m.
    """
    if paravector_norm_sq(x) >= paravector_norm_sq(s):
        raise OutsideConvergenceDisk("series requires |x| < |s|")
    word = KIND_WORDS[kind]
    x0, r, omega = axis_decompose(x)
    s_inv = paravector_inverse(s)
    acc = ZERO
    s_pow = s_inv  # s^(-1-m), starting at m = 0
    for m in range(N + 1):
        alpha = beta = 0.0
        for (a, b), n in word_image(word, m).items():
            scalar = (x0 ** a) * ((-1.0) ** (b // 2)) * (r ** (b - (b % 2)))
            if b % 2 == 0:
                alpha += scalar * n
            else:
                beta += scalar * r * n
        value = Multivector.scalar(alpha)
        if omega is not None:
            value = value + omega * beta
        if side == LEFT:
            acc = acc + value * s_pow
        else:
            acc = acc + s_pow * value
        s_pow = s_pow * s_inv
    return acc


def fine_kernel_via_f5(kind: str, side: str, s: Multivector, x: Multivector) -> Multivector:
    """Evaluate the kernel as a polynomial combination of the F5 kernel."""
    F = f5_kernel(side, s, x)
    x0 = x[0]
    xn2 = paravector_norm_sq(x)
    xbar = paravector_conjugate(x)

    def term(left_factor, s_power: int):
        acc = F
        for _ in range(s_power):
            acc = (acc * s) if side == LEFT else (s * acc)
        if left_factor is None:
            return acc
        return (left_factor * acc) if side == LEFT else (acc * left_factor)

    if kind == "D":
        combo = (term(None, 3) - term(x + ONE * (2 * x0), 2)
                 + term(x * (2 * x0) + ONE * xn2, 1) - term(x * xn2, 0))
        return combo * (-1.0 / 16.0)
    if kind == "Delta":
        combo = term(None, 2) - term(ONE * (2 * x0), 1) + term(ONE * xn2, 0)
        return combo * (-1.0 / 8.0)
    if kind == "DeltaD":
        combo = term(None, 1) - term(x, 0)
        return combo * 0.25
    if kind == "Dbar":
        combo = (term(None, 3) * 3.0 - term(x + ONE * (8 * x0), 2)
                 + term(x * (2 * x0) + ONE * (4 * x0 * x0 + 3 * xn2), 1)
                 - term(x * xn2 + ONE * (2 * x0 * xn2), 0))
        return combo * (1.0 / 32.0)
    if kind == "D2":
        combo = term(None, 2) - term(x * 2.0, 1) + term(x * x, 0)
        return combo * (-1.0 / 8.0)
    if kind == "Dbar2":
        combo = (term(None, 2) - term(ONE * (2 * x0), 1)
                 + term(ONE * (x0 * x0), 0))
        return combo * 0.5
    if kind == "DeltaDbar":
        return -term(None, 1) + term(ONE * x0, 0)
    raise ValueError(f"no F5 combination for kind {kind!r}")


def p0_residual(s: Multivector, x: Multivector) -> Multivector:
    """F5_L(s,x) s - x F5_L(s,x) - 64 Q(s,x)^(-2); identically zero."""
    F = f5_kernel(LEFT, s, x)
    return F * s - x * F - _q_inverse_power(s, x, 2) * GAMMA_5
