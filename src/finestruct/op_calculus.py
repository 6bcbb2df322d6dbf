"""Commuting paravector operator tuples: S-spectrum, SC/F/fine resolvents,
the fine-structure functional calculi, the F-resolvent equation, and the
product rule for the F-functional calculus.

Operators act on V = R_5 (x) R^d and are stored densely as a (32, d, d)
array of blade coefficient matrices.  Resolvents reduce to complex d x d
solves in the complexification of the slice plane of s (the pseudo resolvent
has real matrix coefficients), then re-expand over the blades of J.
"""

from __future__ import annotations

from functools import lru_cache
from math import hypot, pi, sqrt

import numpy as np

from .clifford_core import (
    DIM,
    LEFT_SIGNED,
    Multivector,
    PARAVECTOR_MASKS,
    axis_decompose,
    paravector_norm_sq,
)
from .errors import (
    EigensolverFailure,
    NotIntrinsic,
    OnSpectrum,
    OutsideConvergenceDisk,
    SingularSolve,
    SpectralSphereHit,
    SpectrumNotEnclosed,
)
from .fueter_ops import KIND_WORDS, apply_word, monomial_image
from .kernels import S_MINUS_X0, S_MINUS_XBAR, kernel_from_table
from .slice_poly import (
    LEFT,
    RIGHT,
    CanonicalPoly,
    SlicePolynomial,
    is_intrinsic,
    to_canonical,
)


class CliffordMatrix:
    """Dense operator on R_5 (x) R^d: 32 blade-indexed d x d real matrices."""

    __slots__ = ("a",)

    def __init__(self, a: np.ndarray):
        if a.shape[0] != DIM or a.shape[1] != a.shape[2]:
            raise ValueError("expected shape (32, d, d)")
        self.a = a

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    @staticmethod
    def zero(d: int) -> "CliffordMatrix":
        return CliffordMatrix(np.zeros((DIM, d, d)))

    @staticmethod
    def identity(d: int) -> "CliffordMatrix":
        a = np.zeros((DIM, d, d))
        a[0] = np.eye(d)
        return CliffordMatrix(a)

    @staticmethod
    def from_blade(mask: int, m: np.ndarray) -> "CliffordMatrix":
        a = np.zeros((DIM,) + m.shape)
        a[mask] = m
        return CliffordMatrix(a)

    @staticmethod
    def from_multivector(c: Multivector, d: int) -> "CliffordMatrix":
        a = c.c[:, None, None] * np.eye(d)[None, :, :]
        return CliffordMatrix(a)

    def __add__(self, other: "CliffordMatrix") -> "CliffordMatrix":
        return CliffordMatrix(self.a + other.a)

    def __sub__(self, other: "CliffordMatrix") -> "CliffordMatrix":
        return CliffordMatrix(self.a - other.a)

    def __neg__(self) -> "CliffordMatrix":
        return CliffordMatrix(-self.a)

    def scale(self, t: float) -> "CliffordMatrix":
        return CliffordMatrix(self.a * t)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        if isinstance(other, Multivector):
            other = CliffordMatrix.from_multivector(other, self.dim)
        if not isinstance(other, CliffordMatrix):
            return NotImplemented
        # out[k] = sum_b SIGN_TABLE[k ^ b, b] * A[k ^ b] @ B[b], as one matmul.
        d = self.dim
        left = np.concatenate((self.a, -self.a)).take(_left_gather(d))
        return CliffordMatrix((left @ other.a.reshape(DIM * d, d)).reshape(DIM, d, d))

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        if isinstance(other, Multivector):
            return CliffordMatrix.from_multivector(other, self.dim) * self
        return NotImplemented

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.a)))


@lru_cache(maxsize=None)
def _left_gather(d: int) -> np.ndarray:
    """Flat indices into [A, -A] of shape (64, d, d) with
    L[(k, i), (b, j)] = [A, -A][LEFT_SIGNED[k, b], i, j]."""
    i = np.arange(d)
    idx = (LEFT_SIGNED[:, None, :, None] * d + i[:, None, None]) * d + i
    idx.flags.writeable = False
    return idx.reshape(DIM * d, DIM * d)


class OperatorTuple:
    """Pairwise-commuting tuple (T0, ..., T5) of real d x d matrices,
    representing the paravector operator T = T0 + sum_i Ti e_i."""

    def __init__(self, mats):
        mats = [np.asarray(m, dtype=np.float64) for m in mats]
        if len(mats) != 6:
            raise ValueError("expected six matrices T0..T5")
        d = mats[0].shape[0]
        for m in mats:
            if m.shape != (d, d):
                raise ValueError("all components must be square of equal size")
        for i in range(6):
            for j in range(i + 1, 6):
                comm = mats[i] @ mats[j] - mats[j] @ mats[i]
                bound = 1e-10 * max(np.linalg.norm(mats[i]), 1.0) * max(
                    np.linalg.norm(mats[j]), 1.0)
                if np.linalg.norm(comm) > bound:
                    raise ValueError(f"components {i} and {j} do not commute")
        self.mats = mats
        self.d = d
        self._spectrum = None
        self._qmat = sum(m @ m for m in mats)
        self._qmat.flags.writeable = False

    @property
    def T0(self) -> np.ndarray:
        return self.mats[0]

    def qmat(self) -> np.ndarray:
        """T Tbar = sum of squares of all six components (cached, read-only)."""
        return self._qmat

    def as_clifford(self) -> CliffordMatrix:
        a = np.zeros((DIM, self.d, self.d))
        for i, mask in enumerate(PARAVECTOR_MASKS):
            a[mask] = self.mats[i]
        return CliffordMatrix(a)

    def conj_clifford(self) -> CliffordMatrix:
        a = np.zeros((DIM, self.d, self.d))
        a[0] = self.mats[0]
        for i, mask in enumerate(PARAVECTOR_MASKS[1:]):
            a[mask] = -self.mats[i + 1]
        return CliffordMatrix(a)

    def vector_clifford(self) -> CliffordMatrix:
        """The 1-vector part sum_i Ti e_i."""
        a = np.zeros((DIM, self.d, self.d))
        for i, mask in enumerate(PARAVECTOR_MASKS[1:]):
            a[mask] = self.mats[i + 1]
        return CliffordMatrix(a)

    def norm_bound(self) -> float:
        return float(sum(np.linalg.norm(m, 2) for m in self.mats))

    def spectrum(self):
        if self._spectrum is None:
            self._spectrum = s_spectrum(self)
        return self._spectrum


def s_spectrum(T: OperatorTuple, atol: float = 1e-9) -> list:
    """Spectral spheres (u, v) with v >= 0: roots of
    det(z^2 I - 2 z T0 + T Tbar) via companion linearization."""
    d = T.d
    M = np.zeros((2 * d, 2 * d))
    M[:d, d:] = np.eye(d)
    M[d:, :d] = -T.qmat()
    M[d:, d:] = 2.0 * T.T0
    try:
        roots = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    spheres = []
    for z in roots:
        u, v = float(np.real(z)), abs(float(np.imag(z)))
        if v < atol:
            v = 0.0
        for (u0, v0) in spheres:
            if hypot(u - u0, v - v0) < 10 * atol * (1.0 + abs(u0) + v0):
                break
        else:
            spheres.append((u, v))
    return sorted(spheres)


def _spectral_distance(T: OperatorTuple, s: Multivector) -> float:
    u, v, _ = axis_decompose(s)
    return min(hypot(u - u0, v - v0) for (u0, v0) in T.spectrum())


def q_resolvent(T: OperatorTuple, s: Multivector, k: int = 1) -> CliffordMatrix:
    """(s^2 I - 2 s T0 + T Tbar)^(-k), solved in the complexified slice of s."""
    if _spectral_distance(T, s) <= 1e-8:
        raise OnSpectrum("s is too close to the S-spectrum")
    u, v, J = axis_decompose(s)
    z = complex(u, v)
    Z = (z * z) * np.eye(T.d) - (2.0 * z) * T.T0 + T.qmat()
    try:
        W = np.linalg.inv(Z)
    except np.linalg.LinAlgError as exc:
        raise SingularSolve(str(exc)) from exc
    W = np.linalg.matrix_power(W, k)
    a = np.zeros((DIM, T.d, T.d))
    a[0] = np.real(W)
    if J is not None:
        im = np.imag(W)
        for i, mask in enumerate(PARAVECTOR_MASKS[1:]):
            a[mask] = J[mask] * im
    return CliffordMatrix(a)


def fine_resolvent(kind: str, side: str, T: OperatorTuple,
                   s: Multivector) -> CliffordMatrix:
    """Resolvent operator of the fine structure: the kernel-formula table
    with x -> T ("SC" is the Cauchy row), factor order as printed."""
    sI = CliffordMatrix.from_multivector(s, T.d)

    def factor(name):
        if name == S_MINUS_XBAR:
            return sI - T.conj_clifford()
        if name == S_MINUS_X0:
            return sI - CliffordMatrix.from_blade(0, T.T0)
        return T.as_clifford() - sI

    return kernel_from_table("Cauchy" if kind == "SC" else kind, side, factor,
                             lambda k: q_resolvent(T, s, k))


def _slice_inverse_powers(s: Multivector, N: int) -> list:
    """[s^-1, s^-2, ..., s^-(N+1)] as multivectors."""
    from .clifford_core import paravector_inverse

    inv = paravector_inverse(s)
    out = [inv]
    for _ in range(N):
        out.append(out[-1] * inv)
    return out


def canonical_operator_eval(C: CanonicalPoly, T: OperatorTuple) -> CliffordMatrix:
    """Substitute x0 -> T0, x_ -> sum_i Ti e_i into a canonical polynomial.

    Legitimate because the components commute; blade constants multiply on
    the coefficient side of the polynomial."""
    d = T.d
    out = CliffordMatrix.zero(d)
    tvec = T.vector_clifford()
    t0_pows = {0: np.eye(d)}
    tvec_pows = {0: CliffordMatrix.identity(d)}
    for (a, b), c in sorted(C.terms.items()):
        while max(t0_pows) < a:
            k = max(t0_pows)
            t0_pows[k + 1] = t0_pows[k] @ T.T0
        while max(tvec_pows) < b:
            k = max(tvec_pows)
            tvec_pows[k + 1] = tvec_pows[k] * tvec
        term = tvec_pows[b] * CliffordMatrix.from_blade(0, t0_pows[a])
        cmat = CliffordMatrix.from_multivector(c, d)
        out = out + (term * cmat if C.side == LEFT else cmat * term)
    return out


def fine_resolvent_series(kind: str, side: str, T: OperatorTuple,
                          s: Multivector, N: int) -> CliffordMatrix:
    """Partial sum of the resolvent expansion: the monomial images with
    T^a Tbar^b matrix powers, times slice powers s^(-1-m)."""
    if T.norm_bound() >= sqrt(paravector_norm_sq(s)):
        raise OutsideConvergenceDisk("series requires ||T|| < |s|")
    d = T.d
    spows = _slice_inverse_powers(s, N)
    tp = T.as_clifford()
    tbar = T.conj_clifford()
    t_pows = {0: CliffordMatrix.identity(d)}
    tbar_pows = {0: CliffordMatrix.identity(d)}

    def tpow(cache, base, k):
        while max(cache) < k:
            j = max(cache)
            cache[j + 1] = cache[j] * base
        return cache[k]

    out = CliffordMatrix.zero(d)
    for m in range(N + 1):
        if kind in ("Cauchy", "SC"):
            image = tpow(t_pows, tp, m)
        elif kind == "F5":
            C = apply_word(("Delta", "Delta"),
                           SlicePolynomial.monomial(m, 1.0, side))
            image = canonical_operator_eval(C, T)
        else:
            xb = monomial_image(kind, m, side)
            image = CliffordMatrix.zero(d)
            for a, b, c in xb.terms:
                image = image + (tpow(t_pows, tp, a)
                                 * tpow(tbar_pows, tbar, b)).scale(float(c[0]))
        sp = spows[m]
        out = out + (image * sp if side == LEFT else sp * image)
    return out


def _contours_of(c):
    return list(c) if isinstance(c, (list, tuple)) else [c]


def _check_enclosed(T: OperatorTuple, c) -> None:
    for (u, v) in T.spectrum():
        if not any(hypot(u - ci.center, v) < ci.radius for ci in _contours_of(c)):
            raise SpectrumNotEnclosed(
                f"spectral sphere ({u}, {v}) is not inside any contour")


def poly_calculus_integral(kind: str, side: str, P, T: OperatorTuple,
                           c) -> CliffordMatrix:
    """(1/2π)∫ S⁻¹_kind(s,T) ds_J f(s) over one contour or several
    (disconnected spectrum).  P is a slice polynomial or a callable s -> value."""
    _check_enclosed(T, c)
    if callable(P):
        f = P
    else:
        from .slice_poly import eval_slice_poly

        def f(s, _P=P):
            return eval_slice_poly(_P, s)
    d = T.d
    acc = CliffordMatrix.zero(d)
    for ci in _contours_of(c):
        for s, w in zip(ci.nodes, ci.dsj):
            K = fine_resolvent(kind, side, T, s)
            if side == LEFT:
                acc = acc + K * w * f(s)
            else:
                acc = acc + CliffordMatrix.from_multivector(f(s) * w, d) * K
    return acc.scale(1.0 / (2.0 * pi))


def poly_calculus_exact(kind: str, side: str, P: SlicePolynomial,
                        T: OperatorTuple) -> CliffordMatrix:
    """Exact substitution oracle: the operator word of the kind applied to
    each monomial, evaluated at x -> T, with the polynomial's coefficients."""
    d = T.d
    out = CliffordMatrix.zero(d)
    word = KIND_WORDS["Cauchy" if kind == "SC" else kind]
    for m, coeff in enumerate(P.coeffs):
        if coeff.is_zero():
            continue
        C = apply_word(word, SlicePolynomial.monomial(m, 1.0, P.side))
        image = canonical_operator_eval(C, T)
        cmat = CliffordMatrix.from_multivector(coeff, d)
        out = out + (image * cmat if side == LEFT else cmat * image)
    return out


def f5_moment(T: OperatorTuple, c, j: int) -> CliffordMatrix:
    """(1/2π)∫ F₅ᴸ(s,T) ds_J s^j; vanishes for j <= 3."""
    return poly_calculus_integral("F5", LEFT, SlicePolynomial.monomial(j), T, c)


def p0_operator_residual(T: OperatorTuple, s: Multivector) -> CliffordMatrix:
    """F₅ᴸ(s,T)s − T F₅ᴸ(s,T) − 64 Q(s,T)⁻²; identically zero."""
    F = fine_resolvent("F5", LEFT, T, s)
    return (F * s - T.as_clifford() * F
            - q_resolvent(T, s, 2).scale(64.0))


def f_resolvent_equation_residual(T: OperatorTuple, s: Multivector,
                                  p: Multivector) -> CliffordMatrix:
    """LHS − RHS of the F-resolvent equation (n = 5); identically zero."""
    qs_p = (p * p - p * (2.0 * s[0])
            + Multivector.scalar(paravector_norm_sq(s)))
    bound = 1e-10 * (1.0 + paravector_norm_sq(s) + paravector_norm_sq(p))
    if sqrt(paravector_norm_sq(qs_p)) <= bound:
        raise SpectralSphereHit("p lies on the sphere of s within tolerance")
    from .clifford_core import paravector_conjugate, paravector_inverse

    F5R_s = fine_resolvent("F5", RIGHT, T, s)
    F5L_p = fine_resolvent("F5", LEFT, T, p)
    SL_p = fine_resolvent("SC", LEFT, T, p)
    SR_s = fine_resolvent("SC", RIGHT, T, s)
    Qs1 = q_resolvent(T, s, 1)
    Qs2 = q_resolvent(T, s, 2)
    Qp1 = q_resolvent(T, p, 1)
    Qp2 = q_resolvent(T, p, 2)
    lhs = (F5R_s * SL_p + SR_s * F5L_p
           + (Qs1 * SR_s * SL_p * Qp1).scale(64.0)
           + (Qs2 * Qp1 + Qs1 * Qp2).scale(64.0))
    diff = F5R_s - F5L_p
    sbar = paravector_conjugate(s)
    rhs = (diff * p - sbar * diff) * paravector_inverse(qs_p)
    return lhs - rhs


def product_rule_residual(f: SlicePolynomial, g: SlicePolynomial,
                          T: OperatorTuple, c) -> CliffordMatrix:
    """Residual of the product rule
    Δ²(fg)(T) = Δ²f(T)g(T) + f(T)Δ²g(T) + Δf(T)Δg(T)
                − DΔf(T)Dg(T) − Df(T)ΔDg(T),
    every term computed through the contour calculi."""
    if not is_intrinsic(f, atol=0.0):
        raise NotIntrinsic("f must have real coefficients")
    fr = [coeff[0] for coeff in f.coeffs]
    prod = [Multivector() for _ in range(len(fr) + len(g.coeffs) - 1)]
    for i, a in enumerate(fr):
        for j, b in enumerate(g.coeffs):
            prod[i + j] = prod[i + j] + b * a
    fg = SlicePolynomial(prod, LEFT)

    def right(kind, P):
        return poly_calculus_integral(kind, RIGHT,
                                      SlicePolynomial(P.coeffs, RIGHT), T, c)

    def left(kind, P):
        return poly_calculus_integral(kind, LEFT, P, T, c)

    lhs = left("F5", fg)
    rhs = (right("F5", f) * left("SC", g)
           + right("SC", f) * left("F5", g)
           + right("Delta", f) * left("Delta", g)
           - right("DeltaD", f) * left("D", g)
           - right("D", f) * left("DeltaD", g))
    return lhs - rhs
