"""Commuting paravector operator tuples: S-spectrum, SC/F/fine resolvents,
the fine-structure functional calculi, the F-resolvent equation, and the
product rule for the F-functional calculus.

Operators act on V = R_5 (x) R^d and are stored densely as a (32, d, d)
array of blade coefficient matrices.  Resolvents reduce to complex d x d
solves in the complexification of the slice plane of s (the pseudo resolvent
has real matrix coefficients), then re-expand over the blades of J; the
nodes of one contour share one stacked solve, which every integral of a
batch on that contour reads, and the kernels and terms of the contour sum
are stacked products on blocks of nodes (_mul_stack).

Operator words are evaluated in axial form.  The image of x^m under a word
is the exact integer table word_image (n x0^a x_^b); substituting x0 -> T0
and x_ -> V = sum_i Ti e_i gives A + V B with real d x d blocks, because the
components commute and so V^2 = -(T1^2 + ... + T5^2).  The resolvent series
and exact substitution both read the images this way.
"""

from __future__ import annotations

from functools import lru_cache
from math import hypot, pi, sqrt
from typing import Callable, NamedTuple

import numpy as np

from .clifford_core import (
    CONJUGATE_SIGNS,
    DIM,
    LEFT_SIGNED,
    Multivector,
    PARAVECTOR_INDEX,
    VECTOR_MASKS,
    axis_rows,
    check_paravector,
    mv_mul_rows,
    paravector_conjugate,
    paravector_norm_sq,
)
from .contour import circle
from .errors import (
    EigensolverFailure,
    NotIntrinsic,
    OnSpectrum,
    OutsideConvergenceDisk,
    SingularSolve,
    SpectrumNotEnclosed,
)
from .fueter_ops import _kind_word, image_terms, word_image_terms
from .kernels import (KERNEL_TERMS, _qn_inverse, _slice_inverse_powers,
                      _table_stack)
from .slice_poly import (
    LEFT,
    RIGHT,
    SlicePolynomial,
    _check_side,
    eval_slice_poly_rows,
    is_intrinsic,
)


class CliffordMatrix:
    """Dense operator on R_5 (x) R^d: 32 blade-indexed d x d real matrices."""

    __slots__ = ("a",)

    def __init__(self, a: np.ndarray):
        if a.ndim != 3 or a.shape[0] != DIM or a.shape[1] != a.shape[2]:
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
        return CliffordMatrix(_expand(c.c[None], d)[0])

    def __add__(self, other: "CliffordMatrix") -> "CliffordMatrix":
        return CliffordMatrix(self.a + other.a)

    def __sub__(self, other: "CliffordMatrix") -> "CliffordMatrix":
        return CliffordMatrix(self.a - other.a)

    def scale(self, t: float) -> "CliffordMatrix":
        return CliffordMatrix(self.a * t)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            other = CliffordMatrix.from_multivector(other, self.dim)
        if not isinstance(other, CliffordMatrix):
            return NotImplemented
        return CliffordMatrix(_mul_stack(self.a[None], other.a[None])[0])

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        if isinstance(other, Multivector):
            return CliffordMatrix.from_multivector(other, self.dim) * self
        return NotImplemented

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.a)))


def _mul_stack(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The operator products A[n] * B[n] of two (n, 32, d, d) stacks.

    out[k] = sum_b SIGN_TABLE[k ^ b, b] * A[k ^ b] @ B[b] is one matmul per
    pair, left @ B.reshape(32 d, d), with the left-regular matrix of A.  A
    stacked matmul calls the same GEMM once per pair, so each product has
    the bits of a product made alone."""
    return _left_matmul(_left_regular(A), B)


def _left_regular(A: np.ndarray) -> np.ndarray:
    """The (n, 32 d, 32 d) left-regular matrices of an (n, 32, d, d) stack,
    L[(k, i), (b, j)] = [A, -A][LEFT_SIGNED[k, b], i, j], gathered a whole
    row of d floats at a time."""
    n, _, d, _ = A.shape
    signed = np.concatenate((A, -A), axis=1).reshape(n, 2 * DIM * d, d)
    return signed.take(_left_rows(d), axis=1).reshape(n, DIM * d, DIM * d)


def _left_matmul(left: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The products whose left operands have the left-regular matrices
    left, with the (n, 32, d, d) stack B: one GEMM per pair."""
    n, _, d, _ = B.shape
    return (left @ B.reshape(n, DIM * d, d)).reshape(n, DIM, d, d)


@lru_cache(maxsize=None)
def _left_rows(d: int) -> np.ndarray:
    """Row indices into [A, -A] read as (64 d, d) rows, in the order
    (k, i, b): row LEFT_SIGNED[k, b] * d + i."""
    i = np.arange(d)
    rows = (LEFT_SIGNED[:, None, :] * d + i[:, None]).ravel()
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=None)
def _eye(d: int) -> np.ndarray:
    """The d x d identity, read-only."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


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
            if not np.isfinite(m).all():
                raise ValueError("all components must be finite")
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
        a[PARAVECTOR_INDEX] = self.mats
        return CliffordMatrix(a)

    def conj_clifford(self) -> CliffordMatrix:
        return CliffordMatrix(self.as_clifford().a * CONJUGATE_SIGNS[:, None, None])

    def norm_bound(self) -> float:
        return float(sum(np.linalg.norm(m, 2) for m in self.mats))

    def spectrum(self):
        if self._spectrum is None:
            self._spectrum = s_spectrum(self)
        return self._spectrum


def s_spectrum(T: OperatorTuple) -> list:
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
        if v < 1e-9:
            v = 0.0
        for (u0, v0) in spheres:
            if hypot(u - u0, v - v0) < 1e-8 * (1.0 + abs(u0) + v0):
                break
        else:
            spheres.append((u, v))
    return sorted(spheres)


def spectral_circle(T: OperatorTuple, J: Multivector, N: int, margin: float):
    """The N-node circle about 0 in the slice of J with radius
    margin * (rho + 0.2), rho the largest |(u, v)| over T's spectral
    spheres.  It encloses the S-spectrum; T.norm_bound() can exceed rho by
    orders of magnitude, and a circle of that size loses the contour sum to
    cancellation."""
    rho = max(hypot(u, v) for u, v in T.spectrum())
    return circle(0.0, margin * (rho + 0.2), J, N)


def _stacked_solve(T: OperatorTuple, rows: np.ndarray) -> tuple:
    """One complex inverse W of the (N, d, d) stack Z = z^2 I - 2 z T0 +
    T Tbar at z = u + iv for each node row s = u + J v, and the (N, 5) rows
    of each J (zero for a real s), from one axis_rows.  Each node must be a
    paravector (NotParavector) farther than 1e-8 from every spectral
    sphere."""
    check_paravector(rows)
    spectrum = T.spectrum()
    us, vs, units = axis_rows(rows)
    zz, tz = [], []
    for u, v in zip(us, vs):
        if min(hypot(u - u0, v - v0) for (u0, v0) in spectrum) <= 1e-8:
            raise OnSpectrum("s is too close to the S-spectrum")
        z = complex(u, v)
        zz.append(z * z)
        tz.append(2.0 * z)
    Z = (np.array(zz)[:, None, None] * _eye(T.d)
         - np.array(tz)[:, None, None] * T.T0 + T.qmat())
    try:
        W = np.linalg.inv(Z)
    except np.linalg.LinAlgError as exc:
        raise SingularSolve(str(exc)) from exc
    return W, units


def _paravector_slots(Wk: np.ndarray, units: np.ndarray) -> np.ndarray:
    """(N, 6, d, d) paravector slots of the complex stack Wk read in the slice
    of each node: Re Wk, then J_i Im Wk for the (N, 5) J rows units (+0.0 for
    a real node).  Only these slots are held for all nodes at once; the
    32-blade stack would be 1 MB per power at N = 256, d = 4."""
    a = np.zeros((len(Wk), len(PARAVECTOR_INDEX)) + Wk.shape[1:])
    a[:, 0] = Wk.real
    rows = units.any(axis=1)
    a[rows, 1:] = units[rows, :, None, None] * Wk.imag[rows, None]
    return a


def _from_paravector_slots(p: np.ndarray) -> np.ndarray:
    """The (n, 32, d, d) operators whose paravector slots are p
    (n, 6, d, d), zero elsewhere."""
    a = np.zeros(p.shape[:1] + (DIM,) + p.shape[2:])
    a[:, PARAVECTOR_INDEX] = p
    return a


def q_resolvent(T: OperatorTuple, s: Multivector, k: int = 1) -> CliffordMatrix:
    """(s^2 I - 2 s T0 + T Tbar)^(-k), solved in the complexified slice of s:
    the one-node case of the stacked solve of resolvent_rows."""
    W, units = _stacked_solve(T, s.c[None])
    Wk = np.linalg.matrix_power(W, k)
    return CliffordMatrix(_from_paravector_slots(_paravector_slots(Wk, units))[0])


def _table_kind(kind: str) -> str:
    """The kind whose table row and word an operator kind reads: the SC
    resolvent is the Cauchy row."""
    return "Cauchy" if kind == "SC" else kind


def fine_resolvent(kind: str, side: str, T: OperatorTuple,
                   s: Multivector) -> CliffordMatrix:
    """Resolvent operator of the fine structure: the kernel-formula table
    with x -> T ("SC" is the Cauchy row), factor order as printed."""
    S = s.c[None]
    blocks = _resolvent_blocks(kind, side, T, S, _stacked_solve(T, S))
    return CliffordMatrix(next(blocks)[0])


def resolvent_rows(kind: str, side: str, T: OperatorTuple, contour) -> list:
    """fine_resolvent(kind, side, T, s) at every node s of the contour, bit
    for bit, from one stacked solve of all its nodes."""
    S = contour.node_rows
    return [CliffordMatrix(K) for block in
            _resolvent_blocks(kind, side, T, S, _stacked_solve(T, S))
            for K in block]


# Nodes per stacked product: a block's left-regular matrices take
# _BLOCK (32 d)^2 floats, 1 MB at d = 4, so memory does not grow with N.
_BLOCK = 8


def _resolvent_blocks(kind: str, side: str, T: OperatorTuple, S, solve):
    """The table row of kind at the (N, 32) node rows S, as one
    (n, 32, d, d) stack per block of _BLOCK nodes.  Every power Q^(-k) that
    the row needs is a stacked matrix_power of solve, the
    _stacked_solve(T, S) that the caller made (one per contour, shared by
    every row built on it), and kernels._table_stack builds the row from
    s I and T with stacked products."""
    kind = _table_kind(kind)
    W, units = solve
    powers = {k: _paravector_slots(np.linalg.matrix_power(W, k), units)
              for k in {k for _, _, k, _ in KERNEL_TERMS.get(kind, ())}}
    Tc = T.as_clifford().a[None]
    for lo in range(0, len(S), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        yield _table_stack(
            kind, side, _expand(S[block], T.d), Tc,
            lambda k: _from_paravector_slots(powers[k][block]), _mul_stack)


def _expand(rows: np.ndarray, d: int) -> np.ndarray:
    """The (n, 32, d, d) stack of from_multivector(row, d) for the rows of
    an (n, 32) array."""
    return rows[:, :, None, None] * _eye(d)


def canonical_operator_eval(image, T: OperatorTuple) -> CliffordMatrix:
    """Substitute x0 -> T0, x_ -> V = sum_i Ti e_i into a real canonical
    image {(a, b): n}, meaning sum n x0^a x_^b (such as word_image(word, m)).

    The components commute, so V^2 = -R with R = T1^2 + ... + T5^2 and the
    result is A + V B: A sums n T0^a (-R)^(b/2) over even b, B sums
    n T0^a (-R)^((b-1)/2) over odd b.  Needs commutativity only, not
    diagonalizability.  The one-image case of _axial_images."""
    return CliffordMatrix(_axial_images([image], T)[0])


def _axial_images(images, T: OperatorTuple) -> np.ndarray:
    """The (k, 32, d, d) stack of canonical_operator_eval over k images,
    each with the bits of its own term loop: _axial_terms of their
    fueter_ops.image_terms."""
    return _axial_terms(image_terms(images), T)


def _axial_terms(table, T: OperatorTuple) -> np.ndarray:
    """The (k, 32, d, d) stack of canonical_operator_eval over the k images
    of an image_terms table, each with the bits of its own term loop: A and
    B from +0.0, adding float(n) * (T0^a @ (-R)^h), h = b // 2, term after
    term.

    The powers of T0 and -R are grown once, to the table's a_max and
    e_max // 2, and every term's product is one stacked matmul (one GEMM
    per pair, as in _mul_stack).  A padded term is I * 0.0 = +0.0, and a
    sum from +0.0 is never -0.0, so it adds nothing; one axis-0 reduce per
    parity adds the rows in order."""
    d = T.d
    a_max, e_max, even, odd = table
    t0, neg_r = [_eye(d)], [_eye(d)]
    minus_r = -sum(m @ m for m in T.mats[1:])
    while len(t0) <= a_max:
        t0.append(t0[-1] @ T.T0)
    while len(neg_r) <= e_max // 2:
        neg_r.append(neg_r[-1] @ minus_r)
    t0, neg_r = np.array(t0), np.array(neg_r)
    A, B = (np.add.reduce((t0[a] @ neg_r[e // 2]) * n[..., None, None],
                          axis=0, initial=0.0)
            for a, e, _, n in (even, odd))
    out = np.zeros((even[0].shape[1], DIM, d, d))
    out[:, 0] = A
    out[:, VECTOR_MASKS] = np.asarray(T.mats[1:]) @ B[:, None]
    return out


def _image_sum(kind: str, side: str, T: OperatorTuple, coeffs) -> CliffordMatrix:
    """Sum over m of image_m(T) * coeffs[m] (left) or coeffs[m] * image_m(T)
    (right), where image_m is the image of x^m under the kind's word, all
    evaluated at T in one _axial_terms of the memoised
    fueter_ops.word_image_terms; a zero coefficient adds nothing and is
    skipped.  Each image's column is reduced on its own, so the images of
    skipped coefficients leave the others' bits as they are."""
    _check_side(side)
    word = _kind_word(_table_kind(kind))
    stack = _axial_terms(word_image_terms(word, len(coeffs) - 1), T)
    out = CliffordMatrix.zero(T.d)
    for coeff, block in zip(coeffs, stack):
        if coeff.is_zero():
            continue
        image = CliffordMatrix(block)
        out = out + (image * coeff if side == LEFT else coeff * image)
    return out


def fine_resolvent_series(kind: str, side: str, T: OperatorTuple,
                          s: Multivector, N: int) -> CliffordMatrix:
    """Partial sum of the resolvent expansion: sum over m <= N of the image
    of x^m under the kind's word, evaluated at T, times s^(-1-m)."""
    if N < 0:
        raise ValueError(f"expected a series length N >= 0, got {N}")
    check_paravector(s.c)
    if T.norm_bound() >= sqrt(paravector_norm_sq(s)):
        raise OutsideConvergenceDisk("series requires ||T|| < |s|")
    return _image_sum(kind, side, T, _slice_inverse_powers(s, N))


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
    (disconnected spectrum).  P is a slice polynomial or a NodeRows, each
    evaluated on a contour's node rows at once, or a callable s -> value,
    called per node: the one-job case of poly_calculus_integrals."""
    return poly_calculus_integrals(T, c, [(kind, side, P)])[0]


def poly_calculus_integrals(T: OperatorTuple, c, jobs) -> list:
    """[poly_calculus_integral(kind, side, P, T, c) for (kind, side, P) in
    jobs], bit for bit, from one stacked solve per contour and one kernel
    set per (table row, side) and contour, which node_sum shares among the
    jobs of that row and side.  Nothing outlives the call."""
    _check_enclosed(T, c)
    if not jobs:
        return []
    contours = _contours_of(c)
    solves = [_stacked_solve(T, ci.node_rows) for ci in contours]
    groups = {}
    for i, (kind, side, _) in enumerate(jobs):
        groups.setdefault((_table_kind(kind), side), []).append(i)
    accs = [np.zeros((DIM, T.d, T.d)) for _ in jobs]
    # Rows outermost, so only one row's powers Q^(-k) are held at a time.
    for (kind, side), members in groups.items():
        for ci, solve in zip(contours, solves):
            sums = node_sum([accs[i] for i in members],
                            _resolvent_blocks(kind, side, T, ci.node_rows,
                                              solve),
                            ci, [_integrand_rows(jobs[i][2], ci)
                                 for i in members], side)
            for i, acc in zip(members, sums):
                accs[i] = acc
    return [CliffordMatrix(acc).scale(1.0 / (2.0 * pi)) for acc in accs]


def node_sum(accs: list, kernels, c, fvals: list, side: str) -> list:
    """Each acc + Σ (K_i·dsJ_i)·f_i (Left) or (f_i·dsJ_i)·K_i (Right) over
    the nodes of contour c, with the f_i of its own fvals entry, added node
    after node, as (32, d, d) arrays.

    kernels yields the (n, 32, d, d) operator kernels of each block of
    _BLOCK nodes, shared by every sum, and each fvals entry holds (N, 32)
    multivector rows f_i.  The terms of a block are stacked products.  On
    the left, K·dsJ and its left-regular matrix are formed once per block
    and every job reads that matrix; on the right each job's f_i·dsJ_i is
    the left operand.  The multivector product f_i·dsJ_i is mv_mul_rows,
    which equals mv_mul row by row."""
    accs = list(accs)
    d = accs[0].shape[-1]
    w = c.dsj_rows
    if side != LEFT:
        fvals = [mv_mul_rows(f, w) for f in fvals]
    for lo, K in zip(range(0, len(w), _BLOCK), kernels):
        block = slice(lo, lo + len(K))
        if side == LEFT:
            left = _left_regular(_mul_stack(K, _expand(w[block], d)))
        for j, f in enumerate(fvals):
            F = _expand(f[block], d)
            terms = _left_matmul(left, F) if side == LEFT else _mul_stack(F, K)
            # Reducing over axis 0 adds whole operators one after another.
            accs[j] = np.add.reduce(np.concatenate((accs[j][None], terms)),
                                    axis=0)
        # Freed before the next block is built: holding two blocks' left
        # matrices costs page faults, not just memory.
        left = None
    return accs


class NodeRows(NamedTuple):
    """An integrand given on all node rows of a contour at once: f maps the
    (N, 32) node rows to the (N, 32) value rows, as the f of
    contour.slice_integral does (always as rows here)."""
    f: Callable


def _integrand_rows(P, c) -> np.ndarray:
    """The (N, 32) rows of P at the nodes of contour c: a slice polynomial
    on all node rows at once, NodeRows(f) in one call of f, whose rows must
    be finite floats of the nodes' shape, a callable s -> value per node."""
    if isinstance(P, NodeRows):
        rows = np.asarray(P.f(c.node_rows))
        if (rows.shape != c.node_rows.shape or rows.dtype.kind != "f"
                or not np.isfinite(rows).all()):
            raise ValueError(f"NodeRows: expected finite float rows of shape "
                             f"{c.node_rows.shape}, got {rows.dtype} rows of "
                             f"shape {rows.shape}")
        return rows
    if callable(P):
        return np.array([P(s).c for s in c.nodes])
    return eval_slice_poly_rows(P, c.node_rows)


def poly_calculus_exact(kind: str, side: str, P: SlicePolynomial,
                        T: OperatorTuple) -> CliffordMatrix:
    """Exact substitution oracle: the operator word of the kind applied to
    each monomial, evaluated at x -> T, with the polynomial's coefficients."""
    return _image_sum(kind, side, T, P.coeffs)


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
    qs_p_inv = _qn_inverse(s, p)
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
    rhs = (diff * p - sbar * diff) * qs_p_inv
    return lhs - rhs


def product_rule_residual(f: SlicePolynomial, g: SlicePolynomial,
                          T: OperatorTuple, c) -> CliffordMatrix:
    """Residual of the product rule
    Δ²(fg)(T) = Δ²f(T)g(T) + f(T)Δ²g(T) + Δf(T)Δg(T)
                − DΔf(T)Dg(T) − Df(T)ΔDg(T),
    every term computed through the contour calculi."""
    if not is_intrinsic(f):
        raise NotIntrinsic("f must have real coefficients")
    fr = [coeff[0] for coeff in f.coeffs]
    prod = [Multivector() for _ in range(len(fr) + len(g.coeffs) - 1)]
    for i, a in enumerate(fr):
        for j, b in enumerate(g.coeffs):
            prod[i + j] = prod[i + j] + b * a
    fg = SlicePolynomial(prod, LEFT)
    f_right = SlicePolynomial(f.coeffs, RIGHT)
    # The (kind of f, kind of g) of each right-hand term, in the order above.
    pairs = (("F5", "SC"), ("SC", "F5"), ("Delta", "Delta"),
             ("DeltaD", "D"), ("D", "DeltaD"))
    jobs = [("F5", LEFT, fg)]
    for kf, kg in pairs:
        jobs += [(kf, RIGHT, f_right), (kg, LEFT, g)]
    lhs, *ops = poly_calculus_integrals(T, c, jobs)
    p = [ops[i] * ops[i + 1] for i in range(0, len(ops), 2)]
    return lhs - (p[0] + p[1] + p[2] - p[3] - p[4])
