"""Quadrature over circles in a slice plane, realizing the Cauchy formula and
the fine-structure integral representations.

A circle of radius R centered at c on the real axis inside the plane C_J is
parametrized s(θ) = c + R(cos θ + J sin θ).  With ds = J R e^{Jθ} dθ the
slice measure is ds_J = ds·(−J) = R e^{Jθ} dθ; the uniform trapezoid rule is
spectrally accurate for the analytic periodic integrands used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import cos, isfinite, pi, sin, sqrt

import numpy as np

from .clifford_core import (DIM, Multivector, check_imaginary_unit,
                            check_paravector, mv_mul_rows, paravector_norm_sq)
from .errors import DegenerateRadius, PointOutsideDomain
from .fueter_ops import _kind_word, apply_word
from .kernels import _as_rows, fine_kernel_rows
from .slice_poly import (LEFT, SlicePolynomial, _check_side, canonical_eval,
                         eval_slice_poly_rows)


@dataclass(frozen=True, eq=False)
class Contour:
    J: Multivector
    center: float
    radius: float
    node_rows: np.ndarray   # read-only (N, 32): s_i on the circle
    dsj_rows: np.ndarray    # read-only (N, 32): ds_J value times weight

    @cached_property
    def nodes(self) -> tuple:
        """The nodes as Multivector views of node_rows."""
        return tuple(map(Multivector._wrap, self.node_rows))

    @cached_property
    def dsj(self) -> tuple:
        """The weighted ds_J values as Multivector views of dsj_rows."""
        return tuple(map(Multivector._wrap, self.dsj_rows))


def circle(center: float, radius: float, J: Multivector, N: int = 256) -> Contour:
    """The N-node trapezoid contour s(θ) = center + radius·e^{Jθ}.

    The rows are built with the float operations of the ring expressions
    center + radius·c + J·(radius·s) and (1·c + J·s)·(radius·weight), at
    c = cos θ and s = sin θ."""
    if not (isfinite(center) and isfinite(radius) and radius > 0.0):
        raise DegenerateRadius("center and radius must be finite, and the "
                               "radius positive")
    if N < 16:
        raise ValueError("at least 16 nodes required")
    check_imaginary_unit(J)
    weight = 2.0 * pi / N
    cs = [cos(weight * i) for i in range(N)]
    sn = [sin(weight * i) for i in range(N)]
    node_rows = (_blade0_rows([center + radius * c for c in cs])
                 + J.c * np.array([radius * s for s in sn])[:, None])
    dsj_rows = ((_blade0_rows(cs) + J.c * np.array(sn)[:, None])
                * (radius * weight))
    for rows in (node_rows, dsj_rows):
        rows.setflags(write=False)
    return Contour(J, float(center), float(radius), node_rows, dsj_rows)


def _blade0_rows(values) -> np.ndarray:
    """(n, 32) rows holding the values in blade 0, as Multivector.scalar."""
    rows = np.zeros((len(values), DIM))
    rows[:, 0] = values
    return rows


def slice_integral(K, c: Contour, f, side: str = LEFT) -> Multivector:
    """(1/2π) Σ K(s_i)·dsJ_i·f(s_i) (Left) or f(s_i)·dsJ_i·K(s_i) (Right).

    K and f take the (N, 32) node rows and return (N, 32) rows, or one
    Multivector: a row that the row product broadcasts over the nodes.  The
    terms are formed on all rows at once and added node after node from 0."""
    _check_side(side)
    S, w = c.node_rows, c.dsj_rows
    kv, fv = _as_rows(K(S)), _as_rows(f(S))
    terms = (mv_mul_rows(mv_mul_rows(kv, w), fv) if side == LEFT
             else mv_mul_rows(mv_mul_rows(fv, w), kv))
    # Reducing over axis 0 adds whole rows one after another, in node order.
    total = np.add.reduce(terms, axis=0, initial=0.0)
    return Multivector._wrap(total) * (1.0 / (2.0 * pi))


def _check_inside(x: Multivector, c: Contour) -> None:
    if sqrt(paravector_norm_sq(x - Multivector.scalar(c.center))) >= c.radius:
        raise PointOutsideDomain("x is not strictly inside the contour")


def cauchy_eval(P: SlicePolynomial, x: Multivector, c: Contour) -> Multivector:
    """Cauchy reproduction of a slice polynomial at an interior point."""
    return fine_integral_eval("Cauchy", P, x, c)


def fine_integral_eval(kind: str, P: SlicePolynomial, x: Multivector,
                       c: Contour) -> Multivector:
    """(1/2π)∫ S⁻¹_kind(s, x) ds_J P(s); equals the operator word of the
    kind applied to P, evaluated at x."""
    check_paravector(x.c)
    _check_inside(x, c)

    def K(S):
        return fine_kernel_rows(kind, P.side, S, x)

    def f(S):
        return eval_slice_poly_rows(P, S)

    return slice_integral(K, c, f, P.side)


def word_eval(kind: str, P: SlicePolynomial, x: Multivector) -> Multivector:
    """Exact oracle: the operator word of the kind applied to P, at x."""
    return canonical_eval(apply_word(_kind_word(kind), P), x)
