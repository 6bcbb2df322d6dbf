"""The FD oracle's unit products: each first-order letter multiplies its
partials by the units e_1 ... e_5 with mv_mul_rows, on the side of the
word, and the Laplacian sums its six second differences from +0.0.

Compared in raw bytes (signed zeros count) with the per-point oracle on
stencil values that are inf or NaN, and with a loop over the Richardson
steps that gathers each unit product as a signed permutation, on finite
values with signed zeros."""

import numpy as np
import pytest

from finestruct import fueter_ops
from finestruct.clifford_core import (
    DIM,
    LEFT_SIGNED,
    SIGNED_INDEX,
    VECTOR_MASKS,
    Multivector,
    mv_mul_rows,
)
from finestruct.fueter_ops import (
    _fd_reduce,
    _richardson_steps,
    fd_apply,
    fd_apply_batch,
)
from finestruct.slice_poly import LEFT, RIGHT
from test_fd_batch import _reference_fd_apply

# -- non-finite stencil values ---------------------------------------------------


def _blade_5_breaks_beyond(bad: float):
    """y -> y c, a finite row, except that blade e1e3 (mask 5) is bad at the
    points with x1 > 0.1001: per point (f) and per row (F)."""
    c = np.random.default_rng(3).standard_normal(DIM)

    def F(Y):
        V = mv_mul_rows(Y, np.broadcast_to(c, Y.shape))
        V[Y[:, 1] > 0.1001, 5] = bad
        return V

    def f(y):
        return Multivector._wrap(F(y.c[None])[0])

    return f, F


def _nan_as_one(v: np.ndarray) -> bytes:
    """Raw bytes with every NaN as the one NaN np.nan.  IEEE 754 leaves the
    sign bit of a NaN product to the operand: mv_mul negates a term whose
    blade sign is -1 and mv_mul_rows multiplies it by -1.0, so a NaN that
    reaches a left unit product keeps its sign in one and flips it in the
    other."""
    return np.where(np.isnan(v), np.nan, v).tobytes()


@pytest.mark.parametrize("bad", (np.inf, np.nan), ids=("inf", "nan"))
@pytest.mark.parametrize("side", (LEFT, RIGHT))
@pytest.mark.parametrize("word", (("D",), ("Dbar",), ("Delta", "D")),
                         ids="-".join)
def test_fd_apply_on_non_finite_values_equals_the_per_point_oracle(
        word, side, bad):
    # The right side's unit product d e_i is mv_mul's sum over the blades
    # of d, so an inf or NaN in d meets the zero slots of e_i: every slot
    # of that term is NaN.
    f, F = _blade_5_breaks_beyond(bad)
    x = Multivector.paravector(0.2, 0.1)
    with np.errstate(invalid="ignore"):
        ref = _reference_fd_apply(word, f, x, 1e-3, side, 4.0).c
        got = (fd_apply_batch(word, F, x, 1e-3, side, 4.0).c,
               fd_apply(word, f, x, 1e-3, side, 4.0).c)
    assert not np.isfinite(ref).all()
    for v in got:
        assert _nan_as_one(v) == _nan_as_one(ref)
        if side == RIGHT:
            assert v.tobytes() == ref.tobytes()


# -- the reduce against the per-step loop ----------------------------------------


def _loop_reduce(letter, V, step, side):
    """_fd_reduce one Richardson step at a time: the units as a signed
    permutation of [d, -d] and the Laplacian summed by a loop from +0.0."""
    unit_product = (SIGNED_INDEX[VECTOR_MASKS] if side == LEFT
                    else LEFT_SIGNED[:, VECTOR_MASKS].T)
    if letter == "Delta":
        V = V.reshape(-1, 37, DIM)
        center2 = V[:, 0] * 2.0
        V = V[:, 1:]
    V = V.reshape(-1, 3, 6, 2, DIM)
    stencils = []
    for j, st in enumerate(_richardson_steps(step)):
        plus, minus = V[:, j, :, 0], V[:, j, :, 1]
        if letter == "Delta":
            terms = ((plus - center2[:, None]) + minus) * (1.0 / (st * st))
            acc = np.zeros((len(V), DIM))
            for i in range(6):
                acc = acc + terms[:, i]
        else:
            partials = (plus - minus) * (1.0 / (2.0 * st))
            acc = partials[:, 0]
            for i, index in enumerate(unit_product, 1):
                d = partials[:, i]
                term = 0.0 + np.concatenate((d, -d), axis=1)[:, index]
                acc = acc - term if letter == "Dbar" else acc + term
        stencils.append(acc)
    s_h, s_2h, s_4h = stencils
    r1_h = (s_h * 4.0 - s_2h) * (1.0 / 3.0)
    r1_2h = (s_2h * 4.0 - s_4h) * (1.0 / 3.0)
    return (r1_h * 16.0 - r1_2h) * (1.0 / 15.0)


def _stencil_values(letter: str, m: int) -> np.ndarray:
    """Values at the stencil points of m outer points: dense normals with
    signed zeros, plus = minus (exact cancellations) on the even
    coordinates, and every third outer point from the second on all zero:
    -0.0 at the first step, where a sum started from its first term would
    keep the sign through the Richardson levels, +0.0 at the others and at
    the Laplacian's centre."""
    rng = np.random.default_rng(m)
    V = rng.standard_normal((m, 3, 6, 2, DIM))
    V[rng.random(V.shape) < 0.2] = -0.0
    V[rng.random(V.shape) < 0.2] = 0.0
    V[:, :, ::2, 1] = V[:, :, ::2, 0]
    V[1::3] = 0.0
    V[1::3, 0] = -0.0
    V = V.reshape(m, 36, DIM)
    if letter == "Delta":
        center = rng.standard_normal((m, 1, DIM))
        center[1::3] = 0.0
        V = np.concatenate((center, V), axis=1)
    return V.reshape(-1, DIM)


LETTERS = pytest.mark.parametrize("letter", ("D", "Dbar", "Delta"))
SIDES = pytest.mark.parametrize("side", (LEFT, RIGHT))
ROWS = pytest.mark.parametrize("m", (1, 37))


@LETTERS
@SIDES
@ROWS
def test_reduce_equals_the_per_step_loop(letter, side, m):
    V = _stencil_values(letter, m)
    got = _fd_reduce(letter, V, 1e-3, side)
    assert got.shape == (m, DIM)
    assert got.tobytes() == _loop_reduce(letter, V, 1e-3, side).tobytes()


@LETTERS
@SIDES
@ROWS
def test_reduce_makes_one_row_product_per_unit(monkeypatch, letter, side, m):
    shapes = []

    def counted(A, B):
        shapes.append((A.shape, B.shape))
        return mv_mul_rows(A, B)

    monkeypatch.setattr(fueter_ops, "mv_mul_rows", counted)
    _fd_reduce(letter, _stencil_values(letter, m), 1e-3, side)
    unit, partials = (1, DIM), (3 * m, DIM)
    if letter == "Delta":
        assert shapes == []
    else:
        pair = (unit, partials) if side == LEFT else (partials, unit)
        assert shapes == [pair] * 5


def test_fueter_ops_binds_no_blade_sign_table():
    for name in ("SIGNED_INDEX", "LEFT_SIGNED", "VECTOR_MASKS", "_UNIT_PRODUCT"):
        assert not hasattr(fueter_ops, name), name
