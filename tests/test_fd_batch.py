"""The batched finite-difference oracle and its row-wise layers, compared bit
for bit (raw bytes, so signed zeros count) with the per-point code."""

import itertools
from math import ceil, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finestruct import harness
from finestruct.clifford_core import (
    ONE,
    PARAVECTOR_MASKS,
    ZERO,
    Multivector,
    mv_mul,
    mv_mul_rows,
    paravector_conjugate,
)
from finestruct.errors import SpectralSphereHit
from finestruct.fueter_ops import KIND_WORDS, TAG_WORDS, fd_apply, fd_apply_batch
from finestruct.kernels import cauchy_kernel, cauchy_kernel_batch
from finestruct.slice_poly import (
    LEFT,
    RIGHT,
    SlicePolynomial,
    canonical_eval,
    canonical_eval_rows,
    to_canonical,
)

WORDS = sorted(set(KIND_WORDS.values()) | set(TAG_WORDS.values()))

coeffs = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def mv_rows(draw, min_rows=1, max_rows=6):
    """Rows that are dense, sparse, paravector or zero (signed zeros too)."""
    X = np.zeros((draw(st.integers(min_rows, max_rows)), 32))
    for row in X:
        kind = draw(st.sampled_from(("dense", "sparse", "paravector", "zero")))
        if kind == "dense":
            blades = range(32)
        elif kind == "paravector":
            blades = PARAVECTOR_MASKS
        else:
            blades = draw(st.lists(st.integers(0, 31), max_size=4, unique=True))
        for b in blades:
            row[b] = draw(st.sampled_from((0.0, -0.0)) if kind == "zero"
                          else coeffs)
    return X


@st.composite
def points(draw, max_rows=6, scale=0.6):
    """Paravector rows; any vector slot may be zero, so some rows lie on the
    slice axis (r = 0) or in a coordinate plane."""
    X = np.zeros((draw(st.integers(1, max_rows)), 32))
    for row in X:
        row[0] = draw(st.floats(-scale, scale))
        for m in PARAVECTOR_MASKS[1:]:
            if draw(st.booleans()):
                row[m] = draw(st.floats(-scale, scale))
    return X


def _s(draw_values):
    s0, *vec = draw_values
    return Multivector.paravector(s0, *vec)


s_points = st.lists(st.floats(-1.5, 1.5), min_size=6, max_size=6).map(_s)


def _same_rows(batch: np.ndarray, rows) -> bool:
    return (batch.shape == (len(rows), 32)
            and all(b.tobytes() == r.c.tobytes() for b, r in zip(batch, rows)))


# -- mv_mul_rows --------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(mv_rows(n, n), mv_rows(n, n))))
def test_mv_mul_rows_equals_mv_mul_per_row(pair):
    A, B = pair
    rows = [mv_mul(Multivector(a), Multivector(b)) for a, b in zip(A, B)]
    assert _same_rows(mv_mul_rows(A, B), rows)
    rows = [mv_mul(Multivector(b), Multivector(a)) for a, b in zip(A, B)]
    assert _same_rows(mv_mul_rows(B, A), rows)


# -- cauchy_kernel_batch ---------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(s_points, points(), st.sampled_from((LEFT, RIGHT)))
def test_cauchy_kernel_batch_equals_cauchy_kernel_per_row(s, X, side):
    try:
        rows = [cauchy_kernel(side, "II", s, Multivector(x)) for x in X]
    except SpectralSphereHit:
        with pytest.raises(SpectralSphereHit):
            cauchy_kernel_batch(side, s, X)
        return
    assert _same_rows(cauchy_kernel_batch(side, s, X), rows)


@settings(max_examples=50, deadline=None)
@given(s_points.filter(lambda s: s.norm_inf() > 0.1), points(), st.data())
def test_cauchy_kernel_batch_raises_when_one_row_is_on_the_sphere(s, X, data):
    # s itself and its conjugate lie on the sphere of s: Q(s, s) = 0.
    row = data.draw(st.integers(0, len(X) - 1))
    X[row] = data.draw(st.sampled_from((s, paravector_conjugate(s)))).c
    with pytest.raises(SpectralSphereHit):
        cauchy_kernel(LEFT, "II", s, Multivector(X[row]))
    for side in (LEFT, RIGHT):
        with pytest.raises(SpectralSphereHit):
            cauchy_kernel_batch(side, s, X)


# -- canonical_eval_rows -----------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(mv_rows(max_rows=4), points(max_rows=8, scale=1.5),
       st.sampled_from((LEFT, RIGHT)))
def test_canonical_eval_rows_equals_canonical_eval_per_row(C, X, side):
    poly = to_canonical(SlicePolynomial([Multivector(c) for c in C], side))
    rows = [canonical_eval(poly, Multivector(x)) for x in X]
    assert _same_rows(canonical_eval_rows(poly, X), rows)


# -- fd_apply_batch ----------------------------------------------------------------

_UNITS = (ONE,) + tuple(Multivector.basis(1 << i) for i in range(5))


def _reference_fd_apply(word, f, x, h, side, step_growth):
    """The nested per-point FD oracle on Multivector values: each letter
    calls the rest of the word at its stencil points."""
    word = tuple(word)
    if not word:
        return f(x)
    head, rest = word[0], word[1:]
    g = ((lambda y: _reference_fd_apply(rest, f, y, h, side, step_growth))
         if rest else f)
    step = h * step_growth ** len(rest)

    def first_order(st, conj):
        partials = [(g(x + e * st) - g(x - e * st)) * (1.0 / (2.0 * st))
                    for e in _UNITS]
        acc = partials[0]
        for e, d in zip(_UNITS[1:], partials[1:]):
            term = e * d if side == LEFT else d * e
            acc = acc - term if conj else acc + term
        return acc

    if head == "Delta":
        center2 = g(x) * 2.0

        def stencil(st):
            acc = ZERO
            for e in _UNITS:
                acc = acc + (g(x + e * st) - center2 + g(x - e * st)) * (1.0 / (st * st))
            return acc
    else:
        def stencil(st):
            return first_order(st, head == "Dbar")
    s_h, s_2h, s_4h = stencil(step), stencil(2.0 * step), stencil(4.0 * step)
    r1_h = (s_h * 4.0 - s_2h) * (1.0 / 3.0)
    r1_2h = (s_2h * 4.0 - s_4h) * (1.0 / 3.0)
    return (r1_h * 16.0 - r1_2h) * (1.0 / 15.0)


def _square_times(c: Multivector):
    """y -> (y y) c per point and per row, equal bit for bit."""
    def f(y):
        return (y * y) * c

    def F(Y):
        return mv_mul_rows(mv_mul_rows(Y, Y), np.broadcast_to(c.c, Y.shape))

    return f, F


@pytest.mark.parametrize("side", (LEFT, RIGHT))
@pytest.mark.parametrize("word", [w for w in WORDS if len(w) <= 2],
                         ids=lambda w: "-".join(w) or "empty")
@settings(max_examples=5, deadline=None)
@given(points(max_rows=1), mv_rows(max_rows=1),
       st.sampled_from((1e-3, 0.05)), st.sampled_from((4.0, 16.0)))
def test_fd_apply_batch_equals_reference(word, side, X, C, h, growth):
    f, F = _square_times(Multivector(C[0]))
    x = Multivector(X[0])
    ref = _reference_fd_apply(word, f, x, h, side, growth)
    assert fd_apply_batch(word, F, x, h, side, growth).c.tobytes() == ref.c.tobytes()
    assert fd_apply(word, f, x, h, side, growth).c.tobytes() == ref.c.tobytes()


@pytest.mark.parametrize("side", (LEFT, RIGHT))
@pytest.mark.parametrize("word", [w for w in WORDS if len(w) > 2],
                         ids="-".join)
def test_fd_apply_batch_equals_reference_on_three_letter_words(word, side):
    # One point (with a zero slot) per word and y -> y y: about 48k leaves.
    def f(y):
        return y * y

    def F(Y):
        return mv_mul_rows(Y, Y)

    x = Multivector.paravector(0.4, 0.8, -0.3, 0.0, 0.2, 0.1)
    ref = _reference_fd_apply(word, f, x, 0.05, side, 4.0)
    assert fd_apply_batch(word, F, x, 0.05, side, 4.0).c.tobytes() == ref.c.tobytes()


@pytest.mark.parametrize("side", (LEFT, RIGHT))
@pytest.mark.parametrize("kind", sorted(KIND_WORDS))
@settings(max_examples=5, deadline=None)
@given(s_points.filter(lambda s: s.norm_inf() > 0.5), points(max_rows=1, scale=0.3))
def test_fd_apply_batch_on_the_cauchy_kernel_equals_fd_apply(kind, side, s, X):
    x = Multivector(X[0])
    growth = 16.0 if kind == "F5" else 4.0
    try:
        ref = fd_apply(KIND_WORDS[kind],
                       lambda y: cauchy_kernel(side, "II", s, y), x,
                       1e-3, side, growth)
    except SpectralSphereHit:
        return
    got = fd_apply_batch(KIND_WORDS[kind],
                         lambda Y: cauchy_kernel_batch(side, s, Y), x,
                         1e-3, side, growth)
    assert got.c.tobytes() == ref.c.tobytes()


def test_kernels_fd_check_evaluates_the_kernel_in_blocks(monkeypatch):
    batch_calls = 0
    applications = []

    def counted_kernel(*args):
        nonlocal batch_calls
        batch_calls += 1
        return cauchy_kernel_batch(*args)

    def counted_fd(word, *args, **kwargs):
        before = batch_calls
        out = fd_apply_batch(word, *args, **kwargs)
        points = prod(37 if letter == "Delta" else 36 for letter in word)
        applications.append((points, batch_calls - before))
        return out

    monkeypatch.setattr(harness, "cauchy_kernel_batch", counted_kernel)
    monkeypatch.setattr(harness, "fd_apply_batch", counted_fd)
    cfg = harness.parse_config(["--suite", "kernels", "--seed", "7"])
    checks = list(itertools.islice(harness._suite_kernels(cfg, cfg["tol"]), 8))
    assert all(cid.startswith("kernels.fd.") for cid, *_ in checks)
    assert len(applications) == 8 * 8
    assert all(0 < calls <= ceil(points / 256) for points, calls in applications)
