"""Row code of the calculus suite, byte for byte (raw bytes, so signed zeros
count): a NodeRows integrand against the same function called per node, the
two-component check against its per-node integrand, the integrand calls of
a seed-7 calculus pass, the check of what a row integrand returns, and the
stacked axial evaluation of _image_sum against a per-term loop."""

import numpy as np
import pytest

from finestruct import harness, op_calculus
from finestruct.clifford_core import VECTOR_MASKS, Multivector
from finestruct.fueter_ops import KIND_WORDS, word_image
from finestruct.harness import _rand_slice_poly, _rand_tuple
from finestruct.op_calculus import (
    CliffordMatrix,
    NodeRows,
    _axial_images,
    poly_calculus_exact,
    poly_calculus_integral,
    poly_calculus_integrals,
)
from finestruct.slice_poly import (LEFT, RIGHT, SlicePolynomial,
                                   eval_slice_poly, eval_slice_poly_rows)
from test_axial_eval import jordan_tuple
from test_batched_calculus import CASES


def _same_bytes(a: CliffordMatrix, b: CliffordMatrix) -> bool:
    return a.a.shape == b.a.shape and a.a.tobytes() == b.a.tobytes()


def _per_node(F):
    """The row function F as a callable s -> value, called per node."""
    return lambda s: Multivector._wrap(F(s.c[None])[0])


def _row_fn(rng, side):
    P = _rand_slice_poly(rng, 4, side)
    a = rng.normal(size=32)

    def F(S):
        return eval_slice_poly_rows(P, S) * S[:, :1] + a
    return F


# -- NodeRows ----------------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_node_rows_equals_the_per_node_callable(case):
    rng = np.random.default_rng(43)
    T, c = CASES[case](rng)
    for side in (LEFT, RIGHT):
        F = _row_fn(rng, side)
        for kind in ("SC", "Dbar", "F5"):
            got = poly_calculus_integral(kind, side, NodeRows(F), T, c)
            want = poly_calculus_integral(kind, side, _per_node(F), T, c)
            assert _same_bytes(got, want), (kind, side)


@pytest.mark.parametrize("case", ("one_N17", "two_N23_17"))
def test_a_batch_mixing_the_three_integrand_forms(case):
    rng = np.random.default_rng(47)
    T, c = CASES[case](rng)
    jobs = []
    for side in (LEFT, RIGHT):
        F, P = _row_fn(rng, side), _rand_slice_poly(rng, 5, side)
        jobs += [("F5", side, NodeRows(F)), ("F5", side, P),
                 ("Dbar", side, _per_node(F)), ("Dbar", side, NodeRows(F))]
    got = poly_calculus_integrals(T, c, jobs)
    for G, (kind, side, P) in zip(got, jobs):
        want = P if not isinstance(P, NodeRows) else _per_node(P.f)
        assert _same_bytes(G, poly_calculus_integral(kind, side, want, T, c))


@pytest.mark.parametrize("bad, shape", (
    (lambda S: S[:, 0], "(17,)"),
    (lambda S: S[:, 1:], "(17, 31)"),
    (lambda S: np.where(np.arange(len(S))[:, None] == 5, np.nan, S),
     "(17, 32)"),
))
def test_a_row_integrand_must_return_finite_node_shaped_rows(monkeypatch,
                                                             bad, shape):
    T, c = CASES["one_N17"](np.random.default_rng(5))
    blocks = []
    original = op_calculus._resolvent_blocks

    def counted(*args):
        for block in original(*args):
            blocks.append(1)
            yield block

    monkeypatch.setattr(op_calculus, "_resolvent_blocks", counted)
    with pytest.raises(ValueError, match=r"shape \(17, 32\), got .*shape "
                       + shape.replace("(", r"\(").replace(")", r"\)")):
        poly_calculus_integral("F5", LEFT, NodeRows(bad), T, c)
    assert blocks == []


# -- the two-component check ---------------------------------------------------


def _old_perturbed(alphas, P):
    """The per-node integrand the two-component check used before its row
    form."""
    def perturbed(s):
        comp = 0 if abs(s[0]) < 2.5 else 1
        val = eval_slice_poly(P, s)
        spow = Multivector.scalar(1.0)
        for a in alphas[comp]:
            val = val + spow * a
            spow = spow * s
        return val
    return perturbed


@pytest.mark.parametrize("seed", (7, 8))
def test_two_component_rows_equal_the_per_node_integrand(monkeypatch, seed):
    calls = []
    original = harness.poly_calculus_integrals

    def recorded(T, c, jobs):
        out = original(T, c, jobs)
        calls.append((T, c, jobs, out))
        return out

    monkeypatch.setattr(harness, "poly_calculus_integrals", recorded)
    harness._two_component_tcost(np.random.default_rng(seed), 64)
    [(T, c, jobs, got)] = calls
    ref_jobs = [(kind, side, _old_perturbed(*P.f.__defaults__)
                 if isinstance(P, NodeRows) else P)
                for kind, side, P in jobs]
    assert sum(isinstance(P, NodeRows) for _, _, P in jobs) == 4
    want = original(T, c, ref_jobs)
    for G, W in zip(got, want):
        assert _same_bytes(G, W)


def test_a_calculus_pass_calls_no_integrand_per_node(monkeypatch):
    forms = []
    original = op_calculus._integrand_rows

    def recorded(P, c):
        forms.append(type(P).__name__)
        return original(P, c)

    monkeypatch.setattr(op_calculus, "_integrand_rows", recorded)
    cfg = harness.parse_config(["--suite", "calculus", "--seed", "7"])
    for _ in harness._suite_calculus(cfg, cfg["tol"]):
        pass
    # 4 kinds x 2 contours of the two-component check.
    assert forms.count("NodeRows") == 8
    assert set(forms) == {"NodeRows", "SlicePolynomial"}


# -- the stacked axial evaluation ---------------------------------------------


def _power(M, k):
    """M^k as the chain I @ M @ ... @ M, one product at a time."""
    out = np.eye(len(M))
    for _ in range(k):
        out = out @ M
    return out


def _axial_reference(image, T) -> np.ndarray:
    """One image by a loop over its terms: A and B from +0.0, each term
    float(n) * (T0^a @ (-R)^(b // 2)) added to A (even b) or B (odd b)."""
    d = T.d
    neg_r = -sum(m @ m for m in T.mats[1:])
    A, B = np.zeros((d, d)), np.zeros((d, d))
    for (a, b), n in image.items():
        term = float(n) * (_power(T.T0, a) @ _power(neg_r, b // 2))
        if b % 2:
            B += term
        else:
            A += term
    out = np.zeros((32, d, d))
    out[0] = A
    out[VECTOR_MASKS] = np.asarray(T.mats[1:]) @ B
    return out


def _tuples():
    rng = np.random.default_rng(53)
    return [jordan_tuple()] + [_rand_tuple(rng, d, 0.3)[0] for d in (1, 3)]


@pytest.mark.parametrize("T", _tuples(), ids=("jordan", "d1", "d3"))
def test_stacked_images_equal_the_per_term_loop(T):
    for kind, word in KIND_WORDS.items():
        images = [word_image(word, m) for m in range(14)]
        if kind == "DeltaD":
            assert images[0] == images[1] == images[2] == {}
        got = _axial_images(images, T)
        assert got.shape == (len(images), 32, T.d, T.d)
        for m, image in enumerate(images):
            assert got[m].tobytes() == _axial_reference(image, T).tobytes()
    assert _axial_images([], T).shape == (0, 32, T.d, T.d)


@pytest.mark.parametrize("T", _tuples(), ids=("jordan", "d1", "d3"))
def test_exact_substitution_skips_a_zero_coefficient(T):
    rng = np.random.default_rng(59)
    for side in (LEFT, RIGHT):
        P = _rand_slice_poly(rng, 6, side)
        P = SlicePolynomial(P.coeffs[:3] + [Multivector()] + P.coeffs[4:],
                            side)
        for kind in ("DeltaD", "F5", "Cauchy"):
            want = CliffordMatrix.zero(T.d)
            for m, coeff in enumerate(P.coeffs):
                if coeff.is_zero():
                    continue
                image = CliffordMatrix(
                    _axial_reference(word_image(KIND_WORDS[kind], m), T))
                want = want + (image * coeff if side == LEFT
                               else coeff * image)
            assert _same_bytes(poly_calculus_exact(kind, side, P, T), want)
