"""Each shared rule has one copy: the space registry and the term table of
word images in fueter_ops, the contour node sum in op_calculus, the sphere
guard and the slice-power chain in kernels, the axial decomposition in
clifford_core, and the canonical evaluator in slice_poly.  These tests compare
each with the copies it replaced, kept here as references, bit for bit."""

import sys
from math import pi

import numpy as np
import pytest

from finestruct import contour, fueter_ops, kernels, op_calculus
from finestruct.clifford_core import (
    PARAVECTOR_MASKS,
    ZERO,
    Multivector,
    axis_decompose,
    axis_rows,
    mv_mul_rows,
    paravector_inverse,
)
from finestruct.contour import Contour, circle, fine_integral_eval
from finestruct.errors import SpectralSphereHit
from finestruct.fueter_ops import (
    SYSTEM_TAGS,
    SYSTEM_WORDS,
    VEKUA_SYSTEMS,
    _BLOCK_DEGREES,
    _DEGREE_TAG,
    KIND_WORDS,
    image_terms,
    word_image,
    word_image_terms,
)
from finestruct.harness import (
    ALL_KINDS,
    TAG_COMPLEMENTS,
    _rand_slice_poly,
    _rand_tuple,
)
from finestruct.kernels import cauchy_kernel, fine_kernel, fine_kernel_series
from finestruct.op_calculus import (
    CliffordMatrix,
    OperatorTuple,
    f_resolvent_equation_residual,
    fine_resolvent,
    poly_calculus_integral,
)
from finestruct.slice_poly import (
    LEFT,
    RIGHT,
    CanonicalPoly,
    SlicePolynomial,
    canonical_eval,
    canonical_eval_rows,
    eval_slice_poly,
    to_canonical,
)

SIDES = (LEFT, RIGHT)

# -- the space registry --------------------------------------------------------

# The literal tables that the registry replaced.
REFERENCE_VEKUA_SYSTEMS = (
    "AntiCliffordian", "BiHarmonic", "Poly3", "Cliffordian1",
    "Harmonic", "Poly2", "PolyCliffordian12",
)
REFERENCE_SYSTEM_WORDS = {
    "AntiCliffordian": ("Delta", "Dbar"),
    "BiHarmonic": ("Delta", "Delta"),
    "Poly3": ("D", "D", "D"),
    "Cliffordian1": ("Delta", "D"),
    "Harmonic": ("Delta",),
    "Poly2": ("D", "D"),
    "PolyCliffordian12": ("Delta", "D", "D"),
}
REFERENCE_VEKUA_COMPLEMENTS = {
    "AntiCliffordian": ("D", "D"),
    "BiHarmonic": ("D",),
    "Poly3": ("Dbar", "Dbar"),
    "Cliffordian1": ("Delta",),
    "Harmonic": ("Delta", "D"),
    "Poly2": ("Delta", "Dbar"),
    "PolyCliffordian12": ("Dbar",),
}
REFERENCE_BLOCK_DEGREES = {
    "D": (1, 0), "Dbar": (0, 1), "Delta": (1, 1), "D2": (2, 0), "Dbar2": (0, 2),
}
# Keyed by (k, a - k, b - k) with k = min(a, b), for degrees (a, b).
REFERENCE_DEGREE_TAG = {
    (0, 1, 0): "AM",
    (1, 0, 0): "AH",
    (2, 0, 0): "ABH",
    (1, 1, 0): "ACH1",
    (1, 0, 1): "AntiACH1",
    (0, 2, 0): "AP2",
    (0, 3, 0): "AP3",
    (1, 2, 0): "APC12",
}


def test_vekua_systems_and_words_keep_their_order_and_words():
    assert VEKUA_SYSTEMS == REFERENCE_VEKUA_SYSTEMS
    assert list(SYSTEM_WORDS.items()) == list(REFERENCE_SYSTEM_WORDS.items())


def test_vekua_complements_are_the_tag_complements_word_for_word():
    assert {sysname: TAG_COMPLEMENTS[SYSTEM_TAGS[sysname]]
            for sysname in VEKUA_SYSTEMS} == REFERENCE_VEKUA_COMPLEMENTS


def test_degree_tag_and_block_degrees_are_the_literal_tables():
    assert _DEGREE_TAG == {(k + p, k + q): tag for (k, p, q), tag
                           in REFERENCE_DEGREE_TAG.items()}
    assert _BLOCK_DEGREES == REFERENCE_BLOCK_DEGREES


# -- the contour node sum --------------------------------------------------------


def _reference_poly_calculus_integral(kind, side, P, T, c):
    """The operator contour integral as it was summed before it shared one
    node sum: one fine_resolvent and one product per node, added in node
    order."""
    if callable(P):
        f = P
    else:
        def f(s):
            return eval_slice_poly(P, s)
    d = T.d
    acc = CliffordMatrix.zero(d)
    for ci in (list(c) if isinstance(c, (list, tuple)) else [c]):
        for s, w in zip(ci.nodes, ci.dsj):
            K = fine_resolvent(kind, side, T, s)
            if side == LEFT:
                acc = acc + K * w * f(s)
            else:
                acc = acc + CliffordMatrix.from_multivector(f(s) * w, d) * K
    return acc.scale(1.0 / (2.0 * pi))


def _one_contour_case(rng, N=32):
    T, _ = _rand_tuple(rng, 3, 0.3)
    return T, circle(0.0, 1.25 * T.norm_bound(), Multivector.basis(1), N)


def _two_contour_case(rng, N=32, M=32):
    T1, _ = _rand_tuple(rng, 2, 0.3, vanish45=True)
    T2, _ = _rand_tuple(rng, 2, 0.3, vanish45=True, shifts=np.full(2, 5.0))
    zeros = np.zeros((2, 2))
    T = OperatorTuple([np.block([[a, zeros], [zeros, b]])
                       for a, b in zip(T1.mats, T2.mats)])
    e2 = Multivector.basis(2)
    return T, [circle(0.0, 1.2, e2, N), circle(5.0, 1.2, e2, M)]


# Node counts that fill whole blocks of 8 and ones whose last block is partial.
CASES = (_one_contour_case, _two_contour_case,
         pytest.param(lambda rng: _one_contour_case(rng, 17), id="N17"),
         pytest.param(lambda rng: _one_contour_case(rng, 23), id="N23"),
         pytest.param(lambda rng: _two_contour_case(rng, 17, 23), id="N17_23"))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", ("SC", "Dbar", "F5"))
@pytest.mark.parametrize("side", SIDES)
def test_poly_calculus_integral_equals_the_reference_loop(case, kind, side):
    rng = np.random.default_rng(11)
    T, c = case(rng)
    P = _rand_slice_poly(rng, 5, side)
    a = Multivector(rng.normal(size=32))

    def f(s):
        return eval_slice_poly(P, s) * s + a

    for integrand in (P, f):
        got = poly_calculus_integral(kind, side, integrand, T, c)
        want = _reference_poly_calculus_integral(kind, side, integrand, T, c)
        assert got.a.tobytes() == want.a.tobytes()


def test_poly_calculus_integral_makes_no_per_node_products(monkeypatch):
    """The contour sum and the kernels are stacked products; a fall back to
    one CliffordMatrix product per node would show here."""
    calls = []
    original = CliffordMatrix.__mul__

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(CliffordMatrix, "__mul__", counted)
    rng = np.random.default_rng(4)
    for case in (_one_contour_case, lambda rng: _two_contour_case(rng, 17, 23)):
        T, c = case(rng)
        for side in SIDES:
            P = _rand_slice_poly(rng, 4, side)
            for kind in ("SC", "Dbar", "Dbar2", "F5"):
                poly_calculus_integral(kind, side, P, T, c)
            poly_calculus_integral("F5", side, lambda s: s * s, T, c)
    assert calls == []
    CliffordMatrix.identity(2) * CliffordMatrix.identity(2)
    assert calls == [1]


def test_traced_slice_integral_still_takes_one_contour(monkeypatch):
    """A tracer that rebinds contour.slice_integral in every module reads
    its second argument as one Contour; neither calculus may pass it a list
    of contours."""
    original = contour.slice_integral
    contours = []

    def checked(*args, **kwargs):
        assert isinstance(args[1], Contour)
        contours.append(args[1])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "finestruct" or name.startswith("finestruct."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, checked)

    T, cs = _two_contour_case(np.random.default_rng(3))
    for side in SIDES:
        P = SlicePolynomial.monomial(5, 1.0, side)
        poly_calculus_integral("F5", side, P, T, cs)
    c = circle(0.0, 1.0, Multivector.basis(1), 32)
    fine_integral_eval("Delta", SlicePolynomial.monomial(4),
                       Multivector.paravector(0.2, 0.1), c)
    assert contours == [c]


# -- the sphere guard and the slice-power chain ------------------------------------


def test_every_guarded_caller_raises_on_the_sphere_of_s():
    s = Multivector.paravector(0.5, 1.0)
    x = Multivector.paravector(0.5, 0.0, 1.0)  # same sphere as s
    T, _ = _rand_tuple(np.random.default_rng(0), 2, 0.3)
    for call in (lambda: fine_kernel("Delta", LEFT, s, x),
                 lambda: cauchy_kernel(LEFT, "I", s, x),
                 lambda: cauchy_kernel(RIGHT, "I", s, x),
                 lambda: f_resolvent_equation_residual(T, s, x)):
        with pytest.raises(SpectralSphereHit):
            call()


def _reference_fine_kernel_series(kind, side, s, x, N):
    """The kernel series with its own s^(-1-m) chain, as it was before it
    shared the slice powers of kernels."""
    word = KIND_WORDS[kind]
    x0, r, omega = axis_decompose(x)
    s_inv = paravector_inverse(s)
    acc = ZERO
    s_pow = s_inv
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


@pytest.mark.parametrize("kind", ("Cauchy", "Dbar2", "F5"))
@pytest.mark.parametrize("side", SIDES)
def test_fine_kernel_series_equals_the_reference_chain(kind, side):
    s = Multivector.paravector(0.9, 0.3, -0.4, 0.2, 0.1, 0.25)
    for x in (Multivector.paravector(0.2, 0.1, 0.0, -0.15),
              Multivector.scalar(-0.3)):
        got = fine_kernel_series(kind, side, s, x, 40)
        want = _reference_fine_kernel_series(kind, side, s, x, 40)
        assert got.c.tobytes() == want.c.tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("side", SIDES)
def test_fine_kernel_series_row_product_equals_the_reference_chain(kind, side):
    s = Multivector.paravector(1.1, -0.2, 0.35, 0.0, -0.45, 0.3)
    for x in (Multivector.paravector(-0.25, 0.3, -0.0, 0.2, 0.15, -0.1),
              Multivector.scalar(0.4)):
        got = fine_kernel_series(kind, side, s, x, 60)
        want = _reference_fine_kernel_series(kind, side, s, x, 60)
        assert got.c.tobytes() == want.c.tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("side", SIDES)
def test_fine_kernel_series_edge_points_equal_the_reference_chain(kind, side):
    """N = 0 and 1, x = 0, x on the axis with x0 < 0 and x0 = -0.0, and
    vector slots near 1e-160, where r is subnormal or underflows to 0."""
    s = Multivector.paravector(0.8, 0.25, -0.3, 0.1, 0.0, -0.2)
    points = (
        ZERO,
        Multivector.scalar(-0.35),
        Multivector.scalar(-0.0),
        Multivector.paravector(-0.0, 0.2, -0.1),
        Multivector.paravector(0.3, 1e-160, -2e-161, 0.0, 3e-160),
        Multivector.paravector(-0.2, 1e-170, -0.0, 0.0, -2e-170),
    )
    assert axis_decompose(points[4])[1] > 0.0
    assert axis_decompose(points[5])[1] == 0.0
    for x in points:
        for N in (0, 1, 2, 40):
            got = fine_kernel_series(kind, side, s, x, N)
            want = _reference_fine_kernel_series(kind, side, s, x, N)
            assert got.c.tobytes() == want.c.tobytes(), (x, N)


# -- the axial decomposition ---------------------------------------------------------


def _reference_axis_decompose(x):
    """axis_decompose as it was before it became the one-row case of
    axis_rows."""
    x0 = x[0]
    vec = np.array([x.c[m] for m in PARAVECTOR_MASKS[1:]])
    r = float(np.linalg.norm(vec))
    if r == 0.0:
        return x0, 0.0, None
    omega = Multivector.paravector(0.0, *(vec / r))
    return x0, r, omega


def _axial_rows(n, rng):
    """n rows over scales 1e-3 to 1e3, a tenth of them on the axis, with
    -0.0 slots and vector slots near 1e-160, where r underflows."""
    X = rng.normal(size=(n, 32)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    vector = list(PARAVECTOR_MASKS[1:])
    X[np.ix_(rng.random(n) < 0.1, vector)] = 0.0
    X[rng.random((n, 32)) < 0.05] = -0.0
    X[:40, vector] *= 10.0 ** rng.uniform(-165, -155, size=(40, 1))
    # r = 0 with nonzero slots (their squares underflow), and r subnormal.
    X[40:45, vector] = [1e-170, -0.0, 0.0, -2e-170, 0.0]
    X[45:50, vector] = [1e-170, -0.0, 0.0, 3e-161, 0.0]
    return X


def _hex(values):
    return [float(v).hex() for v in values]


def test_axis_rows_equals_the_reference_decomposition():
    X = _axial_rows(10_000, np.random.default_rng(11))
    X.setflags(write=False)
    c = circle(0.3, 1.7, Multivector.basis(4), 64)
    for rows in (X, X[::2], np.asfortranarray(X), c.node_rows):
        ref = [_reference_axis_decompose(Multivector(x)) for x in rows]
        x0, r, omega = axis_rows(rows)
        assert _hex(x0) == _hex(a[0] for a in ref)
        assert _hex(r) == _hex(a[1] for a in ref)
        want = np.zeros((len(rows), 5))
        for row, (_, _, w) in enumerate(ref):
            if w is not None:
                want[row] = w.c[list(PARAVECTOR_MASKS[1:])]
        assert omega.shape == (len(rows), 5)
        assert omega.tobytes() == want.tobytes()
    assert [_reference_axis_decompose(Multivector(x))[1] == 0.0
            for x in X[40:50]] == [True] * 5 + [False] * 5


def test_axis_decompose_is_the_one_row_case():
    X = _axial_rows(2_000, np.random.default_rng(12))
    on_axis = 0
    for x in map(Multivector, X):
        got, want = axis_decompose(x), _reference_axis_decompose(x)
        assert _hex(got[:2]) == _hex(want[:2])
        if want[2] is None:
            assert got[2] is None
            on_axis += 1
        else:
            assert got[2].c.tobytes() == want[2].c.tobytes()
    assert on_axis > 100


# -- the term table of word images ---------------------------------------------------


def _reference_series_table(word, N):
    """kernels._series_table as it was before fueter_ops.image_terms."""
    parts = []
    for parity in (0, 1):
        columns = [[(a, b - parity, (-1.0) ** (b // 2), float(n))
                    for (a, b), n in word_image(word, m).items()
                    if b % 2 == parity]
                   for m in range(N + 1)]
        table = np.zeros((4, max(map(len, columns)), N + 1))
        for m, column in enumerate(columns):
            table[:, :len(column), m] = np.reshape(column, (-1, 4)).T
        parts.append((*table[:2].astype(np.min_scalar_type(N)),
                      *table[2:].copy()))
    a_max = max(int(a.max(initial=0)) for a, *_ in parts)
    e_max = max(int(e.max(initial=0)) for _, e, *_ in parts)
    return (a_max, e_max, *parts)


def _assert_same_tables(got, want):
    assert got[:2] == want[:2]
    for part, ref in zip(got[2:], want[2:]):
        assert len(part) == len(ref) == 4
        for x, y in zip(part, ref):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("kind", sorted(KIND_WORDS))
def test_word_image_terms_is_the_term_table_of_the_word_images(kind):
    word = KIND_WORDS[kind]
    for N in (0, 1, 12, 40):
        got = word_image_terms(word, N)
        _assert_same_tables(got, image_terms([word_image(word, m)
                                              for m in range(N + 1)]))
        _assert_same_tables(got, _reference_series_table(word, N))


def test_the_term_table_of_no_images_is_empty():
    a_max, e_max, *parts = image_terms([])
    assert (a_max, e_max) == (0, 0)
    for part in parts:
        assert [x.size for x in part] == [0, 0, 0, 0]
    T, _ = _rand_tuple(np.random.default_rng(61), 2, 0.3)
    assert op_calculus._axial_images([], T).shape == (0, 32, 2, 2)


def test_kernels_and_op_calculus_read_the_one_term_table(monkeypatch):
    assert not hasattr(kernels, "_series_table")
    assert kernels.word_image_terms is fueter_ops.word_image_terms
    assert op_calculus.image_terms is fueter_ops.image_terms
    calls = []

    def counted(original):
        def wrapper(*args):
            calls.append(original.__name__)
            return original(*args)
        return wrapper

    monkeypatch.setattr(kernels, "word_image_terms",
                        counted(fueter_ops.word_image_terms))
    monkeypatch.setattr(op_calculus, "image_terms",
                        counted(fueter_ops.image_terms))
    fine_kernel_series("F5", LEFT, Multivector.paravector(2.0, 0.5),
                       Multivector.paravector(0.3, 0.1, 0.2), 8)
    T, _ = _rand_tuple(np.random.default_rng(67), 2, 0.3)
    op_calculus.canonical_operator_eval(word_image(("Delta",), 5), T)
    assert calls == ["word_image_terms", "image_terms"]


def test_a_resolvent_series_reads_the_memoised_term_table(monkeypatch):
    """_image_sum takes fueter_ops.word_image_terms as it is, for a
    resolvent series and for a polynomial with a zero coefficient alike,
    and builds no table of its own.  The series keeps the bits of its
    images summed one by one."""
    tables = []

    def counted(images):
        tables.append(len(images))
        return image_terms(images)

    monkeypatch.setattr(op_calculus, "image_terms", counted)
    T, _ = _rand_tuple(np.random.default_rng(71), 2, 0.3)
    s = Multivector.paravector(1.5, 0.2, -0.1)
    got = op_calculus.fine_resolvent_series("Dbar", LEFT, T, s, 12)
    assert tables == []
    P = SlicePolynomial([Multivector.scalar(1.0), ZERO,
                         Multivector.scalar(2.0)], LEFT)
    got_poly = op_calculus.poly_calculus_exact("Dbar", LEFT, P, T)
    assert tables == []

    def one_by_one(coeffs):
        want = CliffordMatrix.zero(T.d)
        for m, coeff in enumerate(coeffs):
            if not coeff.is_zero():
                image = op_calculus.canonical_operator_eval(
                    word_image(KIND_WORDS["Dbar"], m), T)
                want = want + image * coeff
        return want

    want = one_by_one(kernels._slice_inverse_powers(s, 12))
    assert got.a.tobytes() == want.a.tobytes()
    assert got_poly.a.tobytes() == one_by_one(P.coeffs).a.tobytes()


def test_slice_inverse_powers_are_shared_per_raw_s():
    """The powers of one s are built once and shared by the next callers
    with the same raw bytes; +0.0 and -0.0 in a slot are different keys,
    though the two multivectors compare equal."""
    s = Multivector.paravector(0.9, 0.3, 0.0, -0.4)
    t = Multivector.paravector(0.9, 0.3, -0.0, -0.4)
    assert s == t
    got = kernels._slice_inverse_powers(s, 20)
    assert kernels._slice_inverse_powers(s, 20) is got
    assert kernels._slice_inverse_powers(t, 20) is not got
    for x in (s, t):
        inv = paravector_inverse(x)
        want = [inv]
        for _ in range(20):
            want.append(want[-1] * inv)
        got = kernels._slice_inverse_powers(x, 20)
        assert isinstance(got, tuple)
        assert [p.c.tobytes() for p in got] == [p.c.tobytes() for p in want]


# -- the canonical evaluator -------------------------------------------------------


def _reference_canonical_eval(C, x):
    """The scalar evaluator that canonical_eval_rows was first checked
    against."""
    x0, r, omega = axis_decompose(x)
    acc = ZERO
    for (a, b), c in C.terms.items():
        scalar = (x0 ** a) * ((-1.0) ** (b // 2)) * (r ** (b - (b % 2)))
        if b % 2 == 0:
            factor = Multivector.scalar(scalar)
        else:
            if omega is None:
                continue
            factor = omega * (scalar * r)
        acc = acc + (factor * c if C.side == LEFT else c * factor)
    return acc


def _reference_canonical_eval_rows(C, X):
    """canonical_eval_rows as it was before axis_rows: one
    axis_decompose(Multivector(x)) per row."""
    axes = [_reference_axis_decompose(Multivector(x)) for x in X]
    rs = np.array([r for _, r, _ in axes])
    omega = np.zeros_like(X)
    for row, (_, _, w) in enumerate(axes):
        if w is not None:
            omega[row] = w.c
    acc = np.zeros_like(X)
    for (a, b), c in C.terms.items():
        scalar = np.array([(x0 ** a) * ((-1.0) ** (b // 2)) * (r ** (b - (b % 2)))
                           for x0, r, _ in axes])
        if b % 2 == 0:
            term = 0.0 + scalar[:, None] * c.c
        else:
            factor = omega * (scalar * rs)[:, None]
            cs = np.broadcast_to(c.c, X.shape)
            term = (mv_mul_rows(factor, cs) if C.side == LEFT
                    else mv_mul_rows(cs, factor))
        acc = acc + term
    return acc


def _signed_zero_coeff(rng):
    c = rng.normal(size=32)
    c[rng.choice(32, 12, replace=False)] = 0.0
    c[rng.choice(32, 12, replace=False)] = -0.0
    return Multivector(c)


def _points(rng):
    axis = [Multivector.scalar(0.4), Multivector.scalar(-0.0), ZERO,
            Multivector([0.3] + [-0.0] * 31)]
    off_axis = [Multivector.paravector(*(rng.normal(size=6) * 0.5))
                for _ in range(4)]
    return axis + off_axis + [Multivector.paravector(-0.0, 0.0, -0.7)]


@pytest.mark.parametrize("side", SIDES)
def test_canonical_eval_equals_the_reference_scalar_body(side):
    rng = np.random.default_rng(5)
    polys = [
        to_canonical(SlicePolynomial([_signed_zero_coeff(rng) for _ in range(6)],
                                     side)),
        CanonicalPoly({(0, 1): _signed_zero_coeff(rng),
                       (2, 3): _signed_zero_coeff(rng),
                       (1, 0): _signed_zero_coeff(rng)}, side),
        CanonicalPoly(side=side),
    ]
    points = _points(rng)
    X = np.array([x.c for x in points])
    for C in polys:
        want = [_reference_canonical_eval(C, x).c.tobytes() for x in points]
        assert [canonical_eval(C, x).c.tobytes() for x in points] == want
        assert [row.tobytes() for row in canonical_eval_rows(C, X)] == want
        paravectors = _axial_rows(500, rng)[:, list(PARAVECTOR_MASKS)]
        Y = np.zeros((500, 32))
        Y[:, list(PARAVECTOR_MASKS)] = paravectors
        assert (canonical_eval_rows(C, Y).tobytes()
                == _reference_canonical_eval_rows(C, Y).tobytes())


# The complement table as it was written out before it was derived from
# TAG_WORDS.
REFERENCE_TAG_COMPLEMENTS = {
    "AM": ("Delta", "Delta"), "AH": ("Delta", "D"), "ABH": ("D",),
    "ACH1": ("Delta",), "AntiACH1": ("D", "D"), "AP2": ("Delta", "Dbar"),
    "AP3": ("Dbar", "Dbar"), "APC12": ("Dbar",),
}


def test_tag_complements_are_the_literal_table_word_for_word():
    assert list(TAG_COMPLEMENTS.items()) == list(
        REFERENCE_TAG_COMPLEMENTS.items())
