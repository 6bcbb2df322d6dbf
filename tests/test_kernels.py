import numpy as np
import pytest

from finestruct import fueter_ops
from finestruct.clifford_core import (
    Multivector,
    paravector_inverse,
    paravector_norm_sq,
)
from finestruct.errors import OutsideConvergenceDisk, SpectralSphereHit
from finestruct.fueter_ops import KIND_WORDS, apply_operator, fd_apply, word_image
from finestruct.kernels import (
    GAMMA_5,
    cauchy_kernel,
    f5_kernel,
    fine_kernel,
    fine_kernel_series,
    fine_kernel_via_f5,
    inverse_power,
    p0_residual,
    pseudo_kernel,
)
from finestruct.slice_poly import (
    LEFT,
    RIGHT,
    SlicePolynomial,
    canonical_eval,
    to_canonical,
)

FINE_KINDS = ("D", "Delta", "DeltaD", "Dbar", "Dbar2", "D2", "DeltaDbar")
ALL_KINDS = FINE_KINDS + ("F5", "Cauchy")


def rand_pair(rng, ratio=0.4):
    s = Multivector.paravector(*(rng.normal(size=6)))
    s = s * (1.1 / np.sqrt(paravector_norm_sq(s)))
    x = Multivector.paravector(*(rng.normal(size=6)))
    x = x * (ratio * 1.1 / np.sqrt(paravector_norm_sq(x)))
    return s, x


def test_gamma_constant():
    assert GAMMA_5 == 64.0


def test_pseudo_kernel_inverse():
    rng = np.random.default_rng(1)
    s, x = rand_pair(rng)
    q = pseudo_kernel("commutative", s, x)
    one = Multivector.scalar(1.0)
    assert (q * inverse_power(q, 1) - one).norm_inf() < 1e-13


def test_inverse_power_rejects_negative_powers():
    s, x = rand_pair(np.random.default_rng(1))
    q = pseudo_kernel("commutative", s, x)
    assert inverse_power(q, 0) == Multivector.scalar(1.0)
    for k in (-1, -3):
        with pytest.raises(ValueError):
            inverse_power(q, k)


def test_cauchy_forms_agree():
    rng = np.random.default_rng(2)
    for _ in range(20):
        s, x = rand_pair(rng)
        for side in (LEFT, RIGHT):
            assert (cauchy_kernel(side, "I", s, x)
                    - cauchy_kernel(side, "II", s, x)).norm_inf() < 1e-12


def test_scalar_point_values():
    # s = 3, x = 1 on the real axis: Q = 4, so e.g. the F5 kernel is
    # 64 (s - x) Q^{-3} = 64 * 2 / 64 = 2.
    s = Multivector.scalar(3.0)
    x = Multivector.scalar(1.0)
    assert (f5_kernel(LEFT, s, x) - Multivector.scalar(2.0)).norm_inf() == 0.0
    # D kernel -4 Q^{-1} = -1
    assert (fine_kernel("D", LEFT, s, x)
            - Multivector.scalar(-1.0)).norm_inf() == 0.0
    # D2 kernel 8 (x - s) Q^{-2} = -1
    assert (fine_kernel("D2", LEFT, s, x)
            - Multivector.scalar(-1.0)).norm_inf() == 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_series_matches_closed_form(kind):
    rng = np.random.default_rng(3)
    for _ in range(3):
        s, x = rand_pair(rng, ratio=0.3)
        for side in (LEFT, RIGHT):
            closed = fine_kernel(kind, side, s, x)
            series = fine_kernel_series(kind, side, s, x, 60)
            assert (series - closed).norm_inf() < 1e-10 * max(
                1.0, closed.norm_inf())


def _canonical_series(kind, side, s, x, N):
    """The series through Clifford-coefficient canonical images of x^m."""
    s_inv = paravector_inverse(s)
    acc, s_pow = Multivector(), s_inv
    for m in range(N + 1):
        C = to_canonical(SlicePolynomial.monomial(m, 1.0, side))
        for letter in reversed(KIND_WORDS[kind]):
            C = apply_operator(letter, C)
        value = canonical_eval(C, x)
        acc = acc + (value * s_pow if side == LEFT else s_pow * value)
        s_pow = s_pow * s_inv
    return acc


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_series_matches_canonical_image_reference(kind):
    rng = np.random.default_rng(9)
    s, x = rand_pair(rng, ratio=0.3)
    for xx in (x, Multivector.scalar(0.35)):  # generic and on the real axis
        for side in (LEFT, RIGHT):
            ref = _canonical_series(kind, side, s, xx, 40)
            got = fine_kernel_series(kind, side, s, xx, 40)
            assert (got - ref).norm_inf() <= 1e-14 * ref.norm_inf()


def test_series_reuses_memoised_images(monkeypatch):
    # The images of x^m are built once per word; a second series of the
    # same kind, even on the other side, applies no letter at all.
    letters = 0
    int_letter = fueter_ops._int_letter

    def counting(letter, terms):
        nonlocal letters
        letters += 1
        return int_letter(letter, terms)

    monkeypatch.setattr(fueter_ops, "_int_letter", counting)
    word_image.cache_clear()
    s, x = rand_pair(np.random.default_rng(10), ratio=0.3)
    fine_kernel_series("DeltaD", LEFT, s, x, 30)
    assert letters > 0
    letters, misses = 0, word_image.cache_info().misses
    fine_kernel_series("DeltaD", RIGHT, s, x, 30)
    assert letters == 0
    assert word_image.cache_info().misses == misses


@pytest.mark.parametrize("kind", FINE_KINDS)
def test_f5_combination_matches_closed_form(kind):
    rng = np.random.default_rng(4)
    for _ in range(5):
        s, x = rand_pair(rng)
        for side in (LEFT, RIGHT):
            assert (fine_kernel_via_f5(kind, side, s, x)
                    - fine_kernel(kind, side, s, x)).norm_inf() < 1e-11


def test_fd_oracle_on_d_kernel():
    rng = np.random.default_rng(5)
    s, x = rand_pair(rng)
    fd = fd_apply(KIND_WORDS["D"],
                  lambda y: cauchy_kernel(LEFT, "II", s, y), x, h=1e-3)
    assert (fd - fine_kernel("D", LEFT, s, x)).norm_inf() < 1e-6


def test_p0_identity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        s, x = rand_pair(rng)
        assert p0_residual(s, x).norm_inf() < 1e-11


def test_one_sided_kinds_coincide():
    rng = np.random.default_rng(7)
    s, x = rand_pair(rng)
    for kind in ("D", "DeltaD"):
        assert (fine_kernel(kind, LEFT, s, x)
                - fine_kernel(kind, RIGHT, s, x)).norm_inf() < 1e-13


def test_sphere_guard():
    s = Multivector.paravector(0.5, 1.0)
    x = Multivector.paravector(0.5, 0.0, 1.0)  # same sphere as s
    with pytest.raises(SpectralSphereHit):
        fine_kernel("Delta", LEFT, s, x)


def test_series_divergence_guard():
    s = Multivector.scalar(1.0)
    x = Multivector.scalar(2.0)
    with pytest.raises(OutsideConvergenceDisk):
        fine_kernel_series("D", LEFT, s, x, 10)
