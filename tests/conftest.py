import pytest

from finestruct import fueter_ops, kernels


@pytest.fixture(autouse=True)
def _cold_series_memos():
    """Start every test with the shared series memos empty, as when it runs
    alone.

    word_image_terms memoises tables built from word_image's images, and
    kernels._inverse_powers the powers s^(-1-m) of the last (s, N); both
    resolvent and kernel series read them, so a memo left by an earlier
    test would let a test that counts word_image, paravector_inverse or
    mv_mul calls build a series without making them."""
    fueter_ops.word_image_terms.cache_clear()
    kernels._inverse_powers.cache_clear()
