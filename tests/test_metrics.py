import numpy as np
import pytest

from riskshrink.metrics import (
    SNR_CAP_DB,
    gain_report,
    global_snr_db,
    segmental_snr_db,
)


def test_global_snr_zero_db_when_error_equals_signal():
    clean = np.sin(np.linspace(0, 20, 1000))
    assert global_snr_db(clean, 2.0 * clean) == pytest.approx(0.0, abs=1e-12)
    assert global_snr_db(clean, np.zeros_like(clean)) == pytest.approx(0.0, abs=1e-12)


def test_global_snr_cap_on_identical_signals():
    clean = np.ones(100)
    assert global_snr_db(clean, clean.copy()) == SNR_CAP_DB


def test_global_snr_validation():
    with pytest.raises(ValueError):
        global_snr_db(np.ones(10), np.ones(11))
    with pytest.raises(ValueError):
        global_snr_db(np.zeros(10), np.ones(10))


def test_segmental_snr_ceiling():
    clean = np.sin(np.linspace(0, 50, 1600))
    assert segmental_snr_db(clean, clean.copy(), 320) == pytest.approx(35.0)


def test_segmental_snr_zero_db_everywhere():
    clean = np.sin(np.linspace(0, 50, 1600))
    assert segmental_snr_db(clean, 2.0 * clean, 320) == pytest.approx(0.0, abs=1e-12)


def test_segmental_snr_clamp_then_average():
    # two segments: one at -30 dB (clamped to -10), one at exactly 0 dB
    seg = np.ones(320)
    clean = np.concatenate([seg, seg])
    err1 = np.sqrt(1000.0) * seg  # -30 dB
    err2 = seg  # 0 dB
    test = clean + np.concatenate([err1, err2])
    assert segmental_snr_db(clean, test, seg_len=320) == pytest.approx(-5.0, abs=1e-12)


def test_segmental_snr_skips_silent_segments():
    clean = np.concatenate([np.zeros(320), np.ones(320)])
    test = clean + np.concatenate([np.ones(320), np.ones(320)])
    # first segment has no clean energy and must not contribute
    assert segmental_snr_db(clean, test, seg_len=320) == pytest.approx(0.0, abs=1e-12)


def test_segmental_snr_bounds_hold():
    rng = np.random.default_rng(28)
    clean = rng.standard_normal(3200)
    wild = clean + 1e6 * rng.standard_normal(3200)
    close = clean + 1e-9 * rng.standard_normal(3200)
    assert segmental_snr_db(clean, wild, 320) >= -10.0
    assert segmental_snr_db(clean, close, 320) <= 35.0


def test_segmental_snr_validation():
    with pytest.raises(ValueError):
        segmental_snr_db(np.zeros(640), np.ones(640), 320)
    with pytest.raises(ValueError):
        segmental_snr_db(np.ones(640), np.ones(640), seg_len=0)


def test_gain_report_zero_when_denoised_is_noisy():
    rng = np.random.default_rng(29)
    clean = np.sin(np.linspace(0, 100, 3200))
    noisy = clean + 0.1 * rng.standard_normal(3200)
    rep = gain_report(clean, noisy, noisy.copy(), 320)
    assert rep.snr_gain_db == 0.0
    assert rep.ssnr_gain_db == 0.0


def test_gain_report_perfect_denoiser():
    rng = np.random.default_rng(30)
    clean = np.sin(np.linspace(0, 100, 3200))
    noisy = clean + 0.1 * rng.standard_normal(3200)
    rep = gain_report(clean, noisy, clean.copy(), 320)
    assert rep.output_snr_db == SNR_CAP_DB
    assert rep.output_ssnr_db == pytest.approx(35.0)
    assert rep.snr_gain_db == rep.output_snr_db - rep.input_snr_db
    assert rep.ssnr_gain_db == rep.output_ssnr_db - rep.input_ssnr_db


def _segmental_snr_loop(clean, test, seg_len):
    """Segment-by-segment reference for ``segmental_snr_db``."""
    values = []
    for i in range(clean.shape[0] // seg_len):
        s = clean[i * seg_len : (i + 1) * seg_len]
        t = test[i * seg_len : (i + 1) * seg_len]
        p_signal = float(np.sum(s**2))
        if p_signal == 0.0:
            continue
        p_error = float(np.sum((s - t) ** 2))
        if p_error == 0.0:
            values.append(35.0)
        else:
            snr = 10.0 * np.log10(p_signal / p_error)
            values.append(min(max(snr, -10.0), 35.0))
    return float(np.mean(values))


@pytest.mark.parametrize("seg_len", [160, 320, 640])
def test_segmental_snr_matches_loop_reference_bitwise(seg_len):
    rng = np.random.default_rng(seg_len)
    for _ in range(60):
        n = int(rng.integers(seg_len, 30 * seg_len))
        clean = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 1)
        clean[: int(rng.integers(0, n // 2 + 1))] = 0.0  # silent lead-in
        clean[seg_len * (n // seg_len) - 1] = 0.5  # last whole segment voiced
        test = clean + rng.standard_normal(n) * 10.0 ** rng.uniform(-7, 1)
        exact = int(rng.integers(0, n // seg_len))
        test[exact * seg_len : (exact + 1) * seg_len] = clean[
            exact * seg_len : (exact + 1) * seg_len
        ]
        assert segmental_snr_db(clean, test, seg_len) == _segmental_snr_loop(
            clean, test, seg_len
        )


def test_segmental_snr_needs_a_voiced_whole_segment():
    clean = np.zeros(700)
    clean[650] = 1.0  # energy only in the incomplete tail
    with pytest.raises(ValueError, match="no segment has nonzero clean energy"):
        segmental_snr_db(clean, np.ones(700), seg_len=320)
