import itertools

import numpy as np
import pytest

from conftest import make_voiced
from riskshrink.audio import generate_white_noise, mix_at_snr
from riskshrink.metrics import (
    SNR_CAP_DB,
    SpanScorer,
    gain_report,
    global_snr_db,
    segmental_snr_db,
)
from riskshrink.pipeline import DenoiserConfig, denoise_kinds, denoise_spans
from riskshrink.shrinkage import ShrinkageKind


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


@pytest.mark.parametrize("seg_len", [320.5, 320.0, "320", None, 0, -320])
def test_both_scorers_refuse_a_seg_len_that_is_not_a_positive_integer(seg_len):
    clean = np.sin(np.linspace(0.0, 100.0, 3200))
    noisy = clean + 0.1
    with pytest.raises(ValueError, match="seg_len must be a positive integer"):
        segmental_snr_db(clean, noisy, seg_len)
    with pytest.raises(ValueError, match="seg_len must be a positive integer"):
        SpanScorer(clean, noisy[None], seg_len, 1)
    # a numpy integer is an integer
    assert segmental_snr_db(clean, noisy, np.int64(320)) == segmental_snr_db(clean, noisy, 320)


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


# ---------------------------------------------------------------------------
# SpanScorer: gain_report of outputs that arrive span by span
# ---------------------------------------------------------------------------

# The scorer sums the output's squared error segment by segment, where
# global_snr_db sums it over the whole signal at once: the same terms in
# another order.  That moves the error energy by a few units in its last
# place, and so the output global SNR by a few 1e-15 dB whatever its size
# (3.6e-15 dB at most over the benchmark's evaluate inputs): a few ulps of a
# 10 dB value.
_GLOBAL_SNR_TOL_DB = 8 * np.spacing(10.0)


def _assert_scores_equal(got, want):
    assert got.input_snr_db == want.input_snr_db
    assert got.input_ssnr_db == want.input_ssnr_db
    assert got.output_ssnr_db == want.output_ssnr_db
    assert got.ssnr_gain_db == want.ssnr_gain_db
    assert abs(got.output_snr_db - want.output_snr_db) <= _GLOBAL_SNR_TOL_DB
    assert got.snr_gain_db == got.output_snr_db - got.input_snr_db


@pytest.mark.parametrize("rate", [8000, 11025, 22050])
def test_span_scorer_equals_gain_report_of_denoise_kinds(rate):
    # spans of 16 hops end inside a segment at 11025 and 22050 Hz (441- and
    # 882-sample segments, hops of 110 and 220), so segments straddle spans;
    # the clean signal's silent lead-in gives zero-energy segments, and its
    # length leaves a partial tail segment
    clean = make_voiced(rate, 2.01)
    noise = generate_white_noise(len(clean) + rate, 0.05, seed=50, sample_rate=rate)
    cfg = DenoiserConfig(sample_rate=rate)
    assert len(clean) % cfg.frame_len and not np.any(clean.samples[: cfg.frame_len])
    noisy = np.stack([
        mix_at_snr(clean, noise, snr_db, seed_offset=seed).samples
        for snr_db, seed in itertools.product((0.0, 5.0, 10.0), (0, 1))
    ])
    kinds = list(ShrinkageKind)
    scorer = SpanScorer(clean.samples, noisy, cfg.frame_len, len(kinds))
    for lo, span in denoise_spans(noisy, cfg, kinds):
        scorer.add(lo, span)
    reports = scorer.reports()
    out = denoise_kinds(noisy, cfg, kinds)
    for k in range(len(kinds)):
        for i in range(noisy.shape[0]):
            want = gain_report(clean.samples, noisy[i], out[k, i], cfg.frame_len)
            _assert_scores_equal(reports[k][i], want)


def test_span_scorer_at_any_split_and_at_the_cap():
    # an output equal to clean scores the 100 dB cap and 35 dB per segment;
    # random span lengths put segment edges anywhere, several per span or none
    rng = np.random.default_rng(51)
    seg_len, n = 320, 320 * 12 + 77
    clean = rng.standard_normal(n)
    clean[320:640] = 0.0  # one zero-energy segment
    noisy = clean + 0.3 * rng.standard_normal((2, n))
    outputs = np.stack([np.broadcast_to(clean, (2, n)), 0.5 * noisy, noisy])
    scorer = SpanScorer(clean, noisy, seg_len, len(outputs))
    lo = 0
    while lo < n:
        hi = min(n, lo + int(rng.integers(1, 3 * seg_len)))
        scorer.add(lo, outputs[..., lo:hi].copy())
        lo = hi
    reports = scorer.reports()
    for k in range(len(outputs)):
        for i in range(2):
            _assert_scores_equal(
                reports[k][i], gain_report(clean, noisy[i], outputs[k, i], seg_len)
            )
    assert reports[0][0].output_snr_db == SNR_CAP_DB
    assert reports[0][1].output_ssnr_db == 35.0


def test_span_scorer_takes_spans_in_order_and_to_the_end():
    clean = np.ones(1000)
    scorer = SpanScorer(clean, clean[None] + 0.1, 100, 1)
    scorer.add(0, np.ones((1, 1, 400)))
    with pytest.raises(ValueError, match="starts at sample 500, expected 400"):
        scorer.add(500, np.ones((1, 1, 100)))
    with pytest.raises(ValueError, match="scored 400 of 1000 samples"):
        scorer.reports()
    with pytest.raises(ValueError, match="past the end"):
        scorer.add(400, np.ones((1, 1, 601)))
