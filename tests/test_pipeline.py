import hashlib
import re

import numpy as np
import pytest

from riskshrink.audio import generate_white_noise, mix_at_snr, read_wav, write_wav
from riskshrink.metrics import global_snr_db
from riskshrink import pipeline
from riskshrink.pipeline import DenoiserConfig, denoise, denoise_file, denoise_kinds
from riskshrink.shrinkage import ShrinkageKind


def test_config_defaults_give_standard_geometry():
    cfg = DenoiserConfig()
    assert cfg.frame_len == 320
    assert cfg.hop == 80


@pytest.mark.parametrize(
    "kwargs",
    [
        {"frame_ms": 40.1},  # 320.8 samples
        {"overlap_fraction": 1.0},
        {"overlap_fraction": -0.1},
        {"alpha": 0.0},
        {"alpha": float("inf")},
        {"beta": 0.0},
        {"eta": 1.5},
        {"sample_rate": 0},
        {"init_noise_frames": 0},
        {"vad_hangover": -1},
        {"frame_ms": float("inf")},
        {"frame_ms": float("nan")},
        {"vad_threshold": float("nan")},
        {"vad_threshold": float("inf")},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        DenoiserConfig(**kwargs)


@pytest.mark.parametrize("rate, frame, hop", [(11025, 441, "110.25"), (22050, 882, "220.5")])
def test_fractional_hop_error_names_rate_and_frame(rate, frame, hop):
    with pytest.raises(
        ValueError,
        match=rf"sample_rate={rate} with frame_ms=40\.0 gives {frame}-sample frames, "
        rf"and a hop of {re.escape(hop)} samples",
    ):
        DenoiserConfig(sample_rate=rate)


def test_zero_input_gives_zero_output():
    out = denoise(np.zeros(4000), DenoiserConfig())
    assert out.shape == (4000,)
    assert np.all(out == 0.0)


def test_length_preserved():
    rng = np.random.default_rng(31)
    for n in (1120, 1121, 4000, 5003):
        out = denoise(0.1 * rng.standard_normal(n), DenoiserConfig())
        assert out.shape == (n,)


def test_too_short_signal_rejected():
    with pytest.raises(ValueError, match="too short"):
        denoise(np.zeros(1119), DenoiserConfig())  # minimum is 10*80 + 320


def test_non_finite_input_rejected():
    x = np.zeros(4000)
    x[100] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        denoise(x, DenoiserConfig())
    x[100] = np.inf
    with pytest.raises(ValueError):
        denoise(x, DenoiserConfig())


def test_non_mono_rejected():
    with pytest.raises(ValueError):
        denoise(np.zeros((2, 4000)), DenoiserConfig())
    # a single row is still 2-D: only denoise_kinds takes a batch
    with pytest.raises(ValueError, match="mono"):
        denoise(np.zeros((1, 4000)), DenoiserConfig())
    with pytest.raises(ValueError):
        denoise_kinds(np.zeros(4000), DenoiserConfig(), [ShrinkageKind.MSE])
    with pytest.raises(ValueError):
        denoise_kinds(np.zeros((1, 1, 4000)), DenoiserConfig(), [ShrinkageKind.MSE])


def test_determinism_bit_identical():
    rng = np.random.default_rng(32)
    x = 0.2 * rng.standard_normal(8000)
    cfg = DenoiserConfig(kind=ShrinkageKind.WCOSH)
    np.testing.assert_array_equal(denoise(x, cfg), denoise(x, cfg))


def test_unit_gain_hook_reduces_to_roundtrip(monkeypatch):
    monkeypatch.setattr(pipeline, "gain_array", lambda kind, xi, alpha: np.ones_like(xi))
    rng = np.random.default_rng(33)
    x = 0.3 * rng.standard_normal(4000)
    out = denoise(x, DenoiserConfig())
    interior = slice(320, x.shape[0] - 320)
    err = np.max(np.abs(out[interior] - x[interior]))
    assert err / np.max(np.abs(x[interior])) < 1e-6


def _lockstep_inputs(n):
    """Three noisy inputs of ``n`` samples with different noise draws, one of
    them behind a digital-silence lead-in."""
    rng = np.random.default_rng(40)
    t = np.arange(n) / 8000.0
    tone = 0.4 * np.sin(2 * np.pi * 440.0 * t) * (t > 0.15)
    rows = [tone + 0.05 * rng.standard_normal(n) for _ in range(3)]
    rows[1][:1200] = 0.0
    return np.stack(rows)


@pytest.mark.parametrize("n", [1120, 1121, 8003])  # minimum, one past it, off-hop
def test_lockstep_rows_equal_single_stream_denoise(n):
    kinds = list(ShrinkageKind)
    noisy = _lockstep_inputs(n)
    cfg = DenoiserConfig(alpha=1.3)
    out = denoise_kinds(noisy, cfg, kinds)
    assert out.shape == (len(kinds), 3, n)
    for k, kind in enumerate(kinds):
        for i in range(3):
            np.testing.assert_array_equal(
                out[k, i], denoise(noisy[i], DenoiserConfig(alpha=1.3, kind=kind))
            )


def test_lockstep_long_init_spans_blocks():
    # more initialization frames than one analysis block holds
    noisy = _lockstep_inputs(8000)
    cfg = DenoiserConfig(init_noise_frames=40, overlap_fraction=0.5)
    kinds = [ShrinkageKind.WCOSH, ShrinkageKind.MSE]
    out = denoise_kinds(noisy, cfg, kinds)
    for k, kind in enumerate(kinds):
        for i in range(3):
            np.testing.assert_array_equal(
                out[k, i], denoise(noisy[i], DenoiserConfig(
                    init_noise_frames=40, overlap_fraction=0.5, kind=kind))
            )


# sha256 of the raw float64 output of denoise_kinds, computed with numpy 2.4.6
# and scipy 1.17.1; another build may round the transforms differently.
_PINNED_SHA256 = {
    "default": "b0c465790fbf23eac7ac5b3a54d5f8ec096e9dfe92ecd77d976c113bb9106e85",
    "init20_overlap0.5": "de659e8e8541159627ca7a4a379093ab476563727d1d5715aaf4f19ec60e8c20",
    "init1": "cf654c85f31d83db09021a04e83b19dcadd0295f563ed4d6be97b2c95295608b",
}


@pytest.mark.parametrize(
    "case, overrides",
    [
        ("default", {}),
        # more initialization frames than one analysis block holds
        ("init20_overlap0.5", {"init_noise_frames": 20, "overlap_fraction": 0.5}),
        ("init1", {"init_noise_frames": 1}),
    ],
)
def test_output_bits_pinned(case, overrides, voiced_buffer):
    clean = voiced_buffer.samples[:12000]
    noisy = np.stack(
        [clean + generate_white_noise(12000, 0.05, seed=s).samples for s in (50, 51)]
    )
    noisy[1, :1600] = 0.0  # digital-silence lead-in
    out = denoise_kinds(noisy, DenoiserConfig(**overrides), list(ShrinkageKind))
    digest = hashlib.sha256(np.ascontiguousarray(out, dtype="<f8").tobytes()).hexdigest()
    assert digest == _PINNED_SHA256[case]


@pytest.mark.parametrize("kind", list(ShrinkageKind))
def test_extreme_amplitude_fuzz_no_nan(kind):
    rng = np.random.default_rng(34)
    x = np.sign(rng.standard_normal(3000))  # full-scale square noise
    x[:500] = 0.0
    out = denoise(x, DenoiserConfig(kind=kind))
    assert np.all(np.isfinite(out))


def test_noise_only_energy_shrinks():
    noise = generate_white_noise(8000, 0.1, seed=35)
    out = denoise(noise.samples, DenoiserConfig(kind=ShrinkageKind.MSE))
    assert np.sum(out**2) < np.sum(noise.samples**2)


def test_tone_in_noise_snr_improves():
    # 1 kHz tone at amplitude 0.5, gated off during the noise-only lead-in
    # the initializer relies on
    sr = 8000
    t = np.arange(3 * sr) / sr
    sig = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
    sig[t < 0.2] = 0.0
    from riskshrink.audio import AudioBuffer

    tone = AudioBuffer(sig, sr)
    noise = generate_white_noise(len(tone) + 4000, 1.0, seed=36)
    noisy, _ = mix_at_snr(tone, noise, 10.0, seed_offset=5)
    out = denoise(noisy.samples, DenoiserConfig(kind=ShrinkageKind.MSE))
    before = global_snr_db(tone.samples, noisy.samples)
    after = global_snr_db(tone.samples, out)
    assert after > before


def test_voiced_fixture_snr_improves(voiced_buffer):
    noise = generate_white_noise(len(voiced_buffer) + 4000, 1.0, seed=39)
    noisy, _ = mix_at_snr(voiced_buffer, noise, 10.0, seed_offset=5)
    out = denoise(noisy.samples, DenoiserConfig(kind=ShrinkageKind.MSE))
    before = global_snr_db(voiced_buffer.samples, noisy.samples)
    after = global_snr_db(voiced_buffer.samples, out)
    assert after > before


# ---------------------------------------------------------------------------
# file front-end
# ---------------------------------------------------------------------------


def test_denoise_file_silent_roundtrip(tmp_path):
    src = tmp_path / "silent.wav"
    dst = tmp_path / "out.wav"
    from riskshrink.audio import AudioBuffer

    write_wav(src, AudioBuffer(np.zeros(4000), 8000))
    summary = denoise_file(src, dst, DenoiserConfig())
    assert summary.speech_fraction == 0.0
    back = read_wav(dst)
    assert np.all(back.samples == 0.0)
    assert len(back) == 4000


def test_denoise_file_missing_input(tmp_path):
    dst = tmp_path / "out.wav"
    with pytest.raises(FileNotFoundError):
        denoise_file(tmp_path / "nope.wav", dst, DenoiserConfig())
    assert not dst.exists()


def test_denoise_file_speech_fixture(tmp_path, voiced_buffer):
    noise = generate_white_noise(len(voiced_buffer) + 4000, 1.0, seed=37)
    noisy, _ = mix_at_snr(voiced_buffer, noise, 10.0, seed_offset=6)
    src = tmp_path / "noisy.wav"
    dst = tmp_path / "clean.wav"
    write_wav(src, noisy)
    summary = denoise_file(src, dst, DenoiserConfig(kind=ShrinkageKind.IS))
    assert 0.0 < summary.speech_fraction < 1.0
    assert summary.frames > 0
    assert len(read_wav(dst)) == len(noisy)


def test_denoise_file_adopts_file_sample_rate(tmp_path):
    from riskshrink.audio import AudioBuffer

    rng = np.random.default_rng(38)
    src = tmp_path / "hi.wav"
    dst = tmp_path / "out.wav"
    write_wav(src, AudioBuffer(0.1 * rng.standard_normal(16000), 16000))
    summary = denoise_file(src, dst, DenoiserConfig())  # config says 8000
    assert summary.frames > 0
    assert read_wav(dst).sample_rate == 16000
