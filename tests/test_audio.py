import struct
import wave

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import write_overlong_fmt_wav, write_pcm16_wav
from riskshrink.audio import (
    AudioBuffer,
    WavFormatError,
    generate_white_noise,
    mix_at_snr,
    read_wav,
    write_wav,
)


def _write_raw(path, ints, channels=1, sampwidth=2, rate=8000):
    with wave.open(str(path), "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(sampwidth)
        w.setframerate(rate)
        payload = b"".join(struct.pack("<h", v) for v in ints)
        w.writeframes(payload)


# ---------------------------------------------------------------------------
# read / write
# ---------------------------------------------------------------------------


def test_read_fixed_point_scaling(tmp_path):
    path = tmp_path / "three.wav"
    _write_raw(path, [0, 16384, -32768])
    buf = read_wav(path)
    np.testing.assert_array_equal(buf.samples, [0.0, 0.5, -1.0])
    assert buf.sample_rate == 8000


def test_write_is_inverse_of_read(tmp_path):
    path = tmp_path / "inv.wav"
    write_wav(path, AudioBuffer(np.array([0.0, 0.5, -1.0]), 8000))
    with wave.open(str(path), "rb") as w:
        raw = w.readframes(w.getnframes())
    assert np.frombuffer(raw, dtype="<i2").tolist() == [0, 16384, -32768]


def test_stereo_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    _write_raw(path, [0, 0, 100, 100], channels=2)
    with pytest.raises(WavFormatError, match="mono"):
        read_wav(path)


def test_wrong_sample_width_rejected(tmp_path):
    path = tmp_path / "w8.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(8000)
        w.writeframes(b"\x00\x10\x20")
    with pytest.raises(WavFormatError, match="16-bit"):
        read_wav(path)


def test_header_only_file_is_empty_buffer(tmp_path):
    path = tmp_path / "empty.wav"
    _write_raw(path, [])
    buf = read_wav(path)
    assert len(buf) == 0


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "garbage.wav"
    path.write_bytes(b"RIFFxxxx")  # truncated header
    with pytest.raises(WavFormatError):
        read_wav(path)


@pytest.mark.parametrize(
    "dropped, message",
    [(1, "ends mid-sample"), (2, "holds 2 of the 3 samples")],
    ids=["1", "2"],
)
def test_data_ending_mid_sample_rejected(tmp_path, dropped, message):
    # one byte cuts the last sample in half; two remove it whole
    path = tmp_path / "cut.wav"
    _write_raw(path, [1, 2, 3])
    path.write_bytes(path.read_bytes()[:-dropped])
    with pytest.raises(WavFormatError, match=rf"cut\.wav.*{message}"):
        read_wav(path)


def test_chunk_past_the_riff_end_rejected(tmp_path):
    # wave itself raises a message-less RuntimeError on this file
    path = tmp_path / "long_fmt.wav"
    write_overlong_fmt_wav(path)
    with pytest.raises(WavFormatError, match=r"long_fmt\.wav: .*past the end"):
        read_wav(path)


@pytest.fixture(scope="module")
def valid_wav(tmp_path_factory):
    """A path to overwrite and the 52 bytes of a valid 4-sample file."""
    path = tmp_path_factory.mktemp("corrupt") / "corrupt.wav"
    write_pcm16_wav(path, [0, 1, -1, 0], 8000)
    return path, path.read_bytes()


@given(
    edits=st.lists(st.tuples(st.integers(0, 43), st.integers(0, 255)), max_size=4),
    cut=st.integers(0, 52),
)
def test_corrupt_header_is_read_or_refused(valid_wav, edits, cut):
    path, valid = valid_wav
    raw = bytearray(valid)
    for pos, value in edits:
        raw[pos] = value
    path.write_bytes(bytes(raw[: len(raw) - cut]))
    try:
        read_wav(path)
    except WavFormatError:
        pass


def test_zero_sample_rate_rejected(tmp_path):
    # the same hand-built header reads at any other rate
    path = tmp_path / "zero_rate.wav"
    write_pcm16_wav(path, [0, 16384, -32768], 11025)
    buf = read_wav(path)
    np.testing.assert_array_equal(buf.samples, [0.0, 0.5, -1.0])
    assert buf.sample_rate == 11025
    write_pcm16_wav(path, [0, 16384, -32768], 0)
    with pytest.raises(WavFormatError, match=r"zero_rate\.wav: .*sample rate is 0"):
        read_wav(path)


def test_clipping_on_write(tmp_path):
    path = tmp_path / "clip.wav"
    write_wav(path, AudioBuffer(np.array([1.5, -1.5]), 8000))
    with wave.open(str(path), "rb") as w:
        vals = np.frombuffer(w.readframes(2), dtype="<i2")
    assert vals.tolist() == [32767, -32768]


def test_round_half_away_from_zero(tmp_path):
    path = tmp_path / "round.wav"
    write_wav(path, AudioBuffer(np.array([1.5, -1.5, 0.5, -0.5]) / 32768.0, 8000))
    with wave.open(str(path), "rb") as w:
        vals = np.frombuffer(w.readframes(4), dtype="<i2")
    assert vals.tolist() == [2, -2, 1, -1]


def test_roundtrip_exact_on_quantized_grid(tmp_path):
    rng = np.random.default_rng(23)
    ints = rng.integers(-32768, 32768, size=4096)
    samples = ints / 32768.0
    path = tmp_path / "grid.wav"
    write_wav(path, AudioBuffer(samples, 8000))
    back = read_wav(path)
    np.testing.assert_array_equal(back.samples, samples)


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------


def _tone(n=4000, sr=8000):
    t = np.arange(n) / sr
    return AudioBuffer(0.3 * np.sin(2 * np.pi * 440 * t), sr)


def test_mix_power_ratio_exact():
    clean = _tone()
    noise = generate_white_noise(len(clean) + 1000, 0.1, seed=24)
    for snr in (0.0, 10.0, -5.0):
        noisy, scaled = mix_at_snr(clean, noise, snr, seed_offset=1)
        p_clean = np.sum(clean.samples**2)
        p_noise = np.sum(scaled.samples**2)
        assert 10.0 * np.log10(p_clean / p_noise) == pytest.approx(snr, abs=1e-9)
        np.testing.assert_allclose(noisy.samples, clean.samples + scaled.samples)


def test_mix_same_buffer_unit_gain():
    clean = _tone()
    noisy, scaled = mix_at_snr(clean, clean, 0.0, seed_offset=0)
    np.testing.assert_allclose(scaled.samples, clean.samples, rtol=1e-12)
    np.testing.assert_allclose(noisy.samples, 2.0 * clean.samples, rtol=1e-12)


def test_mix_segment_choice_is_seeded():
    clean = _tone(2000)
    noise = generate_white_noise(10000, 0.1, seed=25)
    a1, _ = mix_at_snr(clean, noise, 10.0, seed_offset=3)
    a2, _ = mix_at_snr(clean, noise, 10.0, seed_offset=3)
    b, _ = mix_at_snr(clean, noise, 10.0, seed_offset=4)
    np.testing.assert_array_equal(a1.samples, a2.samples)
    assert not np.array_equal(a1.samples, b.samples)


def test_mix_validation():
    clean = _tone(1000)
    with pytest.raises(ValueError, match="sample rates"):
        mix_at_snr(clean, AudioBuffer(np.ones(2000), 16000), 0.0, 0)
    with pytest.raises(ValueError, match="shorter"):
        mix_at_snr(clean, AudioBuffer(np.ones(10), 8000), 0.0, 0)
    with pytest.raises(ValueError, match="zero power"):
        mix_at_snr(AudioBuffer(np.zeros(100), 8000), AudioBuffer(np.ones(100), 8000), 0.0, 0)
    with pytest.raises(ValueError, match="zero power"):
        mix_at_snr(_tone(100), AudioBuffer(np.zeros(100), 8000), 0.0, 0)


@pytest.mark.parametrize("snr_db", [np.inf, -np.inf, np.nan, 1e308, -1e308])
def test_mix_rejects_unusable_snr(snr_db):
    # the power ratio 10**(snr_db/10) is infinite, zero or NaN
    with pytest.raises(ValueError, match="noise scale"):
        mix_at_snr(_tone(1000), _tone(1000), snr_db, 0)


# ---------------------------------------------------------------------------
# noise generation
# ---------------------------------------------------------------------------


def test_white_noise_moments():
    buf = generate_white_noise(1_000_000, 0.1, seed=26)
    assert abs(np.mean(buf.samples)) < 5e-4
    assert np.var(buf.samples) == pytest.approx(0.01, rel=0.01)


def test_white_noise_deterministic():
    a = generate_white_noise(1000, 1.0, seed=27)
    b = generate_white_noise(1000, 1.0, seed=27)
    np.testing.assert_array_equal(a.samples, b.samples)
