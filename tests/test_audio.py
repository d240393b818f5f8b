import re
import struct
import tracemalloc
import wave

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    IEEE_FLOAT_GUID,
    PCM_GUID,
    list_chunk,
    write_overlong_fmt_wav,
    write_pcm16_wav,
)
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


@pytest.mark.parametrize("rate", [2**31, 3_000_000_000, 2**32 - 1])
def test_rate_beyond_the_byte_rate_field_rejected(tmp_path, rate):
    # the byte-rate field holds 2 * rate in 32 bits: 2**31 - 1 Hz is the last
    # rate a file can state consistently, and the last one write_wav takes
    path = tmp_path / "fast.wav"
    write_pcm16_wav(path, [0, 16384], 2**31 - 1)
    assert read_wav(path).sample_rate == 2**31 - 1
    write_pcm16_wav(path, [0, 16384], rate)
    with pytest.raises(WavFormatError, match=rf"fast\.wav: .*sample rate is {rate} Hz"):
        read_wav(path)


def test_declared_size_beyond_the_file_is_refused_without_reading_it(tmp_path):
    # a 60-byte file whose RIFF and data chunks claim about 4 GiB, as a
    # streaming writer that never patched its header leaves them: the read is
    # bounded by the 8 data bytes the file holds, not by the declared size
    path = tmp_path / "huge.wav"
    write_pcm16_wav(path, [0, 1, -1, 0], 8000, chunks=b"JUNK" + struct.pack("<I", 0))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 0xFFFFFFFF)
    raw[48:52] = struct.pack("<I", 0xFFFFFFF0)
    path.write_bytes(bytes(raw))
    assert len(raw) == 60
    tracemalloc.start()
    try:
        with pytest.raises(WavFormatError, match=r"huge\.wav: truncated file, .* holds 4 of"):
            read_wav(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_extensible_pcm_reads_back_exactly(tmp_path):
    path = tmp_path / "ext.wav"
    write_pcm16_wav(path, [0, 16384, -32768, 7], 22050, subformat=PCM_GUID)
    buf = read_wav(path)
    np.testing.assert_array_equal(buf.samples, np.array([0, 16384, -32768, 7]) / 32768.0)
    assert buf.sample_rate == 22050


def test_extensible_float_rejected(tmp_path):
    path = tmp_path / "float.wav"
    write_pcm16_wav(path, [0, 16384, -32768, 7], 22050, subformat=IEEE_FLOAT_GUID)
    with pytest.raises(WavFormatError, match=r"float\.wav: "):
        read_wav(path)


def test_odd_sized_chunk_is_skipped_with_its_pad_byte(tmp_path):
    path = tmp_path / "list.wav"
    write_pcm16_wav(path, [3, -3, 32767], 16000, chunks=list_chunk(b"INFOabc"))
    buf = read_wav(path)
    np.testing.assert_array_equal(buf.samples, np.array([3, -3, 32767]) / 32768.0)
    assert buf.sample_rate == 16000


def _wave_read_wav(path) -> AudioBuffer:
    """``read_wav`` as it was built on the standard library's ``wave``: the
    reference that the chunk walker is checked against."""
    try:
        reader = wave.open(str(path), "rb")
    except (wave.Error, EOFError, RuntimeError):
        raise WavFormatError(path) from None
    with reader:
        if (reader.getnchannels(), reader.getsampwidth(), reader.getcomptype()) != (
            1, 2, "NONE"
        ) or reader.getframerate() == 0:
            raise WavFormatError(path)
        rate, declared = reader.getframerate(), reader.getnframes()
        raw = reader.readframes(declared)
    if len(raw) != 2 * declared:
        raise WavFormatError(path)
    return AudioBuffer(np.frombuffer(raw, dtype="<i2") / 32768.0, rate)


@pytest.fixture(scope="module")
def oracle_wavs(tmp_path_factory):
    """A path to overwrite, and the bytes of two valid files: four samples,
    and three behind an odd-sized ``LIST`` chunk and its pad byte."""
    path = tmp_path_factory.mktemp("oracle") / "mutant.wav"
    valid = []
    for ints, chunks in (([0, 1, -1, 0], b""), ([5, -7, 300], list_chunk(b"abc"))):
        write_pcm16_wav(path, ints, 11025, chunks=chunks)
        valid.append(path.read_bytes())
    return path, valid


@settings(max_examples=1000)
@given(data=st.data())
def test_read_matches_the_wave_reader_on_corrupt_files(oracle_wavs, data):
    path, valid = oracle_wavs
    raw = bytearray(data.draw(st.sampled_from(valid)))
    edits = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255))
    for pos, value in data.draw(st.lists(edits, max_size=4)):
        raw[pos] = value
    path.write_bytes(bytes(raw[: len(raw) - data.draw(st.integers(0, len(raw)))]))
    try:
        expected = _wave_read_wav(path)
    except WavFormatError:
        expected = None
    # The one exemption: wave reads a rate above 2**31 - 1 Hz, which the
    # byte-rate field cannot hold and read_wav refuses.
    if expected is None or expected.sample_rate > 2**31 - 1:
        with pytest.raises(WavFormatError, match=re.escape(f"{path}: ")):
            read_wav(path)
    else:
        buf = read_wav(path)
        assert buf.sample_rate == expected.sample_rate
        assert buf.samples.tobytes() == expected.samples.tobytes()


@pytest.mark.parametrize("rate", [0, -8000, 2**31])
def test_write_refuses_a_rate_the_header_cannot_hold(tmp_path, rate):
    path = tmp_path / "o.wav"
    with pytest.raises(ValueError, match="sample rate"):
        write_wav(path, AudioBuffer(np.zeros(4), rate))
    assert not path.exists()


@pytest.mark.parametrize("rate", [1, 8000, 11025, 16000, 44100, 2**31 - 1])
def test_write_matches_the_wave_writer(tmp_path, rate):
    rng = np.random.default_rng(29)
    ours, ref = tmp_path / "ours.wav", tmp_path / "ref.wav"
    for n in (0, 1, 3, 4096, 320_000):
        ints = rng.integers(-32768, 32768, size=n)
        write_wav(ours, AudioBuffer(ints / 32768.0, rate))
        with wave.open(str(ref), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(rate)
            w.writeframes(ints.astype("<i2").tobytes())
        assert ours.read_bytes() == ref.read_bytes(), n


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
