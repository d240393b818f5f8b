"""Mono PCM-16 WAV ingestion/emission and noisy-mixture synthesis."""

import wave
from dataclasses import dataclass

import numpy as np

_FULL_SCALE = 32768.0


class WavFormatError(Exception):
    """File is not in the supported mono 16-bit PCM WAV subset."""


@dataclass(frozen=True)
class AudioBuffer:
    samples: np.ndarray
    sample_rate: int

    def __len__(self) -> int:
        return self.samples.shape[0]


def read_wav(path) -> AudioBuffer:
    """Read a mono PCM-16 WAV file; samples are ``int16 / 32768`` exactly."""
    try:
        reader = wave.open(str(path), "rb")
    except wave.Error as exc:
        raise WavFormatError(f"{path}: not a readable RIFF/WAVE file ({exc})") from exc
    except EOFError:
        raise WavFormatError(f"{path}: truncated RIFF header") from None
    except RuntimeError:
        # wave raises a bare RuntimeError when a chunk's declared size would
        # skip past the end of the RIFF chunk that holds it.
        raise WavFormatError(
            f"{path}: a chunk's declared size runs past the end of the RIFF chunk"
        ) from None
    with reader:
        if reader.getnchannels() != 1:
            raise WavFormatError(
                f"{path}: only mono is supported, file has "
                f"{reader.getnchannels()} channels"
            )
        if reader.getsampwidth() != 2:
            raise WavFormatError(
                f"{path}: only 16-bit PCM is supported, sample width is "
                f"{reader.getsampwidth()} bytes"
            )
        if reader.getcomptype() != "NONE":
            raise WavFormatError(f"{path}: compressed WAV is not supported")
        rate = reader.getframerate()
        if rate == 0:
            raise WavFormatError(f"{path}: the header's sample rate is 0 Hz")
        declared = reader.getnframes()
        raw = reader.readframes(declared)
    if len(raw) % 2:
        raise WavFormatError(f"{path}: truncated file, the data ends mid-sample")
    if len(raw) // 2 < declared:
        raise WavFormatError(
            f"{path}: truncated file, the data holds {len(raw) // 2} of the "
            f"{declared} samples the header declares"
        )
    ints = np.frombuffer(raw, dtype="<i2")
    return AudioBuffer(samples=ints.astype(np.float64) / _FULL_SCALE, sample_rate=rate)


def write_wav(path, buffer: AudioBuffer) -> None:
    """Write mono PCM-16, rounding half away from zero and clipping."""
    x = np.asarray(buffer.samples, dtype=np.float64) * _FULL_SCALE
    q = np.copysign(np.floor(np.abs(x) + 0.5), x)
    q = np.clip(q, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(buffer.sample_rate)
        writer.writeframes(q.tobytes())


def mix_at_snr(
    clean: AudioBuffer, noise: AudioBuffer, snr_db: float, seed_offset: int
) -> tuple[AudioBuffer, AudioBuffer]:
    """Add a scaled random segment of ``noise`` to ``clean`` at a global SNR.

    Returns the mixture and the scaled noise that went into it.  The segment
    start is drawn from a generator seeded with ``seed_offset``.
    """
    if clean.sample_rate != noise.sample_rate:
        raise ValueError(
            f"sample rates differ: {clean.sample_rate} vs {noise.sample_rate}"
        )
    n = len(clean)
    if len(noise) < n:
        raise ValueError(f"noise ({len(noise)}) is shorter than clean ({n})")
    rng = np.random.default_rng(seed_offset)
    start = int(rng.integers(0, len(noise) - n + 1))
    segment = noise.samples[start : start + n]
    p_clean = float(np.sum(clean.samples**2))
    p_noise = float(np.sum(segment**2))
    if p_clean == 0.0:
        raise ValueError("clean signal has zero power")
    if p_noise == 0.0:
        raise ValueError("selected noise segment has zero power")
    try:
        g_sq = p_clean / (p_noise * 10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        g_sq = 0.0
    if not 0.0 < g_sq < np.inf:
        raise ValueError(f"snr_db={snr_db} gives no finite, nonzero noise scale")
    g = np.sqrt(g_sq)
    scaled = g * segment
    return (
        AudioBuffer(clean.samples + scaled, clean.sample_rate),
        AudioBuffer(scaled, clean.sample_rate),
    )


def generate_white_noise(
    length: int, sigma: float, seed: int, sample_rate: int = 8000
) -> AudioBuffer:
    """Seeded Gaussian noise (untruncated; truncation is a transform-domain
    model, not a time-domain one)."""
    if length < 0:
        raise ValueError(f"length must be nonnegative, got {length}")
    rng = np.random.default_rng(seed)
    return AudioBuffer(rng.normal(0.0, sigma, size=length), sample_rate)
