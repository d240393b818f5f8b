"""Mono PCM-16 WAV ingestion/emission and noisy-mixture synthesis."""

import os
import struct
from dataclasses import dataclass

import numpy as np

_FULL_SCALE = 32768.0
_MAX_RATE = 2**31 - 1  # the fmt chunk's byte rate holds 2 * rate in 32 bits
_PCM, _EXTENSIBLE = 1, 0xFFFE  # format tags; EXTENSIBLE names its format by GUID
_PCM_GUID = bytes.fromhex("0100000000001000800000aa00389b71")


class WavFormatError(Exception):
    """File is not in the supported mono 16-bit PCM WAV subset."""


@dataclass(frozen=True)
class AudioBuffer:
    samples: np.ndarray
    sample_rate: int

    def __len__(self) -> int:
        return self.samples.shape[0]


def read_wav_header(f, path) -> tuple[int, int, int]:
    """Walk the RIFF/WAVE chunks of the open file ``f``, skipping unknown ones
    and their pad byte, to the samples of its ``data`` chunk, where ``f`` is
    left.  Returns the ``fmt `` sample rate, the data bytes the header declares,
    and the bytes that both the file and the RIFF chunk hold from there."""
    head = f.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")
    end = min(8 + int.from_bytes(head[4:8], "little"), os.fstat(f.fileno()).st_size)
    pos, rate = 12, None
    while pos + 8 <= end:
        f.seek(pos)
        name, size = struct.unpack("<4sI", f.read(8))
        pos += 8
        if name == b"data":
            if rate is None:
                raise WavFormatError(f"{path}: the data chunk comes before the fmt chunk")
            return rate, size, end - pos
        if pos + size + size % 2 > end:
            raise WavFormatError(
                f"{path}: a chunk's declared size runs past the end of the file "
                f"or of its RIFF chunk"
            )
        if name == b"fmt ":
            fmt = f.read(min(size, 40)).ljust(40, b"\0")
            tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt)
            pcm = tag == _PCM or tag == _EXTENSIBLE and fmt[24:40] == _PCM_GUID
            if size < 16 or not pcm or channels != 1 or (bits + 7) // 8 != 2:
                raise WavFormatError(
                    f"{path}: only mono 16-bit PCM is supported; the {size}-byte fmt "
                    f"chunk has format {tag:#x}, {channels} channels, {bits}-bit samples"
                )
        pos += size + size % 2
    raise WavFormatError(f"{path}: no data chunk")


def read_wav(path) -> AudioBuffer:
    """Read a mono PCM-16 WAV file; samples are ``int16 / 32768`` exactly.  The
    data is read in one call, of at most the bytes the file holds."""
    with open(path, "rb") as f:
        rate, size, room = read_wav_header(f, path)
        if not 1 <= rate <= _MAX_RATE:
            raise WavFormatError(
                f"{path}: the header's sample rate is {rate} Hz, outside 1 to {_MAX_RATE}"
            )
        declared = size // 2
        raw = f.read(min(2 * declared, room))
    if len(raw) % 2:
        raise WavFormatError(f"{path}: truncated file, the data ends mid-sample")
    if len(raw) // 2 < declared:
        raise WavFormatError(
            f"{path}: truncated file, the data holds {len(raw) // 2} of the "
            f"{declared} samples the header declares"
        )
    return AudioBuffer(np.frombuffer(raw, "<i2").astype(np.float64) / _FULL_SCALE, rate)


def write_wav(path, buffer: AudioBuffer) -> None:
    """Write mono PCM-16, rounding half away from zero and clipping (so
    ``+-inf`` is full scale); a NaN sample, and a sample rate that is not a
    whole number of Hz the header can hold, are refused."""
    rate = buffer.sample_rate
    if not (isinstance(rate, (int, np.integer)) and 1 <= rate <= _MAX_RATE):
        raise ValueError(f"sample rate must be an integer from 1 to {_MAX_RATE} Hz, got {rate!r}")
    x = np.asarray(buffer.samples, dtype=np.float64) * _FULL_SCALE
    if np.isnan(x).any():
        raise ValueError("samples must not be NaN")
    q = np.copysign(np.floor(np.abs(x) + 0.5), x)
    q = np.clip(q, -32768, 32767).astype("<i2")
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + q.nbytes, b"WAVE", b"fmt ",
                         16, _PCM, 1, rate, 2 * rate, 2, 16, b"data", q.nbytes)
    with open(path, "wb") as f:
        f.write(header)
        f.write(q)


def mix_at_snr(
    clean: AudioBuffer, noise: AudioBuffer, snr_db: float, seed_offset: int
) -> AudioBuffer:
    """Add a scaled random segment of ``noise`` to ``clean`` at a global SNR
    and return the mixture; the noise in it is, to rounding, the mixture
    minus ``clean``.

    The segment start is drawn from a generator seeded with ``seed_offset``.
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
    return AudioBuffer(clean.samples + np.sqrt(g_sq) * segment, clean.sample_rate)


def generate_white_noise(
    length: int, sigma: float, seed: int, sample_rate: int = 8000
) -> AudioBuffer:
    """Seeded Gaussian noise (untruncated; truncation is a transform-domain
    model, not a time-domain one)."""
    if length < 0:
        raise ValueError(f"length must be nonnegative, got {length}")
    rng = np.random.default_rng(seed)
    return AudioBuffer(rng.normal(0.0, sigma, size=length), sample_rate)
