import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from riskshrink.audio import AudioBuffer

# Property tests draw the same examples on every run, so CI never meets a
# failure that the next run cannot reproduce.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


def make_voiced(
    sample_rate: int = 8000,
    duration: float = 3.0,
    f0: float = 120.0,
    silence: float = 0.25,
    level: float = 0.15,
) -> AudioBuffer:
    """Voiced-like test signal: harmonic stack with syllabic amplitude
    modulation and an exactly-silent lead-in for noise initialization."""
    t = np.arange(int(sample_rate * duration)) / sample_rate
    sig = np.zeros_like(t)
    for h in range(1, 13):
        f = f0 * h
        if f > 0.45 * sample_rate:
            break
        sig += np.sin(2.0 * np.pi * f * t + 0.7 * h) / h
    env = 0.5 * (1.0 - np.cos(2.0 * np.pi * 3.0 * t))
    env[t < silence] = 0.0
    sig *= env
    active = sig[sig != 0.0]
    rms = np.sqrt(np.mean(active**2)) if active.size else 1.0
    return AudioBuffer(level * sig / rms, sample_rate)


@pytest.fixture(scope="session")
def voiced_buffer() -> AudioBuffer:
    return make_voiced()


# Sub-format GUIDs of a WAVE_FORMAT_EXTENSIBLE ``fmt `` chunk.
PCM_GUID = bytes.fromhex("0100000000001000800000aa00389b71")
IEEE_FLOAT_GUID = bytes.fromhex("0300000000001000800000aa00389b71")


def write_pcm16_wav(path, ints, sample_rate: int, subformat=None, chunks=b"") -> None:
    """Write a mono PCM-16 WAV header and data with ``struct``, which, unlike
    ``wave``, takes any rate the header can hold, 0 included.  With a
    ``subformat`` GUID the ``fmt `` chunk is WAVE_FORMAT_EXTENSIBLE; the raw
    ``chunks`` go between ``fmt `` and ``data``."""
    data = b"".join(struct.pack("<h", v) for v in ints)
    tag = 1 if subformat is None else 0xFFFE
    byte_rate = 2 * sample_rate % 2**32
    fmt = struct.pack("<HHIIHH", tag, 1, sample_rate, byte_rate, 2, 16)
    if subformat is not None:
        # cbSize, valid bits per sample, channel mask (front centre), GUID
        fmt += struct.pack("<HHI", 22, 16, 4) + subformat
    chunks = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + chunks
    chunks += b"data" + struct.pack("<I", len(data)) + data
    Path(path).write_bytes(b"RIFF" + struct.pack("<I", len(chunks)) + chunks)


def list_chunk(payload: bytes) -> bytes:
    """A ``LIST`` chunk holding ``payload``, with the pad byte an odd size
    needs."""
    return b"LIST" + struct.pack("<I", len(payload)) + payload + b"\0" * (len(payload) % 2)


def write_overlong_fmt_wav(path) -> None:
    """Write a mono PCM-16 file of four samples whose ``fmt `` chunk declares
    211 bytes, more than the RIFF chunk holds after it."""
    write_pcm16_wav(path, [0, 1, -1, 0], 8000)
    raw = bytearray(Path(path).read_bytes())
    raw[16:20] = struct.pack("<I", 211)
    Path(path).write_bytes(bytes(raw))
