import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from numpy.lib.introspect import opt_func_info

from riskshrink.audio import AudioBuffer
from riskshrink.shrinkage import ShrinkageKind
from riskshrink.stdct import FrameGrid, frame_view, overlap_add_block

# Property tests draw the same examples on every run, so CI never meets a
# failure that the next run cannot reproduce.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


def dispatch_target(ufunc: str) -> str:
    """The SIMD target that numpy's float64 ``ufunc`` takes on this machine,
    as numpy's public introspection reports it (``X86_V4``, ``X86_V3``, ...)."""
    info = opt_func_info(func_name=f"^{ufunc}$", signature="float64")
    return info[ufunc]["dd"]["current"]


# The numpy SIMD path that keys the bit pins whose rows call a transcendental
# function, read from the target of np.exp, which the log_mse rows call.
# numpy 2.4.6 takes its AVX-512 (X86_V4) path where the CPU has it, and its
# AVX2 (X86_V3) path otherwise, for instance under
# NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" (CI runs the tests that
# way too, so every runner checks the AVX2 digests).  The two round np.exp,
# np.log1p, np.log and float ** differently, by at most 1 ulp.
NUMPY_DISPATCH = "AVX-512" if dispatch_target("exp") == "X86_V4" else "AVX2"


def pytest_report_header(config):
    return (
        f"numpy {np.__version__} float64 targets: exp {dispatch_target('exp')}, "
        f"log {dispatch_target('log')}; checking the {NUMPY_DISPATCH} digests"
    )


# The closed forms of the seven gains as plain expressions of the inverse SNR
# ``u``: the reference that the package's in-place kernels must match bit for
# bit, away from the points where ``u`` is not finite.
CLOSED_FORMS = {
    ShrinkageKind.MSE: lambda u: np.maximum(1.0 - u, 0.0),
    ShrinkageKind.WE: lambda u: 1.0 / (
        (((360.0 * u + 48.0) * u - 1.0) * u + 1.0) * u + 1.0),
    ShrinkageKind.LOG_MSE: lambda u: np.exp(
        np.minimum((((-210.0 * u - 10.0) * u - 0.75) * u + 0.5) * u, 0.0)),
    ShrinkageKind.IS: lambda u: 1.0 / ((840.0 * u + 60.0) * u * u * u + 1.0),
    ShrinkageKind.IS_II: lambda u: 1.0 / np.sqrt(
        np.maximum((((4200.0 * u + 360.0) * u - 3.0) * u + 1.0) * u + 1.0, 1.0)),
    ShrinkageKind.COSH: lambda u: np.sqrt(
        np.minimum((1.0 + u) / ((840.0 * u + 60.0) * u * u * u + 1.0), 1.0)),
    ShrinkageKind.WCOSH: lambda u: 1.0 / np.sqrt(
        np.maximum((((8400.0 * u + 420.0) * u + 3.0) * u - 1.0) * u + 1.0, 1.0)),
}


def bits(a):
    """Everything that makes two arrays bit-identical: dtype, shape, bytes."""
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def covered_len(grid: FrameGrid) -> int:
    """Samples from the start of the grid's first frame to the end of its last."""
    return (grid.num_frames - 1) * grid.hop + grid.frame_len


def padded_frames(x: np.ndarray, grid: FrameGrid) -> np.ndarray:
    """The whole-signal reference of the frames that ``pipeline`` copies block
    by block into its input window: all of the grid's frames over ``x``
    (shape ``(..., samples)``), zero past its end."""
    pad = [(0, 0)] * (x.ndim - 1) + [(0, covered_len(grid) - x.shape[-1])]
    return frame_view(np.pad(x, pad), grid)


def overlap_normalize(out: np.ndarray, grid: FrameGrid, window: np.ndarray) -> np.ndarray:
    """The whole-signal reference of the normalizer that ``pipeline`` rolls
    block by block: divide accumulated overlap-add output (last axis
    :func:`covered_len` long) in place by the overlap-add of ``window *
    window`` over the whole grid.  Every sample of the grid lies in some
    frame, so with the Hamming window that sum is at least ``0.08**2``."""
    norm = np.zeros(covered_len(grid))
    squares = np.broadcast_to(window * window, (grid.num_frames, grid.frame_len))
    overlap_add_block(norm, squares, grid)
    out /= norm
    return out


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
