"""Short-time analysis/synthesis: framing, windowing, orthonormal DCT, weighted
overlap-add.

The transform is the orthonormal DCT-II, so every analyzed frame satisfies
Parseval (sum of squares preserved) and i.i.d. time-domain noise of variance
``sigma**2`` keeps that variance per coefficient.  Synthesis mirrors
analysis: the caller multiplies each inverse-transformed frame by the window,
as it did each analyzed frame, and the frames are overlap-added and divided
by the overlap-add of ``window * window``, which inverts analysis on every
sample: with the Hamming window (never below 0.08) and a hop of at most one
frame, every sample's norm is at least 0.0064.

The DCT and its inverse each take one real FFT of ``np.fft``, by Makhoul's
algorithm (J. Makhoul, "A fast cosine transform in one and two dimensions",
IEEE Trans. ASSP 28(1), 1980): the frame's even samples in order followed by
its odd samples reversed are transformed, and a twiddle factor per FFT bin,
built once per frame length, maps bin ``k`` to coefficients ``k`` and
``n - k``.  It works for every frame length, odd ones included.

Both directions run block by block: analysis takes one read-only strided
view of the frames that lie wholly inside a signal (:func:`frame_view`), in
``pipeline`` of one block-wide input window that each block is copied into,
with zeros past the input's end, and synthesis adds blocks of windowed
frames in place (:func:`overlap_add_block`), one strided add per ``hop``-wide
piece of the frame rather than one per frame.  Any split into blocks gives
the same bits, so no buffer of frames or coefficients needs to span the
signal.  The normalizer is the overlap-add of ``window * window`` over the
same grid, which ``pipeline`` accumulates block by block beside the output.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class FrameGrid:
    """Frame layout of a signal: ``num_frames`` frames of ``frame_len`` samples,
    ``hop`` samples apart, the last one ending at or past the signal's end."""

    frame_len: int
    hop: int
    num_frames: int


def make_frame_grid(signal_len: int, frame_len: int, hop: int) -> FrameGrid:
    """Lay out analysis frames over a signal of ``signal_len >= frame_len``
    samples, with ``1 <= hop <= frame_len`` as ``DenoiserConfig`` guarantees:
    ``num_frames`` is the least ``k`` with ``(k - 1) * hop + frame_len >=
    signal_len``, so every sample lies in some frame.
    """
    n_hops = -(-(signal_len - frame_len) // hop)  # ceil division
    return FrameGrid(frame_len, hop, n_hops + 1)


def hamming_window(frame_len: int) -> np.ndarray:
    """Periodic Hamming window, ``0.54 - 0.46*cos(2*pi*n/frame_len)``."""
    n = np.arange(frame_len)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / frame_len)


def frame_view(signal: np.ndarray, grid: FrameGrid) -> np.ndarray:
    """Read-only view of the grid's frames that lie wholly inside ``signal``
    (shape ``(..., samples)``), the first at sample 0: shape ``(..., count,
    frame_len)`` with ``count = (samples - frame_len) // hop + 1``.  It copies
    nothing, and slicing it frame-wise builds no index array."""
    return sliding_window_view(signal, grid.frame_len, axis=-1)[..., :: grid.hop, :]


@functools.lru_cache(maxsize=16)
def _twiddles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only twiddle factors of the ``n``-point transform, one per bin
    ``k = 0 .. n//2`` of the real FFT: forward ``2 s_k exp(-i pi k / 2n)``
    and inverse ``exp(i pi k / 2n) / (2 s_k)``, where ``s_0 = sqrt(1/4n)``
    and ``s_k = sqrt(1/2n)`` are the orthonormal scales.  ``math`` computes
    them, so they do not depend on numpy's SIMD dispatch."""
    forward, inverse = [], []
    for k in range(n // 2 + 1):
        angle = math.pi * k / (2 * n)
        two_s = math.sqrt((1.0 if k == 0 else 2.0) / n)
        forward.append(complex(two_s * math.cos(angle), -two_s * math.sin(angle)))
        inverse.append(complex(math.cos(angle) / two_s, math.sin(angle) / two_s))
    tables = np.array(forward), np.array(inverse)
    for table in tables:
        table.flags.writeable = False
    return tables


def dct_forward(windowed_frame: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II along the last axis."""
    x = np.asarray(windowed_frame, dtype=np.float64)
    n = x.shape[-1]
    if n < 1:
        raise ValueError("cannot transform an empty frame")
    # even samples in order, then odd samples reversed
    half = (n + 1) // 2
    v = np.empty(x.shape)
    v[..., :half] = x[..., ::2]
    v[..., half:] = x[..., 1::2][..., ::-1]
    spec = np.fft.rfft(v, axis=-1)
    spec *= _twiddles(n)[0]
    # coefficient k is Re(spec[k]); coefficient n - k is -Im(spec[k]).  v is
    # free again, and reusing it keeps two frame-sized buffers live, not three.
    v[..., : n // 2 + 1] = spec.real
    np.negative(spec.imag[..., (n - 1) // 2 : 0 : -1], out=v[..., n // 2 + 1 :])
    return v


def dct_inverse(coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exact inverse of :func:`dct_forward` (orthonormal DCT-III), written to
    ``out`` when given: an array of the shape of ``coeffs``, which may be
    ``coeffs`` itself, since it is written only after ``coeffs`` is read."""
    c = np.asarray(coeffs, dtype=np.float64)
    n = c.shape[-1]
    if n < 1:
        raise ValueError("cannot transform an empty frame")
    # spec[k] = c[k] - i c[n - k], with c[n] = 0, undoes dct_forward's map
    spec = np.empty(c.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    spec.real = c[..., : n // 2 + 1]
    spec.imag[..., 0] = 0.0
    np.negative(c[..., : (n - 1) // 2 : -1], out=spec.imag[..., 1:])
    spec *= _twiddles(n)[1]
    v = np.fft.irfft(spec, n=n, axis=-1)
    del spec  # so that at most two frame-sized buffers are live
    half = (n + 1) // 2
    x = np.empty(c.shape) if out is None else out
    x[..., ::2] = v[..., :half]
    x[..., 1::2] = v[..., : half - 1 : -1]
    return x


def overlap_add_block(out: np.ndarray, frames: np.ndarray, grid: FrameGrid) -> None:
    """Add ``frames`` into ``out`` in place, unweighted, the first at sample 0
    and each next one ``hop`` samples later; the caller applies the synthesis
    window.  A block that starts at frame ``j`` of the grid goes into
    ``out[..., j * hop :]``.

    ``frames`` has shape ``(..., n, frame_len)`` and ``out`` shape ``(...,
    m)`` with ``m >= (n - 1) * hop + frame_len``.  Each frame is cut into
    pieces of at most ``hop`` samples, counted back from its end, so the
    first piece is the short one when the hop does not divide the frame.
    One strided add takes a piece of every frame at once, since those pieces
    do not overlap; the pieces go from the last one down, so every sample
    sums its frames in grid order, and accumulating a signal block by block
    gives the same bits as all at once, or frame by frame.
    """
    n, hop = frames.shape[-2], grid.hop
    rows = out.shape[:-1] + (n, hop)
    end = grid.frame_len
    while end > 0:
        lo = max(end - hop, 0)
        # every frame's samples lo..end in one view, in bounds since lo + hop <= frame_len
        out[..., lo : lo + n * hop].reshape(rows)[..., : end - lo] += frames[..., lo:end]
        end = lo
