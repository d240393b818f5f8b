"""Short-time analysis/synthesis: framing, windowing, orthonormal DCT, weighted
overlap-add.

The transform is the orthonormal DCT-II, so every analyzed frame satisfies
Parseval (sum of squares preserved) and i.i.d. time-domain noise of variance
``sigma**2`` keeps that variance per coefficient.  Synthesis applies the
analysis window a second time and normalizes by the summed squared window,
which reconstructs the interior of the signal exactly for any window/hop pair.

Both directions run block by block: analysis slices a read-only frame view
(:func:`frame_view`), synthesis accumulates blocks of frames in place
(:func:`overlap_add_block`) and normalizes once at the end
(:func:`overlap_normalize`).  Any split into blocks gives the same bits, so
no buffer of frames or coefficients needs to span the signal.
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

# Overlap-add positions where the summed squared window falls below this are
# emitted as zero instead of dividing.
_OLA_EPS = 1e-12


@dataclass(frozen=True)
class FrameGrid:
    """Frame layout of a signal: ``num_frames`` frames of ``frame_len`` samples,
    ``hop`` samples apart, covering ``padded_len`` samples."""

    frame_len: int
    hop: int
    num_frames: int
    padded_len: int


def make_frame_grid(signal_len: int, frame_len: int, hop: int) -> FrameGrid:
    """Lay out analysis frames over a signal of ``signal_len`` samples.

    ``padded_len`` is the smallest length >= ``signal_len`` such that
    ``padded_len - frame_len`` is a nonnegative multiple of ``hop``; a
    zero-length signal yields zero frames.
    """
    if frame_len <= 0:
        raise ValueError(f"frame_len must be positive, got {frame_len}")
    if hop <= 0 or hop > frame_len:
        raise ValueError(f"hop must satisfy 0 < hop <= frame_len, got {hop}")
    if signal_len <= 0:
        return FrameGrid(frame_len, hop, 0, 0)
    n_hops = max(0, -(-(signal_len - frame_len) // hop))  # ceil division
    padded_len = frame_len + n_hops * hop
    return FrameGrid(frame_len, hop, n_hops + 1, padded_len)


def hamming_window(frame_len: int) -> np.ndarray:
    """Periodic Hamming window, ``0.54 - 0.46*cos(2*pi*n/frame_len)``."""
    if frame_len <= 0:
        raise ValueError(f"frame_len must be positive, got {frame_len}")
    n = np.arange(frame_len)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / frame_len)


def frame_view(signal: np.ndarray, grid: FrameGrid) -> np.ndarray:
    """Read-only view of the grid's frames over a zero-padded copy of the
    signal, shape ``(..., num_frames, frame_len)`` for a signal of shape
    ``(..., samples)``; slicing it frame-wise builds no index array."""
    signal = np.asarray(signal, dtype=np.float64)
    padded = np.zeros(signal.shape[:-1] + (grid.padded_len,))
    padded[..., : signal.shape[-1]] = signal
    return sliding_window_view(padded, grid.frame_len, axis=-1)[..., :: grid.hop, :]


def dct_forward(windowed_frame: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II along the last axis."""
    windowed_frame = np.asarray(windowed_frame, dtype=np.float64)
    if windowed_frame.shape[-1] == 0:
        raise ValueError("cannot transform an empty frame")
    return scipy.fft.dct(windowed_frame, type=2, norm="ortho", axis=-1)


def dct_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`dct_forward` (orthonormal DCT-III)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape[-1] == 0:
        raise ValueError("cannot transform an empty frame")
    return scipy.fft.idct(coeffs, type=2, norm="ortho", axis=-1)


def overlap_add_block(
    out: np.ndarray, frames: np.ndarray, grid: FrameGrid, window: np.ndarray, first: int
) -> None:
    """Accumulate windowed frames ``first, first+1, ...`` into ``out`` in place.

    ``frames`` has shape ``(..., n, frame_len)`` and ``out`` shape
    ``(..., padded_len)``.  Every sample sums its frames in grid order, so
    accumulating a signal block by block gives the same bits as all at once.
    """
    for j in range(frames.shape[-2]):
        start = (first + j) * grid.hop
        out[..., start : start + grid.frame_len] += frames[..., j, :] * window


def overlap_normalize(out: np.ndarray, grid: FrameGrid, window: np.ndarray) -> np.ndarray:
    """Divide accumulated overlap-add output by the summed squared window, in
    place; positions where that is below ``1e-12`` come out as zero."""
    norm = np.zeros(grid.padded_len)
    overlap_add_block(
        norm, np.broadcast_to(window, (grid.num_frames, grid.frame_len)), grid, window, 0
    )
    covered = norm > _OLA_EPS
    np.divide(out, norm, out=out, where=covered)
    np.copyto(out, 0.0, where=~covered)
    return out
