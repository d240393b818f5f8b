"""Short-time analysis/synthesis: framing, windowing, orthonormal DCT, weighted
overlap-add.

The transform is the orthonormal DCT-II, so every analyzed frame satisfies
Parseval (sum of squares preserved) and i.i.d. time-domain noise of variance
``sigma**2`` keeps that variance per coefficient.  Synthesis applies the
analysis window a second time and normalizes by the summed squared window,
which inverts analysis on every sample: with the Hamming window (never below
0.08) and a hop of at most one frame, every sample's norm is at least 0.0064.

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


@dataclass(frozen=True)
class FrameGrid:
    """Frame layout of a signal: ``num_frames`` frames of ``frame_len`` samples,
    ``hop`` samples apart, covering ``padded_len`` samples."""

    frame_len: int
    hop: int
    num_frames: int
    padded_len: int


def make_frame_grid(signal_len: int, frame_len: int, hop: int) -> FrameGrid:
    """Lay out analysis frames over a signal of ``signal_len >= frame_len``
    samples, with ``1 <= hop <= frame_len`` as ``DenoiserConfig`` guarantees.

    ``padded_len`` is the smallest length >= ``signal_len`` such that
    ``padded_len - frame_len`` is a nonnegative multiple of ``hop``.
    """
    n_hops = -(-(signal_len - frame_len) // hop)  # ceil division
    padded_len = frame_len + n_hops * hop
    return FrameGrid(frame_len, hop, n_hops + 1, padded_len)


def hamming_window(frame_len: int) -> np.ndarray:
    """Periodic Hamming window, ``0.54 - 0.46*cos(2*pi*n/frame_len)``."""
    n = np.arange(frame_len)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / frame_len)


def frame_view(signal: np.ndarray, grid: FrameGrid) -> np.ndarray:
    """Read-only view of the grid's frames over a zero-padded copy of the
    signal, shape ``(..., num_frames, frame_len)`` for a signal of shape
    ``(..., samples)``; slicing it frame-wise builds no index array."""
    padded = np.zeros(signal.shape[:-1] + (grid.padded_len,))
    padded[..., : signal.shape[-1]] = signal
    return sliding_window_view(padded, grid.frame_len, axis=-1)[..., :: grid.hop, :]


def dct_forward(windowed_frame: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II along the last axis."""
    return scipy.fft.dct(windowed_frame, type=2, norm="ortho", axis=-1)


def dct_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`dct_forward` (orthonormal DCT-III)."""
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
    place.  Every sample of the grid lies in some frame, so with the Hamming
    window that sum is at least ``0.08**2``."""
    norm = np.zeros(grid.padded_len)
    overlap_add_block(
        norm, np.broadcast_to(window, (grid.num_frames, grid.frame_len)), grid, window, 0
    )
    out /= norm
    return out
