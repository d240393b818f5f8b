"""Objective quality measures: global SNR, segmental SNR, and their gains."""

from dataclasses import dataclass

import numpy as np

# Returned when the test signal matches the reference (or nearly so).
SNR_CAP_DB = 100.0
# Per-segment clamp of the segmental SNR.
SEG_FLOOR_DB = -10.0
SEG_CEIL_DB = 35.0


@dataclass(frozen=True)
class GainReport:
    input_snr_db: float
    output_snr_db: float
    snr_gain_db: float
    input_ssnr_db: float
    output_ssnr_db: float
    ssnr_gain_db: float


def _check_pair(clean: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    clean = np.asarray(clean, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if clean.shape != test.shape:
        raise ValueError(f"length mismatch: {clean.shape} vs {test.shape}")
    if not np.any(clean != 0.0):
        raise ValueError("clean signal is identically zero")
    return clean, test


def _snr_db(p_signal: float, p_error: float) -> float:
    if p_error == 0.0:
        return SNR_CAP_DB
    return min(10.0 * np.log10(p_signal / p_error), SNR_CAP_DB)


def global_snr_db(clean: np.ndarray, test: np.ndarray) -> float:
    """``10*log10(sum(clean**2) / sum((clean-test)**2))``, capped at +100 dB."""
    clean, test = _check_pair(clean, test)
    return _snr_db(float(np.sum(clean**2)), float(np.sum((clean - test) ** 2)))


def _segment_energies(x: np.ndarray, seg_len: int) -> np.ndarray:
    """Sum of squares of each complete ``seg_len``-sample segment along the
    last axis of ``x``, shape ``x.shape[:-1] + (segments,)``; a trailing
    partial segment is left out.  Each segment sums as one row, so the bits
    do not depend on what else ``x`` holds.  Both scorers run this, so it
    states their rule for ``seg_len``: a positive integer."""
    if not (isinstance(seg_len, (int, np.integer)) and seg_len > 0):
        raise ValueError(f"seg_len must be a positive integer, got {seg_len!r}")
    n_segs = x.shape[-1] // seg_len
    rows = x[..., : n_segs * seg_len].reshape(x.shape[:-1] + (n_segs, seg_len))
    return np.sum(rows**2, axis=-1)


def _mean_segment_snr(p_signal: np.ndarray, p_error: np.ndarray) -> float:
    """Mean over the segments with nonzero clean energy ``p_signal`` of each
    one's SNR, clamped to ``[SEG_FLOOR_DB, SEG_CEIL_DB]``."""
    voiced = p_signal != 0.0
    if not np.any(voiced):
        raise ValueError("no segment has nonzero clean energy")
    p_signal, p_error = p_signal[voiced], p_error[voiced]
    with np.errstate(divide="ignore"):
        snr = 10.0 * np.log10(p_signal / p_error)
    return float(np.mean(np.clip(snr, SEG_FLOOR_DB, SEG_CEIL_DB)))


def segmental_snr_db(clean: np.ndarray, test: np.ndarray, seg_len: int) -> float:
    """Mean of per-segment SNRs, each clamped to ``[SEG_FLOOR_DB, SEG_CEIL_DB]``.

    Only complete segments with nonzero clean energy contribute.
    """
    clean, test = _check_pair(clean, test)
    return _mean_segment_snr(
        _segment_energies(clean, seg_len), _segment_energies(clean - test, seg_len)
    )


def gain_report(
    clean: np.ndarray, noisy: np.ndarray, denoised: np.ndarray, seg_len: int
) -> GainReport:
    """SNR/SSNR before and after denoising; gains are exact differences."""
    input_snr = global_snr_db(clean, noisy)
    output_snr = global_snr_db(clean, denoised)
    input_ssnr = segmental_snr_db(clean, noisy, seg_len)
    output_ssnr = segmental_snr_db(clean, denoised, seg_len)
    return _report(input_snr, input_ssnr, output_snr, output_ssnr)


class SpanScorer:
    """:func:`gain_report` of many outputs against one clean signal, scored
    span by span as a denoiser finishes them, so no whole output is held.

    ``noisy`` has shape ``(streams, samples)``, one mixture of ``clean`` per
    row; the outputs have shape ``(outputs, streams, samples)`` and arrive
    through :meth:`add` as consecutive spans.  The input side is scored once
    per stream, with :func:`global_snr_db` and :func:`segmental_snr_db`.  The
    output side keeps one error energy per segment, from the same
    :func:`_segment_energies`; a segment that straddles two spans is carried
    until it is complete.  So every segmental SNR has the bits
    :func:`gain_report` gives.  The output global SNR sums the per-segment
    error energies and then the tail's, where :func:`global_snr_db` sums the
    squared errors over the whole signal at once: a different order of the
    same additions, which may move it by a few ulps.
    """

    def __init__(self, clean: np.ndarray, noisy: np.ndarray, seg_len: int, outputs: int):
        clean = np.asarray(clean, dtype=np.float64)
        noisy = np.asarray(noisy, dtype=np.float64)
        if noisy.ndim != 2:
            raise ValueError(f"expected noisy of shape (streams, samples), got {noisy.shape}")
        self._inputs = [
            (global_snr_db(clean, row), segmental_snr_db(clean, row, seg_len))
            for row in noisy
        ]
        self._clean = clean
        self._seg_len = seg_len
        self._p_signal = float(np.sum(clean**2))
        self._seg_signal = _segment_energies(clean, seg_len)
        shape = (outputs, noisy.shape[0])
        self._seg_error = np.empty(shape + self._seg_signal.shape)
        self._segments = 0  # complete segments scored so far
        self._pending = np.empty(shape + (seg_len,))  # errors of the open segment
        self._carried = 0  # samples in the open segment
        self._seen = 0

    def add(self, lo: int, span: np.ndarray) -> None:
        """Score output samples ``lo`` to ``lo + m`` of every output and
        stream, ``span`` of shape ``(outputs, streams, m)``; spans must come
        in order, each starting where the last one ended."""
        if lo != self._seen:
            raise ValueError(f"span starts at sample {lo}, expected {self._seen}")
        m = span.shape[-1]
        if lo + m > self._clean.shape[0]:
            raise ValueError("span runs past the end of the clean signal")
        c = self._carried
        error = np.empty(span.shape[:-1] + (c + m,))
        error[..., :c] = self._pending[..., :c]
        np.subtract(self._clean[lo : lo + m], span, out=error[..., c:])
        energies = _segment_energies(error, self._seg_len)
        q = energies.shape[-1]
        self._seg_error[..., self._segments : self._segments + q] = energies
        self._segments += q
        self._carried = c + m - q * self._seg_len
        self._pending[..., : self._carried] = error[..., q * self._seg_len :]
        self._seen = lo + m

    def reports(self) -> list[list[GainReport]]:
        """One :class:`GainReport` per output and stream, ``[output][stream]``,
        once every sample has been added.  The samples past the last complete
        segment count in the global SNR only, as in :func:`gain_report`."""
        if self._seen != self._clean.shape[0]:
            raise ValueError(f"scored {self._seen} of {self._clean.shape[0]} samples")
        tail = np.sum(self._pending[..., : self._carried] ** 2, axis=-1)
        p_error = np.sum(self._seg_error, axis=-1) + tail
        return [
            [
                _report(
                    *self._inputs[i],
                    _snr_db(self._p_signal, float(p_error[k, i])),
                    _mean_segment_snr(self._seg_signal, self._seg_error[k, i]),
                )
                for i in range(len(self._inputs))
            ]
            for k in range(p_error.shape[0])
        ]


def _report(input_snr, input_ssnr, output_snr, output_ssnr) -> GainReport:
    return GainReport(
        input_snr_db=input_snr,
        output_snr_db=output_snr,
        snr_gain_db=output_snr - input_snr,
        input_ssnr_db=input_ssnr,
        output_ssnr_db=output_ssnr,
        ssnr_gain_db=output_ssnr - input_ssnr,
    )
