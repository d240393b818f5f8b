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


def global_snr_db(clean: np.ndarray, test: np.ndarray) -> float:
    """``10*log10(sum(clean**2) / sum((clean-test)**2))``, capped at +100 dB."""
    clean, test = _check_pair(clean, test)
    p_signal = float(np.sum(clean**2))
    p_error = float(np.sum((clean - test) ** 2))
    if p_error == 0.0:
        return SNR_CAP_DB
    return min(10.0 * np.log10(p_signal / p_error), SNR_CAP_DB)


def segmental_snr_db(clean: np.ndarray, test: np.ndarray, seg_len: int) -> float:
    """Mean of per-segment SNRs, each clamped to ``[SEG_FLOOR_DB, SEG_CEIL_DB]``.

    Only complete segments with nonzero clean energy contribute.
    """
    clean, test = _check_pair(clean, test)
    if seg_len <= 0:
        raise ValueError(f"seg_len must be positive, got {seg_len}")
    n_segs = clean.shape[0] // seg_len
    s = clean[: n_segs * seg_len].reshape(n_segs, seg_len)
    t = test[: n_segs * seg_len].reshape(n_segs, seg_len)
    p_signal = np.sum(s**2, axis=1)
    p_error = np.sum((s - t) ** 2, axis=1)
    voiced = p_signal != 0.0
    if not np.any(voiced):
        raise ValueError("no segment has nonzero clean energy")
    p_signal, p_error = p_signal[voiced], p_error[voiced]
    with np.errstate(divide="ignore"):
        snr = 10.0 * np.log10(p_signal / p_error)
    return float(np.mean(np.clip(snr, SEG_FLOOR_DB, SEG_CEIL_DB)))


def gain_report(
    clean: np.ndarray, noisy: np.ndarray, denoised: np.ndarray, seg_len: int
) -> GainReport:
    """SNR/SSNR before and after denoising; gains are exact differences."""
    input_snr = global_snr_db(clean, noisy)
    output_snr = global_snr_db(clean, denoised)
    input_ssnr = segmental_snr_db(clean, noisy, seg_len)
    output_ssnr = segmental_snr_db(clean, denoised, seg_len)
    return GainReport(
        input_snr_db=input_snr,
        output_snr_db=output_snr,
        snr_gain_db=output_snr - input_snr,
        input_ssnr_db=input_ssnr,
        output_ssnr_db=output_ssnr,
        ssnr_gain_db=output_ssnr - input_ssnr,
    )
