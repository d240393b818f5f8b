"""DCT-domain speech enhancement by risk-estimate-optimal shrinkage.

Seven distortion measures drive the per-coefficient gains; a numerical
verification lab backs the closed forms with sampling checks, brute-force
optimization, and Monte Carlo risk comparisons.
"""

from .audio import AudioBuffer, WavFormatError, generate_white_noise, mix_at_snr, read_wav, write_wav
from .metrics import GainReport, gain_report, global_snr_db, segmental_snr_db
from .pipeline import DenoiseSummary, DenoiserConfig, denoise, denoise_file, denoise_kinds
from .risklab import (
    SyntheticScene,
    TruncatedGaussianSpec,
    high_snr_event_check,
    oracle_argmin,
    risk_estimate,
    sample_truncated_gaussian,
    unbiasedness_check,
)
from .shrinkage import BACKEND, ShrinkageKind, gain_rows

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "BACKEND",
    "DenoiseSummary",
    "DenoiserConfig",
    "GainReport",
    "ShrinkageKind",
    "SyntheticScene",
    "TruncatedGaussianSpec",
    "WavFormatError",
    "denoise",
    "denoise_file",
    "denoise_kinds",
    "gain_rows",
    "gain_report",
    "generate_white_noise",
    "global_snr_db",
    "high_snr_event_check",
    "mix_at_snr",
    "oracle_argmin",
    "read_wav",
    "risk_estimate",
    "sample_truncated_gaussian",
    "segmental_snr_db",
    "unbiasedness_check",
    "write_wav",
]
