"""End-to-end frame-by-frame denoiser.

The signal is analyzed on a short-time DCT grid; the leading frames build the
initial noise statistics (they are assumed noise-only), after which every
frame, including those leading ones, is denoised in order: one tracker step
(VAD decision with hangover, noise-variance update, inverse-SNR update), the
per-bin gain, inverse transform and weighted overlap-add.

Several streams run in lockstep: every input row with every requested gain,
one tracker step per frame for all of them.  The VAD and the noise floor run
once per input, primed by the mse (Wiener) estimate, so that gain always runs
as the first row, and its output is dropped when it was not requested.
Analysis and synthesis go in blocks of frames, so no buffer of coefficients
spans the whole signal.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import stdct, tracking
from .audio import AudioBuffer, read_wav, write_wav
from .shrinkage import ShrinkageKind, gain_array


@dataclass(frozen=True)
class DenoiserConfig:
    """Every tunable of the denoiser; defaults follow the standard operating
    point (40 ms frames, 75% overlap, smoothing constants 0.98, alpha 1.75).
    ``frame_len`` and ``hop`` are those rounded to whole samples, at any rate."""

    sample_rate: int = 8000
    frame_ms: float = 40.0
    overlap_fraction: float = 0.75
    kind: ShrinkageKind = ShrinkageKind.MSE
    alpha: float = 1.75
    beta: float = 0.98
    eta: float = 0.98
    init_noise_frames: int = 10
    vad_threshold: float = 0.15
    vad_hangover: int = 2

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not 0 < self.frame_ms < np.inf:
            raise ValueError(f"frame_ms must be positive and finite, got {self.frame_ms}")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ValueError(
                f"overlap_fraction must be in [0, 1), got {self.overlap_fraction}"
            )
        # Rounding to whole samples is safe: overlap-add reconstructs with any hop.
        n = self.sample_rate * self.frame_ms / 1000.0  # inf cannot be rounded
        frame_len, hop = (self.frame_len, self.hop) if n < np.inf else (n, n)
        if not 1 <= hop < np.inf:
            raise ValueError(
                f"frame_ms={self.frame_ms} and overlap_fraction={self.overlap_fraction} "
                f"at {self.sample_rate} Hz give frame_len={frame_len} and hop={hop} "
                f"samples; frames must be finite and the hop at least 1 sample"
            )
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        for name in ("beta", "eta"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        if self.init_noise_frames < 1:
            raise ValueError(
                f"init_noise_frames must be at least 1, got {self.init_noise_frames}"
            )
        if not np.isfinite(self.vad_threshold):
            raise ValueError(f"vad_threshold must be finite, got {self.vad_threshold}")
        if self.vad_hangover < 0:
            raise ValueError(f"vad_hangover must be >= 0, got {self.vad_hangover}")

    @property
    def frame_len(self) -> int:
        return round(self.sample_rate * self.frame_ms / 1000.0)

    @property
    def hop(self) -> int:
        return round(self.frame_len * (1.0 - self.overlap_fraction))


@dataclass(frozen=True)
class DenoiseSummary:
    """Per-file run record; ``frame_len`` and ``hop`` are in samples at the file's
    rate, and ``speech_fraction`` (hangover included) does not depend on the kind."""

    frame_len: int
    hop: int
    frames: int
    speech_fraction: float


# Frames analyzed and synthesized per block: enough to amortize each
# transform call, few enough that no buffer grows with the file length.
_BLOCK_FRAMES = 16


def _run(noisy: np.ndarray, config: DenoiserConfig, kinds):
    """Denoise every row of ``noisy`` (shape ``(inputs, samples)``) with every
    gain in ``kinds``, all streams in lockstep.

    Returns ``(out, speech_frames, num_frames)``: the output, shape
    ``(kinds, inputs, samples)``, and per input the count of frames taken
    as speech (hangover included) out of ``num_frames``.
    """
    x = np.asarray(noisy, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains NaN or Inf samples")
    frame_len, hop = config.frame_len, config.hop
    init = config.init_noise_frames
    min_len = init * hop + frame_len
    if x.shape[-1] < min_len:
        raise ValueError(
            f"signal too short: {x.shape[-1]} samples, need at least {min_len} for "
            f"{init} initialization frames"
        )

    # The gains stepped per frame: mse first, since the VAD reads its
    # estimate, then each other requested kind once; ``keep`` picks the
    # output rows in the order of ``kinds``.
    rows = list(dict.fromkeys([ShrinkageKind.MSE, *kinds]))
    keep = [rows.index(kind) for kind in kinds]
    grid = stdct.make_frame_grid(x.shape[-1], frame_len, hop)
    window = stdct.hamming_window(frame_len)
    frames = stdct.frame_view(x, grid)
    state = tracking.initialize(stdct.dct_forward(frames[:, :init] * window))
    state.prev_denoised = np.zeros((len(rows),) + state.noise_var.shape)
    out = np.zeros((len(kinds), x.shape[0], grid.padded_len))
    speech_frames = np.zeros(x.shape[0], dtype=np.int64)
    with np.errstate(divide="ignore"):  # 1/inv_xi where inv_xi == 0
        for start in range(0, grid.num_frames, _BLOCK_FRAMES):
            coeffs = stdct.dct_forward(frames[:, start : start + _BLOCK_FRAMES] * window)
            denoised = np.empty((len(rows),) + coeffs.shape)
            for j in range(coeffs.shape[1]):
                frame = coeffs[:, j]
                inv_xi, speech = tracking.step(
                    state,
                    frame,
                    threshold=config.vad_threshold,
                    hangover=config.vad_hangover,
                    eta=config.eta,
                    beta=config.beta,
                )
                speech_frames += speech
                xi = 1.0 / inv_xi
                shrunk = denoised[:, :, j]
                for k, kind in enumerate(rows):
                    g = gain_array(kind, xi[k], config.alpha)
                    np.multiply(g, frame, out=shrunk[k])
                state.prev_denoised = shrunk
            synthesized = stdct.dct_inverse(denoised[keep])
            stdct.overlap_add_block(out, synthesized, grid, window, start)
    stdct.overlap_normalize(out, grid, window)
    return out[..., : x.shape[-1]], speech_frames, grid.num_frames


def denoise_kinds(noisy: np.ndarray, config: DenoiserConfig, kinds) -> np.ndarray:
    """Denoise each row of ``noisy`` (shape ``(inputs, samples)``) with each
    measure in ``kinds``; ``config.kind`` is ignored.

    Returns shape ``(len(kinds), inputs, samples)``.  Row ``[k, i]`` is
    bit-identical to ``denoise(noisy[i], replace(config, kind=kinds[k]))``.
    """
    x = np.asarray(noisy, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected shape (inputs, samples), got {x.shape}")
    out, _, _ = _run(x, config, list(kinds))
    return out


def denoise(noisy: np.ndarray, config: DenoiserConfig) -> np.ndarray:
    """Denoise a signal, preserving its length exactly."""
    x = np.asarray(noisy, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a mono signal, got shape {x.shape}")
    out, _, _ = _run(x[None], config, [config.kind])
    return out[0, 0]


def denoise_file(in_path, out_path, config: DenoiserConfig) -> DenoiseSummary:
    """Read a WAV file, denoise it at the file's sample rate, and write the result."""
    buf = read_wav(in_path)
    config = replace(config, sample_rate=buf.sample_rate)
    out, speech_frames, num_frames = _run(buf.samples[None], config, [config.kind])
    write_wav(out_path, AudioBuffer(out[0, 0], buf.sample_rate))
    return DenoiseSummary(
        config.frame_len, config.hop, num_frames, float(speech_frames[0] / num_frames)
    )
