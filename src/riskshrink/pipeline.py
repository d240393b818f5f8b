"""End-to-end block-by-block denoiser.

The signal is analyzed on a short-time DCT grid; the leading frames build the
initial noise statistics (they are assumed noise-only), after which every
frame, including those leading ones, is denoised in order: the tracker step
(VAD decision with hangover, noise-variance update, inverse-SNR update and the
per-bin gain, frame by frame), then the inverse transform and weighted
overlap-add.

Several streams run in lockstep, every input row with every requested gain.
Analysis, the tracker and synthesis go in blocks of frames, one tracker call
per block for all the streams, and the output leaves in spans as soon as no
later frame touches them (:func:`denoise_spans`), so memory per stream is one
block, whatever the signal's length.  ``evaluate`` runs every SNR x seed mixture
with every kind in one such pass and scores each span as it leaves; the
other entry points collect the spans into the whole output.
"""

import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from . import stdct, tracking
from .audio import AudioBuffer, read_wav, write_wav
from .shrinkage import ShrinkageKind, _check_kinds


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
        # each field's type first, so that no comparison below can raise
        # TypeError or accept a fractional rate; a bool is no number here
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type is int and (isinstance(v, bool) or not isinstance(v, (int, np.integer))):
                raise ValueError(f"{f.name} must be an integer, got {v!r}")
            if f.type is float and (isinstance(v, bool) or not isinstance(v, numbers.Real)):
                raise ValueError(f"{f.name} must be a real number, got {v!r}")
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
        _check_kinds([self.kind])
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
        if not 0 <= self.vad_hangover <= tracking._MAX_HANGOVER:
            raise ValueError(
                f"vad_hangover must be in [0, {tracking._MAX_HANGOVER}], got {self.vad_hangover}"
            )

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


# Frames analyzed, tracked and synthesized per block: enough to amortize each
# transform and tracker call, few enough that no buffer grows with the file
# length.
_BLOCK_FRAMES = 16


def _run(x: np.ndarray, config: DenoiserConfig, kinds):
    """Check the float64 array ``x`` (shape ``(inputs, samples)``) and build
    the tracker from its leading frames, to denoise every row with every gain
    in ``kinds``, all streams in lockstep.

    Returns ``(state, spans)``.  ``spans`` yields ``(lo, out)`` in order, with
    ``out`` of shape ``(kinds, inputs, m)`` the finished output samples ``lo``
    to ``lo + m``; together the spans cover ``x`` once.  ``out`` is a view of a
    buffer that the next span overwrites.  ``state`` is the tracker state,
    advanced in place as ``spans`` runs: after the last span it has seen
    every frame.
    """
    frame_len, hop = config.frame_len, config.hop
    init = config.init_noise_frames
    # NaN and +-inf reach the extremes, so two reductions check every sample
    hi, lo = (x.max(), x.min()) if x.size else (0.0, 0.0)
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ValueError("input contains NaN or Inf samples")
    # Parseval bounds a coefficient's square by frame_len * peak**2, and the
    # initial noise floor sums init of them
    peak, limit = max(hi, -lo), np.sqrt(np.finfo(np.float64).max / (frame_len * init))
    if peak >= limit:
        raise ValueError(
            f"input peak {peak:.6g} is at or above {limit:.6g}, where the "
            f"squares summed into the initial noise floor could overflow"
        )
    min_len = init * hop + frame_len
    if x.shape[-1] < min_len:
        raise ValueError(
            f"signal too short: {x.shape[-1]} samples, need at least {min_len} for "
            f"{init} initialization frames"
        )

    grid = stdct.make_frame_grid(x.shape[-1], frame_len, hop)
    window = stdct.hamming_window(frame_len)
    frames = stdct.frame_view(x[..., : (init - 1) * hop + frame_len], grid)
    state = tracking.initialize(stdct.dct_forward(frames * window), kinds)
    return state, _spans(x, grid, window, state, config, len(kinds))


def _spans(x, grid, window, state, config, n_kinds):
    """The span generator of :func:`_run`.

    Every block is framed from one block-wide input window, which holds the
    block's samples of ``x`` and zeros past its end.  A block starting at
    frame ``start`` finishes every sample before the next block's first
    frame.  Overlap-add runs in a rolling accumulator that starts at sample
    ``start * hop`` and spans one block's frames; the samples still open
    after a block move to its front.  The normalizer, the overlap-add of
    ``window * window``, rolls the same way, so every sample sums the same
    terms in the same order as one whole-signal accumulator would.  The
    tracker writes each block's denoised coefficients, every kind's, into one
    block buffer, where the inverse transform runs one kind at a time in
    place; it, the input window and the accumulators are allocated once per
    run.  Each span views the accumulator's finished front.
    """
    frame_len, hop = grid.frame_len, grid.hop
    inputs = x.shape[0]
    width = (_BLOCK_FRAMES - 1) * hop + frame_len
    window_in = np.empty((inputs, width))
    frames = stdct.frame_view(window_in, grid)  # _BLOCK_FRAMES frames
    acc = np.zeros((n_kinds, inputs, width))
    norm = np.zeros(width)
    squares = np.broadcast_to(window * window, (_BLOCK_FRAMES, frame_len))
    denoised = np.empty((n_kinds, inputs, _BLOCK_FRAMES, frame_len))
    for start in range(0, grid.num_frames, _BLOCK_FRAMES):
        n = min(_BLOCK_FRAMES, grid.num_frames - start)
        lo = start * hop
        window_in[:, : x.shape[-1] - lo] = x[:, lo : lo + width]
        window_in[:, x.shape[-1] - lo :] = 0.0
        coeffs = stdct.dct_forward(frames[:, :n] * window)
        block = denoised[:, :, :n]
        tracking.step(state, coeffs, config, block)
        for k in range(n_kinds):
            stdct.dct_inverse(block[k], out=block[k])
        block *= window
        stdct.overlap_add_block(acc, block, grid)
        stdct.overlap_add_block(norm, squares[:n], grid)
        done = n * hop if start + n < grid.num_frames else x.shape[-1] - lo
        acc[..., :done] /= norm[:done]  # the shift below discards these samples
        yield lo, acc[..., :done]
        for buf in (acc, norm):
            buf[..., : width - n * hop] = buf[..., n * hop :]
            buf[..., width - n * hop :] = 0.0


def _collect(x: np.ndarray, config: DenoiserConfig, kinds):
    """Run :func:`_run` to the end; return the whole output, shape ``(kinds,
    inputs, samples)``, and the tracker state after the last frame."""
    state, spans = _run(x, config, kinds)
    out = np.empty((len(kinds),) + x.shape)
    for lo, span in spans:
        out[..., lo : lo + span.shape[-1]] = span
    return out, state


def denoise_spans(noisy: np.ndarray, config: DenoiserConfig, kinds):
    """Denoise as :func:`denoise_kinds` does, but yield the output span by
    span, as ``(lo, out)`` pairs in order: ``out`` has shape ``(len(kinds),
    inputs, m)`` and holds output samples ``lo`` to ``lo + m``.  Each ``out``
    is overwritten by the next span, so a caller that keeps it must copy it,
    and ``noisy`` is read as the spans are made, so it must not change
    before the last one.  The bits are those of :func:`denoise_kinds`;
    memory per stream is one block of frames, whatever the signal's length.
    """
    return _run(_as_batch(noisy), config, list(kinds))[1]


def _as_batch(noisy) -> np.ndarray:
    x = np.asarray(noisy, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected shape (inputs, samples), got {x.shape}")
    return x


def denoise_kinds(noisy: np.ndarray, config: DenoiserConfig, kinds) -> np.ndarray:
    """Denoise each row of ``noisy`` (shape ``(inputs, samples)``) with each
    measure in ``kinds``; ``config.kind`` is ignored.

    Returns shape ``(len(kinds), inputs, samples)``.  Row ``[k, i]`` is
    bit-identical to ``denoise(noisy[i], replace(config, kind=kinds[k]))``.
    """
    out, _ = _collect(_as_batch(noisy), config, list(kinds))
    return out


def denoise(noisy: np.ndarray, config: DenoiserConfig) -> np.ndarray:
    """Denoise a signal, preserving its length exactly."""
    x = np.asarray(noisy, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a mono signal, got shape {x.shape}")
    return denoise_kinds(x[None], config, [config.kind])[0, 0]


def denoise_file(in_path, out_path, config: DenoiserConfig) -> DenoiseSummary:
    """Read a WAV file, denoise it at the file's sample rate, and write the result."""
    buf = read_wav(in_path)
    config = replace(config, sample_rate=buf.sample_rate)
    out, state = _collect(buf.samples[None], config, [config.kind])
    write_wav(out_path, AudioBuffer(out[0, 0], buf.sample_rate))
    frames = state.frames_seen
    return DenoiseSummary(
        config.frame_len, config.hop, frames, float(state.speech_frames[0] / frames)
    )
