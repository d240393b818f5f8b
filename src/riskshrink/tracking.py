"""Per-bin noise-variance tracking with a likelihood-ratio VAD gate, the
recursive inverse a-posteriori SNR estimate, and the gains it feeds.

One call of :func:`step` advances the tracker over a block of frames and
writes each frame's denoised coefficients into the caller's block.  The VAD,
its hangover and the noise floor belong to the input: state arrays carry any
number of leading input axes, one row of ``bins`` per input, shared by every
gain applied to that input.  Only the inverse-SNR recursion runs per gain,
one row each: the requested kinds in their order, then a hidden mse (Wiener)
row when mse was not requested.  The VAD reads the mse estimate, so no gain
can hide speech from the VAD that sets its own floor.  An input's frames are
strictly sequential since each frame's estimate depends on the previous one,
so a block is squared, its constants formed and its speech counted once, and
the rest runs frame by frame.  The state holds only what one frame hands the
next; every scratch array belongs to the call that makes it.
"""

from dataclasses import dataclass, field

import numpy as np

from .shrinkage import _ONE, _QUIET, _ZERO, ShrinkageKind, _check_kinds, _constant
from .shrinkage import gain_rows_unchecked

_ZERO_FRAMES = _constant(0)
# Decision-directed smoothing weight for the VAD-internal prior SNR, and the
# weight of the current observation.
_DD_WEIGHT = _constant(0.98)
_DD_REST = _constant(1.0 - 0.98)
# A-posteriori SNR cap.  A non-silent bin whose noise variance is zero has
# x**2 / 0 = inf and falls to it, as does one whose variance is vanishingly
# small; a silent bin has gamma 0 whatever its variance.
_GAMMA_CAP = _constant(1e6)
# The largest hangover the int64 ``hang`` counter holds.
_MAX_HANGOVER = int(np.iinfo(np.int64).max)


@dataclass
class TrackerState:
    """Tracker state, updated in place by :func:`step`: what one frame hands
    the next, and nothing else.

    ``gain`` holds the last frame's gain of each kind in ``rows``, shape
    ``(rows, ..., bins)``, the result of that frame's one gain call; the VAD
    reads the first mse row.  ``noise_var`` and ``prev_noisy_sq``, the last
    frame's squared coefficients, have shape ``(..., bins)``, one row per
    input; ``hang``, shape ``(...)``, holds the hangover frames left per
    input, and ``speech_frames`` the frames taken as speech (hangover too).

    Building the state checks it once, before any frame: an entry of ``rows``
    that is not a ``ShrinkageKind`` raises ``_check_kinds``' ``ValueError``,
    and so do ``rows`` without mse and an array whose shape does not match
    ``noise_var``'s, naming the field and the shape it needs.  No field is
    memory the caller owns: the state keeps a list copy of ``rows``, float64
    copies of ``noise_var``, ``gain`` and ``prev_noisy_sq`` and int64 copies
    of ``hang`` and ``speech_frames``.  The one derived field records whether
    the floor holds a bin that is not positive; :func:`update_noise`
    refreshes it whenever it moves the floor, so ``noise_var`` must change
    only through it.
    """

    rows: list
    noise_var: np.ndarray
    gain: np.ndarray
    prev_noisy_sq: np.ndarray
    hang: np.ndarray
    speech_frames: np.ndarray
    frames_seen: int = 0
    _floor_has_zero: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rows = list(self.rows)
        _check_kinds(self.rows)
        if ShrinkageKind.MSE not in self.rows:
            raise ValueError("rows must include mse")
        self.noise_var = np.array(self.noise_var, dtype=np.float64)
        shape = self.noise_var.shape
        for name, dtype, want in (
            ("gain", np.float64, (len(self.rows),) + shape),
            ("prev_noisy_sq", np.float64, shape),
            ("hang", np.int64, shape[:-1]),
            ("speech_frames", np.int64, shape[:-1]),
        ):
            value = np.array(getattr(self, name), dtype=dtype)
            if value.shape != want:
                raise ValueError(f"{name} must have shape {want}, got {value.shape}")
            setattr(self, name, value)
        _mark_zero_floor(self)


def _mark_zero_floor(state: TrackerState) -> None:
    """Record whether the floor holds a bin that is not positive.  Without
    one the VAD's masks select nothing, so the frames skip them."""
    state._floor_has_zero = not (state.noise_var > _ZERO).all()


def initialize(first_frames: np.ndarray, kinds) -> TrackerState:
    """Build initial state from leading frames assumed to contain only noise.

    ``first_frames`` is a float array of shape ``(..., frames, bins)`` with at
    least one frame, as ``DenoiserConfig.init_noise_frames`` guarantees; the
    per-bin variance of each input is the average squared coefficient over
    all its frames.  The rows are ``kinds`` in their order, repeats included,
    then mse when ``kinds`` lacks it; ``gain`` starts as one zero row each.
    A kind that is not a ``ShrinkageKind`` raises ``ValueError`` here.
    """
    noise_var = np.mean(first_frames**2, axis=-2)
    rows = list(kinds)
    if ShrinkageKind.MSE not in rows:
        rows.append(ShrinkageKind.MSE)
    return TrackerState(
        rows=rows,
        noise_var=noise_var,
        gain=np.zeros((len(rows),) + noise_var.shape),
        prev_noisy_sq=np.zeros_like(noise_var),
        hang=np.zeros(noise_var.shape[:-1], dtype=np.int64),
        speech_frames=np.zeros(noise_var.shape[:-1], dtype=np.int64),
    )


def vad(x_sq, g_mse_sq, prev_sq, state: TrackerState) -> np.ndarray:
    """Average per-bin log-likelihood ratio of speech presence, per input,
    run like the gains under the caller's ``np.errstate(**_QUIET)``.

    ``x_sq`` is the frame's squared coefficients, of ``noise_var``'s shape.
    Per bin the term is ``gamma * rho / (1 + rho) - log(1 + rho)`` with
    ``gamma`` the a-posteriori SNR and ``rho`` a decision-directed prior SNR
    blending the previous mse estimate, ``g_mse_sq * prev_sq`` (the previous
    mse gain squared times the previous frame's squares), with the current
    observation.  Every array it writes is its own.  The masks of silent bins
    and of a zero floor are formed only while the floor holds a zero:
    elsewhere ``0 / noise_var`` is already +0.
    """
    nv = state.noise_var
    gamma = np.divide(x_sq, nv)
    dd = np.multiply(g_mse_sq, prev_sq)
    dd *= _DD_WEIGHT
    dd /= nv
    if state._floor_has_zero:
        np.copyto(gamma, _ZERO, where=~(x_sq > _ZERO))
        np.copyto(dd, _ZERO, where=~(nv > _ZERO))
    np.minimum(gamma, _GAMMA_CAP, out=gamma)
    rho = np.subtract(gamma, _ONE)
    np.maximum(rho, _ZERO, out=rho)
    rho *= _DD_REST
    rho += dd
    np.minimum(rho, _GAMMA_CAP, out=rho)
    # gamma * rho / (1 + rho) - log1p(rho), reusing gamma and dd
    gamma *= rho
    gamma /= np.add(rho, _ONE, out=dd)
    gamma -= np.log1p(rho, out=dd)
    return np.add.reduce(gamma, axis=-1) / gamma.shape[-1]


def update_noise(
    x_sq: np.ndarray, speech: np.ndarray, state: TrackerState, eta: float
) -> None:
    """Exponential noise-variance update in place, frozen in speech inputs."""
    if all(speech.flat):
        return
    blended = np.multiply(state.noise_var, eta)
    blended += np.multiply(x_sq, 1.0 - eta)
    np.copyto(state.noise_var, blended, where=~speech[..., None])
    _mark_zero_floor(state)


def step(state: TrackerState, block: np.ndarray, config, out: np.ndarray):
    """Advance the tracker over a block of frames; write each frame's
    coefficients times its gain into ``out`` and return ``(inv_xi, speech)``.

    ``block`` has shape ``(..., n, bins)``: ``n >= 1`` frames of each input,
    its leading axes broadcasting to ``noise_var``'s.  ``out`` has shape
    ``(k, ..., n, bins)``, with ``k <= len(rows)`` and ``noise_var``'s
    leading axes; ``out[r, ..., j, :]`` becomes frame ``j`` times its gain of
    ``rows[r]``, so ``k = len(kinds)`` gives the requested kinds' rows and
    skips the hidden mse row.  ``config`` is the denoiser's ``DenoiserConfig``;
    the step reads its ``vad_threshold``, ``vad_hangover``, ``eta``, ``beta``
    and ``alpha``.  Stepping a signal block by block gives the bits of
    stepping it frame by frame, whatever the split.

    Per frame: an input counts as speech when its VAD statistic exceeds
    ``vad_threshold`` or for ``vad_hangover`` frames after one that did; its
    noise variance updates with weight ``eta`` only otherwise.  Each row then
    has, with the updated variance and ``b = beta`` (``b = 1`` on the first
    frame), ``1/xi = b * noise_var/X**2 + (1-b) * (1 - g_prev**2)``, the
    previous frame's ``S**2/X**2`` being its gain squared.  ``X = 0`` gives
    ``1/xi = inf``, or NaN where ``noise_var`` is 0 too, so zero gain.  Row
    ``r`` of ``gain`` becomes the gain of ``rows[r]`` at ``u = alpha/xi``.
    ``speech`` has shape ``(..., n)``, one flag per input and frame, and its
    count per input is added to ``speech_frames``; ``inv_xi`` holds the last
    frame's ``1/xi``, one row per entry of ``rows``.

    Buffers: ``gain`` is the state's, rewritten in place by every frame, so
    a caller that keeps a frame's gain must copy it.  Arrays made once per
    step, the block's squares, ``speech`` and the returned ``inv_xi``, belong
    to that step and are never written again; ``prev_noisy_sq`` becomes a
    copy of the last frame's squares, so that the block's squares are freed,
    and the array it held before a step is never written again either.
    ``noise_var``, ``hang`` and ``speech_frames`` are updated in place.  The
    step keeps no reference to ``block`` or ``out``.
    """
    n = block.shape[-2]
    # frame-major, so that each frame's squares are one contiguous slab
    squares = np.empty((n,) + state.noise_var.shape)
    speech = np.empty(state.hang.shape + (n,), dtype=bool)
    threshold = _constant(config.vad_threshold)
    hangover = _constant(config.vad_hangover)
    alpha = _constant(config.alpha)
    beta, rest = _constant(config.beta), _constant(1.0 - config.beta)
    gain = state.gain
    inv, u = np.empty(gain.shape), np.empty(gain.shape)
    mse = state.rows.index(ShrinkageKind.MSE)
    with np.errstate(**_QUIET):
        np.square(np.moveaxis(block, -2, 0), out=squares)
        prev_sq = state.prev_noisy_sq
        for j in range(n):
            x_sq = squares[j]
            # g_prev**2 serves the VAD's mse row and becomes every row's 1/xi
            np.square(gain, out=inv)
            raw = vad(x_sq, inv[mse], prev_sq, state) > threshold
            held = state.hang > _ZERO_FRAMES
            speech_j = np.logical_or(raw, held, out=speech[..., j])
            state.hang -= held
            np.copyto(state.hang, hangover, where=raw)
            update_noise(x_sq, speech_j, state, config.eta)
            b, rest_b = (beta, rest) if state.frames_seen + j else (_ONE, _ZERO)
            posterior = np.multiply(state.noise_var, b)
            posterior /= x_sq
            # (1 - b) * (1 - g_prev**2) + b * noise_var / X**2
            np.subtract(_ONE, inv, out=inv)
            inv *= rest_b
            inv += posterior
            np.multiply(inv, alpha, out=u)
            gain_rows_unchecked(state.rows, u, out=gain)
            np.multiply(gain[: out.shape[0]], block[..., j, :], out=out[..., j, :])
            prev_sq = x_sq
    state.speech_frames += np.add.reduce(speech, axis=-1)
    # a copy, not a view: a view kept the previous block's squares alive and
    # raised the peak RSS of a 21-stream 3 s 8 kHz CLI evaluate from 39.76
    # to 39.99 MB (medians of 12 fresh-process pairs)
    state.prev_noisy_sq = prev_sq.copy()
    state.frames_seen += n
    return inv, speech
