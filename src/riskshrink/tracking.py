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
the rest runs frame by frame.
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
    """Tracker state, updated in place by :func:`step`.

    ``gain`` holds the last frame's gain of each kind in ``rows``, shape
    ``(rows, ..., bins)``, the result of that frame's one gain call; the VAD
    reads the first mse row.  ``noise_var`` and ``prev_noisy_sq``, the last
    frame's squared coefficients, have shape ``(..., bins)``, one row per
    input; ``hang`` holds the hangover frames left per input, and
    ``speech_frames`` the frames taken as speech so far (hangover included).
    No field is a view of memory the caller owns: the state keeps a copy of
    the ``gain`` it is built with, and rewrites that copy in place.

    Building the state checks ``rows`` once: an entry that is not a
    ``ShrinkageKind`` raises ``_check_kinds``' ``ValueError`` before any frame.
    It also records the first mse row, whether the floor holds a bin that is
    not positive, and the scratch buffers each frame reuses, one of them the
    bool ``_mask`` of the VAD's zero-floor masks.  :func:`update_noise`
    refreshes the flag whenever it moves the floor, so ``noise_var`` must
    change only through it.
    """

    rows: list
    noise_var: np.ndarray
    gain: np.ndarray
    prev_noisy_sq: np.ndarray
    hang: np.ndarray
    speech_frames: np.ndarray
    frames_seen: int = 0
    _mse_row: int = field(init=False, repr=False, compare=False)
    _floor_has_zero: bool = field(init=False, repr=False, compare=False)
    _scratch: tuple = field(init=False, repr=False, compare=False)
    _mask: np.ndarray = field(init=False, repr=False, compare=False)
    _inv: np.ndarray = field(init=False, repr=False, compare=False)
    _u: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_kinds(self.rows)
        self._mse_row = self.rows.index(ShrinkageKind.MSE)
        self.gain = np.array(self.gain, dtype=np.float64)
        shape = self.noise_var.shape
        self._mask = np.empty(shape, dtype=bool)
        _mark_zero_floor(self)
        self._scratch = tuple(np.empty(shape) for _ in range(3))
        self._inv = np.empty(self.gain.shape)
        self._u = np.empty(self.gain.shape)


def _mark_zero_floor(state: TrackerState) -> None:
    """Record whether the floor holds a bin that is not positive.  Without
    one the VAD's masks select nothing, so the frames skip them."""
    state._floor_has_zero = not np.greater(state.noise_var, _ZERO, out=state._mask).all()


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
    observation.  The masks of silent bins and of a zero floor run only while
    the floor holds a zero: elsewhere ``0 / noise_var`` is already +0.
    """
    nv = state.noise_var
    gamma, rho, dd = state._scratch
    np.divide(x_sq, nv, out=gamma)
    np.multiply(g_mse_sq, prev_sq, out=dd)
    dd *= _DD_WEIGHT
    dd /= nv
    if state._floor_has_zero:
        mask = state._mask
        np.logical_not(np.greater(x_sq, _ZERO, out=mask), out=mask)
        np.copyto(gamma, _ZERO, where=mask)
        np.logical_not(np.greater(nv, _ZERO, out=mask), out=mask)
        np.copyto(dd, _ZERO, where=mask)
    np.minimum(gamma, _GAMMA_CAP, out=gamma)
    np.subtract(gamma, _ONE, out=rho)
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
    nv = state.noise_var
    frozen = any(speech.flat)
    # into noise_var when every input is noise, else into scratch for copyto
    blended = state._scratch[0] if frozen else nv
    np.multiply(nv, eta, out=blended)
    blended += np.multiply(x_sq, 1.0 - eta, out=state._scratch[1])
    if frozen:
        np.copyto(nv, blended, where=~speech[..., None])
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

    Buffers: ``gain`` and the returned ``inv_xi`` are the state's, rewritten
    in place by every frame, so a caller that keeps a frame's gain or
    ``inv_xi`` must copy it.  Arrays made once per step, the block's squares
    and ``speech``, belong to that step and are never written again;
    ``prev_noisy_sq`` becomes a copy of the last frame's squares, so that the
    block's squares are freed, and the array it held before a step is never
    written again either.  ``noise_var``, ``hang`` and ``speech_frames`` are
    updated in place.  The step keeps no reference to ``block`` or ``out``.
    """
    n = block.shape[-2]
    # frame-major, so that each frame's squares are one contiguous slab
    squares = np.empty((n,) + state.noise_var.shape)
    speech = np.empty(state.hang.shape + (n,), dtype=bool)
    threshold = _constant(config.vad_threshold)
    hangover = _constant(config.vad_hangover)
    alpha = _constant(config.alpha)
    beta, rest = _constant(config.beta), _constant(1.0 - config.beta)
    gain, inv, u = state.gain, state._inv, state._u
    mse = state._mse_row
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
            posterior = np.multiply(state.noise_var, b, out=state._scratch[0])
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
