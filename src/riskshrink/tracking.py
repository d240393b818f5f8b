"""Per-bin noise-variance tracking with a likelihood-ratio VAD gate, the
recursive inverse a-posteriori SNR estimate, and the gains it feeds.

One call of :func:`step` computes one frame's gains.  The VAD, its hangover
and the noise floor belong to the input: state arrays carry any number of
leading input axes, one row of ``bins`` per input, shared by every gain
applied to that input.  Only the inverse-SNR recursion runs per gain, one row
each: the requested kinds in their order, then a hidden mse (Wiener) row when
mse was not requested.  The VAD reads the mse estimate, so no gain can hide
speech from the VAD that sets its own floor.  An input's frames are strictly
sequential since each frame's estimate depends on the previous one.
"""

from dataclasses import dataclass, field

import numpy as np

from .shrinkage import _QUIET, ShrinkageKind, _check_kinds, gain_rows_unchecked


def _constant(value) -> np.ndarray:
    """``value`` as a read-only 0-d array.  As the operand of a ufunc it gives
    the bits the Python number gives, but skips the conversion numpy makes of
    a Python scalar on every call, about 0.2 us; the step makes about twenty
    such calls per frame."""
    a = np.array(value)
    a.flags.writeable = False
    return a


_ZERO, _ONE = _constant(0.0), _constant(1.0)
_ZERO_FRAMES, _ONE_FRAME = _constant(0), _constant(1)
# Decision-directed smoothing weight for the VAD-internal prior SNR, and the
# weight of the current observation.
_DD_WEIGHT = _constant(0.98)
_DD_REST = _constant(1.0 - 0.98)
# A-posteriori SNR cap.  A non-silent bin whose noise variance is zero has
# x**2 / 0 = inf and falls to it, as does one whose variance is vanishingly
# small; a silent bin has gamma 0 whatever its variance.
_GAMMA_CAP = _constant(1e6)


@dataclass
class TrackerState:
    """Tracker state, updated in place by :func:`step`.

    ``gain`` holds the previous frame's gain of each kind in ``rows``, shape
    ``(rows, ..., bins)``, the result of that frame's one gain call; the VAD
    reads the first mse row.  ``noise_var`` and ``prev_noisy_sq``, the
    previous frame's squared coefficients, have shape ``(..., bins)``, one row
    per input; ``hang`` holds the hangover frames left per input, and
    ``speech_frames`` the frames taken as speech so far (hangover included).
    No field is a view of memory the caller owns.

    Building the state checks ``rows`` once: an entry that is not a
    ``ShrinkageKind`` raises ``_check_kinds``' ``ValueError`` before any frame.
    It also records the first mse row, the floor's mask ``~(noise_var > 0)``
    and the scratch buffers each step reuses.  :func:`update_noise` refreshes
    the mask whenever it moves the floor, so ``noise_var`` must change only
    through it.
    """

    rows: list
    noise_var: np.ndarray
    gain: np.ndarray
    prev_noisy_sq: np.ndarray
    hang: np.ndarray
    speech_frames: np.ndarray
    frames_seen: int = 0
    _mse_row: int = field(init=False, repr=False, compare=False)
    _zero_floor: np.ndarray = field(init=False, repr=False, compare=False)
    _next_sq: np.ndarray = field(init=False, repr=False, compare=False)
    _scratch: tuple = field(init=False, repr=False, compare=False)
    _silent: np.ndarray = field(init=False, repr=False, compare=False)
    _u: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_kinds(self.rows)
        self._mse_row = self.rows.index(ShrinkageKind.MSE)
        shape = self.noise_var.shape
        self._zero_floor = np.empty(shape, dtype=bool)
        _mark_zero_floor(self)
        self._next_sq = np.empty(shape)
        self._scratch = tuple(np.empty(shape) for _ in range(3))
        self._silent = np.empty(shape, dtype=bool)
        self._u = np.empty(self.gain.shape)


def _mark_zero_floor(state: TrackerState) -> None:
    np.greater(state.noise_var, _ZERO, out=state._zero_floor)
    np.logical_not(state._zero_floor, out=state._zero_floor)


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


def vad(x_sq: np.ndarray, state: TrackerState) -> np.ndarray:
    """Average per-bin log-likelihood ratio of speech presence, per input.

    ``x_sq`` is the frame's squared coefficients, of ``noise_var``'s shape.
    Per bin the term is ``gamma * rho / (1 + rho) - log(1 + rho)`` with
    ``gamma`` the a-posteriori SNR and ``rho`` a decision-directed prior SNR
    blending the previous mse estimate, ``g_mse**2 * prev_noisy_sq``, with the
    current observation.
    """
    with np.errstate(**_QUIET):
        return _llr(x_sq, np.square(state.gain[state._mse_row]), state)


def _llr(x_sq: np.ndarray, g_mse_sq: np.ndarray, state: TrackerState) -> np.ndarray:
    """:func:`vad` given the previous mse gain squared, for a caller that has
    switched warnings off."""
    nv = state.noise_var
    gamma, rho, dd = state._scratch
    np.divide(x_sq, nv, out=gamma)
    silent = state._silent
    np.logical_not(np.greater(x_sq, _ZERO, out=silent), out=silent)
    np.copyto(gamma, _ZERO, where=silent)
    np.minimum(gamma, _GAMMA_CAP, out=gamma)
    np.multiply(g_mse_sq, state.prev_noisy_sq, out=dd)
    dd *= _DD_WEIGHT
    dd /= nv
    np.copyto(dd, _ZERO, where=state._zero_floor)
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
    blended, weighted, _ = state._scratch
    if any(speech.flat):
        np.multiply(nv, eta, out=blended)
        blended += np.multiply(x_sq, 1.0 - eta, out=weighted)
        np.copyto(nv, blended, where=~speech[..., None])
    else:  # every input is noise: the same blend, in place
        np.multiply(nv, eta, out=nv)
        nv += np.multiply(x_sq, 1.0 - eta, out=weighted)
    _mark_zero_floor(state)


def step(
    state: TrackerState, frame: np.ndarray, config
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the tracker by one frame, keeping each row's gain for it in
    ``gain``; return ``(inv_xi, speech)``.

    ``frame`` has ``noise_var``'s shape.  ``config`` is the denoiser's
    ``DenoiserConfig``; the step reads its ``vad_threshold``,
    ``vad_hangover``, ``eta``, ``beta`` and ``alpha``.  ``speech`` has one
    flag per input, also added to ``speech_frames``.  An input counts as
    speech when its VAD statistic exceeds ``vad_threshold`` or for
    ``vad_hangover`` frames after one that did; its noise variance updates
    with weight ``eta`` only otherwise.  Each row then has, with the updated
    variance and ``b = beta`` (``b = 1`` on the first frame),
    ``1/xi = b * noise_var/X**2 + (1-b) * (1 - g_prev**2)``, the previous
    frame's ``S**2/X**2`` being its gain squared.  ``X = 0`` gives
    ``1/xi = inf``, or NaN where ``noise_var`` is 0 too, so zero gain.  Row
    ``k`` of ``gain`` becomes the gain of ``rows[k]`` at ``u = alpha/xi``, by
    which the caller multiplies ``frame``.

    Buffers: the step squares ``frame`` into a buffer the state owns and then
    swaps it with ``prev_noisy_sq``, so the array ``prev_noisy_sq`` held
    before a step is overwritten by the next step.  ``noise_var``, ``hang``
    and ``speech_frames`` are updated in place.  The returned
    ``inv_xi`` and ``speech``, and the array ``gain`` held before the step,
    are never written again.  The step keeps no reference to ``frame``.
    """
    x_sq = state._next_sq
    with np.errstate(**_QUIET):
        np.square(frame, out=x_sq)
        # g_prev**2 serves the VAD's mse row and becomes every row's 1/xi
        inv = np.square(state.gain)
        raw = _llr(x_sq, inv[state._mse_row], state) > config.vad_threshold
        speech = raw | (state.hang > _ZERO_FRAMES)
        np.maximum(state.hang - _ONE_FRAME, _ZERO_FRAMES, out=state.hang)
        np.copyto(state.hang, config.vad_hangover, where=raw)
        state.speech_frames += speech
        update_noise(x_sq, speech, state, config.eta)
        b = config.beta if state.frames_seen else 1.0
        posterior = np.multiply(state.noise_var, b, out=state._scratch[0])
        posterior /= x_sq
        # (1 - b) * (1 - g_prev**2) + b * noise_var / X**2
        np.subtract(_ONE, inv, out=inv)
        inv *= 1.0 - b
        inv += posterior
        u = np.multiply(inv, config.alpha, out=state._u)
        state.gain = gain_rows_unchecked(state.rows, u)
    state._next_sq = state.prev_noisy_sq
    state.prev_noisy_sq = x_sq
    state.frames_seen += 1
    return inv, speech
