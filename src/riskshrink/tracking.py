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

from dataclasses import dataclass

import numpy as np

from .shrinkage import ShrinkageKind, gain_rows

# Decision-directed smoothing weight for the VAD-internal prior SNR.
_DD_WEIGHT = 0.98
# A-posteriori SNR cap.  A non-silent bin whose noise variance is zero has
# x**2 / 0 = inf and falls to it, as does one whose variance is vanishingly
# small; a silent bin has gamma 0 whatever its variance.
_GAMMA_CAP = 1e6


@dataclass
class TrackerState:
    """Tracker state, updated in place by :func:`step`.

    ``gain`` holds the previous frame's gain of each kind in ``rows``, shape
    ``(rows, ..., bins)``, the result of that frame's one ``gain_rows`` call;
    the VAD reads the first mse row.  ``noise_var`` and ``prev_noisy_sq``, the
    previous frame's squared coefficients, have shape ``(..., bins)``, one row
    per input; ``hang`` holds the hangover frames left per input, and
    ``speech_frames`` the frames taken as speech so far (hangover included).
    No field is a view of memory the caller owns.
    """

    rows: list
    noise_var: np.ndarray
    gain: np.ndarray
    prev_noisy_sq: np.ndarray
    hang: np.ndarray
    speech_frames: np.ndarray
    frames_seen: int = 0


def initialize(first_frames: np.ndarray, kinds) -> TrackerState:
    """Build initial state from leading frames assumed to contain only noise.

    ``first_frames`` is a float array of shape ``(..., frames, bins)`` with at
    least one frame, as ``DenoiserConfig.init_noise_frames`` guarantees; the
    per-bin variance of each input is the average squared coefficient over
    all its frames.  The rows are ``kinds`` in their order, repeats included,
    then mse when ``kinds`` lacks it; ``gain`` starts as one zero row each.
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

    ``x_sq`` is the frame's squared coefficients.  Per bin the term is
    ``gamma * rho / (1 + rho) - log(1 + rho)`` with ``gamma`` the
    a-posteriori SNR and ``rho`` a decision-directed prior SNR blending the
    previous mse estimate, ``g_mse**2 * prev_noisy_sq``, with the current
    observation.
    """
    nv = state.noise_var
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gamma = np.divide(x_sq, nv)
        np.copyto(gamma, 0.0, where=~(x_sq > 0.0))
        np.minimum(gamma, _GAMMA_CAP, out=gamma)
        dd = np.square(state.gain[state.rows.index(ShrinkageKind.MSE)])
        dd *= state.prev_noisy_sq
        dd *= _DD_WEIGHT
        dd /= nv
        np.copyto(dd, 0.0, where=~(nv > 0.0))
    rho = np.subtract(gamma, 1.0)
    np.maximum(rho, 0.0, out=rho)
    rho *= 1.0 - _DD_WEIGHT
    rho += dd
    np.minimum(rho, _GAMMA_CAP, out=rho)
    # gamma * rho / (1 + rho) - log1p(rho), reusing gamma and dd
    gamma *= rho
    gamma /= np.add(rho, 1.0, out=dd)
    gamma -= np.log1p(rho, out=dd)
    return np.add.reduce(gamma, axis=-1) / gamma.shape[-1]


def update_noise(
    x_sq: np.ndarray, speech: np.ndarray, state: TrackerState, eta: float
) -> None:
    """Exponential noise-variance update in place, frozen in speech inputs."""
    if speech.all():
        return
    blended = np.multiply(state.noise_var, eta)
    blended += np.multiply(x_sq, 1.0 - eta)
    np.copyto(state.noise_var, blended, where=~speech[..., None])


def step(
    state: TrackerState, frame: np.ndarray, config
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the tracker by one frame, keeping each row's gain for it in
    ``gain``; return ``(inv_xi, speech)``.

    ``config`` is the denoiser's ``DenoiserConfig``; the step reads its
    ``vad_threshold``, ``vad_hangover``, ``eta``, ``beta`` and ``alpha``.
    ``speech`` has one flag per input, also added to ``speech_frames``.  An
    input counts as speech when its VAD statistic exceeds ``vad_threshold``
    or for ``vad_hangover`` frames after one that did; its noise variance
    updates with weight ``eta`` only otherwise.  Each row then has, with the
    updated variance and ``b = beta`` (``b = 1`` on the first frame),
    ``1/xi = b * noise_var/X**2 + (1-b) * (1 - g_prev**2)``, the previous
    frame's ``S**2/X**2`` being its gain squared.  ``X = 0`` gives
    ``1/xi = inf``, or NaN where ``noise_var`` is 0 too, so zero gain.  Row
    ``k`` of ``gain`` becomes the gain of ``rows[k]`` at ``u = alpha/xi``, by
    which the caller multiplies ``frame``.
    """
    x_sq = np.square(frame)
    raw = vad(x_sq, state) > config.vad_threshold
    speech = raw | (state.hang > 0)
    state.hang = np.where(raw, config.vad_hangover, np.maximum(state.hang - 1, 0))
    state.speech_frames += speech
    update_noise(x_sq, speech, state, config.eta)
    b = config.beta if state.frames_seen else 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        posterior = np.multiply(state.noise_var, b)
        posterior /= x_sq
        # (1 - b) * (1 - g_prev**2) + b * noise_var / X**2
        inv = np.square(state.gain)
        np.subtract(1.0, inv, out=inv)
        inv *= 1.0 - b
        inv += posterior
        state.gain = gain_rows(state.rows, np.multiply(inv, config.alpha))
    state.prev_noisy_sq = x_sq
    state.frames_seen += 1
    return inv, speech
