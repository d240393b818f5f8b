"""Per-bin noise-variance tracking with a likelihood-ratio VAD gate and the
recursive inverse a-posteriori SNR estimate.

One call of :func:`step` advances the tracker by one frame.  The VAD, its
hangover and the noise floor belong to the input: state arrays carry any
number of leading input axes, one row of ``bins`` per input, and every gain
applied to that input shares them.  Only the inverse-SNR recursion runs per
gain, on a leading kinds axis of ``prev_denoised`` whose first row, the mse
(Wiener) estimate, primes the VAD.  So no gain can hide speech from the VAD
that sets its own floor.  An input's frames are strictly sequential since
each frame's estimate depends on the previous one.
"""

from dataclasses import dataclass

import numpy as np

# Decision-directed smoothing weight for the VAD-internal prior SNR.
_DD_WEIGHT = 0.98
# A-posteriori SNR cap; protects the statistic when a noise-variance bin is
# zero or vanishingly small.
_GAMMA_CAP = 1e6


@dataclass
class TrackerState:
    """Tracker state, updated in place by :func:`step`.

    ``noise_var`` has shape ``(..., bins)``, one row per input; ``hang``
    holds the hangover frames left per input.  ``prev_noisy_sq`` is the
    previous frame's squared coefficients (any shape broadcasting against
    ``noise_var``).  ``prev_denoised`` has shape ``(kinds, ..., bins)``: the
    caller stores each frame's denoised coefficients there, one row per gain
    with the mse estimate first, before the next step.
    """

    noise_var: np.ndarray
    prev_denoised: np.ndarray
    prev_noisy_sq: np.ndarray
    hang: np.ndarray
    frames_seen: int = 0


def initialize(first_frames: np.ndarray) -> TrackerState:
    """Build initial state from leading frames assumed to contain only noise.

    ``first_frames`` has shape ``(..., frames, bins)``; the per-bin variance
    of each input is the average squared coefficient over all its frames.
    ``prev_denoised`` starts as one zero row, for one kind; a caller that
    steps several kinds replaces it with one zero row per kind.
    """
    frames = np.atleast_2d(np.asarray(first_frames, dtype=np.float64))
    if frames.shape[-2] == 0:
        raise ValueError("need at least one initialization frame, got 0")
    noise_var = np.mean(frames**2, axis=-2)
    return TrackerState(
        noise_var=noise_var,
        prev_denoised=np.zeros((1,) + noise_var.shape),
        prev_noisy_sq=np.zeros(noise_var.shape[-1]),
        hang=np.zeros(noise_var.shape[:-1], dtype=np.int64),
    )


def vad(x_sq: np.ndarray, state: TrackerState) -> np.ndarray:
    """Average per-bin log-likelihood ratio of speech presence, per input.

    ``x_sq`` is the frame's squared coefficients.  Per bin the term is
    ``gamma * rho / (1 + rho) - log(1 + rho)`` with ``gamma`` the
    a-posteriori SNR and ``rho`` a decision-directed prior SNR blending the
    previous mse estimate (row 0 of ``prev_denoised``) with the current
    observation.
    """
    nv = state.noise_var
    live = nv > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = np.where(live, x_sq / nv, np.where(x_sq > 0.0, _GAMMA_CAP, 0.0))
        gamma = np.minimum(gamma, _GAMMA_CAP)
        dd = np.where(live, _DD_WEIGHT * state.prev_denoised[0] ** 2 / nv, 0.0)
    rho = np.minimum(dd + (1.0 - _DD_WEIGHT) * np.maximum(gamma - 1.0, 0.0), _GAMMA_CAP)
    return np.mean(gamma * rho / (1.0 + rho) - np.log1p(rho), axis=-1)


def update_noise(
    x_sq: np.ndarray, speech: np.ndarray, state: TrackerState, eta: float
) -> None:
    """Exponential noise-variance update in place, frozen in speech inputs."""
    blended = eta * state.noise_var + (1.0 - eta) * x_sq
    np.copyto(state.noise_var, blended, where=~speech[..., None])


def step(
    state: TrackerState,
    frame: np.ndarray,
    *,
    threshold: float,
    hangover: int,
    eta: float,
    beta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the tracker by one frame; return ``(inv_xi, speech)``.

    ``speech`` has one flag per input and ``inv_xi`` one row per kind of
    ``prev_denoised``.  An input counts as speech when its VAD statistic
    exceeds ``threshold`` or for ``hangover`` frames after one that did; its
    noise variance updates only otherwise.  Then, with the updated variance,
    ``1/xi = b * noise_var/X**2 + (1-b) * max(1 - S_prev**2/X_prev**2, 0)``
    with ``b = beta``, except ``b = 1`` on the very first frame, which has no
    previous one.  Bins with ``X = 0`` get an infinite inverse SNR, which
    downstream maps to zero gain.
    """
    x_sq = np.asarray(frame, dtype=np.float64) ** 2
    raw = vad(x_sq, state) > threshold
    speech = raw | (state.hang > 0)
    state.hang = np.where(raw, hangover, np.maximum(state.hang - 1, 0))
    update_noise(x_sq, speech, state, eta)
    b = beta if state.frames_seen else 1.0
    nv = state.noise_var
    with np.errstate(divide="ignore", invalid="ignore"):
        prev_sq = state.prev_noisy_sq
        ratio = np.where(prev_sq > 0.0, state.prev_denoised**2 / prev_sq, 0.0)
        residual = np.maximum(1.0 - ratio, 0.0)
        inv = np.where(x_sq > 0.0, b * nv / x_sq + (1.0 - b) * residual, np.inf)
    state.prev_noisy_sq = x_sq
    state.frames_seen += 1
    return inv, speech
