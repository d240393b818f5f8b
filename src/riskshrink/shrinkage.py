"""Risk-optimal shrinkage gains for the seven supported distortion measures.

Each measure maps an a-posteriori SNR ``xi = X**2 / sigma**2`` to a gain in
``[0, 1]`` applied multiplicatively to the DCT coefficient.  The parametric
refinement divides ``xi`` by ``alpha`` before evaluating the unit-alpha
formula, so ``(xi, alpha)`` and ``(xi / alpha, 1.0)`` give the same gain exactly.

Each gain is a clamp and a power of one polynomial in ``u = alpha / xi``, one
entry of ``_GAINS``.  :func:`gain_rows`, the one way into the table, evaluates
a kind per row of a stack.
"""

import enum

import numpy as np

# The gains have one implementation, so this never changes.  It stays because
# ``perfbench/worker.py`` records it with every run and ``perfbench/compare.py``
# refuses to compare runs whose values differ.
BACKEND = "python"


class ShrinkageKind(enum.Enum):
    """Distortion measure selecting the gain formula and risk estimate."""

    MSE = "mse"
    WE = "we"
    LOG_MSE = "log_mse"
    IS = "is"
    IS_II = "is_ii"
    COSH = "cosh"
    WCOSH = "wcosh"


_GAINS = {
    ShrinkageKind.MSE: lambda u: np.maximum(1.0 - u, 0.0),
    ShrinkageKind.WE: lambda u: 1.0 / (
        (((360.0 * u + 48.0) * u - 1.0) * u + 1.0) * u + 1.0),
    ShrinkageKind.LOG_MSE: lambda u: np.exp(
        np.minimum((((-210.0 * u - 10.0) * u - 0.75) * u + 0.5) * u, 0.0)),
    ShrinkageKind.IS: lambda u: 1.0 / ((840.0 * u + 60.0) * u * u * u + 1.0),
    ShrinkageKind.IS_II: lambda u: 1.0 / np.sqrt(
        np.maximum((((4200.0 * u + 360.0) * u - 3.0) * u + 1.0) * u + 1.0, 1.0)),
    ShrinkageKind.COSH: lambda u: np.sqrt(
        np.minimum((1.0 + u) / ((840.0 * u + 60.0) * u * u * u + 1.0), 1.0)),
    ShrinkageKind.WCOSH: lambda u: 1.0 / np.sqrt(
        np.maximum((((8400.0 * u + 420.0) * u + 3.0) * u - 1.0) * u + 1.0, 1.0)),
}


def gain_rows(kinds, xi: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Gain in [0, 1] of each a-posteriori SNR in ``xi``, with the shape of ``xi``;
    row ``xi[k]`` takes the gain of ``kinds[k]``.

    ``xi = 0`` gives 0 for every measure: the coefficient carries no signal
    evidence and several formulas are singular there.  So do NaN and every
    ``xi`` small enough that ``u = alpha / xi`` overflows.
    """
    for kind in kinds:
        if not isinstance(kind, ShrinkageKind):
            valid = ", ".join(k.value for k in ShrinkageKind)
            raise ValueError(f"kind must be a ShrinkageKind ({valid}), got {kind!r}")
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    xi = np.asarray(xi, dtype=np.float64)
    if xi.shape[:1] != (len(kinds),):
        raise ValueError(f"xi must have {len(kinds)} rows, got shape {xi.shape}")
    if (xi < 0.0).any():  # NaN passes and maps to 0
        raise ValueError("xi must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = 1.0 / (xi / float(alpha))
        g = np.array([_GAINS[kind](row) for kind, row in zip(kinds, u)])
        # past the xi < 0 refusal, u is +-inf where xi / alpha is +-0 or so small
        # that its reciprocal overflows, and NaN at NaN: all of them shrink fully
        return np.where(np.isfinite(u), g, 0.0)
