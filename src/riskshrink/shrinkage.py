"""Risk-optimal shrinkage gains for the seven supported distortion measures.

Each measure maps an a-posteriori SNR ``xi = X**2 / sigma**2`` to a gain in
``[0, 1]`` applied multiplicatively to the DCT coefficient.  The parametric
refinement divides ``xi`` by ``alpha`` before evaluating the unit-alpha
formula, so ``gain(kind, xi, alpha) == gain(kind, xi / alpha, 1.0)`` exactly.

Every formula is a polynomial in ``u = 1 / xi_eff``.  :func:`gain` evaluates
it with ``math`` on one value (the risk lab's path); :func:`gain_array` runs
the same expressions, in the same order, with numpy over an array (the
denoiser's path).
"""

import enum
import math

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


# Branch on these names, not ``ShrinkageKind.X``: each Enum class attribute
# read costs about 40 ns in CPython 3.11, which doubled a scalar ``gain``.
_MSE, _WE, _LOG_MSE, _IS, _IS_II, _COSH, _WCOSH = ShrinkageKind


def _check_args(kind: ShrinkageKind, alpha: float) -> None:
    if not isinstance(kind, ShrinkageKind):
        valid = ", ".join(k.value for k in ShrinkageKind)
        raise ValueError(f"kind must be a ShrinkageKind ({valid}), got {kind!r}")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")


def gain(kind: ShrinkageKind, xi: float, alpha: float = 1.0) -> float:
    """Gain in [0, 1] for a single a-posteriori SNR value.

    ``xi = 0`` returns 0 for every measure: the coefficient carries no signal
    evidence and several formulas are singular there.
    """
    _check_args(kind, alpha)
    if xi < 0.0:
        raise ValueError(f"xi must be nonnegative, got {xi}")
    xi_eff = float(xi) / float(alpha)
    if not xi > 0.0 or xi_eff == 0.0:
        return 0.0
    u = 1.0 / xi_eff
    if math.isinf(u):
        return 0.0
    if kind is _MSE:
        v = 1.0 - u
        return v if v > 0.0 else 0.0
    if kind is _WE:
        return 1.0 / ((((360.0 * u + 48.0) * u - 1.0) * u + 1.0) * u + 1.0)
    if kind is _LOG_MSE:
        t = ((((-210.0 * u - 10.0) * u - 0.75) * u + 0.5) * u)
        return math.exp(t) if t < 0.0 else 1.0
    if kind is _IS:
        return 1.0 / ((840.0 * u + 60.0) * u * u * u + 1.0)
    if kind is _IS_II:
        r = (((4200.0 * u + 360.0) * u - 3.0) * u + 1.0) * u + 1.0
        return 1.0 if r <= 1.0 else 1.0 / math.sqrt(r)
    if kind is _COSH:
        r = (1.0 + u) / ((840.0 * u + 60.0) * u * u * u + 1.0)
        return 1.0 if r >= 1.0 else math.sqrt(r)
    # _WCOSH
    r = (((8400.0 * u + 420.0) * u + 3.0) * u - 1.0) * u + 1.0
    return 1.0 if r <= 1.0 else 1.0 / math.sqrt(r)


def gain_array(kind: ShrinkageKind, xi: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Vectorized :func:`gain` over an array of a-posteriori SNRs."""
    _check_args(kind, alpha)
    xi = np.asarray(xi, dtype=np.float64)
    if (xi < 0.0).any():  # NaN passes, as it does in gain
        raise ValueError("xi must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = 1.0 / (xi / float(alpha))
        if kind is _MSE:
            g = np.maximum(1.0 - u, 0.0)
        elif kind is _WE:
            g = 1.0 / ((((360.0 * u + 48.0) * u - 1.0) * u + 1.0) * u + 1.0)
        elif kind is _LOG_MSE:
            t = ((((-210.0 * u - 10.0) * u - 0.75) * u + 0.5) * u)
            g = np.where(t < 0.0, np.exp(np.minimum(t, 0.0)), 1.0)
        elif kind is _IS:
            g = 1.0 / ((840.0 * u + 60.0) * u * u * u + 1.0)
        elif kind is _IS_II:
            r = (((4200.0 * u + 360.0) * u - 3.0) * u + 1.0) * u + 1.0
            g = np.where(r <= 1.0, 1.0, 1.0 / np.sqrt(np.maximum(r, 1.0)))
        elif kind is _COSH:
            r = (1.0 + u) / ((840.0 * u + 60.0) * u * u * u + 1.0)
            g = np.where(r >= 1.0, 1.0, np.sqrt(np.abs(r)))
        else:  # _WCOSH
            r = (((8400.0 * u + 420.0) * u + 3.0) * u - 1.0) * u + 1.0
            g = np.where(r <= 1.0, 1.0, 1.0 / np.sqrt(np.maximum(r, 1.0)))
        # xi <= 0 (or NaN) and an underflowed 1/xi_eff both shrink fully
        return np.where((xi > 0.0) & np.isfinite(u), g, 0.0)


def apply_shrinkage(
    coeffs: np.ndarray,
    xi_per_bin: np.ndarray,
    kind: ShrinkageKind,
    alpha: float = 1.0,
) -> np.ndarray:
    """Shrink DCT coefficients bin-wise: ``out[k] = gain(xi[k]) * coeffs[k]``."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    xi_per_bin = np.asarray(xi_per_bin, dtype=np.float64)
    if coeffs.shape != xi_per_bin.shape:
        raise ValueError(
            f"coeffs shape {coeffs.shape} does not match xi shape {xi_per_bin.shape}"
        )
    return gain_array(kind, xi_per_bin, alpha) * coeffs
