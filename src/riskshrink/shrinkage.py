"""Risk-optimal shrinkage gains for the seven supported distortion measures.

Each measure maps an a-posteriori SNR ``xi = X**2 / sigma**2`` to a gain in
``[0, 1]`` applied multiplicatively to the DCT coefficient.  The parametric
refinement divides ``xi`` by ``alpha`` before evaluating the unit-alpha
formula, so ``gain(kind, xi, alpha) == gain(kind, xi / alpha, 1.0)`` exactly.

Every formula is a polynomial in ``u = 1 / xi_eff``, written once, with numpy,
in :func:`gain_array`.  :func:`gain` is its one-value case, so both return the
same bits for the same input.
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


# Branch on these names, not ``ShrinkageKind.X``: a module global is cheaper to
# read than an Enum class attribute (about 40 ns each in CPython 3.11).
_MSE, _WE, _LOG_MSE, _IS, _IS_II, _COSH, _WCOSH = ShrinkageKind


def gain(kind: ShrinkageKind, xi: float, alpha: float = 1.0) -> float:
    """Gain in [0, 1] for one a-posteriori SNR value: :func:`gain_array` on
    ``xi``, as a Python float."""
    return float(gain_array(kind, xi, alpha))


def gain_array(kind: ShrinkageKind, xi: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Gain in [0, 1] of each a-posteriori SNR in ``xi``, with the shape of ``xi``.

    ``xi = 0`` gives 0 for every measure: the coefficient carries no signal
    evidence and several formulas are singular there.
    """
    if not isinstance(kind, ShrinkageKind):
        valid = ", ".join(k.value for k in ShrinkageKind)
        raise ValueError(f"kind must be a ShrinkageKind ({valid}), got {kind!r}")
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    xi = np.asarray(xi, dtype=np.float64)
    if (xi < 0.0).any():  # NaN passes and maps to 0
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

