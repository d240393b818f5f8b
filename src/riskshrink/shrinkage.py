"""Risk-optimal shrinkage gains for the seven supported distortion measures.

Each measure maps an inverse a-posteriori SNR ``u = alpha / xi`` (with
``xi = X**2 / sigma**2`` and the parametric refinement ``alpha``, both the
caller's) to a gain in ``[0, 1]`` applied multiplicatively to the DCT
coefficient.  Each gain is a clamp and a power of one polynomial in ``u``, one
entry of ``_GAINS``.  :func:`gain_rows` evaluates a kind per row of a stack
after checking its arguments; :func:`gain_rows_unchecked`, the tracker's
per-frame call, evaluates the same table without the checks.
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


_KIND_NAMES = ", ".join(k.value for k in ShrinkageKind)

# The one floating-point warnings policy of the closed forms, for np.errstate:
# the gains, the tracker's step and the risk lab's estimates.  Each case it
# silences (a zero or subnormal noise floor, a zero coefficient, a formula's
# singular point) is defined instead by a mask, a cap or the IEEE limit.
_QUIET = dict(divide="ignore", invalid="ignore", over="ignore")


def _check_kinds(kinds) -> None:
    """Raise ``ValueError`` unless every entry of ``kinds`` is a ShrinkageKind:
    the package's one kind test, made at every entry point that takes kinds."""
    for kind in kinds:
        if not isinstance(kind, ShrinkageKind):
            raise ValueError(f"kind must be a ShrinkageKind ({_KIND_NAMES}), got {kind!r}")


def gain_rows_unchecked(kinds, u: np.ndarray) -> np.ndarray:
    """:func:`gain_rows` without its checks and without its ``np.errstate``.

    For a caller that has checked ``kinds`` once, forms ``u`` itself as a
    float64 array of ``len(kinds)`` rows, each entry nonnegative, inf or NaN,
    and holds ``np.errstate(**_QUIET)`` around the call: ``tracking.step``,
    once per frame.  Returns a new array.
    """
    g = np.empty(u.shape)
    for k, kind in enumerate(kinds):
        g[k] = _GAINS[kind](u[k])
    np.copyto(g, 0.0, where=~np.isfinite(u))
    return g


def gain_rows(kinds, u: np.ndarray) -> np.ndarray:
    """Gain in [0, 1] of each inverse a-posteriori SNR in ``u``, with the shape
    of ``u``; row ``u[k]`` takes the gain of ``kinds[k]``.

    No evidence means zero gain: a ``u`` that is not finite, ``inf`` (a zero
    coefficient, where several formulas are singular) or NaN (``0 / 0``, a
    zero coefficient on a zero noise floor), gives 0 for every measure.
    """
    _check_kinds(kinds)
    u = np.asarray(u, dtype=np.float64)
    if u.shape[:1] != (len(kinds),):
        raise ValueError(f"u must have {len(kinds)} rows, got shape {u.shape}")
    if (u < 0.0).any():  # NaN passes and maps to 0
        raise ValueError("u must be nonnegative")
    with np.errstate(**_QUIET):
        return gain_rows_unchecked(kinds, u)
