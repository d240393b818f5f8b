"""Risk-optimal shrinkage gains for the seven supported distortion measures.

Each measure maps an inverse a-posteriori SNR ``u = alpha / xi`` (with
``xi = X**2 / sigma**2`` and the parametric refinement ``alpha``, both the
caller's) to a gain in ``[0, 1]`` applied multiplicatively to the DCT
coefficient.  Each gain is a clamp and a power of one polynomial in ``u``, one
entry of ``_GAINS``, evaluated in place with 0-d constants.  :func:`gain_rows`
evaluates a kind per row of a stack after checking its arguments;
:func:`gain_rows_unchecked`, the tracker's per-frame call, evaluates the same
table without the checks, into a buffer the caller may own.
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


def _constant(value) -> np.ndarray:
    """``value`` as a read-only 0-d array.  As the operand of a ufunc it gives
    the bits the Python number gives, but skips the conversion numpy makes of
    a Python scalar on every call, about 0.2 us; the gains and the tracker's
    step make dozens of such calls per frame."""
    a = np.array(value)
    a.flags.writeable = False
    return a


_ZERO, _ONE = _constant(0.0), _constant(1.0)
_C = {c: _constant(c) for c in (
    3.0, 10.0, 48.0, 60.0, 360.0, 420.0, 840.0, 4200.0, 8400.0, -210.0, 0.75, 0.5)}


# Each closed form, evaluated in place into ``g`` (never ``u`` itself), in the
# operation order of the formula in its comment, so the bits are the
# formula's: a ufunc rounds each operation alike whether it writes a new
# array or its own operand.

def _mse(u, g):  # max(1 - u, 0)
    np.subtract(_ONE, u, out=g)
    np.maximum(g, _ZERO, out=g)


def _we(u, g):  # 1 / ((((360u + 48)u - 1)u + 1)u + 1)
    np.multiply(_C[360.0], u, out=g)
    g += _C[48.0]
    g *= u
    g -= _ONE
    g *= u
    g += _ONE
    g *= u
    g += _ONE
    np.divide(_ONE, g, out=g)


def _log_mse(u, g):  # exp(min((((-210u - 10)u - 0.75)u + 0.5)u, 0))
    np.multiply(_C[-210.0], u, out=g)
    g -= _C[10.0]
    g *= u
    g -= _C[0.75]
    g *= u
    g += _C[0.5]
    g *= u
    np.minimum(g, _ZERO, out=g)
    np.exp(g, out=g)


def _is_denominator(u, g):  # (840u + 60)u u u + 1
    np.multiply(_C[840.0], u, out=g)
    g += _C[60.0]
    g *= u
    g *= u
    g *= u
    g += _ONE


def _is(u, g):  # 1 / ((840u + 60)u u u + 1)
    _is_denominator(u, g)
    np.divide(_ONE, g, out=g)


def _is_ii(u, g):  # 1 / sqrt(max((((4200u + 360)u - 3)u + 1)u + 1, 1))
    np.multiply(_C[4200.0], u, out=g)
    g += _C[360.0]
    g *= u
    g -= _C[3.0]
    g *= u
    g += _ONE
    g *= u
    g += _ONE
    np.maximum(g, _ONE, out=g)
    np.sqrt(g, out=g)
    np.divide(_ONE, g, out=g)


def _cosh(u, g):  # sqrt(min((1 + u) / ((840u + 60)u u u + 1), 1))
    _is_denominator(u, g)
    np.divide(np.add(_ONE, u), g, out=g)
    np.minimum(g, _ONE, out=g)
    np.sqrt(g, out=g)


def _wcosh(u, g):  # 1 / sqrt(max((((8400u + 420)u + 3)u - 1)u + 1, 1))
    np.multiply(_C[8400.0], u, out=g)
    g += _C[420.0]
    g *= u
    g += _C[3.0]
    g *= u
    g -= _ONE
    g *= u
    g += _ONE
    np.maximum(g, _ONE, out=g)
    np.sqrt(g, out=g)
    np.divide(_ONE, g, out=g)


# Each gain is a clamp and a power of one polynomial in ``u``.
_GAINS = {
    ShrinkageKind.MSE: _mse,
    ShrinkageKind.WE: _we,
    ShrinkageKind.LOG_MSE: _log_mse,
    ShrinkageKind.IS: _is,
    ShrinkageKind.IS_II: _is_ii,
    ShrinkageKind.COSH: _cosh,
    ShrinkageKind.WCOSH: _wcosh,
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


def gain_rows_unchecked(kinds, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`gain_rows` without its checks and without its ``np.errstate``,
    written to ``out`` when given, else to a new array.

    For a caller that has checked ``kinds`` once, forms ``u`` itself as a
    float64 array of ``len(kinds)`` rows, each entry nonnegative, inf or NaN,
    and holds ``np.errstate(**_QUIET)`` around the call: ``tracking.step``,
    once per frame, into a buffer its state owns.  ``out`` is a float64
    array of the shape of ``u`` that shares no memory with it; each row is
    evaluated in place, fastest when the rows are contiguous.
    """
    g = np.empty(u.shape) if out is None else out
    for k, kind in enumerate(kinds):
        _GAINS[kind](u[k], g[k, ...])
    no_evidence = np.isfinite(u)
    np.logical_not(no_evidence, out=no_evidence)
    np.copyto(g, _ZERO, where=no_evidence)
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
