"""Risk-optimal shrinkage gains for the seven supported distortion measures.

Each measure maps an inverse a-posteriori SNR ``u = alpha / xi`` (with
``xi = X**2 / sigma**2`` and the parametric refinement ``alpha``, both the
caller's) to a gain in ``[0, 1]`` applied multiplicatively to the DCT
coefficient.  Each gain is one row of the table ``_GAINS``: the coefficients
of a polynomial ``p`` in ``u`` and one of five finishes that turn ``p`` into
the gain (a clamp at 0, a reciprocal, ``exp`` of ``min(p, 0)``, an inverse
square root of ``max(p, 1)``, or the square root of a ratio capped at 1).
One evaluator, :func:`_horner`, writes ``p`` in place into the row's output
with 0-d constants; the finish then runs in place on that row.  :func:`gain_rows`
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


def _horner(coeffs, u, g):
    """``((c0 u + c1) u + ...) u + cn``, ``n >= 1``, into ``g`` (never ``u``
    itself), in place; a zero coefficient, ``None``, adds nothing.  A ufunc
    rounds each operation alike whether it writes a new array or its own
    operand, so the bits are those of the plain expression."""
    np.multiply(coeffs[0], u, out=g)
    for c in coeffs[1:-1]:
        if c is not None:
            g += c
        g *= u
    if coeffs[-1] is not None:
        g += coeffs[-1]


# The finish that turns the polynomial ``p`` in ``g`` into the gain, in place.

def _clamp_at_zero(u, g):  # max(p, 0)
    np.maximum(g, _ZERO, out=g)


def _reciprocal(u, g):  # 1 / p
    np.divide(_ONE, g, out=g)


def _exp_nonpositive(u, g):  # exp(min(p, 0))
    np.minimum(g, _ZERO, out=g)
    np.exp(g, out=g)


def _inverse_sqrt(u, g):  # 1 / sqrt(max(p, 1))
    np.maximum(g, _ONE, out=g)
    np.sqrt(g, out=g)
    np.divide(_ONE, g, out=g)


def _sqrt_ratio(u, g):  # sqrt(min((1 + u) / p, 1))
    np.divide(np.add(_ONE, u), g, out=g)
    np.minimum(g, _ONE, out=g)
    np.sqrt(g, out=g)


def _gain(finish, *coeffs):
    """A table entry: the coefficients of ``p``, highest power first, as 0-d
    constants with each zero dropped to ``None``, and the finish."""
    return tuple(None if c == 0.0 else _constant(float(c)) for c in coeffs), finish


# Each gain is a finish of one polynomial ``p`` in ``u``.
_GAINS = {
    ShrinkageKind.MSE: _gain(_clamp_at_zero, -1, 1),
    ShrinkageKind.WE: _gain(_reciprocal, 360, 48, -1, 1, 1),
    ShrinkageKind.LOG_MSE: _gain(_exp_nonpositive, -210, -10, -0.75, 0.5, 0),
    ShrinkageKind.IS: _gain(_reciprocal, 840, 60, 0, 0, 1),
    ShrinkageKind.IS_II: _gain(_inverse_sqrt, 4200, 360, -3, 1, 1),
    ShrinkageKind.COSH: _gain(_sqrt_ratio, 840, 60, 0, 0, 1),
    ShrinkageKind.WCOSH: _gain(_inverse_sqrt, 8400, 420, 3, -1, 1),
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
        coeffs, finish = _GAINS[kind]
        uk, gk = u[k], g[k, ...]
        _horner(coeffs, uk, gk)
        finish(uk, gk)
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
