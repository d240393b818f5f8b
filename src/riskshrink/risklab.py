"""Numerical verification machinery for the shrinkage family.

Everything the closed-form gains rely on is checked here by independent
numerics: truncated-Gaussian sampling, one Stein-type identity check of
order 0 to 4 under truncation (order 0 is the first-order identity), the
per-measure risk estimates, brute-force grid minimization standing in for the
constrained-optimality algebra, Monte Carlo comparison of the true
distortions with their estimates, and the high-SNR sure event.  Each check
returns its own ``CheckResult`` (name, both sides and the tolerance that
decides it); ``verification_suite`` only composes them.

The checks repeat no work.  The sampler hands back its accepted draws
without copying them when one batch is enough, so its result may be a view
of that batch (always contiguous); each Stein row takes its three powers of
``W`` from one chain of in-place products; the grid searches share one
read-only grid per point count.  The bits are those of the plain formulas.

All randomness flows through explicit integer seeds (numpy ``PCG64``
generators, whose streams are platform-independent for a given numpy
version), so every check reproduces exactly.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .shrinkage import _QUIET, ShrinkageKind, _check_kinds, gain_rows

# Draws the rejection sampler may take in its first batch: 1e8 float64 draws
# are 800 MB, ten times the largest batch verify takes (1e7 samples at c = 5).
# A smaller c keeps so few draws that no batch it needs could be allocated.
_MAX_DRAWS = 100_000_000

# Measures optimized toward a maximum when the observation is negative.
_MAXIMIZED_WHEN_NEGATIVE = frozenset({ShrinkageKind.WE, ShrinkageKind.WCOSH})


@dataclass(frozen=True)
class TruncatedGaussianSpec:
    """Zero-mean Gaussian of scale ``sigma`` restricted to ``(-c*sigma, c*sigma)``."""

    sigma: float
    c: float

    def __post_init__(self):
        # an infinite sigma would leave the rejection sampler no draw to keep
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")

    @property
    def bound(self) -> float:
        return self.c * self.sigma

    @property
    def normalizer(self) -> float:
        """Mass kept by the truncation, ``2*Phi(c) - 1``."""
        return math.erf(self.c / math.sqrt(2.0))

    @property
    def variance(self) -> float:
        """Exact second moment, ``sigma**2 * (1 - 2*c*phi(c)/K)``."""
        phi_c = math.exp(-0.5 * self.c * self.c) / math.sqrt(2.0 * math.pi)
        return self.sigma**2 * (1.0 - 2.0 * self.c * phi_c / self.normalizer)


@dataclass(frozen=True)
class SyntheticScene:
    """A known clean coefficient observed through truncated Gaussian noise."""

    clean: float
    spec: TruncatedGaussianSpec

    def __post_init__(self):
        if not (math.isfinite(self.clean) and self.clean != 0.0):
            raise ValueError(f"clean coefficient must be finite and nonzero, got {self.clean}")

    @property
    def high_snr(self) -> bool:
        """True when ``|clean| > 2*c*sigma``, which forces ``|W| < |X|`` surely."""
        return abs(self.clean) > 2.0 * self.spec.bound


@dataclass(frozen=True)
class CheckResult:
    """One verification line: pass iff ``|lhs - rhs| <= tol``."""

    name: str
    lhs: float
    rhs: float
    tol: float

    @property
    def passed(self) -> bool:
        return abs(self.lhs - self.rhs) <= self.tol


def sample_truncated_gaussian(
    spec: TruncatedGaussianSpec, count: int, seed: int
) -> np.ndarray:
    """Draw i.i.d. samples by rejection from the untruncated Gaussian.

    Deterministic for a fixed seed; every draw satisfies ``|w| < c*sigma``
    strictly.  The result is a contiguous view: of the first batch of draws
    when that holds nothing to reject, else of the accepted draws, to which
    one more batch is appended while fewer than ``count`` are accepted.  So
    it keeps up to about ``count / normalizer + 16`` draws alive.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    draws = count / spec.normalizer + 16
    if draws > _MAX_DRAWS:
        raise ValueError(
            f"{count} samples at c={spec.c} need about {draws:.3g} draws, "
            f"more than the limit of {_MAX_DRAWS:.0e}"
        )
    rng = np.random.default_rng(seed)
    # oversample by the expected rejection rate plus slack
    batch = rng.normal(0.0, spec.sigma, size=int(count / spec.normalizer) + 16)
    # |b| < bound exactly when -bound < b < bound, and min and max build no
    # temporary: a batch with nothing to reject is returned as it came
    if -spec.bound < batch.min() and batch.max() < spec.bound:
        return batch[:count]
    kept = batch[np.abs(batch) < spec.bound]
    while kept.size < count:
        need = count - kept.size
        batch = rng.normal(0.0, spec.sigma, size=int(need / spec.normalizer) + 16)
        kept = np.concatenate([kept, batch[np.abs(batch) < spec.bound]])
    return kept[:count]


# ---------------------------------------------------------------------------
# Stein-type identity checks
# ---------------------------------------------------------------------------


def _power(w: np.ndarray, k: int) -> np.ndarray:
    """``w**k`` for an integer ``k >= 0`` as the left-to-right product
    ``1*w*w*...*w`` (the leading 1 is exact), a fresh array.

    Every Stein power goes through here, so each ``W**k`` has one rounding
    order, the same under every CPU dispatch.
    """
    out = np.ones_like(w)
    for _ in range(k):
        out *= w
    return out


# Catalog of (f, f') pairs, each taking the draws ``w`` and the pole shift
# ``s = 10 * spec.bound`` that keeps ``recip_shifted``'s pole far outside the
# truncation support; the other entries ignore ``s``.  Each f' returns a new
# array, which the check scales in place.  Powers of ``w`` are
# ``_power``'s left-to-right products: float ``**`` takes numpy's slow ``pow``
# path on negative draws and rounds differently under each CPU dispatch.
_STEIN_PAIRS = {
    "const": (lambda w, s: np.ones_like(w), lambda w, s: np.zeros_like(w)),
    "linear": (lambda w, s: w, lambda w, s: np.ones_like(w)),
    "square": (lambda w, s: w * w, lambda w, s: 2.0 * w),
    "cube": (lambda w, s: _power(w, 3), lambda w, s: 3.0 * w * w),
    "quartic": (lambda w, s: _power(w, 4), lambda w, s: 4.0 * _power(w, 3)),
    "recip_shifted": (lambda w, s: 1.0 / (w + s), lambda w, s: -1.0 / (w + s) ** 2),
    "rational_bounded": (
        lambda w, s: w / (1.0 + w * w),
        lambda w, s: (1.0 - w * w) / (1.0 + w * w) ** 2,
    ),
}
STEIN_FUNCTION_IDS = tuple(_STEIN_PAIRS)


def _mc_row(
    name: str, lhs_terms, rhs_terms, allowance: float, band: float = 0.0
) -> CheckResult:
    """Monte Carlo row: the means of both per-draw terms, with a tolerance of
    three standard errors of their per-draw difference plus ``allowance`` plus
    ``band`` times the magnitude of the ``lhs`` mean.

    The standard error is undefined below two draws, so every Monte Carlo
    check refuses fewer here, before any mean is taken.
    """
    if lhs_terms.size < 2:
        raise ValueError(f"n_samples must be at least 2, got {lhs_terms.size}")
    lhs = float(np.mean(lhs_terms))
    stderr = np.std(lhs_terms - rhs_terms, ddof=1) / math.sqrt(lhs_terms.size)
    tol = float(3.0 * stderr + allowance + band * abs(lhs))
    return CheckResult(name, lhs, float(np.mean(rhs_terms)), tol)


def generalized_stein_check(
    f_id: str, n: int, spec: TruncatedGaussianSpec, n_samples: int, seed: int
) -> CheckResult:
    """Stein-type identity of order ``n`` in 0..4: mean of ``W**(n+1) * f(W)``
    against ``sigma**2 * (mean f'(W) W**n + n * mean f(W) W**(n-1))``.

    Order 0 is the first-order identity, ``E[W f(W)] = sigma**2 E[f'(W)]``.
    The row's ``_mc_row`` allowance is the ``exp(-c**2)`` truncation allowance.
    Each power ``W**k`` is the left-to-right product ``W*W*...*W`` of
    ``_power``, not float ``**``: numpy's ``pow`` is tens of times slower on
    negative draws and rounds differently under each CPU dispatch.
    """
    if n not in (0, 1, 2, 3, 4):
        raise ValueError(f"order n must be in 0..4, got {n}")
    if f_id not in _STEIN_PAIRS:
        raise ValueError(f"unknown Stein test function {f_id!r}")
    f, fprime = _STEIN_PAIRS[f_id]
    w = sample_truncated_gaussian(spec, n_samples, seed)
    shift = 10.0 * spec.bound
    fw = f(w, shift)
    # W**(n-1), W**n and W**(n+1) as one chain of _power's products, each
    # term rounded as the formula reads; max(n - 1, 0): at n = 0, W**-1 would
    # turn a zero draw's 0 * f(0) into NaN, so W**0 serves twice
    powers = _power(w, max(n - 1, 0))
    weighted = n * fw
    weighted *= powers  # n f(W) W**(n-1)
    if n:
        powers *= w  # W**n
    rhs_terms = fprime(w, shift)
    rhs_terms *= powers
    rhs_terms += weighted
    rhs_terms *= spec.sigma**2  # sigma**2 (f'(W) W**n + n f(W) W**(n-1))
    powers *= w  # W**(n+1)
    lhs_terms = np.multiply(powers, fw, out=powers)
    del w, fw, weighted
    name = f"stein:{f_id}" if n == 0 else f"stein_gen:n={n}:{f_id}"
    return _mc_row(f"{name}:sigma={spec.sigma:g}", lhs_terms, rhs_terms, math.exp(-spec.c**2))


# ---------------------------------------------------------------------------
# Risk estimates and brute-force optimality oracle
# ---------------------------------------------------------------------------


# The a-independent signal terms and bare constants of each estimate, as a
# completion of the minimizer's value ``v`` into the full expression for a
# clean coefficient ``s``.
_SIGNAL_TERMS = {
    ShrinkageKind.MSE: lambda v, s: v + s * s,
    ShrinkageKind.WE: lambda v, s: v + s,
    ShrinkageKind.LOG_MSE: lambda v, s: v + math.log(abs(s)) ** 2,
    ShrinkageKind.IS: lambda v, s: v + math.log(abs(s)) - 1.0,
    ShrinkageKind.IS_II: lambda v, s: v + math.log(s * s) - 1.0,
    ShrinkageKind.COSH: lambda v, s: v - 1.0,
    ShrinkageKind.WCOSH: lambda v, s: v - 1.0 / s,
}


def risk_estimate(kind: ShrinkageKind, a, x, sigma: float, clean=None):
    """Risk-estimate value for candidate gains ``a``, broadcast over ``a`` and ``x``.

    Without ``clean`` the value omits the a-independent signal terms and bare
    constants, which is all the minimizer needs; with ``clean`` the full
    expression is returned (required for unbiasedness comparisons).  A
    ``kind`` that is not a ShrinkageKind, a non-finite ``x`` or ``sigma``, a
    negative ``sigma``, and ``x = 0`` except for squared error are refused;
    ``sigma = 0`` is the noiseless limit.
    Singular ``a = 0`` endpoints come out as infinities of the appropriate
    sign, the IEEE limits of the expressions, for ``x`` whose polynomials in
    ``sigma**2 / x**2`` stay finite (``|x|`` above about ``1e-38 * sigma``).
    """
    _check_kinds([kind])
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    # two reductions per array, no temporary; NaN fails every comparison
    if a.size and not (a.min() >= 0.0 and a.max() <= 1.0):
        raise ValueError(f"gain candidate must lie in [0, 1], got {a}")
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
    if x.size and not (-math.inf < x.min() and x.max() < math.inf):
        raise ValueError(f"{kind.value} risk estimate undefined at non-finite X")
    if kind is not ShrinkageKind.MSE and not x.all():  # NaN is refused above
        raise ValueError(f"{kind.value} risk estimate undefined at X = 0")
    sig2 = sigma * sigma
    with np.errstate(**_QUIET):
        u = sig2 / (x * x)
        if kind is ShrinkageKind.MSE:
            x2 = x * x
            val = a * a * x2 - 2.0 * a * x2 + 2.0 * sig2 * a
        elif kind is ShrinkageKind.WE:
            poly = x * (1.0 + u * (1.0 - u * (1.0 - u * (48.0 + 360.0 * u))))
            val = a * a * poly - 2.0 * a * x
        elif kind is ShrinkageKind.LOG_MSE:
            log_ax = np.log(a * np.abs(x))
            bracket = 2.0 * u * (1.0 + u * (-1.5 + u * (2.17 - 159.5 * u)))
            slope = u * (0.5 + u * (-0.75 + u * (-10.0 - 210.0 * u)))
            val = log_ax * (log_ax - 2.0 * np.log(np.abs(x)) - 2.0 * slope) + bracket
        elif kind is ShrinkageKind.IS:
            poly = 1.0 + u * u * u * (60.0 + 840.0 * u)
            val = a * poly - np.log(a * np.abs(x))
        elif kind is ShrinkageKind.IS_II:
            poly = 1.0 + u * (1.0 + u * (-3.0 + u * (360.0 + 4200.0 * u)))
            val = a * a * poly - np.log(a * a * x * x)
        elif kind is ShrinkageKind.COSH:
            poly = 1.0 + u * u * u * (60.0 + 840.0 * u)
            val = 0.5 * ((1.0 + u) / a + a * poly)
        else:  # ShrinkageKind.WCOSH
            poly = 1.0 + u * (-1.0 + u * (3.0 + u * (420.0 + 8400.0 * u)))
            val = 0.5 * (a / x) * poly + 1.0 / (2.0 * a * x)
        if clean is not None:
            val = _SIGNAL_TERMS[kind](val, clean)
    return val


@functools.lru_cache(maxsize=1)
def _gain_grid(npts: int) -> np.ndarray:
    """The oracle's even grid of ``npts`` gains on [0, 1], read-only.  A
    suite's every grid search shares one grid; another size replaces it."""
    grid = np.linspace(0.0, 1.0, npts)
    grid.flags.writeable = False
    return grid


def oracle_argmin(
    kind: ShrinkageKind, x: float, sigma: float, grid_step: float = 1e-4
) -> float:
    """Exhaustive grid search for the constrained-optimal gain.

    Minimizes the risk estimate over an even grid on [0, 1].  The clean sign
    is taken from ``x``: for the weighted measures at a negative ``x`` the
    optimum is a maximum instead.  Ties break toward the smaller gain.
    """
    if not 0.0 < grid_step <= 0.5:
        raise ValueError(f"grid_step must be in (0, 0.5], got {grid_step}")
    grid = _gain_grid(int(round(1.0 / grid_step)) + 1)
    values = risk_estimate(kind, grid, x, sigma)
    if x < 0.0 and kind in _MAXIMIZED_WHEN_NEGATIVE:
        idx = int(np.argmax(values))
    else:
        idx = int(np.argmin(values))
    return float(grid[idx])


# ---------------------------------------------------------------------------
# Monte Carlo truth
# ---------------------------------------------------------------------------


def _distortion(kind: ShrinkageKind, a: float, clean: float, x: np.ndarray):
    """Per-draw distortion d(clean, a*x) for the kind's definition."""
    shat = a * x
    if kind is ShrinkageKind.MSE:
        return (shat - clean) ** 2
    if kind is ShrinkageKind.WE:
        return (shat - clean) ** 2 / clean
    ratio = shat / clean
    if kind is ShrinkageKind.LOG_MSE:
        return np.log(ratio) ** 2
    if kind is ShrinkageKind.IS:
        return ratio - np.log(ratio) - 1.0
    if kind is ShrinkageKind.IS_II:
        r2 = ratio * ratio
        return r2 - np.log(r2) - 1.0
    if kind is ShrinkageKind.COSH:
        return 0.5 * (1.0 / ratio + ratio) - 1.0
    return (0.5 * (1.0 / ratio + ratio) - 1.0) / clean  # ShrinkageKind.WCOSH


def unbiasedness_check(
    kind: ShrinkageKind,
    a: float,
    scene: SyntheticScene,
    n_samples: int,
    seed: int,
) -> CheckResult:
    """MC mean of the true distortion (``lhs``) against that of its estimate
    (``rhs``) over shared noise draws.

    The row's ``_mc_row`` allowance is the ``exp(-c**2)`` truncation allowance
    for squared error; the other measures have instead a 1% band relative to
    ``lhs`` for their fourth-order series cut.  Only ``mse`` and ``we`` are
    finite at ``a = 0``; the other measures refuse it, as ``risk_estimate``
    refuses ``x = 0``.
    """
    _check_kinds([kind])
    if kind is not ShrinkageKind.MSE and not scene.high_snr:
        raise ValueError(
            f"{kind.value} requires a high-SNR scene "
            f"(|clean| > 2*c*sigma = {2.0 * scene.spec.bound:g})"
        )
    if a == 0.0 and kind not in (ShrinkageKind.MSE, ShrinkageKind.WE):
        raise ValueError(f"{kind.value} distortion undefined at a = 0")
    w = sample_truncated_gaussian(scene.spec, n_samples, seed)
    x = scene.clean + w
    d = _distortion(kind, a, scene.clean, x)
    est = risk_estimate(kind, a, x, scene.spec.sigma, clean=scene.clean)
    name = f"unbiased:{kind.value}:S={scene.clean:g}:a={a:g}"
    if kind is ShrinkageKind.MSE:
        return _mc_row(name, d, est, math.exp(-scene.spec.c * scene.spec.c))
    return _mc_row(name, d, est, 0.0, band=0.01)


def high_snr_event_check(
    scene: SyntheticScene, n_samples: int, seed: int
) -> CheckResult:
    """Empirical probability of ``|W| < |X|``, claimed exactly 1.0 on
    high-SNR scenes.  It has no standard error, so one draw is enough."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    w = sample_truncated_gaussian(scene.spec, n_samples, seed)
    fraction = float(np.mean(np.abs(w) < np.abs(scene.clean + w)))
    return CheckResult("event:high_snr", fraction, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Composed verification suite (backs the `verify` CLI subcommand)
# ---------------------------------------------------------------------------

# Unit-alpha gains at xi = 10, exact closed-form values.
GAIN_POINT_XI10 = {
    ShrinkageKind.MSE: 0.9,
    ShrinkageKind.WE: 1.0 / 1.174,
    ShrinkageKind.LOG_MSE: 1.0,
    ShrinkageKind.IS: 1.0 / 1.144,
    ShrinkageKind.IS_II: 1.85**-0.5,
    ShrinkageKind.COSH: math.sqrt(1.1 / 1.144),
    ShrinkageKind.WCOSH: 2.19**-0.5,
}


# Random scenes per gain in the suite's grid-oracle comparison.
_ORACLE_SCENES = 200


def verification_suite(n_samples: int, seed: int, grid_step: float) -> list[CheckResult]:
    """Run every numerical claim check and return one result row per check."""
    if n_samples < 2:  # every Monte Carlo row's _mc_row would refuse it
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    c = 5.0

    # sampler sanity at sigma = 1, from the suite's own seed; moment tolerances
    # are stated for 1e6 draws and widen as 1/sqrt(n) below that
    spec1 = TruncatedGaussianSpec(sigma=1.0, c=c)
    w = sample_truncated_gaussian(spec1, n_samples, seed)
    scale = max(1.0, math.sqrt(1_000_000 / n_samples))
    variance = spec1.variance
    rows = [
        CheckResult("sampler:support", float(np.mean(np.abs(w) >= spec1.bound)), 0.0, 0.0),
        CheckResult("sampler:mean", float(np.mean(w)), 0.0, 0.005 * scale),
        CheckResult("sampler:variance", float(np.var(w)), variance, 0.01 * variance * scale),
    ]
    del w  # the draws, and the batch they may view, are not needed again

    # Stein identities, first-order (n = 0) and generalized
    sub = seed
    for sigma in (0.5, 1.0, 2.0):
        spec = TruncatedGaussianSpec(sigma=sigma, c=c)
        for n in (0, 1, 2, 3, 4):
            for f_id in STEIN_FUNCTION_IDS:
                sub += 1
                rows.append(generalized_stein_check(f_id, n, spec, n_samples, sub))

    # closed-form gains against the grid oracle, one gain_rows call for every
    # scene; the grid search stays per scene (200 grids of step 1e-6: 1.6 GB)
    kinds = list(ShrinkageKind)
    rng = np.random.default_rng(seed + 7_001)
    scenes = np.array([
        (rng.uniform(0.5, 2.0), 10.0 ** rng.uniform(math.log10(25.0), 5.0), rng.random())
        for _ in range(len(kinds) * _ORACLE_SCENES)
    ])
    sigma, xi, coin = scenes.T.reshape(3, len(kinds), _ORACLE_SCENES)
    x = np.where(coin < 0.5, sigma, -sigma) * np.sqrt(xi)
    gains = gain_rows(kinds, 1.0 / xi).tolist()
    for kind, g, xs, sigmas in zip(kinds, gains, x.tolist(), sigma.tolist()):
        worst = max(
            abs(gk - oracle_argmin(kind, xk, sk, grid_step))
            for gk, xk, sk in zip(g, xs, sigmas)
        )
        rows.append(CheckResult(f"oracle:{kind.value}", worst, 0.0, grid_step + 1e-6))

    # unbiasedness on high-SNR scenes
    for kind in ShrinkageKind:
        for s_mult, a in ((25.0, 0.7), (50.0, 0.95)):
            sub += 1
            scene = SyntheticScene(clean=s_mult, spec=spec1)
            rows.append(unbiasedness_check(kind, a, scene, n_samples, sub))

    # sure-event probability under high SNR
    sub += 1
    scene = SyntheticScene(clean=11.0, spec=spec1)
    rows.append(high_snr_event_check(scene, n_samples, sub))

    # gain point values and asymptotes
    u = np.tile(1.0 / np.array([10.0, 1e9]), (len(kinds), 1))
    points = gain_rows(kinds, u).tolist()
    for kind, (at_10, at_1e9) in zip(kinds, points):
        rows.append(
            CheckResult(f"gain:{kind.value}:xi=10", at_10, GAIN_POINT_XI10[kind], 1e-6)
        )
        rows.append(CheckResult(f"gain:{kind.value}:xi=1e9", at_1e9, 1.0, 1e-6))

    return rows
