"""Numerical verification machinery for the shrinkage family.

Everything the closed-form gains rely on is checked here by independent
numerics: truncated-Gaussian sampling, one Stein-type identity check of
order 0 to 4 under truncation (order 0 is the first-order identity), the
per-measure risk estimates, brute-force grid minimization standing in for the
constrained-optimality algebra, Monte Carlo comparison of the true
distortions with their estimates, and the high-SNR sure event.  Each check
returns its own ``CheckResult`` (name, both sides and the tolerance that
decides it); ``verification_suite`` only composes them.

All randomness flows through explicit integer seeds (numpy ``PCG64``
generators, whose streams are platform-independent for a given numpy
version), so every check reproduces exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .shrinkage import ShrinkageKind, gain

# Measures optimized toward a maximum when the clean coefficient is negative.
_MAXIMIZED_WHEN_NEGATIVE = frozenset({ShrinkageKind.WE, ShrinkageKind.WCOSH})


@dataclass(frozen=True)
class TruncatedGaussianSpec:
    """Zero-mean Gaussian of scale ``sigma`` restricted to ``(-c*sigma, c*sigma)``."""

    sigma: float
    c: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not self.c > 0.0:
            raise ValueError(f"c must be positive, got {self.c}")

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
        if self.clean == 0.0:
            raise ValueError("clean coefficient must be nonzero")

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
    strictly.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rng = np.random.default_rng(seed)
    out = np.empty(count)
    filled = 0
    while filled < count:
        need = count - filled
        # oversample by the expected rejection rate plus slack
        batch = rng.normal(0.0, spec.sigma, size=int(need / spec.normalizer) + 16)
        kept = batch[np.abs(batch) < spec.bound]
        take = min(kept.size, need)
        out[filled : filled + take] = kept[:take]
        filled += take
    return out


def _require_two_samples(n_samples: int) -> None:
    """A check's tolerance needs the standard error, undefined for one draw."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")


# ---------------------------------------------------------------------------
# Stein-type identity checks
# ---------------------------------------------------------------------------

STEIN_FUNCTION_IDS = (
    "const",
    "linear",
    "square",
    "cube",
    "quartic",
    "recip_shifted",
    "rational_bounded",
)


def _stein_pair(f_id: str, spec: TruncatedGaussianSpec):
    """Return (f, f') for a catalog entry; rational entries keep their poles
    far outside the truncation support."""
    shift = 10.0 * spec.bound
    catalog = {
        "const": (lambda w: np.ones_like(w), lambda w: np.zeros_like(w)),
        "linear": (lambda w: w, lambda w: np.ones_like(w)),
        "square": (lambda w: w * w, lambda w: 2.0 * w),
        "cube": (lambda w: w**3, lambda w: 3.0 * w * w),
        "quartic": (lambda w: w**4, lambda w: 4.0 * w**3),
        "recip_shifted": (
            lambda w: 1.0 / (w + shift),
            lambda w: -1.0 / (w + shift) ** 2,
        ),
        "rational_bounded": (
            lambda w: w / (1.0 + w * w),
            lambda w: (1.0 - w * w) / (1.0 + w * w) ** 2,
        ),
    }
    try:
        return catalog[f_id]
    except KeyError:
        raise ValueError(f"unknown Stein test function {f_id!r}") from None


def generalized_stein_check(
    f_id: str, n: int, spec: TruncatedGaussianSpec, n_samples: int, seed: int
) -> CheckResult:
    """Stein-type identity of order ``n`` in 0..4: mean of ``W**(n+1) * f(W)``
    against ``sigma**2 * (mean f'(W) W**n + n * mean f(W) W**(n-1))``.

    Order 0 is the first-order identity, ``E[W f(W)] = sigma**2 E[f'(W)]``.
    The tolerance combines three MC standard errors of the per-sample
    difference with the ``exp(-c**2)`` truncation allowance.
    """
    if n not in (0, 1, 2, 3, 4):
        raise ValueError(f"order n must be in 0..4, got {n}")
    _require_two_samples(n_samples)
    f, fprime = _stein_pair(f_id, spec)
    w = sample_truncated_gaussian(spec, n_samples, seed)
    fw = f(w)
    if n == 0:
        lhs_terms = w * fw
        rhs_terms = spec.sigma**2 * fprime(w)
        name = f"stein:{f_id}:sigma={spec.sigma:g}"
    else:
        lhs_terms = w ** (n + 1) * fw
        rhs_terms = spec.sigma**2 * (fprime(w) * w**n + n * fw * w ** (n - 1))
        name = f"stein_gen:n={n}:{f_id}:sigma={spec.sigma:g}"
    stderr = np.std(lhs_terms - rhs_terms, ddof=1) / math.sqrt(n_samples)
    tol = 3.0 * stderr + math.exp(-spec.c**2)
    return CheckResult(
        name=name,
        lhs=float(np.mean(lhs_terms)),
        rhs=float(np.mean(rhs_terms)),
        tol=float(tol),
    )


# ---------------------------------------------------------------------------
# Risk estimates and brute-force optimality oracle
# ---------------------------------------------------------------------------


def risk_estimate(kind: ShrinkageKind, a, x, sigma: float, clean=None):
    """Risk-estimate value for candidate gains ``a``, broadcast over ``a`` and ``x``.

    Without ``clean`` the value omits the a-independent signal terms and bare
    constants, which is all the minimizer needs; with ``clean`` the full
    expression is returned (required for unbiasedness comparisons).  Singular
    ``a = 0`` endpoints come out as infinities of the appropriate sign.
    """
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ValueError(f"gain candidate must lie in [0, 1], got {a}")
    if kind is not ShrinkageKind.MSE and np.any(x == 0.0):
        raise ValueError(f"{kind.value} risk estimate undefined at X = 0")
    sig2 = sigma * sigma
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind is ShrinkageKind.MSE:
            x2 = x * x
            val = a * a * x2 - 2.0 * a * x2 + 2.0 * sig2 * a
            if clean is not None:
                val = val + clean * clean
            return val
        u = sig2 / (x * x)
        if kind is ShrinkageKind.WE:
            poly = x * (1.0 + u * (1.0 - u * (1.0 - u * (48.0 + 360.0 * u))))
            val = a * a * poly - 2.0 * a * x
            if clean is not None:
                val = val + clean
            return val
        if kind is ShrinkageKind.LOG_MSE:
            log_ax = np.log(a * np.abs(x))
            bracket = 2.0 * u * (1.0 + u * (-1.5 + u * (2.17 - 159.5 * u)))
            slope = u * (0.5 + u * (-0.75 + u * (-10.0 - 210.0 * u)))
            val = log_ax * (log_ax - 2.0 * np.log(np.abs(x)) - 2.0 * slope) + bracket
            if clean is not None:
                val = val + math.log(abs(clean)) ** 2
            return np.where(a == 0.0, np.inf, val)
        if kind is ShrinkageKind.IS:
            poly = 1.0 + u * u * u * (60.0 + 840.0 * u)
            val = a * poly - np.log(a * np.abs(x))
            if clean is not None:
                val = val + math.log(abs(clean)) - 1.0
            return np.where(a == 0.0, np.inf, val)
        if kind is ShrinkageKind.IS_II:
            poly = 1.0 + u * (1.0 + u * (-3.0 + u * (360.0 + 4200.0 * u)))
            val = a * a * poly - np.log(a * a * x * x)
            if clean is not None:
                val = val + math.log(clean * clean) - 1.0
            return np.where(a == 0.0, np.inf, val)
        if kind is ShrinkageKind.COSH:
            poly = 1.0 + u * u * u * (60.0 + 840.0 * u)
            val = 0.5 * ((1.0 + u) / a + a * poly)
            if clean is not None:
                val = val - 1.0
            return np.where(a == 0.0, np.inf, val)
        if kind is ShrinkageKind.WCOSH:
            poly = 1.0 + u * (-1.0 + u * (3.0 + u * (420.0 + 8400.0 * u)))
            val = 0.5 * (a / x) * poly + 1.0 / (2.0 * a * x)
            if clean is not None:
                val = val - 1.0 / clean
            return np.where(a == 0.0, np.where(x > 0.0, np.inf, -np.inf), val)
    raise ValueError(f"unknown kind {kind}")


def oracle_argmin(
    kind: ShrinkageKind,
    x: float,
    sigma: float,
    sign_of_clean: int = 1,
    grid_step: float = 1e-4,
) -> float:
    """Exhaustive grid search for the constrained-optimal gain.

    Minimizes the risk estimate over an even grid on [0, 1]; for the weighted
    measures with a negative clean coefficient the optimum is a maximum
    instead.  Ties break toward the smaller gain.
    """
    if not 0.0 < grid_step <= 0.5:
        raise ValueError(f"grid_step must be in (0, 0.5], got {grid_step}")
    npts = int(round(1.0 / grid_step)) + 1
    grid = np.linspace(0.0, 1.0, npts)
    values = risk_estimate(kind, grid, x, sigma)
    if sign_of_clean < 0 and kind in _MAXIMIZED_WHEN_NEGATIVE:
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
    if a == 0.0:
        return np.full_like(np.asarray(x, dtype=np.float64), np.inf)
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
    if kind is ShrinkageKind.WCOSH:
        return (0.5 * (1.0 / ratio + ratio) - 1.0) / clean
    raise ValueError(f"unknown kind {kind}")


def unbiasedness_check(
    kind: ShrinkageKind,
    a: float,
    scene: SyntheticScene,
    n_samples: int,
    seed: int,
) -> CheckResult:
    """MC mean of the true distortion (``lhs``) against that of its estimate
    (``rhs``) over shared noise draws.

    The tolerance is three standard errors of the per-draw difference plus,
    for squared error, the ``exp(-c**2)`` truncation allowance and, for the
    series-based measures, a 1% relative band for the fourth-order series cut.
    """
    if kind is not ShrinkageKind.MSE and not scene.high_snr:
        raise ValueError(
            f"{kind.value} requires a high-SNR scene "
            f"(|clean| > 2*c*sigma = {2.0 * scene.spec.bound:g})"
        )
    _require_two_samples(n_samples)
    w = sample_truncated_gaussian(scene.spec, n_samples, seed)
    x = scene.clean + w
    d = _distortion(kind, a, scene.clean, x)
    est = risk_estimate(kind, a, x, scene.spec.sigma, clean=scene.clean)
    stderr = float(np.std(d - est, ddof=1) / math.sqrt(n_samples))
    mean_true = float(np.mean(d))
    if kind is ShrinkageKind.MSE:
        tol = 3.0 * stderr + math.exp(-scene.spec.c * scene.spec.c)
    else:
        tol = 0.01 * abs(mean_true) + 3.0 * stderr
    return CheckResult(
        f"unbiased:{kind.value}:S={scene.clean:g}:a={a:g}",
        mean_true,
        float(np.mean(est)),
        tol,
    )


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


def verification_suite(
    n_samples: int = 1_000_000, seed: int = 0, grid_step: float = 1e-4
) -> list[CheckResult]:
    """Run every numerical claim check and return one result row per check."""
    _require_two_samples(n_samples)
    rows: list[CheckResult] = []
    c = 5.0
    sub = seed

    # sampler sanity at sigma = 1; moment tolerances are stated for 1e6 draws
    # and widen as 1/sqrt(n) below that
    spec1 = TruncatedGaussianSpec(sigma=1.0, c=c)
    w = sample_truncated_gaussian(spec1, n_samples, sub)
    scale = max(1.0, math.sqrt(1_000_000 / n_samples))
    rows.append(
        CheckResult("sampler:support", float(np.mean(np.abs(w) >= spec1.bound)), 0.0, 0.0)
    )
    rows.append(CheckResult("sampler:mean", float(np.mean(w)), 0.0, 0.005 * scale))
    rows.append(
        CheckResult(
            "sampler:variance",
            float(np.var(w)),
            spec1.variance,
            0.01 * spec1.variance * scale,
        )
    )

    # Stein identities, first-order (n = 0) and generalized
    for sigma in (0.5, 1.0, 2.0):
        spec = TruncatedGaussianSpec(sigma=sigma, c=c)
        for n in (0, 1, 2, 3, 4):
            for f_id in STEIN_FUNCTION_IDS:
                sub += 1
                rows.append(generalized_stein_check(f_id, n, spec, n_samples, sub))

    # closed-form gains against the grid oracle
    rng = np.random.default_rng(seed + 7_001)
    for kind in ShrinkageKind:
        worst = 0.0
        for _ in range(_ORACLE_SCENES):
            sigma = rng.uniform(0.5, 2.0)
            xi = 10.0 ** rng.uniform(math.log10(25.0), 5.0)
            sign = 1 if rng.random() < 0.5 else -1
            x = sign * sigma * math.sqrt(xi)
            dev = abs(gain(kind, xi) - oracle_argmin(kind, x, sigma, sign, grid_step))
            worst = max(worst, dev)
        rows.append(
            CheckResult(f"oracle:{kind.value}", worst, 0.0, grid_step + 1e-6)
        )

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
    for kind in ShrinkageKind:
        rows.append(
            CheckResult(
                f"gain:{kind.value}:xi=10", gain(kind, 10.0), GAIN_POINT_XI10[kind], 1e-6
            )
        )
        rows.append(CheckResult(f"gain:{kind.value}:xi=1e9", gain(kind, 1e9), 1.0, 1e-6))

    return rows
