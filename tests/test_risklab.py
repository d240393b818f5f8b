import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from conftest import NUMPY_DISPATCH, bits
from riskshrink import risklab
from riskshrink.risklab import (
    GAIN_POINT_XI10,
    STEIN_FUNCTION_IDS,
    SyntheticScene,
    TruncatedGaussianSpec,
    generalized_stein_check,
    high_snr_event_check,
    oracle_argmin,
    risk_estimate,
    sample_truncated_gaussian,
    unbiasedness_check,
    verification_suite,
)
from riskshrink.shrinkage import ShrinkageKind, gain_rows

SPEC1 = TruncatedGaussianSpec(sigma=1.0, c=5.0)


# ---------------------------------------------------------------------------
# Truncated Gaussian model and sampler
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        TruncatedGaussianSpec(sigma=0.0, c=5.0)
    with pytest.raises(ValueError):
        TruncatedGaussianSpec(sigma=1.0, c=-1.0)
    # an infinite sigma would make every draw +-inf, so the rejection sampler
    # would never fill its output; an infinite c has a NaN variance
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="sigma"):
            TruncatedGaussianSpec(sigma=bad, c=5.0)
        with pytest.raises(ValueError, match="c must"):
            TruncatedGaussianSpec(sigma=1.0, c=bad)


def test_density_integrates_to_one():
    for spec in (SPEC1, TruncatedGaussianSpec(sigma=2.0, c=1.5)):
        scale = math.sqrt(2.0 * math.pi) * spec.sigma * spec.normalizer
        mass, _ = quad(
            lambda w: math.exp(-0.5 * (w / spec.sigma) ** 2) / scale, -spec.bound, spec.bound
        )
        assert mass == pytest.approx(1.0, abs=1e-9)
    assert 0.0 < SPEC1.normalizer <= 1.0


def test_sampler_empty_and_negative():
    assert sample_truncated_gaussian(SPEC1, 0, seed=1).size == 0
    with pytest.raises(ValueError):
        sample_truncated_gaussian(SPEC1, -1, seed=1)


def test_sampler_respects_support():
    spec = TruncatedGaussianSpec(sigma=0.7, c=1.0)  # heavy truncation
    w = sample_truncated_gaussian(spec, 100_000, seed=2)
    assert w.size == 100_000
    assert np.max(np.abs(w)) < spec.bound


def test_sampler_moments():
    w = sample_truncated_gaussian(SPEC1, 1_000_000, seed=3)
    assert abs(np.mean(w)) < 0.005
    assert abs(np.var(w) - SPEC1.variance) < 0.01 * SPEC1.variance


def test_sampler_refuses_a_batch_beyond_its_draw_limit():
    # about 8e-13 of the draws fall inside c = 1e-12: the first batch alone
    # would be 1.25e15 draws (8.9 PiB)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"1\.25e\+15 draws"):
            sample_truncated_gaussian(TruncatedGaussianSpec(1.0, 1e-12), 1000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_sampler_deterministic():
    a = sample_truncated_gaussian(SPEC1, 1000, seed=4)
    b = sample_truncated_gaussian(SPEC1, 1000, seed=4)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Stein-type identity checks
# ---------------------------------------------------------------------------


def test_stein_linear_recovers_variance():
    spec = TruncatedGaussianSpec(sigma=2.0, c=5.0)
    res = generalized_stein_check("linear", 0, spec, 200_000, seed=5)
    assert res.lhs == pytest.approx(4.0, rel=0.02)
    assert res.rhs == pytest.approx(4.0, rel=1e-12)
    assert res.passed


def test_stein_const_is_trivial():
    res = generalized_stein_check("const", 0, SPEC1, 100_000, seed=6)
    assert res.rhs == 0.0
    assert res.passed


def test_stein_cube_fourth_moment():
    res = generalized_stein_check("cube", 0, SPEC1, 500_000, seed=7)
    # both sides near 3*sigma**4 at large c
    assert res.lhs == pytest.approx(3.0, rel=0.05)
    assert res.rhs == pytest.approx(3.0, rel=0.05)
    assert res.passed


def test_stein_unknown_function():
    with pytest.raises(ValueError):
        generalized_stein_check("septic", 0, SPEC1, 10, seed=0)


def test_stein_full_catalog_passes():
    for f_id in STEIN_FUNCTION_IDS:
        assert generalized_stein_check(f_id, 0, SPEC1, 100_000, seed=8).passed, f_id


@pytest.mark.parametrize("sigma", [0.5, 2.0])
@pytest.mark.parametrize("f_id", STEIN_FUNCTION_IDS)
def test_stein_catalog_derivatives(f_id, sigma):
    # a wrong f' would otherwise show only as a statistical FAIL; the points
    # avoid w = 0 and the roots of rational_bounded's derivative, where a
    # relative check has nothing to compare against
    spec = TruncatedGaussianSpec(sigma=sigma, c=5.0)
    f, fprime = risklab._STEIN_PAIRS[f_id]
    shift = 10.0 * spec.bound
    w = spec.bound * np.linspace(-0.93, 0.87, 9)
    h = 1e-5 * (1.0 + np.abs(w))
    central = (f(w + h, shift) - f(w - h, shift)) / (2.0 * h)
    np.testing.assert_allclose(central, fprime(w, shift), rtol=1e-6, atol=0.0)


def test_stein_rows_stay_finite_with_a_zero_draw(monkeypatch):
    # a draw of exactly +-0 must not reach 0 * f(0) / 0 at any order
    sample = risklab.sample_truncated_gaussian

    def with_zeros(spec, count, seed):
        return np.concatenate(([0.0, -0.0], sample(spec, count - 2, seed)))

    monkeypatch.setattr(risklab, "sample_truncated_gaussian", with_zeros)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f_id in STEIN_FUNCTION_IDS:
            for n in (0, 1, 2, 3, 4):
                res = generalized_stein_check(f_id, n, SPEC1, 1000, seed=21)
                assert all(map(math.isfinite, (res.lhs, res.rhs, res.tol))), (f_id, n)


def test_generalized_const_recovers_variance():
    res = generalized_stein_check("const", 1, SPEC1, 200_000, seed=9)
    assert res.lhs == pytest.approx(SPEC1.variance, rel=0.02)
    assert res.rhs == pytest.approx(1.0, rel=1e-12)
    assert res.passed


def test_generalized_odd_moments_vanish():
    res = generalized_stein_check("linear", 1, SPEC1, 200_000, seed=10)
    assert abs(res.lhs) < 0.05
    assert abs(res.rhs) < 0.05
    assert res.passed


def test_generalized_square_n2_two_sided():
    assert generalized_stein_check("square", 2, SPEC1, 500_000, seed=11).passed


# The catalog in exact rational arithmetic, written independently of risklab.
_EXACT_STEIN_PAIRS = {
    "const": (lambda w, s: 1, lambda w, s: 0),
    "linear": (lambda w, s: w, lambda w, s: 1),
    "square": (lambda w, s: w**2, lambda w, s: 2 * w),
    "cube": (lambda w, s: w**3, lambda w, s: 3 * w**2),
    "quartic": (lambda w, s: w**4, lambda w, s: 4 * w**3),
    "recip_shifted": (lambda w, s: 1 / (w + s), lambda w, s: -1 / (w + s) ** 2),
    "rational_bounded": (lambda w, s: w / (1 + w**2), lambda w, s: (1 - w**2) / (1 + w**2) ** 2),
}


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_stein_rows_match_exact_rational_means(sigma):
    # both per-draw terms of every row rebuilt with Fraction on the row's own
    # 50 draws: the float means must sit within 1e-13 of the exact ones,
    # relative to the mean absolute term (a cancelling mean has no scale)
    assert tuple(_EXACT_STEIN_PAIRS) == STEIN_FUNCTION_IDS
    spec = TruncatedGaussianSpec(sigma=sigma, c=5.0)
    shift = Fraction(10.0 * spec.bound)
    sig2 = Fraction(sigma) ** 2
    seed = 0
    for n in (0, 1, 2, 3, 4):
        for f_id, (f, fprime) in _EXACT_STEIN_PAIRS.items():
            seed += 1
            row = generalized_stein_check(f_id, n, spec, 50, seed)
            w = [Fraction(v) for v in sample_truncated_gaussian(spec, 50, seed)]
            lhs = [v ** (n + 1) * f(v, shift) for v in w]
            rhs = [
                sig2 * (fprime(v, shift) * v**n + n * f(v, shift) * v ** max(n - 1, 0))
                for v in w
            ]
            for got, terms in ((row.lhs, lhs), (row.rhs, rhs)):
                exact = sum(terms) / len(terms)
                scale = sum(map(abs, terms)) / len(terms)
                assert abs(Fraction(got) - exact) <= Fraction(1e-13) * scale, (f_id, n)


def test_generalized_order_validation():
    for bad_n in (5, -1):
        with pytest.raises(ValueError):
            generalized_stein_check("linear", bad_n, SPEC1, 10, seed=0)
    # order 0 is the first-order identity, named as such
    assert generalized_stein_check("linear", 0, SPEC1, 10, seed=0).name == "stein:linear:sigma=1"


# ---------------------------------------------------------------------------
# Risk estimates
# ---------------------------------------------------------------------------


def test_mse_estimate_at_unit_gain():
    value = risk_estimate(ShrinkageKind.MSE, 1.0, 3.0, 1.5)
    assert value == pytest.approx(2.0 * 1.5**2 - 3.0**2, rel=1e-12)


def test_mse_estimate_at_zero_gain_is_signal_power():
    value = risk_estimate(ShrinkageKind.MSE, 0.0, 7.0, 1.0, clean=4.0)
    assert value == pytest.approx(16.0, rel=1e-12)


def test_is_estimate_vanishes_at_high_snr():
    x = 1000.0
    assert abs(risk_estimate(ShrinkageKind.IS, 1.0, x, 1.0, clean=x)) < 1e-3


# u = sigma**2 / x**2 = 0.01 at x = 10, sigma = 1
_U = 0.01
# full estimates (clean = 10) at a = 0.5, x = 10, sigma = 1, each polynomial
# expanded in powers of u
FULL_ESTIMATE_AT_HALF = {
    ShrinkageKind.MSE: 0.25 * 100.0 - 100.0 + 1.0 + 100.0,
    ShrinkageKind.WE: 0.25 * 10.0 * (1.0 + _U - _U**2 + 48.0 * _U**3 + 360.0 * _U**4)
    - 10.0 + 10.0,
    ShrinkageKind.LOG_MSE: math.log(5.0)
    * (math.log(5.0) - 2.0 * math.log(10.0)
       - 2.0 * (0.5 * _U - 0.75 * _U**2 - 10.0 * _U**3 - 210.0 * _U**4))
    + (2.0 * _U - 3.0 * _U**2 + 4.34 * _U**3 - 319.0 * _U**4)
    + math.log(10.0) ** 2,
    ShrinkageKind.IS: 0.5 * (1.0 + 60.0 * _U**3 + 840.0 * _U**4) + math.log(2.0) - 1.0,
    ShrinkageKind.IS_II: 0.25 * (1.0 + _U - 3.0 * _U**2 + 360.0 * _U**3 + 4200.0 * _U**4)
    + math.log(4.0) - 1.0,
    ShrinkageKind.COSH: 0.5 * ((1.0 + _U) / 0.5 + 0.5 * (1.0 + 60.0 * _U**3 + 840.0 * _U**4))
    - 1.0,
    ShrinkageKind.WCOSH: 0.025 * (1.0 - _U + 3.0 * _U**2 + 420.0 * _U**3 + 8400.0 * _U**4)
    + 0.1 - 0.1,
}


@pytest.mark.parametrize("kind", list(ShrinkageKind))
def test_full_estimate_matches_closed_form(kind):
    value = risk_estimate(kind, 0.5, 10.0, 1.0, clean=10.0)
    assert value == pytest.approx(FULL_ESTIMATE_AT_HALF[kind], rel=1e-12, abs=0.0)


def test_log_singularity_at_zero_gain():
    # a = 0 is +inf for the log and cosh measures and inf with the sign of x
    # for wcosh, with or without the signal term; every other gain on the
    # grid gives a finite value
    a = np.linspace(0.0, 1.0, 11)
    for x in (5.0, -5.0):
        singular = {
            ShrinkageKind.LOG_MSE: math.inf,
            ShrinkageKind.IS: math.inf,
            ShrinkageKind.IS_II: math.inf,
            ShrinkageKind.COSH: math.inf,
            ShrinkageKind.WCOSH: math.copysign(math.inf, x),
        }
        for clean in (None, 7.0, -7.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for kind, at_zero in singular.items():
                    values = risk_estimate(kind, a, x, 1.0, clean=clean)
                    assert values.shape == a.shape
                    assert values[0] == at_zero, (kind, x, clean)
                    assert np.all(np.isfinite(values[1:])), (kind, x, clean)
                    assert risk_estimate(kind, 0.0, x, 1.0, clean=clean) == at_zero


def test_zero_observation_rejected_for_non_mse():
    with pytest.raises(ValueError):
        risk_estimate(ShrinkageKind.WE, 0.5, 0.0, 1.0)
    # the squared-error estimate stays defined there
    assert risk_estimate(ShrinkageKind.MSE, 0.5, 0.0, 1.0) == pytest.approx(1.0)
    # a signed zero, alone, inside an array or a 2-D x, is refused alike
    for kind in set(ShrinkageKind) - {ShrinkageKind.MSE}:
        for x in (-0.0, [3.0, -0.0, 2.0], [[3.0, 2.0], [1.0, 0.0]]):
            with pytest.raises(ValueError, match="undefined at X = 0"):
                risk_estimate(kind, 0.5, x, 1.0)


@pytest.mark.parametrize("kind", list(ShrinkageKind))
def test_empty_observation_gives_an_empty_estimate(kind):
    # no X to refuse: both X checks pass an empty x
    assert risk_estimate(kind, 0.5, [], 1.0).shape == (0,)
    assert risk_estimate(kind, 0.5, np.empty((2, 0)), 1.0, clean=3.0).shape == (2, 0)


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_mse_estimate_at_zero_observation_is_finite_without_warning(sigma):
    # sigma**2 / x**2 is inf or NaN at x = 0, and squared error never reads it
    a = np.linspace(0.0, 1.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = risk_estimate(ShrinkageKind.MSE, a, 0.0, sigma)
        full = risk_estimate(ShrinkageKind.MSE, a, [0.0, -0.0, 0.0, 2.0, 0.0], sigma, clean=1.0)
    assert values.tolist() == (2.0 * sigma * sigma * a).tolist()
    assert np.all(np.isfinite(full))


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("kind", list(ShrinkageKind))
def test_non_finite_observation_rejected(kind, x):
    with pytest.raises(ValueError, match="non-finite X"):
        risk_estimate(kind, 0.5, x, 1.0)
    with pytest.raises(ValueError, match="non-finite X"):
        risk_estimate(kind, 0.5, [3.0, x], 1.0, clean=3.0)
    # inside an array, and in a 2-D x, beside a zero the X = 0 check would name
    with pytest.raises(ValueError, match="non-finite X"):
        risk_estimate(kind, 0.5, [3.0, x, -2.0], 1.0)
    with pytest.raises(ValueError, match="non-finite X"):
        risk_estimate(kind, 0.5, [[3.0, 0.0], [-2.0, x]], 1.0)


def test_oracle_rejects_non_finite_observation():
    # the whole estimate row would be NaN or +-inf, and the argmin meaningless
    with pytest.raises(ValueError, match="non-finite X"):
        oracle_argmin(ShrinkageKind.IS, math.inf, 1.0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, -1.0])
def test_non_finite_or_negative_sigma_rejected(sigma):
    for kind in ShrinkageKind:
        with pytest.raises(ValueError, match="sigma"):
            risk_estimate(kind, 0.5, 3.0, sigma)
        with pytest.raises(ValueError, match="sigma"):
            oracle_argmin(kind, 3.0, sigma)


@pytest.mark.parametrize("x", [3.0, -3.0])
def test_zero_sigma_is_the_noiseless_limit(x):
    for kind in ShrinkageKind:
        assert oracle_argmin(kind, x, 0.0) == 1.0


def test_gain_candidate_range_checked():
    with pytest.raises(ValueError):
        risk_estimate(ShrinkageKind.MSE, 1.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        risk_estimate(ShrinkageKind.MSE, -0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        risk_estimate(ShrinkageKind.MSE, math.nan, 1.0, 1.0)
    with pytest.raises(ValueError):
        risk_estimate(ShrinkageKind.MSE, [0.5, math.nan], 1.0, 1.0)


# ---------------------------------------------------------------------------
# Grid oracle
# ---------------------------------------------------------------------------


def test_oracle_mse_interior():
    # xi = 2 puts the optimum at 0.5
    assert oracle_argmin(ShrinkageKind.MSE, math.sqrt(2.0), 1.0) == pytest.approx(
        0.5, abs=1e-4
    )


def test_oracle_mse_boundary_zero():
    assert oracle_argmin(ShrinkageKind.MSE, math.sqrt(0.5), 1.0) == 0.0


def test_oracle_is_near_closed_form():
    xi = 100.0
    closed = 1.0 / (1.0 + 60.0 / xi**3 + 840.0 / xi**4)
    found = oracle_argmin(ShrinkageKind.IS, math.sqrt(xi), 1.0)
    assert abs(found - closed) <= 1e-4


def test_oracle_negative_clean_weighted_measures():
    # for WE/WCOSH a negative observation flips min to max; the result must
    # still match the closed form
    xi = 50.0
    x = -math.sqrt(xi)
    for kind, closed in (
        (ShrinkageKind.WE, 1.0 / (1.0 + 1 / xi - 1 / xi**2 + 48 / xi**3 + 360 / xi**4)),
        (
            ShrinkageKind.WCOSH,
            min(1.0, (1.0 - 1 / xi + 3 / xi**2 + 420 / xi**3 + 8400 / xi**4) ** -0.5),
        ),
    ):
        found = oracle_argmin(kind, x, 1.0)
        assert abs(found - closed) <= 1e-4


@pytest.mark.parametrize("grid_step", [1e-2, 1e-3, 0.05])
@pytest.mark.parametrize("kind", list(ShrinkageKind))
@settings(max_examples=100)
@given(
    ratio=st.floats(0.1, 1000.0),
    sigma=st.floats(0.01, 100.0),
)
def test_oracle_is_symmetric_in_the_sign_of_x(kind, grid_step, ratio, sigma):
    # the clean sign is read from x: -x finds the gain of x, bit for bit
    x = ratio * sigma
    assert oracle_argmin(kind, -x, sigma, grid_step=grid_step) == oracle_argmin(
        kind, x, sigma, grid_step=grid_step
    )


@pytest.mark.parametrize("xi", [2.0, 5.0, 10.0])
@pytest.mark.parametrize("kind", list(ShrinkageKind))
def test_oracle_matches_closed_form_at_interior_points(kind, xi):
    # low a-posteriori SNRs exercise the non-clamped branches (and the
    # clamped ones) of every gain; the constrained optimum of the estimate
    # must sit at the closed form regardless
    found = oracle_argmin(kind, math.sqrt(xi), 1.0)
    assert abs(found - gain_rows([kind], [1.0 / xi])[0]) <= 1e-4 + 1e-6


def test_oracle_grid_step_validation():
    with pytest.raises(ValueError):
        oracle_argmin(ShrinkageKind.MSE, 1.0, 1.0, grid_step=0.0)
    with pytest.raises(ValueError):
        oracle_argmin(ShrinkageKind.MSE, 1.0, 1.0, grid_step=0.7)


# ---------------------------------------------------------------------------
# Monte Carlo truth and unbiasedness
# ---------------------------------------------------------------------------


def test_scene_validation_and_flag():
    with pytest.raises(ValueError):
        SyntheticScene(clean=0.0, spec=SPEC1)
    for clean in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and nonzero"):
            SyntheticScene(clean=clean, spec=SPEC1)
    assert SyntheticScene(clean=10.5, spec=SPEC1).high_snr
    assert not SyntheticScene(clean=10.0, spec=SPEC1).high_snr  # boundary is strict


def test_true_risk_mse_analytic():
    scene = SyntheticScene(clean=10.0, spec=SPEC1)
    mc = unbiasedness_check(ShrinkageKind.MSE, 0.5, scene, 1_000_000, seed=12).lhs
    expected = 25.0 + 0.25 * SPEC1.variance
    assert mc == pytest.approx(expected, abs=0.05)


def test_true_risk_mse_unit_gain_is_noise_power():
    scene = SyntheticScene(clean=10.0, spec=SPEC1)
    mc = unbiasedness_check(ShrinkageKind.MSE, 1.0, scene, 200_000, seed=13).lhs
    assert mc == pytest.approx(SPEC1.variance, abs=0.02)


def test_true_risk_is_taylor_limit():
    scene = SyntheticScene(clean=100.0, spec=SPEC1)
    mc = unbiasedness_check(ShrinkageKind.IS, 1.0, scene, 200_000, seed=14).lhs
    assert mc == pytest.approx(SPEC1.variance / (2.0 * 100.0**2), rel=0.05)


def test_true_risk_requires_high_snr_for_series_kinds():
    low = SyntheticScene(clean=5.0, spec=SPEC1)
    with pytest.raises(ValueError):
        unbiasedness_check(ShrinkageKind.WE, 0.5, low, 100, seed=0)
    # squared error has no such requirement
    unbiasedness_check(ShrinkageKind.MSE, 0.5, low, 100, seed=0)


def test_unbiasedness_mse_example():
    # the squared-error estimate is exact up to truncation leakage, even on a
    # boundary scene
    scene = SyntheticScene(clean=10.0, spec=SPEC1)
    assert unbiasedness_check(ShrinkageKind.MSE, 0.7, scene, 1_000_000, seed=15).passed


def test_unbiasedness_we_example():
    scene = SyntheticScene(clean=50.0, spec=SPEC1)
    res = unbiasedness_check(ShrinkageKind.WE, 0.9, scene, 500_000, seed=16)
    assert res.name == "unbiased:we:S=50:a=0.9"
    assert res.passed
    # at zero gain every draw has the same distortion and estimate, so the MC
    # standard error is 0 and each band is its fixed part alone
    mse = unbiasedness_check(ShrinkageKind.MSE, 0.0, scene, 1000, seed=16)
    assert mse.tol == math.exp(-SPEC1.c**2)
    we = unbiasedness_check(ShrinkageKind.WE, 0.0, scene, 1000, seed=16)
    assert we.tol == 0.01 * abs(we.lhs)


def test_unbiasedness_degenerate_zero_gain():
    scene = SyntheticScene(clean=10.0, spec=SPEC1)
    res = unbiasedness_check(ShrinkageKind.MSE, 0.0, scene, 1000, seed=17)
    assert res.lhs == res.rhs == pytest.approx(100.0, rel=1e-12)
    assert res.tol == math.exp(-SPEC1.c**2)  # no MC error on top of the allowance


@pytest.mark.parametrize("clean", [25.0, -25.0])
@pytest.mark.parametrize(
    "kind",
    [k for k in ShrinkageKind if k not in (ShrinkageKind.MSE, ShrinkageKind.WE)],
)
def test_unbiasedness_refuses_zero_gain_where_the_distortion_is_singular(kind, clean):
    # log and ratio measures have no finite distortion at a = 0, so the row
    # could not be decided
    scene = SyntheticScene(clean=clean, spec=SPEC1)
    with pytest.raises(ValueError, match="a = 0"):
        unbiasedness_check(kind, 0.0, scene, 100, seed=0)


def test_one_draw_is_rejected():
    # the tolerances need a standard error, which one draw does not have
    scene = SyntheticScene(clean=25.0, spec=SPEC1)
    for check in (
        lambda: verification_suite(n_samples=1, seed=0, grid_step=1e-4),
        lambda: generalized_stein_check("linear", 0, SPEC1, 1, seed=0),
        lambda: unbiasedness_check(ShrinkageKind.MSE, 0.5, scene, 1, seed=0),
    ):
        with pytest.raises(ValueError, match="at least 2"):
            check()


@pytest.mark.parametrize("n_samples", [0, 1])
def test_suite_refuses_too_few_draws_before_it_draws(n_samples, monkeypatch):
    def no_draws(*args):
        raise AssertionError("the suite drew before refusing")

    monkeypatch.setattr(risklab, "sample_truncated_gaussian", no_draws)
    with pytest.raises(ValueError, match=f"at least 2, got {n_samples}"):
        verification_suite(n_samples, seed=0, grid_step=1e-4)


@pytest.mark.parametrize("n_samples", [0, 1])
def test_too_few_draws_are_rejected_by_every_monte_carlo_check(n_samples):
    # is exercises the relative band, which reads the mean of the draws
    scene = SyntheticScene(clean=25.0, spec=SPEC1)
    for check in (
        lambda: verification_suite(n_samples, seed=0, grid_step=1e-4),
        lambda: generalized_stein_check("cube", 3, SPEC1, n_samples, seed=0),
        lambda: unbiasedness_check(ShrinkageKind.MSE, 0.5, scene, n_samples, seed=0),
        lambda: unbiasedness_check(ShrinkageKind.IS, 0.5, scene, n_samples, seed=0),
    ):
        with pytest.raises(ValueError, match=f"at least 2, got {n_samples}"):
            check()


def test_zero_draws_are_rejected_by_the_event_check():
    # the event check has no standard error, so one draw is enough
    scene = SyntheticScene(clean=25.0, spec=SPEC1)
    assert high_snr_event_check(scene, 1, seed=0).passed
    with pytest.raises(ValueError, match="at least 1"):
        high_snr_event_check(scene, 0, seed=0)


# ---------------------------------------------------------------------------
# High-SNR event
# ---------------------------------------------------------------------------


def test_event_probability_one_above_threshold():
    scene = SyntheticScene(clean=11.0, spec=SPEC1)
    res = high_snr_event_check(scene, 100_000, seed=18)
    assert (res.name, res.lhs, res.rhs, res.tol) == ("event:high_snr", 1.0, 1.0, 0.0)


def test_event_probability_below_threshold():
    scene = SyntheticScene(clean=0.1, spec=SPEC1)
    assert high_snr_event_check(scene, 100_000, seed=19).lhs < 1.0


def test_event_probability_at_boundary():
    scene = SyntheticScene(clean=10.0, spec=SPEC1)  # exactly 2*c*sigma
    assert high_snr_event_check(scene, 100_000, seed=20).lhs == 1.0


# ---------------------------------------------------------------------------
# The lab's fast paths against plain transcriptions of the code they replaced
# ---------------------------------------------------------------------------


def _sampler_reference(spec, count, seed):
    """The rejection sampler copying every accepted draw into a new array;
    also returns the batches drawn and whether the first rejected any."""
    rng = np.random.default_rng(seed)
    out = np.empty(count)
    filled, batches, first_rejected = 0, 0, False
    while filled < count:
        need = count - filled
        batch = rng.normal(0.0, spec.sigma, size=int(need / spec.normalizer) + 16)
        kept = batch[np.abs(batch) < spec.bound]
        first_rejected |= batches == 0 and kept.size < batch.size
        batches += 1
        take = min(kept.size, need)
        out[filled : filled + take] = kept[:take]
        filled += take
    return out, batches, first_rejected


def test_sampler_matches_its_copying_transcription():
    # the three paths through the sampler, each reached: a first batch with
    # nothing to reject, one compacted to enough draws, one that comes up
    # short and is refilled
    paths = set()
    for c in (0.5, 1.0, 5.0):
        spec = TruncatedGaussianSpec(sigma=1.3, c=c)
        for count in (0, 1, 2, 17, 1000):
            for seed in range(12):
                want, batches, rejected = _sampler_reference(spec, count, seed)
                got = sample_truncated_gaussian(spec, count, seed)
                assert bits(got) == bits(want), (c, count, seed)
                assert got.flags.c_contiguous
                paths.add("refill" if batches > 1 else "compact" if rejected else "whole")
    assert paths == {"whole", "compact", "refill"}


def _power_reference(w, k):
    out = np.ones_like(w)
    for _ in range(k):
        out *= w
    return out


def _stein_terms_reference(f_id, n, spec, n_samples, seed):
    """Both per-draw terms of a Stein row as the formula reads, each power
    built from 1 on its own."""
    f, fprime = risklab._STEIN_PAIRS[f_id]
    w = sample_truncated_gaussian(spec, n_samples, seed)
    shift = 10.0 * spec.bound
    fw = f(w, shift)
    lhs = _power_reference(w, n + 1) * fw
    rhs = spec.sigma**2 * (
        fprime(w, shift) * _power_reference(w, n)
        + n * fw * _power_reference(w, max(n - 1, 0))
    )
    return lhs, rhs


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("sigma, c", [(0.5, 5.0), (1.0, 5.0), (2.0, 5.0), (1.3, 5.0), (1.0, 1.0)])
def test_stein_terms_match_the_formula_bit_for_bit(monkeypatch, sigma, c, n):
    # the suite's sigmas square exactly; at 1.3 a reordered rhs would round
    # differently, and c = 1 sends the draws through the compacting sampler
    spec = TruncatedGaussianSpec(sigma=sigma, c=c)
    seen = []
    mc_row = risklab._mc_row

    def capture(name, lhs_terms, rhs_terms, *args, **kwargs):
        seen.append((bits(lhs_terms), bits(rhs_terms)))
        return mc_row(name, lhs_terms, rhs_terms, *args, **kwargs)

    monkeypatch.setattr(risklab, "_mc_row", capture)
    for seed, f_id in enumerate(STEIN_FUNCTION_IDS, start=40):
        generalized_stein_check(f_id, n, spec, 2000, seed)
        lhs, rhs = _stein_terms_reference(f_id, n, spec, 2000, seed)
        assert seen.pop() == (bits(lhs), bits(rhs)), f_id


def _oracle_reference(kind, x, sigma, grid_step):
    grid = np.linspace(0.0, 1.0, int(round(1.0 / grid_step)) + 1)
    values = risk_estimate(kind, grid, x, sigma)
    maximized = x < 0.0 and kind in (ShrinkageKind.WE, ShrinkageKind.WCOSH)
    return float(grid[np.argmax(values) if maximized else np.argmin(values)])


@pytest.mark.parametrize("grid_step", [0.5, 0.3, 1e-2, 1e-4])
def test_oracle_matches_its_linspace_transcription(grid_step):
    rng = np.random.default_rng(47)
    for kind in ShrinkageKind:
        for _ in range(12):
            sigma = rng.uniform(0.5, 2.0)
            x = rng.choice([-1.0, 1.0]) * sigma * 10.0 ** rng.uniform(-0.5, 2.5)
            got = oracle_argmin(kind, x, sigma, grid_step)
            assert got.hex() == _oracle_reference(kind, x, sigma, grid_step).hex()
    npts = int(round(1.0 / grid_step)) + 1
    grid = risklab._gain_grid(npts)
    assert bits(grid) == bits(np.linspace(0.0, 1.0, npts))
    assert not grid.flags.writeable


@pytest.mark.parametrize(
    "a",
    [
        math.nan,
        np.nextafter(1.0, 2.0),
        -np.nextafter(0.0, 1.0),
        -0.0,
        0.0,
        1.0,
        [],
        [0.25, math.nan],
        [math.nan, 0.25],
        [[0.0, 1.0], [0.5, -0.0]],
        np.float64(0.5),
    ],
    ids=repr,
)
def test_range_check_matches_the_elementwise_test(a):
    arr = np.asarray(a, dtype=np.float64)
    if np.all((arr >= 0.0) & (arr <= 1.0)):
        assert risk_estimate(ShrinkageKind.MSE, a, 1.0, 1.0).shape == arr.shape
    else:
        with pytest.raises(ValueError, match=r"gain candidate must lie in \[0, 1\]"):
            risk_estimate(ShrinkageKind.MSE, a, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Composed suite (scaled down; full scale runs in the acceptance tests)
# ---------------------------------------------------------------------------


def test_verification_suite_small():
    rows = verification_suite(n_samples=20_000, seed=2, grid_step=1e-3)
    failures = [r for r in rows if not r.passed]
    assert not failures, [f.name for f in failures]
    # perfbench's verify_lab and the verify report depend on this layout
    assert len(rows) == 144
    expected = [
        f"stein:{f_id}:sigma={sigma:g}" if n == 0 else f"stein_gen:n={n}:{f_id}:sigma={sigma:g}"
        for sigma in (0.5, 1.0, 2.0)
        for n in (0, 1, 2, 3, 4)
        for f_id in STEIN_FUNCTION_IDS
    ]
    assert [r.name for r in rows if r.name.startswith("stein")] == expected
    names = {r.name for r in rows}
    assert any(n.startswith("oracle:") for n in names)
    assert "event:high_snr" in names


# One digest per numpy dispatch (conftest.NUMPY_DISPATCH).  The Stein rows
# take no transcendental function and read the same on both; the only row that
# differs is unbiased:log_mse:S=50:a=0.95, through np.log.
_PINNED_SUITE_SHA256 = {
    "AVX-512": "8f35f680358ce87f88fb8b108d823d2aeb02e804098c31b69993da920fb24a46",
    "AVX2": "096f5560350720b7d119a512bc995a15ae5a03aaec55b7a8057fcbc6ce5e08a7",
}


def test_verification_suite_bits_pinned():
    # every bit of every row, pinned with numpy 2.4.6; the verify report
    # digest in test_cli sees only 8 significant digits
    rows = verification_suite(n_samples=2000, seed=0, grid_step=0.05)
    text = "\n".join(f"{r.name} {r.lhs.hex()} {r.rhs.hex()} {r.tol.hex()}" for r in rows)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == _PINNED_SUITE_SHA256[NUMPY_DISPATCH]


def test_point_value_table_matches_module():
    for kind, expected in GAIN_POINT_XI10.items():
        assert kind in ShrinkageKind
        assert 0.0 < expected <= 1.0
