import math

import numpy as np
import pytest
from scipy.integrate import quad

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
from riskshrink.shrinkage import ShrinkageKind

SPEC1 = TruncatedGaussianSpec(sigma=1.0, c=5.0)


# ---------------------------------------------------------------------------
# Truncated Gaussian model and sampler
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        TruncatedGaussianSpec(sigma=0.0, c=5.0)
    with pytest.raises(ValueError):
        TruncatedGaussianSpec(sigma=1.0, c=-1.0)


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


def test_log_singularity_at_zero_gain():
    for kind in (ShrinkageKind.LOG_MSE, ShrinkageKind.IS, ShrinkageKind.IS_II,
                  ShrinkageKind.COSH):
        assert risk_estimate(kind, 0.0, 5.0, 1.0) == math.inf
    assert risk_estimate(ShrinkageKind.WCOSH, 0.0, 5.0, 1.0) == math.inf
    assert risk_estimate(ShrinkageKind.WCOSH, 0.0, -5.0, 1.0) == -math.inf


def test_zero_observation_rejected_for_non_mse():
    with pytest.raises(ValueError):
        risk_estimate(ShrinkageKind.WE, 0.5, 0.0, 1.0)
    # the squared-error estimate stays defined there
    assert risk_estimate(ShrinkageKind.MSE, 0.5, 0.0, 1.0) == pytest.approx(1.0)


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
    # for WE/WCOSH a negative clean coefficient flips min to max; the result
    # must still match the closed form
    xi = 50.0
    x = -math.sqrt(xi)
    for kind, closed in (
        (ShrinkageKind.WE, 1.0 / (1.0 + 1 / xi - 1 / xi**2 + 48 / xi**3 + 360 / xi**4)),
        (
            ShrinkageKind.WCOSH,
            min(1.0, (1.0 - 1 / xi + 3 / xi**2 + 420 / xi**3 + 8400 / xi**4) ** -0.5),
        ),
    ):
        found = oracle_argmin(kind, x, 1.0, sign_of_clean=-1)
        assert abs(found - closed) <= 1e-4


@pytest.mark.parametrize("xi", [2.0, 5.0, 10.0])
@pytest.mark.parametrize("kind", list(ShrinkageKind))
def test_oracle_matches_closed_form_at_interior_points(kind, xi):
    # low a-posteriori SNRs exercise the non-clamped branches (and the
    # clamped ones) of every gain; the constrained optimum of the estimate
    # must sit at the closed form regardless
    from riskshrink.shrinkage import gain

    found = oracle_argmin(kind, math.sqrt(xi), 1.0)
    assert abs(found - gain(kind, xi)) <= 1e-4 + 1e-6


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


def test_one_draw_is_rejected():
    # the tolerances need a standard error, which one draw does not have
    scene = SyntheticScene(clean=25.0, spec=SPEC1)
    for check in (
        lambda: verification_suite(n_samples=1),
        lambda: generalized_stein_check("linear", 0, SPEC1, 1, seed=0),
        lambda: unbiasedness_check(ShrinkageKind.MSE, 0.5, scene, 1, seed=0),
    ):
        with pytest.raises(ValueError, match="at least 2"):
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


def test_point_value_table_matches_module():
    for kind, expected in GAIN_POINT_XI10.items():
        assert kind in ShrinkageKind
        assert 0.0 < expected <= 1.0
