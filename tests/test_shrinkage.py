import math
import warnings

import numpy as np
import pytest

import riskshrink
from riskshrink.risklab import oracle_argmin
from riskshrink.shrinkage import ShrinkageKind, apply_shrinkage, gain, gain_array

ALL_KINDS = list(ShrinkageKind)

# closed-form values at xi = 10, alpha = 1
POINT_XI10 = {
    ShrinkageKind.MSE: 0.9,
    ShrinkageKind.WE: 1.0 / 1.174,
    ShrinkageKind.LOG_MSE: 1.0,
    ShrinkageKind.IS: 1.0 / 1.144,
    ShrinkageKind.IS_II: 1.85**-0.5,
    ShrinkageKind.COSH: math.sqrt(1.1 / 1.144),
    ShrinkageKind.WCOSH: 2.19**-0.5,
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_point_values_at_xi_10(kind):
    assert gain(kind, 10.0) == pytest.approx(POINT_XI10[kind], abs=1e-6)


def test_mse_examples():
    assert gain(ShrinkageKind.MSE, 2.0) == pytest.approx(0.5, abs=1e-15)
    assert gain(ShrinkageKind.MSE, 0.5) == 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_asymptote_and_zero(kind):
    assert gain(kind, 1e9) == pytest.approx(1.0, abs=1e-6)
    assert gain(kind, 0.0) == 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_alpha_shift_is_exact(kind):
    rng = np.random.default_rng(3)
    for _ in range(200):
        xi = 10.0 ** rng.uniform(-6, 9)
        alpha = 10.0 ** rng.uniform(-1, 1)
        assert gain(kind, xi, alpha) == gain(kind, xi / alpha, 1.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        gain(ShrinkageKind.MSE, 1.0, alpha=0.0)
    with pytest.raises(ValueError):
        gain(ShrinkageKind.MSE, 1.0, alpha=-2.0)
    with pytest.raises(ValueError):
        gain(ShrinkageKind.MSE, -1.0)
    with pytest.raises(ValueError):
        gain_array(ShrinkageKind.WE, np.array([1.0, -0.5]))
    with pytest.raises(ValueError, match="nonnegative"):
        gain_array(ShrinkageKind.MSE, np.array([np.nan, -1.0]))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.75, 3.0])
def test_range_invariant(kind, alpha):
    rng = np.random.default_rng(4)
    xi = np.concatenate(
        [[0.0, 1e-300, 1e9, np.inf], 10.0 ** rng.uniform(-8, 10, size=2000)]
    )
    g = gain_array(kind, xi, alpha)
    assert np.all(g >= 0.0)
    assert np.all(g <= 1.0)
    assert np.all(np.isfinite(g))


def test_gain_array_matches_scalar():
    rng = np.random.default_rng(5)
    xi = 10.0 ** rng.uniform(-4, 6, size=64)
    for kind in ALL_KINDS:
        vec = gain_array(kind, xi, 1.75)
        ref = np.array([gain(kind, v, 1.75) for v in xi])
        np.testing.assert_array_equal(vec, ref)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.75])
def test_gain_array_matches_scalar_at_edges(alpha):
    # zero, subnormal (1/xi_eff overflows), tiny, unit, huge and infinite xi
    xi = np.array([0.0, 1e-320, 1e-300, 0.5, 1.0, 10.0, 1e9, np.inf])
    for kind in ALL_KINDS:
        ref = np.array([gain(kind, v, alpha) for v in xi])
        np.testing.assert_array_equal(gain_array(kind, xi, alpha), ref)


def test_gain_array_nan_is_zero_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = gain_array(ShrinkageKind.MSE, np.full(4, np.nan))
    np.testing.assert_array_equal(g, np.zeros(4))


@pytest.mark.parametrize("kind", ["mse", 0, None])
def test_unknown_kind_rejected(kind):
    # including xi = 0, where every formula would return 0 before the kind is used
    for xi in (0.0, 10.0):
        with pytest.raises(ValueError, match="ShrinkageKind"):
            gain(kind, xi)
        with pytest.raises(ValueError, match="ShrinkageKind"):
            gain_array(kind, np.array([xi]))


def test_backend_is_fixed():
    assert riskshrink.BACKEND == "python"


# ---------------------------------------------------------------------------
# apply_shrinkage
# ---------------------------------------------------------------------------


def test_apply_shrinkage_zero_xi_zeroes_frame():
    coeffs = np.array([1.0, -2.0, 3.0])
    out = apply_shrinkage(coeffs, np.zeros(3), ShrinkageKind.WCOSH)
    assert np.all(out == 0.0)


def test_apply_shrinkage_passthrough_at_huge_xi():
    coeffs = np.array([1.0, -2.0, 3.0])
    out = apply_shrinkage(coeffs, np.full(3, 1e12), ShrinkageKind.COSH)
    np.testing.assert_allclose(out, coeffs, rtol=1e-6)


def test_apply_shrinkage_single_bin_mse():
    out = apply_shrinkage(np.array([3.0]), np.array([9.0]), ShrinkageKind.MSE, 1.0)
    assert out[0] == pytest.approx(3.0 * (1.0 - 1.0 / 9.0), rel=1e-12)


def test_apply_shrinkage_length_mismatch():
    with pytest.raises(ValueError):
        apply_shrinkage(np.zeros(4), np.zeros(5), ShrinkageKind.MSE)


def test_monotonicity_diagnostic_scan():
    # monotonicity in xi is not a contract; this scan only reports how the
    # curves behave above unit SNR (empirically monotone there).  Run with -s
    # to see the counts.
    xi = 10.0 ** np.linspace(0.0, 6.0, 50_001)
    for kind in ALL_KINDS:
        g = gain_array(kind, xi)
        drops = int(np.sum(np.diff(g) < -1e-15))
        print(f"monotonicity scan {kind.value}: {drops} decreasing steps")


# ---------------------------------------------------------------------------
# tie to the risk-lab oracle (coarse grid; the acceptance suite uses 1e-4)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gain_matches_grid_oracle(kind):
    rng = np.random.default_rng(12)
    for _ in range(1000):
        sigma = rng.uniform(0.5, 2.0)
        xi = 10.0 ** rng.uniform(math.log10(25.0), 5.0)
        sign = 1 if rng.random() < 0.5 else -1
        x = sign * sigma * math.sqrt(xi)
        best = oracle_argmin(kind, x, sigma, sign_of_clean=sign, grid_step=1e-3)
        assert abs(gain(kind, xi) - best) <= 1e-3
