import math
import warnings

import numpy as np
import pytest

import riskshrink
from riskshrink import shrinkage
from riskshrink.risklab import oracle_argmin
from riskshrink.shrinkage import ShrinkageKind, gain_rows

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
    assert gain_rows([kind], [10.0])[0] == pytest.approx(POINT_XI10[kind], abs=1e-6)


def test_mse_examples():
    assert gain_rows([ShrinkageKind.MSE], [2.0])[0] == pytest.approx(0.5, abs=1e-15)
    assert gain_rows([ShrinkageKind.MSE], [0.5])[0] == 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_asymptote_and_zero(kind):
    assert gain_rows([kind], [1e9])[0] == pytest.approx(1.0, abs=1e-6)
    assert gain_rows([kind], [0.0])[0] == 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_alpha_shift_is_exact(kind):
    rng = np.random.default_rng(3)
    for _ in range(200):
        xi = 10.0 ** rng.uniform(-6, 9)
        alpha = 10.0 ** rng.uniform(-1, 1)
        assert gain_rows([kind], [xi], alpha)[0] == gain_rows([kind], [xi / alpha], 1.0)[0]


def test_parameter_validation():
    for alpha in (0.0, -2.0, np.inf):
        with pytest.raises(ValueError, match="alpha"):
            gain_rows([ShrinkageKind.MSE], [1.0], alpha=alpha)
    with pytest.raises(ValueError):
        gain_rows([ShrinkageKind.MSE], [-1.0])
    with pytest.raises(ValueError):
        gain_rows([ShrinkageKind.WE], [np.array([1.0, -0.5])])
    with pytest.raises(ValueError, match="nonnegative"):
        gain_rows([ShrinkageKind.MSE], [np.array([np.nan, -1.0])])


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.75, 3.0])
def test_range_invariant(kind, alpha):
    rng = np.random.default_rng(4)
    xi = np.concatenate(
        [[0.0, 1e-300, 1e9, np.inf], 10.0 ** rng.uniform(-8, 10, size=2000)]
    )
    g = gain_rows([kind], [xi], alpha)[0]
    assert np.all(g >= 0.0)
    assert np.all(g <= 1.0)
    assert np.all(np.isfinite(g))


# closed-form values at xi / alpha = 1 (u = 1)
POINT_UNIT = {
    ShrinkageKind.MSE: 0.0,
    ShrinkageKind.WE: 1.0 / 409.0,
    ShrinkageKind.LOG_MSE: math.exp(-220.25),
    ShrinkageKind.IS: 1.0 / 901.0,
    ShrinkageKind.IS_II: 4559.0**-0.5,
    ShrinkageKind.COSH: math.sqrt(2.0 / 901.0),
    ShrinkageKind.WCOSH: 8823.0**-0.5,
}


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.75])
def test_pinned_values(alpha):
    # zero, subnormal (1/xi_eff overflows), tiny and NaN xi shrink fully;
    # infinite xi passes; unit xi_eff hits each closed form
    xi_eff = np.array([0.0, 1e-320, 1e-300, np.nan, np.inf, 1.0])
    for kind in ALL_KINDS:
        want = [0.0, 0.0, 0.0, 0.0, 1.0, POINT_UNIT[kind]]
        got = gain_rows([kind], [xi_eff * alpha], alpha)[0].tolist()
        assert got == pytest.approx(want, rel=1e-14, abs=0.0), kind


# In a test name, gain_array is the one-row call gain_rows([kind], [xi], alpha)[0].


def test_gain_array_nan_is_zero_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = gain_rows([ShrinkageKind.MSE], [np.full(4, np.nan)])[0]
    np.testing.assert_array_equal(g, np.zeros(4))


@pytest.mark.parametrize("alpha", [1e-300, 1.0, 1e300])
def test_gain_is_zero_exactly_where_u_is_not_finite(alpha):
    # xi = +-0 and NaN, and an xi / alpha whose reciprocal overflows (5e-324 at
    # alpha 1) or that underflows to 0 (5e-324 at alpha 1e300), shrink fully;
    # every other point is the table's formula, and xi = inf keeps all
    xi = np.array([0.0, -0.0, np.nan, np.inf, 5e-324, 1e308])
    zero = np.array([True, True, True, False, alpha >= 1.0, False])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = gain_rows(ALL_KINDS, np.tile(xi, (len(ALL_KINDS), 1)), alpha)
    for kind, row in zip(ALL_KINDS, g):
        assert row[zero].tobytes() == np.zeros(zero.sum()).tobytes(), kind
        with np.errstate(divide="ignore", over="ignore"):
            want = shrinkage._GAINS[kind](1.0 / (xi[~zero] / alpha))
        assert row[~zero].tobytes() == want.tobytes(), kind
        assert row[3] == 1.0, kind


@pytest.mark.parametrize("kind", ["mse", 0, None])
def test_unknown_kind_rejected(kind):
    # including xi = 0, where every formula would return 0 before the kind is used
    for xi in (0.0, 10.0):
        with pytest.raises(ValueError, match="ShrinkageKind"):
            gain_rows([kind], [np.array([xi])])


# zero, the smallest subnormal, subnormals whose reciprocal overflows, tiny,
# huge, infinite and NaN
EDGE_XI = [0.0, 5e-324, 1e-320, 1e-300, 1e300, np.inf, np.nan]


@pytest.mark.parametrize(
    "kinds",
    [
        ALL_KINDS,
        ALL_KINDS[::-1],
        [ShrinkageKind.WE, ShrinkageKind.COSH, ShrinkageKind.WE],
        [ShrinkageKind.LOG_MSE],
    ],
    ids=["enum-order", "reversed", "repeated", "single"],
)
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.75])
def test_gain_rows_row_k_is_gain_array_bitwise(kinds, alpha):
    rng = np.random.default_rng(6)
    n = len(kinds)
    flat = 10.0 ** rng.uniform(-10, 12, size=(n, 500))
    flat[:, : len(EDGE_XI)] = EDGE_XI
    stacked = 10.0 ** rng.uniform(-4, 6, size=(n, 3, 40))  # (kinds, inputs, bins)
    stacked[:, 1, : len(EDGE_XI)] = EDGE_XI
    for xi in (flat, stacked):
        g = gain_rows(kinds, xi, alpha)
        assert g.shape == xi.shape
        for k, kind in enumerate(kinds):
            want = gain_rows([kind], [xi[k]], alpha)[0]
            assert g[k].tobytes() == want.tobytes(), (kind, k)


def test_gain_array_keeps_the_shape_of_xi():
    # a one-row stack keeps the shape of its row, 0-d for a scalar
    g = gain_rows([ShrinkageKind.WE], [4.0])[0, ...]
    assert isinstance(g, np.ndarray) and g.shape == ()
    assert gain_rows([ShrinkageKind.WE], [np.ones((2, 3))])[0].shape == (2, 3)


def test_gain_rows_validation():
    xi = np.ones((2, 4))
    kinds = [ShrinkageKind.MSE, ShrinkageKind.IS]
    with pytest.raises(ValueError, match="kind must be a ShrinkageKind"):
        gain_rows([ShrinkageKind.MSE, "is"], xi)
    for alpha in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            gain_rows(kinds, xi, alpha)
    with pytest.raises(ValueError, match="xi must be nonnegative"):
        gain_rows(kinds, np.array([[1.0, 2.0], [np.nan, -1.0]]))
    for rows in (np.ones((3, 4)), np.ones(4)[:1], np.float64(1.0)):
        with pytest.raises(ValueError, match="rows"):
            gain_rows(kinds, rows)


def test_backend_is_fixed():
    assert riskshrink.BACKEND == "python"


def test_monotonicity_diagnostic_scan():
    # monotonicity in xi is not a contract; this scan only reports how the
    # curves behave above unit SNR (empirically monotone there).  Run with -s
    # to see the counts.
    xi = 10.0 ** np.linspace(0.0, 6.0, 50_001)
    for kind in ALL_KINDS:
        g = gain_rows([kind], [xi])[0]
        drops = int(np.sum(np.diff(g) < -1e-15))
        print(f"monotonicity scan {kind.value}: {drops} decreasing steps")


# ---------------------------------------------------------------------------
# tie to the risk-lab oracle (coarse grid; the acceptance suite uses 1e-4)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gain_matches_grid_oracle(kind):
    rng = np.random.default_rng(12)
    scenes = []
    for _ in range(1000):
        sigma = rng.uniform(0.5, 2.0)
        xi = 10.0 ** rng.uniform(math.log10(25.0), 5.0)
        sign = 1 if rng.random() < 0.5 else -1
        scenes.append((sigma, xi, sign * sigma * math.sqrt(xi)))
    sigmas, xis, xs = zip(*scenes)
    for sigma, x, g in zip(sigmas, xs, gain_rows([kind], [xis])[0].tolist()):
        best = oracle_argmin(kind, x, sigma, grid_step=1e-3)
        assert abs(g - best) <= 1e-3
