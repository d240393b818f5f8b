import math
import re
import warnings

import numpy as np
import pytest

import riskshrink
from conftest import CLOSED_FORMS
from riskshrink import shrinkage
from riskshrink.pipeline import DenoiserConfig, denoise_kinds
from riskshrink.risklab import (
    SyntheticScene,
    TruncatedGaussianSpec,
    oracle_argmin,
    risk_estimate,
    unbiasedness_check,
)
from riskshrink.shrinkage import ShrinkageKind, gain_rows

ALL_KINDS = list(ShrinkageKind)

# closed-form values at xi = 10, alpha = 1 (u = 0.1)
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
    assert gain_rows([kind], [0.1])[0] == pytest.approx(POINT_XI10[kind], abs=1e-6)


def test_mse_examples():
    assert gain_rows([ShrinkageKind.MSE], [0.5])[0] == pytest.approx(0.5, abs=1e-15)
    assert gain_rows([ShrinkageKind.MSE], [2.0])[0] == 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_asymptote_and_zero(kind):
    assert gain_rows([kind], [1e-9])[0] == pytest.approx(1.0, abs=1e-6)
    assert gain_rows([kind], [np.inf])[0] == 0.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        gain_rows([ShrinkageKind.MSE], [-1.0])
    with pytest.raises(ValueError):
        gain_rows([ShrinkageKind.WE], [np.array([1.0, -0.5])])
    with pytest.raises(ValueError, match="nonnegative"):
        gain_rows([ShrinkageKind.MSE], [np.array([np.nan, -1.0])])


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.75, 3.0])
def test_range_invariant(kind, alpha):
    # u = alpha / xi as curves forms it, overflowing to inf at tiny xi
    rng = np.random.default_rng(4)
    xi = np.concatenate(
        [[0.0, 1e-300, 1e9, np.inf], 10.0 ** rng.uniform(-8, 10, size=2000)]
    )
    with np.errstate(divide="ignore", over="ignore"):
        u = alpha / xi
    g = gain_rows([kind], [u])[0]
    assert np.all(g >= 0.0)
    assert np.all(g <= 1.0)
    assert np.all(np.isfinite(g))


# closed-form values at u = 1
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
    # u = alpha / xi as curves forms it: xi = 0, a subnormal xi (u overflows)
    # and NaN shrink fully, as does a huge u; infinite xi (u = 0) passes;
    # u = 1 hits each closed form
    xi = np.array([0.0, 1e-320, 1e-300, np.nan, np.inf, 1.0]) * alpha
    with np.errstate(divide="ignore", over="ignore"):
        u = alpha / xi
    for kind in ALL_KINDS:
        want = [0.0, 0.0, 0.0, 0.0, 1.0, POINT_UNIT[kind]]
        got = gain_rows([kind], [u])[0].tolist()
        assert got == pytest.approx(want, rel=1e-14, abs=0.0), kind


def test_nan_u_is_zero_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = gain_rows([ShrinkageKind.MSE], [np.full(4, np.nan)])[0]
    np.testing.assert_array_equal(g, np.zeros(4))


@pytest.mark.parametrize("alpha", [1e-300, 1.0, 1e300])
def test_gain_is_zero_exactly_where_u_is_not_finite(alpha):
    # u = alpha * inv as tracking.step forms it from an inverse SNR: inf, NaN
    # and a product that overflows (1e308 at alpha 1e300) shrink fully; every
    # other point, an underflow to 0 (5e-324 at alpha 1e-300) included, is the
    # closed form, and u = +-0 keeps all
    with np.errstate(over="ignore"):
        u = alpha * np.array([np.inf, np.nan, 0.0, -0.0, 5e-324, 1e308])
    zero = np.array([True, True, False, False, False, alpha > 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = gain_rows(ALL_KINDS, np.tile(u, (len(ALL_KINDS), 1)))
    for kind, row in zip(ALL_KINDS, g):
        assert row[zero].tobytes() == np.zeros(zero.sum()).tobytes(), kind
        with np.errstate(over="ignore"):
            want = CLOSED_FORMS[kind](u[~zero])
        assert row[~zero].tobytes() == want.tobytes(), kind
        assert row[2] == row[3] == 1.0, kind


def test_in_place_kernels_equal_the_closed_forms_bitwise():
    # the kernels evaluate each formula in place with 0-d constants, into
    # rows of a buffer the caller owns; every finite u, the singular points
    # of the formulas and the overflow range included, keeps the formula's bits
    rng = np.random.default_rng(7)
    u = np.concatenate([10.0 ** rng.uniform(-320, 308, 4000), 10.0 ** rng.uniform(-8, 4, 4000),
                        [0.0, 5e-324, 1e-320, 1e-300, 1e-3, 0.5, 1.0, 1e300, 1.7e308]])
    rows = np.stack([u, u[::-1]])  # (inputs, bins)
    out = np.full((len(ALL_KINDS),) + rows.shape, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(**shrinkage._QUIET):
            got = shrinkage.gain_rows_unchecked(ALL_KINDS, np.array([rows] * len(ALL_KINDS)), out)
    assert got is out
    for k, kind in enumerate(ALL_KINDS):
        with np.errstate(over="ignore", invalid="ignore"):
            assert out[k].tobytes() == CLOSED_FORMS[kind](rows).tobytes(), kind


@pytest.mark.parametrize("kind", ["mse", 0, None])
def test_unknown_kind_rejected(kind):
    # including u = inf, where every kind gives 0 before the kind is used
    for u in (np.inf, 0.1):
        with pytest.raises(ValueError, match="ShrinkageKind"):
            gain_rows([kind], [np.array([u])])


# zero, the smallest subnormal, a subnormal, tiny, huge, infinite and NaN
EDGE_U = [0.0, 5e-324, 1e-320, 1e-300, 1e300, np.inf, np.nan]

# In a test name, gain_array is the one-row call gain_rows([kind], [u])[0].


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
    # u = alpha * inv as tracking.step forms it; at alpha 0.5 the smallest
    # subnormal underflows to 0
    rng = np.random.default_rng(6)
    n = len(kinds)
    flat = 10.0 ** rng.uniform(-12, 10, size=(n, 500))
    flat[:, : len(EDGE_U)] = EDGE_U
    stacked = 10.0 ** rng.uniform(-6, 4, size=(n, 3, 40))  # (kinds, inputs, bins)
    stacked[:, 1, : len(EDGE_U)] = EDGE_U
    for inv in (flat, stacked):
        u = alpha * inv
        g = gain_rows(kinds, u)
        assert g.shape == u.shape
        for k, kind in enumerate(kinds):
            want = gain_rows([kind], [u[k]])[0]
            assert g[k].tobytes() == want.tobytes(), (kind, k)


def test_one_row_keeps_the_shape_of_u():
    # a one-row stack keeps the shape of its row, 0-d for a scalar
    g = gain_rows([ShrinkageKind.WE], [0.25])[0, ...]
    assert isinstance(g, np.ndarray) and g.shape == ()
    assert gain_rows([ShrinkageKind.WE], [np.ones((2, 3))])[0].shape == (2, 3)


def test_gain_rows_validation():
    u = np.ones((2, 4))
    kinds = [ShrinkageKind.MSE, ShrinkageKind.IS]
    with pytest.raises(ValueError, match="kind must be a ShrinkageKind"):
        gain_rows([ShrinkageKind.MSE, "is"], u)
    with pytest.raises(ValueError, match="u must be nonnegative"):
        gain_rows(kinds, np.array([[1.0, 2.0], [np.nan, -1.0]]))
    for rows in (np.ones((3, 4)), np.ones(4)[:1], np.float64(1.0)):
        with pytest.raises(ValueError, match="rows"):
            gain_rows(kinds, rows)


_SCENE = SyntheticScene(50.0, TruncatedGaussianSpec(sigma=1.0, c=5.0))

# Every entry point that takes a kind, called with ``kind`` in that place and
# valid arguments elsewhere.
_KIND_ENTRIES = {
    "risk_estimate": lambda kind: risk_estimate(kind, 0.5, 1.0, 1.0),
    "oracle_argmin": lambda kind: oracle_argmin(kind, 1.0, 1.0, grid_step=0.1),
    "unbiasedness_check": lambda kind: unbiasedness_check(kind, 0.5, _SCENE, 10, 0),
    "DenoiserConfig": lambda kind: DenoiserConfig(kind=kind),
    "gain_rows": lambda kind: gain_rows([kind], [0.5]),
    "denoise_kinds": lambda kind: denoise_kinds(np.ones((1, 4000)), DenoiserConfig(), [kind]),
}


@pytest.mark.parametrize("kind", ["mse", None])
@pytest.mark.parametrize("entry", list(_KIND_ENTRIES))
def test_every_entry_refuses_a_wrong_kind_naming_the_valid_ones(entry, kind):
    # one check, shrinkage._check_kinds, so one message wherever a kind enters
    valid = "mse, we, log_mse, is, is_ii, cosh, wcosh"
    match = re.escape(f"kind must be a ShrinkageKind ({valid}), got {kind!r}")
    with pytest.raises(ValueError, match=match):
        _KIND_ENTRIES[entry](kind)


def test_backend_is_fixed():
    assert riskshrink.BACKEND == "python"


def test_monotonicity_diagnostic_scan():
    # monotonicity in xi is not a contract; this scan only reports how the
    # curves behave above unit SNR (empirically monotone there).  Run with -s
    # to see the counts.
    xi = 10.0 ** np.linspace(0.0, 6.0, 50_001)
    for kind in ALL_KINDS:
        g = gain_rows([kind], [1.0 / xi])[0]
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
    gains = gain_rows([kind], [1.0 / np.array(xis)])[0].tolist()
    for sigma, x, g in zip(sigmas, xs, gains):
        best = oracle_argmin(kind, x, sigma, grid_step=1e-3)
        assert abs(g - best) <= 1e-3
