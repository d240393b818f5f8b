import numpy as np
import pytest

from riskshrink.stdct import (
    FrameGrid,
    dct_forward,
    dct_inverse,
    frame_view,
    hamming_window,
    make_frame_grid,
    overlap_add_block,
    overlap_normalize,
)


def naive_dct(x: np.ndarray) -> np.ndarray:
    """Direct O(N^2) orthonormal DCT-II, the reference the fast path must match."""
    x = np.asarray(x, dtype=np.float64)
    big_n = x.shape[0]
    n = np.arange(big_n)
    out = np.empty(big_n)
    for k in range(big_n):
        scale = np.sqrt((1.0 if k == 0 else 2.0) / big_n)
        out[k] = scale * np.sum(x * np.cos(np.pi * k * (2 * n + 1) / (2 * big_n)))
    return out


def synthesize(frames: np.ndarray, grid: FrameGrid, window: np.ndarray) -> np.ndarray:
    """Whole-signal weighted overlap-add: every frame in one block, then the
    normalization, as the pipeline does block by block."""
    out = np.zeros(grid.padded_len)
    overlap_add_block(out, frames, grid, window, 0)
    return overlap_normalize(out, grid, window)


# ---------------------------------------------------------------------------
# Frame grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "signal_len,expected_frames,expected_padded",
    [(320, 1, 320), (321, 2, 400), (800, 7, 800)],
)
def test_make_frame_grid(signal_len, expected_frames, expected_padded):
    grid = make_frame_grid(signal_len, 320, 80)
    assert grid.num_frames == expected_frames
    assert grid.padded_len == expected_padded
    assert (grid.padded_len - grid.frame_len) % grid.hop == 0


def test_make_frame_grid_zero_length():
    grid = make_frame_grid(0, 320, 80)
    assert grid.num_frames == 0
    assert grid.padded_len == 0


@pytest.mark.parametrize("frame_len,hop", [(0, 1), (320, 0), (320, 321), (-5, 1)])
def test_make_frame_grid_invalid(frame_len, hop):
    with pytest.raises(ValueError):
        make_frame_grid(1000, frame_len, hop)


def test_every_sample_covered():
    grid = make_frame_grid(1000, 320, 80)
    covered = np.zeros(grid.padded_len, dtype=int)
    for i in range(grid.num_frames):
        covered[i * grid.hop : i * grid.hop + grid.frame_len] += 1
    assert np.all(covered >= 1)


# ---------------------------------------------------------------------------
# Window
# ---------------------------------------------------------------------------


def test_hamming_point_values():
    w = hamming_window(4)
    assert w[0] == pytest.approx(0.08, abs=1e-15)
    assert w[2] == pytest.approx(1.0, abs=1e-15)


def test_hamming_is_periodic():
    # periodic form: w[0] != w[-1], and the length-N window is the first N
    # points of the length-2N one sampled at even indices
    w = hamming_window(320)
    assert w[0] != pytest.approx(w[-1], abs=1e-12)


def test_hamming_cola_at_quarter_hop():
    frame_len, hop = 320, 80
    w = hamming_window(frame_len)
    total = np.zeros(frame_len * 6)
    n_shifts = (total.shape[0] - frame_len) // hop + 1
    for i in range(n_shifts):
        total[i * hop : i * hop + frame_len] += w
    interior = total[frame_len : total.shape[0] - frame_len]
    assert np.max(np.abs(interior - interior[0])) / interior[0] < 1e-9


# ---------------------------------------------------------------------------
# DCT
# ---------------------------------------------------------------------------


def test_dct_constant_frame():
    n = 16
    coeffs = dct_forward(np.ones(n))
    assert coeffs[0] == pytest.approx(np.sqrt(n), rel=1e-12)
    assert np.max(np.abs(coeffs[1:])) < 1e-12


def test_dct_zero_frame():
    assert np.all(dct_forward(np.zeros(8)) == 0.0)


def test_dct_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4, 8, 16, 33, 64):
        x = rng.standard_normal(n)
        fast = dct_forward(x)
        ref = naive_dct(x)
        np.testing.assert_allclose(fast, ref, rtol=1e-9, atol=1e-12)


def test_dct_roundtrip():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(320)
    np.testing.assert_allclose(dct_inverse(dct_forward(x)), x, rtol=1e-9, atol=1e-12)


def test_parseval_on_analyzed_frames():
    rng = np.random.default_rng(9)
    grid = make_frame_grid(2000, 320, 80)
    w = hamming_window(320)
    frames = frame_view(rng.standard_normal(2000), grid) * w
    coeffs = dct_forward(frames)
    time_energy = np.sum(frames**2, axis=1)
    dct_energy = np.sum(coeffs**2, axis=1)
    np.testing.assert_allclose(dct_energy, time_energy, rtol=1e-9)


def test_empty_frame_rejected():
    with pytest.raises(ValueError):
        dct_forward(np.zeros(0))
    with pytest.raises(ValueError):
        dct_inverse(np.zeros(0))


# ---------------------------------------------------------------------------
# Overlap-add
# ---------------------------------------------------------------------------


def test_overlap_add_single_frame_ones_window():
    grid = FrameGrid(frame_len=8, hop=8, num_frames=1, padded_len=8)
    frame = np.arange(8.0)[None, :]
    out = synthesize(frame, grid, np.ones(8))
    np.testing.assert_array_equal(out, np.arange(8.0))


def test_overlap_add_zero_frames():
    grid = make_frame_grid(800, 320, 80)
    out = synthesize(np.zeros((grid.num_frames, 320)), grid, hamming_window(320))
    assert np.all(out == 0.0)


def test_identity_roundtrip_interior():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(800)
    grid = make_frame_grid(x.shape[0], 320, 80)
    w = hamming_window(320)
    frames = frame_view(x, grid) * w
    back = dct_inverse(dct_forward(frames))
    y = synthesize(back, grid, w)[: x.shape[0]]
    interior = slice(320, x.shape[0] - 320)
    err = np.abs(y[interior] - x[interior])
    assert np.max(err) / np.max(np.abs(x[interior])) < 1e-6


def test_identity_roundtrip_long_signal():
    # signal at least 3 frames long, full interior reconstruction
    rng = np.random.default_rng(11)
    x = rng.standard_normal(3 * 320 + 123)
    grid = make_frame_grid(x.shape[0], 320, 80)
    w = hamming_window(320)
    y = synthesize(dct_inverse(dct_forward(frame_view(x, grid) * w)), grid, w)
    interior = slice(320, x.shape[0] - 320)
    np.testing.assert_allclose(y[interior], x[interior], rtol=0, atol=1e-9)


@pytest.mark.parametrize("frame_len, hop", [(441, 110), (882, 220), (321, 80)])
def test_identity_roundtrip_with_a_hop_that_does_not_divide_the_frame(frame_len, hop):
    # the rounded geometries of 11025 Hz, 22050 Hz and 40.1 ms at 8 kHz
    rng = np.random.default_rng(frame_len)
    x = rng.standard_normal(12 * frame_len + 7)
    grid = make_frame_grid(x.shape[0], frame_len, hop)
    w = hamming_window(frame_len)
    y = synthesize(dct_inverse(dct_forward(frame_view(x, grid) * w)), grid, w)
    interior = slice(frame_len, x.shape[0] - frame_len)
    np.testing.assert_allclose(y[interior], x[interior], rtol=0, atol=1e-9)
