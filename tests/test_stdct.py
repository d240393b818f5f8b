import numpy as np
import pytest
import scipy.fft
from hypothesis import given, reject, strategies as st

from conftest import covered_len, overlap_normalize, padded_frames
from riskshrink.pipeline import DenoiserConfig
from riskshrink.stdct import (
    FrameGrid,
    dct_forward,
    dct_inverse,
    frame_view,
    hamming_window,
    make_frame_grid,
    overlap_add_block,
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
    """Whole-signal weighted overlap-add: every frame windowed and added in
    one block, then the normalization, as the pipeline does block by block."""
    out = np.zeros(covered_len(grid))
    overlap_add_block(out, frames * window, grid)
    return overlap_normalize(out, grid, window)


# ---------------------------------------------------------------------------
# Frame grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "signal_len,expected_frames,expected_covered",
    [(320, 1, 320), (321, 2, 400), (800, 7, 800)],
)
def test_make_frame_grid(signal_len, expected_frames, expected_covered):
    grid = make_frame_grid(signal_len, 320, 80)
    assert grid.num_frames == expected_frames
    assert covered_len(grid) == expected_covered


@given(
    geometry=st.integers(1, 2000).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    extra=st.integers(0, 100_000),
)
def test_make_frame_grid_takes_the_fewest_frames_that_cover_the_signal(geometry, extra):
    # every geometry DenoiserConfig accepts, 1 <= hop <= frame_len, over a
    # signal at least one frame long
    frame_len, hop = geometry
    signal_len = frame_len + extra
    k = make_frame_grid(signal_len, frame_len, hop).num_frames
    assert (k - 1) * hop + frame_len >= signal_len
    assert k == 1 or (k - 2) * hop + frame_len < signal_len


def test_every_sample_covered():
    grid = make_frame_grid(1000, 320, 80)
    covered = np.zeros(covered_len(grid), dtype=int)
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


# A few ulps of the largest value: scipy's DCT and the real-FFT form round
# differently, and both errors grow with log(n).
_ULPS = 8 * np.finfo(np.float64).eps


@pytest.mark.parametrize("n", list(range(1, 65)) + [320, 441, 640, 882])
def test_dct_matches_scipy_within_a_few_ulps(n):
    # every frame length: even and odd, the 8/16 kHz frames and those of
    # 11025 and 22050 Hz; leading axes are independent frames
    x = np.random.default_rng(n).standard_normal((2, 3, n))
    for ours, reference in ((dct_forward, scipy.fft.dct), (dct_inverse, scipy.fft.idct)):
        want = reference(x, type=2, norm="ortho", axis=-1)
        got = ours(x)
        assert got.shape == x.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=_ULPS * np.max(np.abs(want)))
    back = dct_inverse(dct_forward(x))
    np.testing.assert_allclose(back, x, rtol=0, atol=_ULPS * np.max(np.abs(x)))


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
    grid = FrameGrid(frame_len=8, hop=8, num_frames=1)
    frame = np.arange(8.0)[None, :]
    out = synthesize(frame, grid, np.ones(8))
    np.testing.assert_array_equal(out, np.arange(8.0))


def test_overlap_add_zero_frames():
    grid = make_frame_grid(800, 320, 80)
    out = synthesize(np.zeros((grid.num_frames, 320)), grid, hamming_window(320))
    assert np.all(out == 0.0)


@pytest.mark.parametrize(
    "hop, frame_lens",
    [(1, range(1, 4)), (5, range(5, 16)), (110, (441, 549))],
    ids=["hop-1", "hop-5-every-width", "hop-110"],
)
def test_overlap_add_equals_frame_by_frame_at_every_piece_width(hop, frame_lens):
    # a frame is added in hop-wide pieces counted back from its end, so the
    # first piece is frame_len % hop samples wide when the hop does not
    # divide the frame: at hop 5 frame_len takes every such width, 1 to 5,
    # with one to three pieces; 441/110 is the 11025 Hz geometry, whose first
    # piece is 1 sample.  The accumulator starts nonzero, so a sample that
    # summed its frames out of grid order would round differently.
    rng = np.random.default_rng(hop)
    for frame_len in frame_lens:
        grid = make_frame_grid(frame_len + 9 * hop, frame_len, hop)
        frames = rng.standard_normal((2, grid.num_frames, frame_len))
        start = 1e3 * rng.standard_normal((2, covered_len(grid) + 3))
        want = start.copy()
        for j in range(grid.num_frames):
            want[:, j * hop : j * hop + frame_len] += frames[:, j]
        got = start.copy()
        overlap_add_block(got, frames, grid)
        assert got.tobytes() == want.tobytes(), frame_len


_GEOMETRIES = pytest.mark.parametrize(
    "frame_len, hop", [(320, 80), (441, 110)], ids=["hop-divides", "hop-does-not-divide"]
)


@_GEOMETRIES
@pytest.mark.parametrize(
    "first_frames",
    [range(0, 64), range(0, 64, 16), [0, 5, 6, 23, 25, 40, 41]],
    ids=["blocks-of-1", "blocks-of-16", "uneven-blocks"],
)
def test_any_split_into_blocks_gives_the_same_bits(frame_len, hop, first_frames):
    # The pipeline adds 16 frames at a time and a streaming caller one at a
    # time; either way every sample sums its frames in grid order.
    grid = make_frame_grid(frame_len + 50 * hop + 7, frame_len, hop)
    frames = np.random.default_rng(hop).standard_normal((2, grid.num_frames, frame_len))
    frames *= hamming_window(frame_len)
    whole = np.zeros((2, covered_len(grid)))
    overlap_add_block(whole, frames, grid)
    split = np.zeros((2, covered_len(grid)))
    starts = [f for f in first_frames if f < grid.num_frames]
    for start, stop in zip(starts, starts[1:] + [grid.num_frames]):
        overlap_add_block(split[:, start * grid.hop :], frames[:, start:stop], grid)
    assert split.tobytes() == whole.tobytes()


@_GEOMETRIES
def test_frame_view_is_a_read_only_view_of_the_whole_frames(frame_len, hop):
    # the grid's last frame runs 7 samples past the end, so the view holds
    # every frame but that one, each a slice of x; the zero fill past the
    # end is the pipeline's input window, tested by its span tests
    x = np.random.default_rng(hop).standard_normal((2, frame_len + 40 * hop + 7))
    grid = make_frame_grid(x.shape[-1], frame_len, hop)
    frames = frame_view(x, grid)
    assert frames.shape == (2, grid.num_frames - 1, frame_len)
    assert not frames.flags.writeable
    assert np.shares_memory(frames, x)
    for j in range(grid.num_frames - 1):
        assert frames[:, j].tobytes() == x[:, j * hop : j * hop + frame_len].tobytes()


def test_inverse_in_place_gives_the_same_bits():
    coeffs = np.random.default_rng(12).standard_normal((3, 16, 441))
    want = dct_inverse(coeffs)
    got = coeffs.copy()
    assert dct_inverse(got, out=got) is got
    assert got.tobytes() == want.tobytes()


@_GEOMETRIES
def test_normalizer_is_the_overlap_add_of_the_squared_window(frame_len, hop):
    grid = make_frame_grid(frame_len + 50 * hop + 7, frame_len, hop)
    window = hamming_window(frame_len)
    norm = np.zeros(covered_len(grid))
    overlap_add_block(norm, np.tile(window * window, (grid.num_frames, 1)), grid)
    signal = np.random.default_rng(frame_len).standard_normal(covered_len(grid))
    normalized = overlap_normalize(signal.copy(), grid, window)
    assert normalized.tobytes() == (signal / norm).tobytes()


def test_identity_roundtrip_interior():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(800)
    grid = make_frame_grid(x.shape[0], 320, 80)
    w = hamming_window(320)
    frames = padded_frames(x, grid) * w
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
    y = synthesize(dct_inverse(dct_forward(padded_frames(x, grid) * w)), grid, w)
    interior = slice(320, x.shape[0] - 320)
    np.testing.assert_allclose(y[interior], x[interior], rtol=0, atol=1e-9)


@pytest.mark.parametrize("frame_len, hop", [(441, 110), (882, 220), (321, 80)])
def test_identity_roundtrip_with_a_hop_that_does_not_divide_the_frame(frame_len, hop):
    # the rounded geometries of 11025 Hz, 22050 Hz and 40.1 ms at 8 kHz
    rng = np.random.default_rng(frame_len)
    x = rng.standard_normal(12 * frame_len + 7)
    grid = make_frame_grid(x.shape[0], frame_len, hop)
    w = hamming_window(frame_len)
    y = synthesize(dct_inverse(dct_forward(padded_frames(x, grid) * w)), grid, w)
    interior = slice(frame_len, x.shape[0] - frame_len)
    np.testing.assert_allclose(y[interior], x[interior], rtol=0, atol=1e-9)


@given(
    sample_rate=st.integers(8000, 48000),
    frame_ms=st.floats(1.0, 64.0),
    overlap_fraction=st.floats(0.0, 0.95),
)
def test_every_accepted_geometry_normalizes_every_sample(
    sample_rate, frame_ms, overlap_fraction
):
    # make_frame_grid and overlap_add_block check nothing: DenoiserConfig
    # bounds the hop, and the Hamming window keeps every norm >= 0.08**2.
    try:
        config = DenoiserConfig(
            sample_rate=sample_rate, frame_ms=frame_ms, overlap_fraction=overlap_fraction
        )
    except ValueError:
        reject()
    frame_len, hop = config.frame_len, config.hop
    assert 1 <= hop <= frame_len
    grid = make_frame_grid(frame_len * (config.init_noise_frames + 1), frame_len, hop)
    inv_norm = overlap_normalize(np.ones(covered_len(grid)), grid, hamming_window(frame_len))
    assert np.all(np.isfinite(inv_norm))
    assert np.all(inv_norm <= 1.0 / 0.0064)
