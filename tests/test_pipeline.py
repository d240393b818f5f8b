import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import NUMPY_DISPATCH, covered_len, make_voiced, overlap_normalize, padded_frames
from riskshrink.audio import generate_white_noise, mix_at_snr, read_wav, write_wav
from riskshrink.metrics import global_snr_db
from riskshrink import shrinkage, stdct, tracking
from riskshrink.pipeline import (
    DenoiserConfig,
    denoise,
    denoise_file,
    denoise_kinds,
    denoise_spans,
)
from riskshrink.shrinkage import ShrinkageKind


def test_config_defaults_give_standard_geometry():
    cfg = DenoiserConfig()
    assert cfg.frame_len == 320
    assert cfg.hop == 80


@pytest.mark.parametrize(
    "kwargs",
    [
        {"frame_ms": 0.1},  # a 1-sample frame with a 0-sample hop
        {"overlap_fraction": 1.0},
        {"overlap_fraction": -0.1},
        {"alpha": 0.0},
        {"alpha": float("inf")},
        {"beta": 0.0},
        {"eta": 1.5},
        {"sample_rate": 0},
        {"init_noise_frames": 0},
        {"vad_hangover": -1},
        {"frame_ms": float("inf")},
        {"frame_ms": float("nan")},
        {"frame_ms": 0.05},  # a 0-sample frame
        {"frame_ms": 1e306},  # an infinite frame at 8 kHz
        {"vad_threshold": float("nan")},
        {"vad_threshold": float("inf")},
        {"vad_hangover": 10**20},  # beyond the tracker's int64 counter
        {"kind": "mse"},  # a kind name, not a ShrinkageKind
        {"init_noise_frames": 2.5},
        {"vad_hangover": 1.5},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        DenoiserConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"sample_rate": 8000.5}, "sample_rate must be an integer"),  # was frame_len 320
        ({"sample_rate": 8000.0}, "sample_rate must be an integer"),
        ({"sample_rate": "8000"}, "sample_rate must be an integer"),  # was a TypeError
        ({"alpha": "1"}, "alpha must be a real number"),  # was a TypeError
        ({"vad_threshold": "0.1"}, "vad_threshold must be a real number"),  # was a TypeError
        ({"frame_ms": "40"}, "frame_ms must be a real number"),
        ({"overlap_fraction": None}, "overlap_fraction must be a real number"),
        ({"beta": 0.5 + 0j}, "beta must be a real number"),
        ({"eta": [0.9]}, "eta must be a real number"),
        ({"frame_ms": True}, "frame_ms must be a real number"),  # was 16-sample frames
        ({"vad_hangover": True}, "vad_hangover must be an integer"),
        ({"init_noise_frames": True}, "init_noise_frames must be an integer"),
        ({"alpha": True}, "alpha must be a real number"),
        ({"sample_rate": False}, "sample_rate must be an integer"),
        ({"vad_threshold": np.bool_(False)}, "vad_threshold must be a real number"),
    ],
)
def test_config_refuses_a_field_of_the_wrong_type_naming_it(kwargs, message):
    with pytest.raises(ValueError, match=message):
        DenoiserConfig(**kwargs)


def test_config_takes_numpy_numbers():
    cfg = DenoiserConfig(sample_rate=np.int64(16000), alpha=np.float64(1.5), beta=np.float32(0.5),
                         vad_threshold=np.int32(0))
    assert (cfg.frame_len, cfg.hop) == (640, 160)


@pytest.mark.parametrize(
    "kwargs, frame_len, hop",
    [
        ({"sample_rate": 8000}, 320, 80),
        ({"sample_rate": 11025}, 441, 110),
        ({"sample_rate": 22050}, 882, 220),
        ({"sample_rate": 44100, "frame_ms": 20.0}, 882, 220),
        ({"sample_rate": 48000}, 1920, 480),
        ({"sample_rate": 8000, "frame_ms": 40.1}, 321, 80),
    ],
)
def test_geometry_is_rounded_to_whole_samples(kwargs, frame_len, hop):
    cfg = DenoiserConfig(**kwargs)
    assert (cfg.frame_len, cfg.hop) == (frame_len, hop)


def test_sub_sample_hop_error_names_the_geometry():
    with pytest.raises(
        ValueError,
        match=r"frame_ms=0\.1 and overlap_fraction=0\.75 at 8000 Hz give "
        r"frame_len=1 and hop=0 samples",
    ):
        DenoiserConfig(frame_ms=0.1)


def test_zero_input_gives_zero_output():
    out = denoise(np.zeros(4000), DenoiserConfig())
    assert out.shape == (4000,)
    assert np.all(out == 0.0)


def test_length_preserved():
    rng = np.random.default_rng(31)
    for n in (1120, 1121, 4000, 5003):
        out = denoise(0.1 * rng.standard_normal(n), DenoiserConfig())
        assert out.shape == (n,)


def test_too_short_signal_rejected():
    with pytest.raises(ValueError, match="too short"):
        denoise(np.zeros(1119), DenoiserConfig())  # minimum is 10*80 + 320


def test_non_finite_input_rejected():
    x = np.zeros(4000)
    x[100] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        denoise(x, DenoiserConfig())
    x[100] = np.inf
    with pytest.raises(ValueError):
        denoise(x, DenoiserConfig())
    x[100] = -np.inf
    with pytest.raises(ValueError, match="NaN or Inf"):
        denoise(x, DenoiserConfig())


def _amplitude_limit(cfg: DenoiserConfig) -> float:
    return float(np.sqrt(np.finfo(np.float64).max / (cfg.frame_len * cfg.init_noise_frames)))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_huge_finite_input_refused(sign):
    # at 1e300 a coefficient's square overflows: the tracker would take an
    # infinite noise floor and return all zeros, so the peak is refused first
    cfg = DenoiserConfig()
    x = sign * make_voiced(8000, 0.5).samples
    x[np.argmax(sign * x)] = sign * 1.0  # the peak carries the sign
    for scale in (1e300, _amplitude_limit(cfg)):
        with pytest.raises(ValueError, match=re.escape(f"{_amplitude_limit(cfg):.6g}")):
            denoise(scale * x, cfg)
    denoise(np.nextafter(_amplitude_limit(cfg), 0.0) * x, cfg)


@pytest.mark.parametrize("shape", ["dc", "alternating"])
@pytest.mark.parametrize("kind", list(ShrinkageKind))
def test_input_just_below_the_amplitude_limit_runs_clean(kind, shape):
    # the signals that put the most energy into one coefficient of every
    # initial frame: the initial noise floor sums init_noise_frames squares
    # without overflow, and no warning escapes (warnings are errors here)
    cfg = DenoiserConfig(kind=kind)
    x = np.ones(4000) if shape == "dc" else np.where(np.arange(4000) % 2, 1.0, -1.0)
    out = denoise(np.nextafter(_amplitude_limit(cfg), 0.0) * x, cfg)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("kind", list(ShrinkageKind))
def test_power_of_two_scale_moves_no_bit(kind):
    # scaling by 2**k is exact in every operation of the denoiser while no
    # intermediate overflows or goes subnormal, so a huge input that is
    # accepted (about 8.2e149 here) gives the scaled bits of the plain one
    x = make_voiced(8000, 0.5).samples + 0.1 * np.random.default_rng(31).standard_normal(4000)
    cfg = DenoiserConfig(kind=kind)
    scale = 2.0**498
    assert denoise(scale * x, cfg).tobytes() == (scale * denoise(x, cfg)).tobytes()


def test_non_mono_rejected():
    with pytest.raises(ValueError):
        denoise(np.zeros((2, 4000)), DenoiserConfig())
    # a single row is still 2-D: only denoise_kinds takes a batch
    with pytest.raises(ValueError, match="mono"):
        denoise(np.zeros((1, 4000)), DenoiserConfig())
    with pytest.raises(ValueError):
        denoise_kinds(np.zeros(4000), DenoiserConfig(), [ShrinkageKind.MSE])
    with pytest.raises(ValueError):
        denoise_kinds(np.zeros((1, 1, 4000)), DenoiserConfig(), [ShrinkageKind.MSE])


def test_determinism_bit_identical():
    rng = np.random.default_rng(32)
    x = 0.2 * rng.standard_normal(8000)
    cfg = DenoiserConfig(kind=ShrinkageKind.WCOSH)
    np.testing.assert_array_equal(denoise(x, cfg), denoise(x, cfg))


def test_unit_gain_hook_reduces_to_roundtrip(monkeypatch):
    def unit(kinds, u, out):
        out.fill(1.0)
        return out

    monkeypatch.setattr(tracking, "gain_rows_unchecked", unit)
    rng = np.random.default_rng(33)
    x = 0.3 * rng.standard_normal(4000)
    out = denoise(x, DenoiserConfig())
    interior = slice(320, x.shape[0] - 320)
    err = np.max(np.abs(out[interior] - x[interior]))
    assert err / np.max(np.abs(x[interior])) < 1e-6


def test_one_gain_call_per_frame_covers_every_stream(monkeypatch):
    calls = []

    def counted(kinds, u, out):
        calls.append(u.shape)
        return shrinkage.gain_rows_unchecked(kinds, u, out)

    monkeypatch.setattr(tracking, "gain_rows_unchecked", counted)
    noisy = np.random.default_rng(34).standard_normal((2, 4000))
    cfg = DenoiserConfig()
    out = denoise_kinds(noisy, cfg, list(ShrinkageKind))
    frames = stdct.make_frame_grid(4000, cfg.frame_len, cfg.hop).num_frames
    assert out.shape == (7, 2, 4000)
    assert len(calls) == frames
    assert set(calls) == {(7, 2, cfg.frame_len)}


def test_kinds_are_checked_once_before_the_first_frame(monkeypatch):
    # a string is not a kind: building the tracker state refuses it, so no
    # frame reaches the per-frame gain call; a valid run checks its rows once
    gains = []
    monkeypatch.setattr(tracking, "gain_rows_unchecked", lambda kinds, u, out: gains.append(u))
    noisy = np.random.default_rng(35).standard_normal((1, 4000))
    with pytest.raises(ValueError, match="kind must be a ShrinkageKind"):
        tracking.initialize(np.ones((1, 3, 8)), ["mse"])
    with pytest.raises(ValueError, match="kind must be a ShrinkageKind"):
        denoise_kinds(noisy, DenoiserConfig(), ["mse"])
    assert gains == []
    monkeypatch.undo()

    checks = []

    def counted(kinds):
        checks.append(list(kinds))
        shrinkage._check_kinds(kinds)

    monkeypatch.setattr(tracking, "_check_kinds", counted)
    denoise_kinds(noisy, DenoiserConfig(), [ShrinkageKind.WE, ShrinkageKind.IS])
    assert checks == [[ShrinkageKind.WE, ShrinkageKind.IS, ShrinkageKind.MSE]]


def _lockstep_inputs(n):
    """Three noisy inputs of ``n`` samples with different noise draws, one of
    them behind a digital-silence lead-in."""
    rng = np.random.default_rng(40)
    t = np.arange(n) / 8000.0
    tone = 0.4 * np.sin(2 * np.pi * 440.0 * t) * (t > 0.15)
    rows = [tone + 0.05 * rng.standard_normal(n) for _ in range(3)]
    rows[1][:1200] = 0.0
    return np.stack(rows)


def test_frame_by_frame_with_reused_buffers_equals_denoise_kinds():
    # A streaming denoiser reuses one coefficient buffer and one output buffer
    # for every frame, a block of one.  The tracker keeps no reference to
    # either, so poisoning both after each use leaves every output bit as the
    # block loop gives it.
    noisy = _lockstep_inputs(4000)
    kinds = [ShrinkageKind.WCOSH, ShrinkageKind.IS]  # and the hidden mse row
    cfg = DenoiserConfig()
    grid = stdct.make_frame_grid(noisy.shape[-1], cfg.frame_len, cfg.hop)
    window = stdct.hamming_window(cfg.frame_len)
    frames = padded_frames(noisy, grid)
    init = stdct.dct_forward(frames[:, : cfg.init_noise_frames] * window)
    state = tracking.initialize(init, kinds)
    coeffs = np.empty((3, 1, cfg.frame_len))
    denoised = np.empty((len(kinds), 3, 1, cfg.frame_len))
    out = np.zeros((len(kinds), 3, covered_len(grid)))
    for j in range(grid.num_frames):
        coeffs[...] = stdct.dct_forward(frames[:, j : j + 1] * window)
        tracking.step(state, coeffs, cfg, denoised)
        synthesized = stdct.dct_inverse(denoised) * window
        stdct.overlap_add_block(out[..., j * grid.hop :], synthesized, grid)
        coeffs.fill(np.nan)
        denoised.fill(np.nan)
    overlap_normalize(out, grid, window)
    np.testing.assert_array_equal(out[..., :4000], denoise_kinds(noisy, cfg, kinds))


@pytest.mark.parametrize(
    "overrides",
    [{}, {"overlap_fraction": 0.0}, {"overlap_fraction": 0.95}, {"sample_rate": 11025}],
    ids=["default", "no-overlap", "overlap0.95", "rate11025"],
)
@pytest.mark.parametrize("n", [4000, 4003])
def test_spans_equal_one_whole_signal_overlap_add(overrides, n):
    # The spans leave the denoiser as soon as no later frame touches them:
    # in order, covering the signal once, each with the bits of one
    # whole-signal accumulator normalized at the end.  With 95% overlap a
    # sample stays open for 20 frames, longer than a block of 16.
    _assert_spans_equal_one_whole_signal_overlap_add(overrides, n)


@pytest.mark.parametrize(
    "overrides, n",
    [
        ({}, 1120),
        ({}, 1443),
        ({}, 1520),
        ({}, 1521),
        ({"overlap_fraction": 0.95}, 480),
        ({"overlap_fraction": 0.95}, 481),
    ],
    ids=[
        "11-frames",
        "16-frames-last-past-end",
        "16-frames-exact",
        "17-frames",
        "overlap0.95-11-frames",
        "overlap0.95-12-frames-last-past-end",
    ],
)
def test_spans_at_block_boundaries(overrides, n):
    # Every block is framed from one block-wide input window, zero past the
    # input's end: less than one block, a last frame past the end, a block
    # that ends on the input's last sample, and one frame past a whole block.
    _assert_spans_equal_one_whole_signal_overlap_add(overrides, n)


def _assert_spans_equal_one_whole_signal_overlap_add(overrides, n):
    noisy = _lockstep_inputs(n)
    kinds = [ShrinkageKind.WCOSH, ShrinkageKind.MSE]
    cfg = DenoiserConfig(**overrides)
    grid = stdct.make_frame_grid(n, cfg.frame_len, cfg.hop)
    window = stdct.hamming_window(cfg.frame_len)
    frames = padded_frames(noisy, grid)
    state = tracking.initialize(
        stdct.dct_forward(frames[:, : cfg.init_noise_frames] * window), kinds
    )
    want = np.zeros((len(kinds), 3, covered_len(grid)))
    denoised = np.empty((len(kinds), 3, 1, cfg.frame_len))
    for j in range(grid.num_frames):
        coeffs = stdct.dct_forward(frames[:, j : j + 1] * window)
        tracking.step(state, coeffs, cfg, denoised)
        synthesized = stdct.dct_inverse(denoised)
        stdct.overlap_add_block(want[..., j * grid.hop :], synthesized * window, grid)
    overlap_normalize(want, grid, window)
    got = np.full((len(kinds), 3, n), np.nan)
    end = 0
    for lo, span in denoise_spans(noisy, cfg, kinds):
        assert lo == end and span.shape[:2] == (len(kinds), 3)
        got[..., lo : lo + span.shape[-1]] = span
        end = lo + span.shape[-1]
    assert end == n
    assert got.tobytes() == want[..., :n].tobytes()


@pytest.mark.parametrize("n", [1120, 1121, 8003])  # minimum, one past it, off-hop
def test_lockstep_rows_equal_single_stream_denoise(n):
    kinds = list(ShrinkageKind)
    noisy = _lockstep_inputs(n)
    cfg = DenoiserConfig(alpha=1.3)
    out = denoise_kinds(noisy, cfg, kinds)
    assert out.shape == (len(kinds), 3, n)
    for k, kind in enumerate(kinds):
        for i in range(3):
            np.testing.assert_array_equal(
                out[k, i], denoise(noisy[i], DenoiserConfig(alpha=1.3, kind=kind))
            )


def test_lockstep_long_init_spans_blocks():
    # more initialization frames than one analysis block holds
    noisy = _lockstep_inputs(8000)
    cfg = DenoiserConfig(init_noise_frames=40, overlap_fraction=0.5)
    kinds = [ShrinkageKind.WCOSH, ShrinkageKind.MSE]
    out = denoise_kinds(noisy, cfg, kinds)
    for k, kind in enumerate(kinds):
        for i in range(3):
            np.testing.assert_array_equal(
                out[k, i], denoise(noisy[i], DenoiserConfig(
                    init_noise_frames=40, overlap_fraction=0.5, kind=kind))
            )


def test_lockstep_without_mse_keeps_row_order():
    # mse runs as a hidden last row that primes the VAD; the rows returned
    # are exactly the kinds asked for, repeats included
    noisy = _lockstep_inputs(4000)
    kinds = [ShrinkageKind.WCOSH, ShrinkageKind.IS, ShrinkageKind.WCOSH]
    out = denoise_kinds(noisy, DenoiserConfig(), kinds)
    assert out.shape == (3, 3, 4000)
    for k, kind in enumerate(kinds):
        for i in range(3):
            np.testing.assert_array_equal(
                out[k, i], denoise(noisy[i], DenoiserConfig(kind=kind))
            )


# sha256 of the raw float64 output of denoise_kinds, computed with numpy 2.4.6,
# whose pocketfft real FFT carries the DCT (stdct), on Python 3.11.7, x86-64;
# another numpy build may round the transforms differently.  One digest per
# numpy dispatch (conftest.NUMPY_DISPATCH): the log_mse rows call np.exp, which
# the two round differently.
_PINNED_SHA256 = {
    "AVX-512": {
        "default": "ba696f946668d038ae68ad3a3ab9785c6e03bc98959bb1330daffa5c080344df",
        "init20_overlap0.5": "e3fb21944a89d4a6d33730a8c01fcf8a2c75be4202c4ceadd2ba57c4446a1d7e",
        "init1": "61d470b2548e556493a2fb813fe2190bf411875034a5d6548e0c8b0a43efdff5",
        "rate16000": "f289aaeae4861463f87aae01cc6f4374fff17af4ea20894627ef08ab9da3e2d0",
        "offhop": "b0b994d05aafd731763bb1b35a8cf7d90b6638e381d5360a4056b7f4537b8e61",
        "offhop_rate16000": "2f6a62fd2170c0febd1c2833f7c0a5002c24ffdb1db8163204e28a426c3f67be",
    },
    "AVX2": {
        "default": "6bdc2efd3bc025c307bc69711bd143105ea69d1617bf8c5742eb9e50dcda57af",
        "init20_overlap0.5": "232e6fc193e70fb77677fd04c40d7c34669f6cb76123a1bee9b85bb84ff8c769",
        "init1": "ed74c32f2b30ea2b107e3c25052e9befb898827bd21c45706d8948564f19e89f",
        "rate16000": "3bcd25991b1a2ad07f1b08c3836ddfa583b5bb2edf852a2cb3219f01123c2d23",
        "offhop": "b41d2a7340579c78d3c078b1e95ab3aeee5480ab8b14718b94fa410bf4561a1f",
        "offhop_rate16000": "d98a858e261af4a76fd66762f885a5136e1cd55a348aefbbcc07752b4b07593a",
    },
}
# The mse rows alone.  The VAD and the noise floor read the mse estimate, so
# these stay fixed wherever the other kinds' rows move.  They call no
# transcendental function, and on these inputs the VAD's np.log1p makes the
# same decisions on both dispatches, so they have one digest.
_PINNED_MSE_SHA256 = {
    "default": "5053ce94961997eaebe827c841b96fd5bcb03e8ff41a367c8d635552c46f857b",
    "init20_overlap0.5": "17f5287570abef3025283f833674f096704c6adb3ef6ee7bced0b03a6251d5fb",
    "init1": "2f6fc2bd76c5cc1a2c2abf12f6065ae6bc880ecedeabaf11b30b612fe36edee8",
    "rate16000": "d76fc86daaf7e927272e6349b368388d0c281b0f3821f31b8d7c1305124f26b7",
    "offhop": "a8277f58ad8dc86ebc8ac52a1a3e08df983e8f53dc857d02c0b962b050159662",
    "offhop_rate16000": "61eb87a432a5748e076289473a279bc71529272299a2d6c23b4b11c3f4c61ddf",
}
# Input length of each case, 12,000 samples unless named here.  12,000 needs no
# padding at either rate; 11,963 is 43 samples past the last full hop at 8 kHz
# and 123 at 16 kHz, so its last frame runs past the end and the last block of
# frames is a zero-padded copy.
_PINNED_LENGTH = {"offhop": 11963, "offhop_rate16000": 11963}


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize(
    "case, overrides",
    [
        ("default", {}),
        # more initialization frames than one analysis block holds
        ("init20_overlap0.5", {"init_noise_frames": 20, "overlap_fraction": 0.5}),
        ("init1", {"init_noise_frames": 1}),
        # 640-point frames, as the benchmark's 16 kHz denoise runs them
        ("rate16000", {"sample_rate": 16000}),
        ("offhop", {}),
        ("offhop_rate16000", {"sample_rate": 16000}),
    ],
)
def test_output_bits_pinned(case, overrides, voiced_buffer):
    n = _PINNED_LENGTH.get(case, 12000)
    clean = voiced_buffer.samples[:n]
    noisy = np.stack(
        [clean + generate_white_noise(n, 0.05, seed=s).samples for s in (50, 51)]
    )
    noisy[1, :1600] = 0.0  # digital-silence lead-in
    cfg = DenoiserConfig(**overrides)
    assert ((n - cfg.frame_len) % cfg.hop != 0) == (case in _PINNED_LENGTH)
    out = denoise_kinds(noisy, cfg, list(ShrinkageKind))
    assert list(ShrinkageKind)[0] is ShrinkageKind.MSE
    assert _sha256(out[0]) == _PINNED_MSE_SHA256[case]
    assert _sha256(out) == _PINNED_SHA256[NUMPY_DISPATCH][case]


# sha256 of denoise_kinds for kind lists whose rows are not list(ShrinkageKind):
# a repeat without mse, and mse asked for last.  Same inputs and build as above;
# no row calls a transcendental function, so one digest serves both dispatches.
_PINNED_ORDER_SHA256 = {
    ("default", "wcosh,is,wcosh"):
        "f42727f5aab38251069b975c5751181a4aaabdcadd79cee80e56beff5e949c35",
    ("default", "we,mse"):
        "f3bfa4dfffac48bd590f5a8096298896e29044f91882bf03db6f02b29b6b4f64",
    ("init20_overlap0.5", "wcosh,is,wcosh"):
        "d60edbfd4ff41b68d715c47b5a463ea52d32f8d6f675b32c7ceedc7ebc2072e2",
    ("init20_overlap0.5", "we,mse"):
        "946af03d41462db164d11f77034a276fb566a5bd122f89386a83d234b8122511",
}


@pytest.mark.parametrize("kinds", ["wcosh,is,wcosh", "we,mse"])
@pytest.mark.parametrize(
    "case, overrides",
    [("default", {}), ("init20_overlap0.5", {"init_noise_frames": 20, "overlap_fraction": 0.5})],
)
def test_row_order_bits_pinned(case, overrides, kinds, voiced_buffer):
    clean = voiced_buffer.samples[:12000]
    noisy = np.stack(
        [clean + generate_white_noise(12000, 0.05, seed=s).samples for s in (50, 51)]
    )
    noisy[1, :1600] = 0.0  # digital-silence lead-in
    rows = [ShrinkageKind(name) for name in kinds.split(",")]
    out = denoise_kinds(noisy, DenoiserConfig(**overrides), rows)
    assert _sha256(out) == _PINNED_ORDER_SHA256[case, kinds]


@settings(max_examples=30)
@given(
    kinds=st.lists(st.sampled_from(list(ShrinkageKind)), min_size=1, max_size=4),
    inputs=st.integers(1, 3),
)
def test_every_row_equals_its_single_stream_denoise(kinds, inputs):
    noisy = _lockstep_inputs(2000)[:inputs]
    cfg = DenoiserConfig()
    out = denoise_kinds(noisy, cfg, kinds)
    assert out.shape == (len(kinds), inputs, 2000)
    for k, kind in enumerate(kinds):
        for i in range(inputs):
            np.testing.assert_array_equal(out[k, i], denoise(noisy[i], replace(cfg, kind=kind)))


@pytest.mark.parametrize("lead_in", [0, 1600], ids=["no-lead-in", "silent-lead-in"])
def test_sign_and_power_of_two_scale_commute_with_denoise(lead_in, voiced_buffer):
    # Bit-exact: the output is odd in the input, and the gains see it only
    # through ratios of squares, which a power of two scales without rounding.
    clean = voiced_buffer.samples
    noisy = clean + generate_white_noise(clean.shape[0], 0.05, seed=52).samples
    x = np.concatenate([np.zeros(lead_in), noisy])
    kinds = list(ShrinkageKind)
    y = denoise_kinds(x[None], DenoiserConfig(), kinds)
    np.testing.assert_array_equal(denoise_kinds(-x[None], DenoiserConfig(), kinds), -y)
    for k in (2, -20):
        scaled = denoise_kinds(2.0**k * x[None], DenoiserConfig(), kinds)
        np.testing.assert_array_equal(scaled, 2.0**k * y)


def _paused_speech_in_noise():
    """The voiced fixture tiled to 30 s, so speech pauses every 3 s, in white
    noise at a global SNR of 5 dB."""
    clean = np.tile(make_voiced(8000, 3.0).samples, 10)
    noise = generate_white_noise(clean.shape[0], 1.0, seed=5).samples
    scale = np.sqrt(np.sum(clean**2) / (np.sum(noise**2) * 10.0**0.5))
    return clean, clean + scale * noise


def test_every_kind_makes_the_same_speech_decisions(monkeypatch):
    # an aggressive gain must not hide speech from the VAD that sets its floor
    _, noisy = _paused_speech_in_noise()
    flags = {}
    step = tracking.step

    def recording_step(*args, **kwargs):
        inv_xi, speech = step(*args, **kwargs)
        flags[kind].extend(np.ravel(speech))
        return inv_xi, speech

    monkeypatch.setattr(tracking, "step", recording_step)
    for kind in ShrinkageKind:
        flags[kind] = []
        denoise(noisy, DenoiserConfig(kind=kind))
    reference = np.array(flags[ShrinkageKind.MSE])
    assert 0.5 < reference.mean() < 0.8
    for kind in ShrinkageKind:
        np.testing.assert_array_equal(flags[kind], reference, err_msg=kind.value)


def test_every_kind_improves_snr_on_paused_speech():
    clean, noisy = _paused_speech_in_noise()
    kinds = list(ShrinkageKind)
    out = denoise_kinds(noisy[None], DenoiserConfig(), kinds)
    before = global_snr_db(clean, noisy)
    gains = {k.value: global_snr_db(clean, out[i, 0]) - before for i, k in enumerate(kinds)}
    assert min(gains.values()) > 0.0, gains


@pytest.mark.parametrize("kind", list(ShrinkageKind))
def test_extreme_amplitude_fuzz_no_nan(kind):
    rng = np.random.default_rng(34)
    x = np.sign(rng.standard_normal(3000))  # full-scale square noise
    x[:500] = 0.0
    out = denoise(x, DenoiserConfig(kind=kind))
    assert np.all(np.isfinite(out))


def test_noise_only_energy_shrinks():
    noise = generate_white_noise(8000, 0.1, seed=35)
    out = denoise(noise.samples, DenoiserConfig(kind=ShrinkageKind.MSE))
    assert np.sum(out**2) < np.sum(noise.samples**2)


def test_tone_in_noise_snr_improves():
    # 1 kHz tone at amplitude 0.5, gated off during the noise-only lead-in
    # the initializer relies on
    sr = 8000
    t = np.arange(3 * sr) / sr
    sig = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
    sig[t < 0.2] = 0.0
    from riskshrink.audio import AudioBuffer

    tone = AudioBuffer(sig, sr)
    noise = generate_white_noise(len(tone) + 4000, 1.0, seed=36)
    noisy = mix_at_snr(tone, noise, 10.0, seed_offset=5)
    out = denoise(noisy.samples, DenoiserConfig(kind=ShrinkageKind.MSE))
    before = global_snr_db(tone.samples, noisy.samples)
    after = global_snr_db(tone.samples, out)
    assert after > before


def test_voiced_fixture_snr_improves(voiced_buffer):
    noise = generate_white_noise(len(voiced_buffer) + 4000, 1.0, seed=39)
    noisy = mix_at_snr(voiced_buffer, noise, 10.0, seed_offset=5)
    out = denoise(noisy.samples, DenoiserConfig(kind=ShrinkageKind.MSE))
    before = global_snr_db(voiced_buffer.samples, noisy.samples)
    after = global_snr_db(voiced_buffer.samples, out)
    assert after > before


# ---------------------------------------------------------------------------
# file front-end
# ---------------------------------------------------------------------------


def test_denoise_file_silent_roundtrip(tmp_path):
    src = tmp_path / "silent.wav"
    dst = tmp_path / "out.wav"
    from riskshrink.audio import AudioBuffer

    write_wav(src, AudioBuffer(np.zeros(4000), 8000))
    summary = denoise_file(src, dst, DenoiserConfig())
    assert summary.speech_fraction == 0.0
    back = read_wav(dst)
    assert np.all(back.samples == 0.0)
    assert len(back) == 4000


def test_denoise_file_missing_input(tmp_path):
    dst = tmp_path / "out.wav"
    with pytest.raises(FileNotFoundError):
        denoise_file(tmp_path / "nope.wav", dst, DenoiserConfig())
    assert not dst.exists()


def test_denoise_file_speech_fixture(tmp_path, voiced_buffer):
    noise = generate_white_noise(len(voiced_buffer) + 4000, 1.0, seed=37)
    noisy = mix_at_snr(voiced_buffer, noise, 10.0, seed_offset=6)
    src = tmp_path / "noisy.wav"
    dst = tmp_path / "clean.wav"
    write_wav(src, noisy)
    summary = denoise_file(src, dst, DenoiserConfig(kind=ShrinkageKind.IS))
    assert 0.0 < summary.speech_fraction < 1.0
    assert summary.frames > 0
    assert len(read_wav(dst)) == len(noisy)


def _voiced_at_10db(voiced_buffer):
    """The voiced fixture in white noise at 10 dB, mixed as the file tests mix it."""
    noise = generate_white_noise(len(voiced_buffer) + 4000, 1.0, seed=37)
    return mix_at_snr(voiced_buffer, noise, 10.0, seed_offset=6)


@pytest.mark.parametrize(
    "overrides, speech_fraction",
    [
        ({}, "0x1.ed097b425ed09p-1"),  # 286 of 297 frames
        ({"vad_hangover": 0}, "0x1.a65b5df3eec2dp-1"),  # 245
        ({"init_noise_frames": 20}, "0x1.a2e8ba2e8ba2fp-1"),  # 243
    ],
)
def test_denoise_file_summary_pinned(tmp_path, voiced_buffer, overrides, speech_fraction):
    src = tmp_path / "noisy.wav"
    write_wav(src, _voiced_at_10db(voiced_buffer))
    config = DenoiserConfig(kind=ShrinkageKind.IS, **overrides)
    summary = denoise_file(src, tmp_path / "out.wav", config)
    assert summary.frames == 297
    assert summary.speech_fraction.hex() == speech_fraction


@pytest.mark.parametrize(
    "overrides",
    [
        {"vad_threshold": 0.5},
        {"vad_hangover": 0},
        {"eta": 0.9},
        {"beta": 0.9},
        {"alpha": 1.0},
    ],
)
def test_every_tracker_constant_moves_the_output(voiced_buffer, overrides):
    # each constant the tracker reads from the config must reach it
    noisy = _voiced_at_10db(voiced_buffer).samples
    config = DenoiserConfig(kind=ShrinkageKind.IS)
    moved = denoise(noisy, replace(config, **overrides)) - denoise(noisy, config)
    assert np.max(np.abs(moved)) > 0.01


def test_denoise_file_adopts_file_sample_rate(tmp_path):
    from riskshrink.audio import AudioBuffer

    rng = np.random.default_rng(38)
    src = tmp_path / "hi.wav"
    dst = tmp_path / "out.wav"
    write_wav(src, AudioBuffer(0.1 * rng.standard_normal(16000), 16000))
    summary = denoise_file(src, dst, DenoiserConfig())  # config says 8000
    assert summary.frames > 0
    assert (summary.frame_len, summary.hop) == (640, 160)
    assert read_wav(dst).sample_rate == 16000
