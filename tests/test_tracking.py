import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from conftest import CLOSED_FORMS, bits
from riskshrink.pipeline import DenoiserConfig
from riskshrink import tracking
from riskshrink.shrinkage import _QUIET, ShrinkageKind
from riskshrink.tracking import TrackerState, initialize, step


def _state(noise_var, gain=None, prev_noisy=None, frames_seen=1):
    """State over ``noise_var``'s inputs; ``gain``, the previous frame's, has
    one more leading axis, one mse row per gain, and defaults to one zero row.
    The VAD reads row 0."""
    noise_var = np.array(noise_var, dtype=np.float64)
    zeros = np.zeros_like(noise_var)
    gain = zeros[None] if gain is None else np.asarray(gain, float)
    return TrackerState(
        rows=[ShrinkageKind.MSE] * len(gain),
        noise_var=noise_var,
        gain=gain,
        prev_noisy_sq=zeros if prev_noisy is None else np.asarray(prev_noisy, float) ** 2,
        hang=np.zeros(noise_var.shape[:-1], dtype=np.int64),
        speech_frames=np.zeros(noise_var.shape[:-1], dtype=np.int64),
        frames_seen=frames_seen,
    )


def _step(state, frame, threshold=0.15, hangover=0, eta=0.98, beta=0.98, alpha=1.75):
    """One frame as a block of one; returns its ``inv_xi`` and speech flags."""
    block = np.asarray(frame, dtype=np.float64)[..., None, :]
    config = DenoiserConfig(
        vad_threshold=threshold, vad_hangover=hangover, eta=eta, beta=beta, alpha=alpha
    )
    inv, speech = step(state, block, config, _out(state, block))
    return inv, speech[..., 0]


def _vad(x_sq, state):
    """The VAD statistic of squares ``x_sq`` as the step reads it: with the
    state's mse gain squared and ``prev_noisy_sq``, warnings switched off."""
    with np.errstate(**_QUIET):
        g_mse_sq = np.square(state.gain[state.rows.index(ShrinkageKind.MSE)])
        return tracking.vad(x_sq, g_mse_sq, state.prev_noisy_sq, state)


def _out(state, block):
    """A buffer for every row's denoised ``block``, filled with NaN."""
    inputs, bins = state.noise_var.shape[:-1], state.noise_var.shape[-1]
    return np.full((len(state.rows),) + inputs + block.shape[-2:-1] + (bins,), np.nan)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_initialize_constant_bin():
    frames = np.zeros((10, 4))
    frames[:, 0] = 2.0
    state = initialize(frames, ())
    np.testing.assert_array_equal(state.noise_var, [4.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(state.gain, np.zeros((1, 4)))
    assert state.frames_seen == 0


def test_initialize_iid_noise():
    rng = np.random.default_rng(21)
    frames = rng.standard_normal((10, 512))
    state = initialize(frames, ())
    assert np.mean(state.noise_var) == pytest.approx(1.0, abs=0.1)


def test_initialize_single_frame():
    frames = np.array([[1.0, -2.0, 0.5]])
    state = initialize(frames, ())
    np.testing.assert_array_equal(state.noise_var, [1.0, 4.0, 0.25])


def test_initialize_leading_axes_are_streams():
    frames = np.stack([np.ones((3, 2)), np.full((3, 2), 2.0)])
    state = initialize(frames, ())
    np.testing.assert_array_equal(state.noise_var, [[1.0, 1.0], [4.0, 4.0]])
    assert state.hang.shape == (2,)


# ---------------------------------------------------------------------------
# VAD
# ---------------------------------------------------------------------------


def test_vad_at_noise_floor_is_h0():
    state = _state(np.ones(64))
    assert _vad(np.ones(64), state) == pytest.approx(0.0, abs=1e-12)
    _, speech = _step(state, np.ones(64))
    assert not speech


def test_vad_loud_frame_is_h1():
    state = _state(np.ones(64))
    frame = np.zeros(64)
    frame[:32] = 10.0  # X^2 = 100 * noise_var on half the bins
    assert _vad(frame**2, state) > 10.0
    _, speech = _step(state, frame)
    assert speech


def test_vad_zero_frame_is_h0():
    state = _state(np.ones(8), gain=np.ones((1, 8)), prev_noisy=np.full(8, 2.0))
    assert _vad(np.zeros(8), state) <= 0.0
    _, speech = _step(state, np.zeros(8))
    assert not speech


def test_vad_zero_variance_bin_is_capped():
    state = _state([0.0, 1.0])
    assert np.isfinite(_vad(np.array([9.0, 1.0]), state))
    _, speech = _step(state, np.array([3.0, 1.0]))
    assert speech  # capped gamma on the dead bin dominates


def test_vad_mixes_live_and_zero_variance_bins_bitwise():
    # each input holds zero-variance bins and live ones, silent and non-silent
    # bins among both, and a near-zero variance whose gamma exceeds the cap
    state = _state(
        [[0.0, 0.0, 1.0, 0.5, 0.0, 2.0], [0.0, 0.25, 0.0, 4.0, 1e-300, 0.0]],
        gain=np.full((1, 2, 6), 0.5),
        prev_noisy=[[0.0, 2.0, 1.0, 3.0, 4.0, 0.0], [6.0, 0.0, 2.0, 0.0, 1.0, 4.0]],
    )
    x_sq = np.array([[0.0, 9.0, 0.0, 2.0, 1e-300, 8.0], [4.0, 0.0, 0.0, 1.0, 3.0, 1e-12]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        statistic = _vad(x_sq, state)
    assert [float(v).hex() for v in statistic] == [
        "0x1.458067a3f815dp+18",
        "0x1.e8426413fa530p+18",
    ]


def test_vad_decision_invariant():
    frame = np.full(16, 1.4)
    statistic = _vad(frame**2, _state(np.ones(16)))
    for thr in (-1.0, 0.0, 0.15, 5.0):
        _, speech = _step(_state(np.ones(16)), frame, threshold=thr)
        assert speech == (statistic > thr)


def test_hangover_extends_speech_then_expires():
    state = _state(np.ones(8))
    loud, quiet = np.full(8, 10.0), np.full(8, 0.5)
    flags, floors = [], []
    for frame in (loud, quiet, quiet, quiet):
        flags.append(bool(_step(state, frame, hangover=2)[1]))
        floors.append(float(state.noise_var[0]))
    assert flags == [True, True, True, False]
    # the hangover frames still freeze the floor; the expired one updates it
    assert floors == [1.0, 1.0, 1.0, pytest.approx(0.98 + 0.02 * 0.25, rel=1e-12)]


def test_streams_decide_independently():
    # row 0 hears speech, row 1 silence, from one shared frame and floor
    state = _state([[1.0, 1.0], [100.0, 100.0]])
    frame = np.array([5.0, 5.0])
    _, speech = _step(state, frame)
    np.testing.assert_array_equal(speech, [True, False])
    np.testing.assert_array_equal(state.noise_var[0], [1.0, 1.0])
    np.testing.assert_allclose(state.noise_var[1], [0.98 * 100.0 + 0.02 * 25.0] * 2)


# ---------------------------------------------------------------------------
# noise update
# ---------------------------------------------------------------------------


def test_update_noise_frozen_during_speech():
    state = _state([1.0, 2.0])
    _, speech = _step(state, np.array([50.0, 50.0]))
    assert speech
    np.testing.assert_array_equal(state.noise_var, [1.0, 2.0])


def test_update_noise_decays_on_silence():
    state = _state([1.0, 2.0])
    _, speech = _step(state, np.zeros(2), eta=0.98)
    assert not speech
    np.testing.assert_allclose(state.noise_var, [0.98, 1.96], rtol=1e-12)


def test_update_noise_converges_to_constant_power():
    state = _state([5.0])
    frame = np.array([2.0])  # X^2 = 4, quieter than the floor: never speech
    for _ in range(600):
        _, speech = _step(state, frame, eta=0.98)
        assert not speech
    assert state.noise_var[0] == pytest.approx(4.0, rel=1e-4)


# ---------------------------------------------------------------------------
# inverse a-posteriori SNR recursion (silent frames: the floor is updated
# first, so each expected value uses the updated variance)
# ---------------------------------------------------------------------------


def test_inv_xi_pure_a_posteriori_at_unit_beta():
    state = _state([2.0, 2.0], gain=[[0.5, 0.5]], prev_noisy=[2.0, 2.0])
    inv, _ = _step(state, np.array([4.0, 2.0]), threshold=1e9, eta=1.0, beta=1.0)
    np.testing.assert_allclose(inv, [[2.0 / 16.0, 2.0 / 4.0]], rtol=1e-12)


def test_inv_xi_second_term_vanishes_when_prev_fully_kept():
    state = _state([1.0], gain=[[1.0]], prev_noisy=[3.0])
    inv, _ = _step(state, np.array([2.0]), threshold=1e9, eta=1.0, beta=0.98)
    assert inv[0, 0] == pytest.approx(0.98 * 1.0 / 4.0, rel=1e-12)


def test_inv_xi_second_term_full_when_prev_zeroed():
    state = _state([1.0], gain=[[0.0]], prev_noisy=[3.0])
    inv, _ = _step(state, np.array([2.0]), threshold=1e9, eta=1.0, beta=0.98)
    assert inv[0, 0] == pytest.approx(0.98 * 0.25 + 0.02 * 1.0, rel=1e-12)


def test_inv_xi_zero_bin_is_infinite():
    state = _state([1.0, 1.0], gain=[[0.5, 0.5]], prev_noisy=[1.0, 1.0])
    inv, _ = _step(state, np.array([0.0, 1.0]), beta=0.98)
    assert np.isinf(inv[0, 0])
    assert np.isfinite(inv[0, 1])


def test_silent_bin_on_a_zero_floor_gives_zero_gain_for_every_kind():
    # X = 0 on a zero noise floor is 0/0: its inverse SNR is NaN, not inf, and
    # its gain is 0 for every kind all the same, with no warning
    kinds = list(ShrinkageKind)
    state = initialize(np.zeros((1, 4)), kinds)
    frame = np.array([0.0, 0.0, 3.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):  # the first frame at b = 1, then the blend at beta
            inv, _ = _step(state, frame)
            assert np.isnan(inv[:, [0, 1, 3]]).all()
            assert (inv[:, 2] == 0.0).all()
            np.testing.assert_array_equal(
                state.gain, np.tile([0.0, 0.0, 1.0, 0.0], (len(kinds), 1))
            )


def test_tiny_coefficient_gives_zero_gain_without_warning():
    # X**2 subnormal: noise_var / X**2 overflows (1e-160), or alpha * (1/xi)
    # does (8e-155); both are u = inf, so zero gain, and neither warns
    state = initialize(np.ones((1, 3)), list(ShrinkageKind))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv, _ = _step(state, np.array([1e-160, 8e-155, 10.0]), threshold=1e9, eta=1.0)
    assert np.isinf(inv[:, 0]).all() and np.isfinite(inv[:, 1]).all()
    assert (state.gain[:, :2] == 0.0).all()
    assert (state.gain[:, 2] > 0.0).all()


def test_subnormal_noise_floor_steps_without_warning():
    # a floor decaying towards 0 passes through the subnormal range: there
    # x**2 / noise_var overflows in gamma, and g**2 * prev_noisy_sq /
    # noise_var in the VAD's prior on the next frame; both fall to the cap
    state = initialize(np.full((1, 4), 1e-155), ())
    assert 0.0 < state.noise_var[0] < np.finfo(np.float64).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            _, speech = _step(state, np.ones(4))
            assert speech
    assert (state.gain > 0.0).all()


def test_inv_xi_first_frame_forces_unit_beta():
    state = _state([4.0], frames_seen=0)
    inv, _ = _step(state, np.array([2.0]), threshold=1e9, eta=1.0, beta=0.98)
    assert inv[0, 0] == pytest.approx(1.0, rel=1e-12)  # 4 / 4, no blend


def test_vad_and_floor_read_only_the_first_kind():
    # gain holds one row per kind over (inputs, bins); row 0 is the mse
    # gain.  The speech decision and the floor belong to the input, so no
    # other kind's estimate may move them.
    frame = np.stack([np.full(16, 2.5), np.full(16, 0.5)])
    prev = np.zeros((3, 2, 16))
    prev_noisy = np.full((2, 16), 50.0)
    reference = _state(np.ones((2, 16)), gain=prev, prev_noisy=prev_noisy)
    _, speech = _step(reference, frame)
    np.testing.assert_array_equal(speech, [True, False])
    assert reference.hang.shape == (2,)
    assert reference.noise_var.shape == (2, 16)
    for k in (0, 1, 2):
        changed = prev.copy()
        changed[k] = 1.0  # a prior SNR this high takes the loud frame for noise
        state = _state(np.ones((2, 16)), gain=changed, prev_noisy=prev_noisy)
        _, changed_speech = _step(state, frame)
        moved = k == 0
        assert (changed_speech[0] != speech[0]) == moved
        assert changed_speech[1] == speech[1]
        assert np.array_equal(state.noise_var, reference.noise_var) != moved


def test_step_records_history():
    state = _state([1.0, 1.0])
    _step(state, np.array([1.0, 2.0]))
    assert state.frames_seen == 2
    np.testing.assert_array_equal(state.prev_noisy_sq, [1.0, 4.0])


def test_step_buffer_contract():
    # What a caller may keep across steps: the returned inv and speech flags
    # and the array prev_noisy_sq held before a step are never written again.
    # gain is the state's own buffer, rewritten in place by every frame.  The
    # step keeps no reference to the block or to out, so poisoning both after
    # each step moves no later bit.
    x = np.random.default_rng(24).standard_normal((2, 12, 16))
    x[0, 6:8] *= 10.0  # input 0 speaks, input 1 does not
    state = initialize(x[:, :3], [ShrinkageKind.WE])
    gain = state.gain
    clean = initialize(x[:, :3], [ShrinkageKind.WE])
    kept, held = [], []
    for lo, hi in ((0, 1), (1, 5), (5, 12)):
        held.append((state.prev_noisy_sq, state.prev_noisy_sq.copy()))
        block, out = x[:, lo:hi].copy(), _out(state, x[:, lo:hi])
        inv, speech = step(state, block, DenoiserConfig(), out)
        want = _out(clean, x[:, lo:hi])
        step(clean, x[:, lo:hi].copy(), DenoiserConfig(), want)
        assert out.tobytes() == want.tobytes()
        block.fill(np.nan)
        out.fill(np.nan)
        kept += [(speech, speech.copy()), (inv, inv.copy())]
        assert state.gain is gain and gain.flags.c_contiguous
        assert state.prev_noisy_sq.tobytes() == np.square(x[:, hi - 1]).tobytes()
    assert all(bits(a) == bits(copy) for a, copy in kept + held)
    assert state.speech_frames[0] > state.speech_frames[1]  # frames of mixed decisions
    for name in _REFERENCE_FIELDS:
        assert bits(getattr(state, name)) == bits(getattr(clean, name)), name


def test_a_hand_built_state_keeps_its_own_copies():
    # the caller's rows and arrays, a float32 floor and int32 counters among
    # them, are neither shared nor rewritten, and the state's are float64 and
    # int64
    floor = np.ones((2, 4), dtype=np.float32)
    given = dict(
        noise_var=floor,
        gain=np.zeros((1, 2, 4)),
        prev_noisy_sq=np.zeros((2, 4)),
        hang=np.zeros(2, dtype=np.int32),
        speech_frames=np.zeros(2, dtype=np.int32),
    )
    before = {name: value.copy() for name, value in given.items()}
    rows = [ShrinkageKind.MSE]
    state = TrackerState(rows=rows, **given)
    rows.clear()  # the state keeps its own list, with its mse row
    x = np.full((2, 3, 4), 0.5)
    x[0, 1] = 40.0  # input 0 speaks once, so its hangover and count move
    step(state, x, DenoiserConfig(vad_hangover=2), _out(state, x))
    for name, value in given.items():
        assert bits(value) == bits(before[name]), name
        assert not np.shares_memory(getattr(state, name), value), name
    assert state.noise_var.dtype == state.gain.dtype == state.prev_noisy_sq.dtype == np.float64
    assert state.hang.dtype == state.speech_frames.dtype == np.int64
    assert state.hang.tolist() == [1, 0] and state.speech_frames.tolist() == [2, 0]
    assert (state.noise_var[1] < 1.0).all() and state.rows == [ShrinkageKind.MSE]


_BAD_STATES = {
    "rows-without-mse": ({"rows": [ShrinkageKind.WE]}, "rows must include mse"),
    "gain-rows": (
        {"rows": [ShrinkageKind.MSE, ShrinkageKind.WE]}, "gain must have shape (2, 2, 4)"
    ),
    "gain-bins": ({"gain": np.zeros((1, 2, 5))}, "gain must have shape (1, 2, 4)"),
    "prev-bins": ({"prev_noisy_sq": np.zeros((2, 5))}, "prev_noisy_sq must have shape (2, 4)"),
    "hang-inputs": ({"hang": np.zeros(3, dtype=np.int64)}, "hang must have shape (2,)"),
    "hang-0d": (
        {"noise_var": np.ones(4), "gain": np.zeros((1, 4)), "prev_noisy_sq": np.zeros(4),
         "hang": np.zeros(3, dtype=np.int64), "speech_frames": np.zeros((), dtype=np.int64)},
        "hang must have shape ()",
    ),
    "speech-frames": (
        {"speech_frames": np.zeros((2, 1), dtype=np.int64)}, "speech_frames must have shape (2,)"
    ),
}


@pytest.mark.parametrize("change, message", _BAD_STATES.values(), ids=_BAD_STATES)
def test_an_inconsistent_state_is_refused_when_built(change, message):
    # before any frame, with a message that names the field and its shape
    fields = dict(
        rows=[ShrinkageKind.MSE],
        noise_var=np.ones((2, 4)),
        gain=np.zeros((1, 2, 4)),
        prev_noisy_sq=np.zeros((2, 4)),
        hang=np.zeros(2, dtype=np.int64),
        speech_frames=np.zeros(2, dtype=np.int64),
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        TrackerState(**(fields | change))


def test_step_calls_the_public_vad_once_per_frame(monkeypatch):
    # the step runs tracking.vad itself, once per frame for all inputs, so a
    # wrapper of the public name (the benchmark's tracer) sees every frame
    x = np.random.default_rng(26).standard_normal((2, 20, 16))
    state = initialize(x[:, :4], [ShrinkageKind.WE])
    calls = []
    vad = tracking.vad

    def counted(*args):
        calls.append(args[0].shape)
        return vad(*args)

    monkeypatch.setattr(tracking, "vad", counted)
    block = x[:, 4:20]
    step(state, block, DenoiserConfig(), _out(state, block))
    assert calls == [(2, 16)] * 16


# ---------------------------------------------------------------------------
# long-run statistical behavior
# ---------------------------------------------------------------------------


def test_noise_var_tracks_stationary_noise():
    rng = np.random.default_rng(22)
    sigma2 = 0.04
    frames = rng.normal(0.0, np.sqrt(sigma2), size=(110, 256))
    state = initialize(frames[:10], ())
    for i in range(110):
        inv, _ = _step(state, frames[i], hangover=0)
        assert np.all(inv >= 0.0)
    median = float(np.median(state.noise_var))
    assert abs(median - sigma2) / sigma2 < 0.2


# ---------------------------------------------------------------------------
# the step against a reference transcription
# ---------------------------------------------------------------------------
# The reference is a plain transcription of the step as it stood before it
# took blocks of frames, reused buffers, skipped the floor's masks on a floor
# without a zero, counted the hangover down without a clamp, took 0-d array
# constants and opened one np.errstate per block: one frame at a time, fresh
# arrays, Python float constants, every mask computed, the hangover clamped
# at 0, every gain row evaluated through the closed forms as plain
# expressions.  The step must match it bit for bit, field by field, whatever
# the split into blocks.


def _reference_initialize(first_frames, kinds):
    noise_var = np.mean(first_frames**2, axis=-2)
    rows = list(kinds)
    if ShrinkageKind.MSE not in rows:
        rows.append(ShrinkageKind.MSE)
    return SimpleNamespace(
        rows=rows,
        noise_var=noise_var,
        gain=np.zeros((len(rows),) + noise_var.shape),
        prev_noisy_sq=np.zeros_like(noise_var),
        hang=np.zeros(noise_var.shape[:-1], dtype=np.int64),
        speech_frames=np.zeros(noise_var.shape[:-1], dtype=np.int64),
        frames_seen=0,
    )


def _reference_vad(x_sq, ref):
    nv = ref.noise_var
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gamma = np.divide(x_sq, nv)
        np.copyto(gamma, 0.0, where=~(x_sq > 0.0))
        np.minimum(gamma, 1e6, out=gamma)
        dd = np.square(ref.gain[ref.rows.index(ShrinkageKind.MSE)])
        dd *= ref.prev_noisy_sq
        dd *= 0.98
        dd /= nv
        np.copyto(dd, 0.0, where=~(nv > 0.0))
    rho = np.subtract(gamma, 1.0)
    np.maximum(rho, 0.0, out=rho)
    rho *= 1.0 - 0.98
    rho += dd
    np.minimum(rho, 1e6, out=rho)
    gamma *= rho
    gamma /= np.add(rho, 1.0, out=dd)
    gamma -= np.log1p(rho, out=dd)
    return np.add.reduce(gamma, axis=-1) / gamma.shape[-1]


def _reference_step(ref, frame, config):
    x_sq = np.square(frame)
    raw = _reference_vad(x_sq, ref) > config.vad_threshold
    speech = raw | (ref.hang > 0)
    ref.hang = np.where(raw, config.vad_hangover, np.maximum(ref.hang - 1, 0))
    ref.speech_frames += speech
    if not speech.all():
        blended = np.multiply(ref.noise_var, config.eta)
        blended += np.multiply(x_sq, 1.0 - config.eta)
        np.copyto(ref.noise_var, blended, where=~speech[..., None])
    b = config.beta if ref.frames_seen else 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        posterior = np.multiply(ref.noise_var, b)
        posterior /= x_sq
        inv = np.square(ref.gain)
        np.subtract(1.0, inv, out=inv)
        inv *= 1.0 - b
        inv += posterior
        u = np.multiply(inv, config.alpha)
        gain = np.empty(u.shape)
        for k, kind in enumerate(ref.rows):
            gain[k] = CLOSED_FORMS[kind](u[k])
    np.copyto(gain, 0.0, where=~np.isfinite(u))
    ref.gain = gain
    ref.prev_noisy_sq = x_sq
    ref.frames_seen += 1
    return inv, speech


_REFERENCE_FIELDS = (
    "noise_var", "gain", "prev_noisy_sq", "hang", "speech_frames",
)


def _reference_frames(inputs, bins=12, frames=80, seed=0):
    """Seeded frames, shape ``(inputs, frames, bins)``, whose first 4 frames
    initialize the floor.  Bin 0 is silent throughout the initialization, so
    its floor starts at 0, and rises later; bins 1 and 2 start on a subnormal
    floor and are mostly silent, so with ``eta < 0.5`` their floors underflow
    to 0, and frame 12, where both speak on a zero floor, is speech.  Later
    frames hold exact zeros, subnormal coefficients and coefficients whose
    squares underflow, quiet noise and loud bursts that the VAD takes for
    speech; one input has a digital-silence stretch."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((inputs, frames, bins))
    pick = rng.random(x.shape)
    x[pick < 0.08] = 0.0
    x[(pick >= 0.08) & (pick < 0.12)] = 1e-160
    x[(pick >= 0.12) & (pick < 0.14)] = 5e-324
    x[rng.random((inputs, frames)) < 0.3] *= 12.0
    x[..., :4, 0] = 0.0
    x[..., 1:3] = np.where(rng.random((inputs, frames, 2)) < 0.7, 0.0, x[..., 1:3])
    x[..., :4, 1:3] = 1e-161
    x[..., 4:12, 1:3] = 0.0
    x[..., 12, 1:3] = 5.0
    x[-1, 30:38] = 0.0
    return x


_REFERENCE_KINDS = {
    "all": list(ShrinkageKind),
    "repeated-no-mse": [ShrinkageKind.WE, ShrinkageKind.COSH, ShrinkageKind.WE],
    "mse-twice": [ShrinkageKind.LOG_MSE, ShrinkageKind.MSE, ShrinkageKind.MSE],
    "single": [ShrinkageKind.WCOSH],
}

# Each configuration with what its run must go through.  With 12 bins a
# single capped gamma reads about 8e4, so at threshold 1e5 a frame with one
# live coefficient on a zero floor is still noise and that floor rises.
_REFERENCE_CONFIGS = {
    "default": (DenoiserConfig(), {"speech", "noise", "hangover"}),
    "unit-beta-eta": (
        DenoiserConfig(beta=1.0, eta=1.0, vad_hangover=0), {"speech", "noise"}
    ),
    "fast-floor": (
        DenoiserConfig(eta=0.3, beta=0.6, vad_hangover=3, vad_threshold=1e5),
        {"speech", "noise", "hangover", "rose", "fell"},
    ),
}


def _blocks(frames, seed):
    """``(lo, hi)`` bounds of a split of ``frames`` frames into a block of 1,
    one of 16 and then seeded blocks of 1 to 16 frames."""
    sizes = [1, 16, *np.random.default_rng(seed).integers(1, 17, size=frames)]
    bounds = np.unique(np.minimum(np.cumsum(np.concatenate([[0], sizes])), frames))
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


@pytest.mark.parametrize("config", _REFERENCE_CONFIGS.values(), ids=_REFERENCE_CONFIGS)
@pytest.mark.parametrize("kinds", _REFERENCE_KINDS.values(), ids=_REFERENCE_KINDS)
@pytest.mark.parametrize("inputs", [None, 1, 2, 3])
def test_step_matches_reference_bit_for_bit(inputs, kinds, config):
    # inputs=None: one input without its axis, blocks of shape (n, bins)
    config, expected = config
    x = _reference_frames(inputs or 1, seed=inputs or 0)
    if inputs is None:
        x = x[0]
    state = initialize(x[..., :4, :], kinds)
    ref = _reference_initialize(x[..., :4, :], kinds)
    assert state.rows == ref.rows
    seen = set()
    blocks = _blocks(x.shape[-2], seed=inputs or 0)
    assert {hi - lo for lo, hi in blocks} >= {1, 16}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lo, hi in blocks:
            first = np.square(x[..., lo, :])
            assert bits(_vad(first, state)) == bits(_reference_vad(first, ref)), lo
            block = x[..., lo:hi, :]
            out = _out(state, block)
            inv, speech = step(state, block, config, out)
            for j in range(lo, hi):
                frame = x[..., j, :]
                live = ref.noise_var > 0.0
                want_inv, want_speech = _reference_step(ref, frame, config)
                assert bits(speech[..., j - lo]) == bits(want_speech), j
                assert bits(out[..., j - lo, :]) == bits(ref.gain * frame), j
                seen |= {name for name, happened in (
                    ("speech", want_speech.any()),
                    ("noise", not want_speech.all()),
                    ("hangover", (ref.hang > 0).any()),
                    ("rose", (~live & (ref.noise_var > 0.0)).any()),
                    ("fell", (live & (ref.noise_var == 0.0)).any()),
                ) if happened}
            assert bits(inv) == bits(want_inv), hi
            for name in _REFERENCE_FIELDS:
                assert bits(getattr(state, name)) == bits(getattr(ref, name)), (hi, name)
            assert state.rows == ref.rows and state.frames_seen == ref.frames_seen
    assert expected <= seen


def test_longest_hangover_counts_down_like_the_reference():
    # the largest hangover DenoiserConfig takes: one raw-speech frame sets
    # hang to 2**63 - 1, and each quiet frame after it is held speech that
    # counts hang down by one, with no overflow, as max(hang - 1, 0) does
    longest = 2**63 - 1
    config = DenoiserConfig(vad_hangover=longest)
    x = np.full((2, 24, 8), 0.5)
    x[:, :4] = 1.0
    x[0, 4] = 10.0  # input 0 speaks once; input 1 never does
    kinds = [ShrinkageKind.COSH]
    state, ref = initialize(x[..., :4, :], kinds), _reference_initialize(x[..., :4, :], kinds)
    for j in range(4, 24):
        _, speech = step(state, x[..., j : j + 1, :], config, _out(state, x[..., j : j + 1, :]))
        _, want_speech = _reference_step(ref, x[..., j, :], config)
        assert state.hang.tolist() == [longest - (j - 4), 0], j
        assert speech[:, 0].tolist() == [True, False], j
        assert bits(speech[:, 0]) == bits(want_speech), j
        for name in _REFERENCE_FIELDS:
            assert bits(getattr(state, name)) == bits(getattr(ref, name)), (j, name)
    blocked = initialize(x[..., :4, :], kinds)
    _, speech = step(blocked, x[..., 4:, :], config, _out(blocked, x[..., 4:, :]))
    assert bits(speech) == bits(np.stack([np.ones(20, bool), np.zeros(20, bool)]))
    assert bits(blocked.hang) == bits(state.hang)


def _split_frames(inputs, seed):
    """Seeded frames, shape ``(inputs, 56, 10)``, whose first 4 frames
    initialize the floor.  Input 0 opens with digital silence, so its floor
    starts at 0 in every bin; the last input has a silent gap mid-file; one
    coefficient is the smallest subnormal, whose square underflows to 0."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((inputs, 56, 10))
    x[rng.random((inputs, 56)) < 0.3] *= 8.0
    x[0, :6] = 0.0
    x[-1, 24:33] = 0.0
    x[-1, 40, 3] = 5e-324
    return x


@settings(max_examples=40)
@given(
    inputs=st.integers(1, 3),
    kinds=st.lists(st.sampled_from(list(ShrinkageKind)), min_size=1, max_size=4),
    sizes=st.lists(st.integers(1, 16), min_size=1, max_size=56),
    config=st.sampled_from(list(_REFERENCE_CONFIGS)),
    seed=st.integers(0, 3),
)
def test_any_split_into_blocks_equals_frame_by_frame(inputs, kinds, sizes, config, seed):
    # every field and every output bit of block stepping equals stepping one
    # frame at a time, for any split, with and without mse among the kinds
    config = _REFERENCE_CONFIGS[config][0]
    x = _split_frames(inputs, seed)
    blocked, single = (initialize(x[:, :4], kinds) for _ in range(2))
    assert not blocked.noise_var[0].any()
    lo = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for size in sizes + [x.shape[1]]:
            hi = min(lo + size, x.shape[1])
            out = _out(blocked, x[:, lo:hi])
            inv, speech = step(blocked, x[:, lo:hi], config, out)
            for j in range(lo, hi):
                one = _out(single, x[:, j : j + 1])
                single_inv, single_speech = step(single, x[:, j : j + 1], config, one)
                assert out[..., j - lo, :].tobytes() == one[..., 0, :].tobytes(), j
                assert speech[:, j - lo].tobytes() == single_speech[:, 0].tobytes(), j
            assert inv.tobytes() == single_inv.tobytes(), hi
            for name in _REFERENCE_FIELDS:
                assert bits(getattr(blocked, name)) == bits(getattr(single, name)), name
            assert blocked.frames_seen == single.frames_seen == hi
            lo = hi
            if lo == x.shape[1]:
                break


# Where the floor stands at each split of _reference_frames(3) under the
# fast-floor config: every input's bin 0 sits on a zero floor until frame 4
# lifts it; bins 1 and 2 fall back to zero at frame 7, and frame 12 is raw
# speech on that zero floor, so after 14 frames every hangover is running.
_RESUME_SPLITS = {"before-rise": 4, "after-rise": 5, "hangover-on-zero-floor": 14}


@pytest.mark.parametrize("split", _RESUME_SPLITS.values(), ids=_RESUME_SPLITS)
def test_a_state_rebuilt_from_its_public_fields_resumes_bit_for_bit(split):
    # a checkpoint: copies of the seven public fields make a state that steps
    # on exactly as the one they were taken from
    config = _REFERENCE_CONFIGS["fast-floor"][0]
    x = _reference_frames(3)
    state = initialize(x[:, :4], list(ShrinkageKind))
    step(state, x[:, :split], config, _out(state, x[:, :split]))
    on_zero = (state.noise_var == 0.0).any(axis=-1)
    assert on_zero.tolist() == [split != 5] * 3
    assert (state.hang > 0).tolist() == [split == 14] * 3
    rebuilt = TrackerState(
        rows=list(state.rows),
        noise_var=state.noise_var.copy(),
        gain=state.gain.copy(),
        prev_noisy_sq=state.prev_noisy_sq.copy(),
        hang=state.hang.copy(),
        speech_frames=state.speech_frames.copy(),
        frames_seen=state.frames_seen,
    )
    rest = x[:, split:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, out_rebuilt = _out(state, rest), _out(rebuilt, rest)
        inv, speech = step(state, rest, config, out)
        inv_rebuilt, speech_rebuilt = step(rebuilt, rest, config, out_rebuilt)
    assert bits(out_rebuilt) == bits(out) and bits(inv_rebuilt) == bits(inv)
    assert bits(speech_rebuilt) == bits(speech) and speech.any() and not speech.all()
    for name in _REFERENCE_FIELDS:
        assert bits(getattr(rebuilt, name)) == bits(getattr(state, name)), name
    assert rebuilt.frames_seen == state.frames_seen == x.shape[1]
