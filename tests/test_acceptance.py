"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
even on success).  Tolerances are pinned here, not configurable.
"""

import csv
import math
import time

import numpy as np

from conftest import covered_len, make_voiced, overlap_normalize, padded_frames
from riskshrink.audio import generate_white_noise, mix_at_snr, write_wav
from riskshrink.cli import main as cli_main
from riskshrink.metrics import gain_report
from riskshrink.pipeline import DenoiserConfig, denoise
from riskshrink.risklab import (
    STEIN_FUNCTION_IDS,
    SyntheticScene,
    TruncatedGaussianSpec,
    generalized_stein_check,
    high_snr_event_check,
    oracle_argmin,
    unbiasedness_check,
)
from riskshrink.shrinkage import ShrinkageKind, gain_rows
from riskshrink.stdct import (
    dct_forward,
    dct_inverse,
    hamming_window,
    make_frame_grid,
    overlap_add_block,
)

N_SAMPLES = 1_000_000
C_TRUNC = 5.0


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_stein_identities():
    """Identity checks for all catalog functions, first-order and generalized."""
    t0 = time.perf_counter()
    failures = []
    seed = 2000
    for sigma in (0.5, 1.0, 2.0):
        spec = TruncatedGaussianSpec(sigma=sigma, c=C_TRUNC)
        for f_id in STEIN_FUNCTION_IDS:
            for n in (0, 1, 2, 3, 4):
                seed += 1
                res = generalized_stein_check(f_id, n, spec, N_SAMPLES, seed)
                if not res.passed:
                    failures.append(res.name)
    elapsed = time.perf_counter() - t0
    _criterion(
        "stein-identities",
        not failures and elapsed < 30.0,
        f"105 checks, failures={failures}, {elapsed:.1f}s (budget 30s)",
    )


def test_kkt_oracle_equivalence():
    """Closed-form gains equal the brute-force grid optimum on 200 scenes per
    measure at grid step 1e-4."""
    t0 = time.perf_counter()
    grid_step = 1e-4
    tol = grid_step + 1e-6
    rng = np.random.default_rng(2026)
    worst_by_kind = {}
    for kind in ShrinkageKind:
        scenes = []
        for _ in range(200):
            sigma = rng.uniform(0.5, 2.0)
            xi = 10.0 ** rng.uniform(math.log10(25.0), 5.0)
            sign = 1 if rng.random() < 0.5 else -1
            scenes.append((sigma, xi, sign * sigma * math.sqrt(xi)))
        sigmas, xis, xs = zip(*scenes)
        gains = gain_rows([kind], [1.0 / np.array(xis)])[0].tolist()
        worst_by_kind[kind.value] = max(
            abs(g - oracle_argmin(kind, x, sigma, grid_step))
            for sigma, x, g in zip(sigmas, xs, gains)
        )
    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in worst_by_kind.items() if v > tol}
    _criterion(
        "kkt-oracle-equivalence",
        not bad and elapsed < 60.0,
        f"max dev {max(worst_by_kind.values()):.2e} <= {tol:.2e}, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_unbiasedness():
    """Risk estimates match Monte Carlo risk on high-SNR scenes."""
    t0 = time.perf_counter()
    spec = TruncatedGaussianSpec(sigma=1.0, c=C_TRUNC)
    failures = []
    seed = 5000
    for kind in ShrinkageKind:
        for s_value, a in ((25.0, 0.7), (50.0, 0.95)):
            seed += 1
            scene = SyntheticScene(clean=s_value, spec=spec)
            if not unbiasedness_check(kind, a, scene, N_SAMPLES, seed).passed:
                failures.append((kind.value, s_value, a))
    elapsed = time.perf_counter() - t0
    _criterion(
        "unbiasedness",
        not failures and elapsed < 120.0,
        f"failures={failures}, {elapsed:.1f}s (budget 120s)",
    )


def test_shrinkage_point_values():
    """Hand-evaluated gains at xi=10 and the xi->inf asymptote, to 1e-6."""
    expected = {
        ShrinkageKind.MSE: 0.9,
        ShrinkageKind.WE: 1.0 / 1.174,
        ShrinkageKind.LOG_MSE: 1.0,
        ShrinkageKind.IS: 1.0 / 1.144,
        ShrinkageKind.IS_II: 1.85**-0.5,
        ShrinkageKind.COSH: math.sqrt(1.1 / 1.144),
        ShrinkageKind.WCOSH: 2.19**-0.5,
    }
    bad = []
    for kind, value in expected.items():
        at_10, at_1e9 = gain_rows([kind], [1.0 / np.array([10.0, 1e9])])[0].tolist()
        if abs(at_10 - value) > 1e-6:
            bad.append(f"{kind.value}@10")
        if abs(at_1e9 - 1.0) > 1e-6:
            bad.append(f"{kind.value}@1e9")
    _criterion("shrinkage-point-values", not bad, f"failures={bad}")


def test_sure_event_probability():
    """With |S| > 2*c*sigma the event |W| < |X| has empirical probability 1."""
    spec = TruncatedGaussianSpec(sigma=1.0, c=C_TRUNC)
    scene = SyntheticScene(clean=11.0, spec=spec)
    res = high_snr_event_check(scene, N_SAMPLES, seed=77)
    _criterion("high-snr-event", res.passed, f"fraction={res.lhs!r}")


def test_dsp_roundtrip():
    """Interior reconstruction to 1e-6, Parseval to 1e-9, naive-DCT match."""
    rng = np.random.default_rng(88)
    ok = True
    notes = []

    x = rng.standard_normal(1600)
    grid = make_frame_grid(x.shape[0], 320, 80)
    w = hamming_window(320)
    frames = padded_frames(x, grid) * w
    coeffs = dct_forward(frames)
    y = np.zeros(covered_len(grid))
    overlap_add_block(y, dct_inverse(coeffs) * w, grid)
    y = overlap_normalize(y, grid, w)[: x.shape[0]]
    interior = slice(320, x.shape[0] - 320)
    rt_err = np.max(np.abs(y[interior] - x[interior])) / np.max(np.abs(x[interior]))
    if rt_err > 1e-6:
        ok = False
    notes.append(f"roundtrip={rt_err:.2e}")

    pars_err = np.max(
        np.abs(np.sum(coeffs**2, axis=1) / np.sum(frames**2, axis=1) - 1.0)
    )
    if pars_err > 1e-9:
        ok = False
    notes.append(f"parseval={pars_err:.2e}")

    worst_dct = 0.0
    for n in range(1, 65):
        v = rng.standard_normal(n)
        fast = dct_forward(v)
        m = np.arange(n)
        ref = np.array(
            [
                math.sqrt((1.0 if k == 0 else 2.0) / n)
                * np.sum(v * np.cos(np.pi * k * (2 * m + 1) / (2 * n)))
                for k in range(n)
            ]
        )
        scale = max(1.0, np.max(np.abs(ref)))
        worst_dct = max(worst_dct, np.max(np.abs(fast - ref)) / scale)
    if worst_dct > 1e-9:
        ok = False
    notes.append(f"naive-dct={worst_dct:.2e}")
    _criterion("dsp-roundtrip", ok, " ".join(notes))


def test_end_to_end_gains(tmp_path):
    """Every measure improves SNR and SSNR on the harmonic fixture at
    5/10/15 dB; the 10/15 dB segmental gains go to a CSV."""
    t0 = time.perf_counter()
    clean = make_voiced()
    noise = generate_white_noise(len(clean) + 8000, 1.0, seed=99)
    failures = []
    ssnr_rows = []
    for snr_db in (5.0, 10.0, 15.0):
        noisy = mix_at_snr(clean, noise, snr_db, seed_offset=7)
        for kind in ShrinkageKind:
            out = denoise(noisy.samples, DenoiserConfig(kind=kind))
            rep = gain_report(clean.samples, noisy.samples, out, 320)
            if rep.snr_gain_db <= 0.0 or rep.ssnr_gain_db <= 0.0:
                failures.append((snr_db, kind.value, rep.snr_gain_db, rep.ssnr_gain_db))
            if snr_db in (10.0, 15.0):
                ssnr_rows.append(
                    [f"{snr_db:.1f}", kind.value, f"{rep.ssnr_gain_db:.4f}"]
                )
    csv_path = tmp_path / "ssnr_gains.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snr_db", "kind", "ssnr_gain_db"])
        writer.writerows(ssnr_rows)
    elapsed = time.perf_counter() - t0
    _criterion(
        "end-to-end-gains",
        not failures and elapsed < 60.0,
        f"failures={failures}, csv={csv_path}, {elapsed:.1f}s (budget 60s)",
    )


def test_evaluate_determinism(tmp_path):
    """Two identical evaluate invocations produce byte-identical CSVs."""
    clean = make_voiced(duration=2.0)
    noise = generate_white_noise(len(clean) + 8000, 0.05, seed=123)
    clean_path = tmp_path / "clean.wav"
    noise_path = tmp_path / "noise.wav"
    write_wav(clean_path, clean)
    write_wav(noise_path, noise)
    args = [
        "evaluate",
        "--clean", str(clean_path),
        "--noise", str(noise_path),
        "--snr-list", "10",
        "--kinds", "all",
        "--seeds", "0,1",
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    rc1 = cli_main(args + ["--out-csv", str(out1)])
    rc2 = cli_main(args + ["--out-csv", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    _criterion(
        "evaluate-determinism",
        rc1 == 0 and rc2 == 0 and identical,
        f"rc=({rc1},{rc2}) identical={identical}",
    )
