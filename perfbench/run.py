#!/usr/bin/env python3
"""riskshrink benchmark: time the CLI end to end, or per layer with --trace 1.

Usage (from the repository root):
    python3 perfbench/run.py --workload denoise_16k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Workloads and metrics are listed in BENCHMARK.json and explained in
perfbench/README.md.  The script writes seeded inputs, runs the workload's
operations in a worker process (perfbench/worker.py) and checks every
output; untraced, the worker also times fresh imports of ``riskshrink.cli``
(set-up time) between operations.  Per workload it prints one line per
metric and an ``env`` line (with several workloads, also a ``result`` line),
and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

import corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
KINDS = ("mse", "we", "log_mse", "is", "is_ii", "cosh", "wcosh")
# Seed of the inputs that do not follow --seed (see README.md, "Inputs").
CORPUS_SEED = 0
# Nominal clock at which verify_lab's Monte Carlo draws count as input signal,
# so that it reports an rtf as every workload must (README.md, "End-to-end").
NOMINAL_RATE = 16000
# Per-check headroom is clipped to the range the segmental SNR uses.
HEADROOM_DB = (-10.0, 35.0)

# Full and smoke sizes.  Smoke runs only check that every metric is emitted;
# smoke verify keeps 1e5 samples because smaller counts FAIL Stein checks
# at seed 0 (README.md, "Known defects").
SIZES = {
    False: dict(denoise_s=20.0, clean_s=3.0, noise_s=10.0, snrs="0,5,10",
                seeds="0,1,2,3,4", samples=100_000, grid_step="1e-4"),
    True: dict(denoise_s=2.0, clean_s=1.0, noise_s=3.0, snrs="5",
               seeds="0", samples=100_000, grid_step="1e-2"),
}
# Seconds between two set-up samples in an untraced run; each takes about
# 0.5 s, so a 38 s run holds about a dozen, spread over the whole run.
SETUP_EVERY_S = 2.5
WORKLOADS = ("denoise_16k", "evaluate_8k", "verify_lab")
END_TO_END = {
    "setup_s": "s", "rtf": "s/s", "streams_per_s": "1/s", "op_s_tail": "s",
    "peak_rss_mb": "MB", "snr_gain_db": "dB", "ssnr_gain_db": "dB",
}
PER_LAYER = {
    "cli.self_s": "s", "pipeline.self_s": "s", "pipeline.us_per_frame": "us",
    "tracking.self_s": "s", "tracking.calls": "count", "tracking.speech_fraction": "fraction",
    "shrinkage.self_s": "s", "shrinkage.calls": "count", "shrinkage.bins": "count",
    "shrinkage.ns_per_bin": "ns", "stdct.self_s": "s", "stdct.analysis_s": "s",
    "stdct.synthesis_s": "s", "stdct.frames": "count", "stdct.bytes_computed": "B",
    "audio.self_s": "s", "audio.read_s": "s", "audio.write_s": "s", "audio.mix_s": "s",
    "audio.bytes_computed": "B", "metrics.self_s": "s", "metrics.segments": "count",
    "risklab.self_s": "s", "risklab.sampler_s": "s", "risklab.samples": "count",
    "risklab.stein_s": "s", "risklab.oracle_s": "s", "risklab.oracle_grid_points": "count",
    "risklab.unbiased_s": "s", "trace.overhead_pct": "%", "trace.accounted_pct": "%",
}
# Layer self times below this share of the traced wall time mean the entry
# point was not wrapped (they add up to the outermost span by construction).
MIN_ACCOUNTED_PCT = 99.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# --- workloads: inputs and operations -------------------------------------


def prepare(workload: str, seed: int, size: dict, work: Path) -> dict:
    """Write the workload's inputs; return its operations.

    Each operation carries its work: ``audio_s`` (seconds of input audio it
    processes) and ``streams``.  The untimed warm-up is the first operation.
    """
    if workload == "denoise_16k":
        rate = 16000
        clean = corpus.make_voiced(rate, size["denoise_s"])
        noise = corpus.white_noise(clean.size, 1.0, CORPUS_SEED)
        corpus.write_pcm16(work / "noisy.wav", corpus.mix(clean, noise, 5.0), rate)
        start = seed % len(KINDS)
        kinds = KINDS[start:] + KINDS[:start]
        ops = [
            {"key": k, "output": str(work / f"out_{k}.wav"),
             "argv": ["denoise", "--in", str(work / "noisy.wav"),
                      "--out", str(work / f"out_{k}.wav"), "--kind", k],
             "audio_s": clean.size / rate, "streams": 1}
            for k in kinds
        ]
        return {"ops": ops, "clean": clean, "rate": rate}
    if workload == "evaluate_8k":
        rate = 8000
        clean = corpus.make_voiced(rate, size["clean_s"])
        corpus.write_pcm16(work / "clean.wav", clean, rate)
        noise = corpus.white_noise(int(rate * size["noise_s"]), 0.1, seed)
        corpus.write_pcm16(work / "noise.wav", noise, rate)
        rows = len(size["snrs"].split(",")) * len(KINDS)
        # One call per noise segment: a cycle of calls covers every SNR, kind
        # and segment, and a run holds enough calls for a tail percentile.
        ops = [
            {"key": f"seed{s}", "output": str(work / f"gains_{s}.csv"),
             "argv": ["evaluate", "--clean", str(work / "clean.wav"),
                      "--noise", str(work / "noise.wav"), "--snr-list", size["snrs"],
                      "--kinds", "all", "--seeds", s,
                      "--out-csv", str(work / f"gains_{s}.csv")],
             "audio_s": rows * clean.size / rate, "streams": rows}
            for s in size["seeds"].split(",")
        ]
        return {"ops": ops, "rows": rows}
    if workload == "verify_lab":
        argv = ["verify", "--samples", str(size["samples"]), "--seed", str(CORPUS_SEED),
                "--grid-step", size["grid_step"]]
        return {"ops": [{"key": "verify", "output": None, "argv": argv,
                         "audio_s": size["samples"] / NOMINAL_RATE, "streams": 144}]}
    raise ValueError(workload)


def verify_rows(stdout: str) -> list:
    """(lhs, rhs, tol, status) of each check row of a ``verify`` report."""
    rows = []
    for line in stdout.splitlines()[1:-1]:
        *_, lhs, rhs, tol, status = line.split()
        rows.append((float(lhs), float(rhs), float(tol), status))
    return rows


def headroom_db(rows: list) -> tuple[float, float]:
    """How far inside their tolerances the checks land, in dB: over all
    checks with a tolerance (as a global SNR), and per check, clipped and
    averaged (as a segmental SNR)."""
    tol = np.array([r[2] for r in rows if r[2] > 0])
    err = np.array([abs(r[0] - r[1]) for r in rows if r[2] > 0])
    whole = 10.0 * np.log10(np.sum(tol**2) / np.sum(err**2))
    with np.errstate(divide="ignore"):
        each = np.clip(20.0 * np.log10(tol / err), *HEADROOM_DB)
    return float(whole), float(np.mean(each))


def check(workload: str, spec: dict, records: list, work: Path) -> tuple[list, dict]:
    """Flag each record ok or not; return the flags and the quality figures."""
    first = {}
    for rec in records:
        first.setdefault(rec["key"], rec["digest"])
    ok = [rec["rc"] == 0 and rec["error"] is None and rec["digest"] == first[rec["key"]]
          for rec in records]
    bad_keys = set()
    if workload == "denoise_16k":
        from riskshrink import gain_report

        noisy, _, _ = corpus.read_pcm16(work / "noisy.wav")
        snr, ssnr = [], []
        for op in spec["ops"]:
            try:
                out, rate, channels = corpus.read_pcm16(op["output"])
            except OSError:
                bad_keys.add(op["key"])
                continue
            if (rate != spec["rate"] or channels != 1 or out.size != noisy.size
                    or not np.all(np.isfinite(out))):
                bad_keys.add(op["key"])
                continue
            # segments of one 40 ms frame, as evaluate scores them
            rep = gain_report(spec["clean"], noisy, out, rate * 40 // 1000)
            snr.append(rep.snr_gain_db)
            ssnr.append(rep.ssnr_gain_db)
        quality = (float(np.mean(snr)), float(np.mean(ssnr))) if snr else (0.0, 0.0)
    elif workload == "evaluate_8k":
        gains = []
        for op in spec["ops"]:
            try:
                with open(op["output"], newline="") as fh:
                    rows = list(csv.DictReader(fh))
                g = np.array([[float(r["snr_gain_db"]), float(r["ssnr_gain_db"])]
                              for r in rows])
            except (OSError, KeyError, ValueError):
                bad_keys.add(op["key"])
                continue
            if len(rows) == spec["rows"] and np.all(np.isfinite(g)):
                gains.append(g)
            else:
                bad_keys.add(op["key"])
        # every segment has the same rows, so this is the mean over all streams
        quality = (tuple(float(v) for v in np.concatenate(gains).mean(axis=0))
                   if gains else (0.0, 0.0))
    else:
        quality = (0.0, 0.0)
        for i, rec in enumerate(records):
            try:
                rows = verify_rows(rec["stdout"])
            except ValueError:
                rows = []
            if len(rows) != 144 or any(r[3] != "PASS" for r in rows):
                ok[i] = False
            elif ok[i] and quality == (0.0, 0.0):
                quality = headroom_db(rows)
    ok = [flag and rec["key"] not in bad_keys for flag, rec in zip(ok, records)]
    return ok, {"snr_gain_db": quality[0], "ssnr_gain_db": quality[1]}


# --- metrics -----------------------------------------------------------------


def tail(times: list) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it, as
    (seconds, percentile, samples beyond).  With 11 samples or fewer that is
    the fastest one: no higher percentile rests on ten samples."""
    s = sorted(times)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - k - 1


def end_to_end(spec: dict, records: list, peak_rss_mb: float,
               quality: dict) -> tuple[dict, list]:
    """Every end-to-end metric but ``setup_s``, which ``main`` adds."""
    timed = [r for r in records if r["cycle"] >= 0]
    work = {op["key"]: op for op in spec["ops"]}
    # Throughput over the whole run: total time of the timed operations
    # against the audio and streams they processed.
    times = [r["seconds"] for r in timed]
    total_s = sum(times)
    tail_s, pct, beyond = tail(times)
    values = {
        "rtf": total_s / sum(work[r["key"]]["audio_s"] for r in timed),
        "streams_per_s": sum(work[r["key"]]["streams"] for r in timed) / total_s,
        "op_s_tail": tail_s,
        "peak_rss_mb": peak_rss_mb,
        **quality,
    }
    notes = [f"op_s_tail is p{pct:.1f} of {len(times)} timed ops ({beyond} beyond it)",
             # printed, not bounded: see README.md, "End-to-end metrics"
             f"op_s_p50 {statistics.median(times):.6g} s (median of {len(times)} timed ops)"]
    return values, notes


def per_layer(records: list, trace: dict) -> dict:
    traced = [r for r in records if r.get("traced")]
    paired = [r for r in records if r["cycle"] >= 0 and not r.get("traced")]
    n = len(traced)
    totals = trace["totals"]
    traced_s = sum(r["seconds"] for r in traced)
    untraced_s = sum(r["seconds"] for r in paired)
    frame_path_s = sum(
        totals[f"{layer}.self_s"] for layer in ("pipeline", "tracking", "shrinkage", "stdct")
    )
    speech = [json.loads(r["stdout"])["speech_percent"] / 100.0
              for r in traced if r["key"] in KINDS and r["rc"] == 0]
    values = {name: totals[name] / n for name in PER_LAYER if name in totals}
    values.update(
        {
            "pipeline.us_per_frame": 1e6 * frame_path_s / totals["stdct.frames"]
            if totals["stdct.frames"] else 0.0,
            "shrinkage.ns_per_bin": 1e9 * totals["shrinkage.self_s"] / totals["shrinkage.bins"]
            if totals["shrinkage.bins"] else 0.0,
            "tracking.speech_fraction": float(np.mean(speech)) if speech else 0.0,
            "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
            "trace.accounted_pct": 100.0 * totals["all_layers_s"] / traced_s,
        }
    )
    return values


# --- running a workload ----------------------------------------------------


def run_worker(job: dict, work: Path, timeout: float) -> dict:
    (work / "job.json").write_text(json.dumps(job))
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"),
         str(work / "job.json"), str(work / "result.json")],
        env=_child_env(), check=True, timeout=timeout,
    )
    return json.loads((work / "result.json").read_text())


def run_workload(workload: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    """Run and check one workload; return its result, metric values without
    ``setup_s``, notes and env."""
    size = SIZES[smoke]
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=BENCH / ".work"))
    try:
        spec = prepare(workload, seed, size, work)
        job = {"src": str(SRC), "ops": spec["ops"], "warmup": spec["ops"][0],
               "seconds": seconds, "trace": trace,
               "setup_every": 0 if trace else SETUP_EVERY_S}
        result = run_worker(job, work, timeout=seconds + 150)
        records = result["records"]
        ok, quality = check(workload, spec, records, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = ok.count(False)
    correct = failed == 0
    attempted = len(records)
    notes = [f"error_rate {failed / attempted:.6g} failed/attempted ({failed}/{attempted})"]
    if trace:
        metrics = per_layer(records, result["trace"])
        if metrics["trace.accounted_pct"] < MIN_ACCOUNTED_PCT:
            correct = False
            notes.append("layer self times do not account for the traced wall time: "
                         "the entry point was not wrapped")
        notes += [f"self {name} {s:.6f} s" for name, s in result["trace"]["functions"][:12]]
    else:
        metrics, more = end_to_end(spec, records, result["peak_rss_mb"], quality)
        metrics["setup_s"] = statistics.median(result["setup_s"])
        notes += more + [f"setup_s is the median of {len(result['setup_s'])} imports"]
    env = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "backend": result["backend"], "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "threads": os.environ["OMP_NUM_THREADS"],
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "values": metrics, "notes": notes, "env": env}


def report(run: dict, units: dict) -> dict:
    """Print one workload's metrics, notes and env; return its JSON result."""
    workload = run["env"]["workload"]
    for name, unit in units.items():
        print(f"{workload:<12s} {name:<28s} {run['values'][name]:>16.6g} {unit}")
    for note in run["notes"]:
        print(f"{workload:<12s} # {note}")
    print("env " + json.dumps(run["env"]))
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": run["values"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="riskshrink benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "riskshrink" / "__init__.py").is_file():
        print(f"error: riskshrink sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = [run_workload(w, args.seed, args.seconds, trace, args.smoke) for w in names]
    units = PER_LAYER if trace else END_TO_END
    results = {}
    for run in runs:
        results[run["env"]["workload"]] = result = report(run, units)
        if len(runs) > 1:
            print("result " + json.dumps(result))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v
                        for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
