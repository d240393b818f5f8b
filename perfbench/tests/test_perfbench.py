"""Tests of the benchmark itself: smoke sizes of every workload, the tracer,
and the input recipe.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import contextlib
import importlib.util
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Counts and split times each workload must produce.  Both rest on function
# names (tracer.COUNT_RULES, Tracer.totals), so a zero means a rename broke a
# rule and its time or count went elsewhere.
NONZERO = {
    "denoise_16k": ("tracking.calls", "tracking.speech_fraction", "shrinkage.bins",
                    "stdct.frames", "stdct.bytes_computed", "stdct.analysis_s",
                    "stdct.synthesis_s", "audio.bytes_computed", "audio.read_s",
                    "audio.write_s"),
    "evaluate_8k": ("tracking.calls", "shrinkage.bins", "stdct.frames",
                    "stdct.analysis_s", "stdct.synthesis_s", "metrics.segments",
                    "audio.read_s", "audio.mix_s"),
    "verify_lab": ("risklab.samples", "risklab.sampler_s", "risklab.oracle_grid_points",
                   "risklab.oracle_s", "risklab.stein_s", "risklab.unbiased_s",
                   "shrinkage.calls"),
}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_run_py():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(np.isfinite(v) for v in values.values())
    if trace:
        assert all(values[name] > 0 for name in NONZERO[workload])
    else:
        assert all(v != 0 for v in values.values())
    env = json.loads(next(ln[4:] for ln in proc.stdout.splitlines() if ln.startswith("env ")))
    assert env["backend"] in ("python", "compiled") and env["seed"] == 3


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run("--workload", "denoise_16k", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_restores_originals_and_accounts_for_time():
    import riskshrink
    from riskshrink import pipeline, tracking

    before = {name: getattr(tracking, name) for name in ("vad", "update_noise")}
    denoise = riskshrink.denoise
    noisy = corpus.mix(corpus.make_voiced(8000, 1.0), corpus.white_noise(8000, 1.0, 0), 5.0)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracking.vad is not before["vad"]
        t0 = time.perf_counter()
        traced_out = riskshrink.denoise(noisy, pipeline.DenoiserConfig())
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert {name: getattr(tracking, name) for name in before} == before
    assert riskshrink.denoise is denoise
    assert np.array_equal(traced_out, denoise(noisy, pipeline.DenoiserConfig()))
    totals = tracer.totals()
    # a directly imported name (pipeline.gain_array) is charged to shrinkage
    assert totals["shrinkage.bins"] > 0 and totals["shrinkage.calls"] == totals["stdct.frames"]
    assert totals["all_layers_s"] == pytest.approx(
        sum(v for k, v in totals.items() if k.endswith(".self_s")), rel=1e-9
    )
    assert 0.95 * wall < totals["all_layers_s"] <= wall


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(100))) == (89, 90.0, 10)
    assert run.tail([float(v) for v in range(15, 0, -1)]) == (5.0, 100.0 / 3.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3.0, 2)


def test_corpus_matches_test_fixture_recipe():
    path = ROOT / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("riskshrink_test_fixtures", path)
    fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixtures)
    for rate, seconds in ((8000, 3.0), (16000, 2.0)):
        assert np.array_equal(
            corpus.make_voiced(rate, seconds), fixtures.make_voiced(rate, seconds).samples
        )
    from riskshrink import generate_white_noise

    assert np.array_equal(
        corpus.white_noise(1000, 0.1, 7), generate_white_noise(1000, 0.1, 7).samples
    )


def _saved_all_run(path, rtf_scale):
    """Write the output of a ``--workload all`` run whose rtf on evaluate_8k
    is scaled by ``rtf_scale``, as run.main prints it."""
    out = io.StringIO()
    combined = {}
    with contextlib.redirect_stdout(out):
        for workload in run.WORKLOADS:
            values = {name: 1.0 for name in run.END_TO_END}
            if workload == "evaluate_8k":
                values["rtf"] = rtf_scale
            env = {"workload": workload, "backend": "python", "seconds": 35,
                   "trace": 0, "smoke": False}
            result = run.report({"correct": True, "attempted": 3, "failed": 0,
                                 "values": values, "notes": [], "env": env}, run.END_TO_END)
            print("result " + json.dumps(result))
            combined.update({f"{workload}.{m}": v for m, v in result["metrics"].items()})
        print(json.dumps({"correct": True, "attempted": 9, "failed": 0, "metrics": combined}))
    path.write_text(out.getvalue())
    return str(path)


def test_compare_splits_an_all_run_by_workload(tmp_path, capsys):
    base = [_saved_all_run(tmp_path / f"base{i}.txt", 1.0) for i in range(3)]
    same = [_saved_all_run(tmp_path / f"same{i}.txt", 1.0) for i in range(3)]
    worse = [_saved_all_run(tmp_path / f"worse{i}.txt", 1.5) for i in range(3)]
    assert compare.main(["--base", *base, "--new", *same]) == 0
    capsys.readouterr()
    assert compare.main(["--base", *base, "--new", *worse]) == 1
    lines = capsys.readouterr().out.splitlines()
    verdicts = {}
    for line in lines:
        if not line.startswith(" "):
            workload = line.split(":")[0]
        else:
            verdicts[workload, line.split()[0]] = line.split()[-1]
    assert {key for key, v in verdicts.items() if v == "WORSE"} == {("evaluate_8k", "rtf")}
    assert len(verdicts) == len(run.WORKLOADS) * len(run.END_TO_END)


def test_compare_refuses_metrics_not_in_benchmark_json(tmp_path):
    path = tmp_path / "odd.txt"
    path.write_text('env {"workload": "denoise_16k", "backend": "python", "seconds": 35, '
                    '"trace": 0, "smoke": false}\n'
                    '{"correct": true, "attempted": 1, "failed": 0, '
                    '"metrics": {"denoise_16k.rtf": {"value": 1.0, "unit": "s/s"}}}\n')
    assert compare.main(["--base", str(path), "--new", str(path)]) == 2
