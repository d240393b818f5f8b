"""Runs one workload's operations in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

Each operation is one in-process call of ``riskshrink.cli.main(argv)``, made
one after another from a single thread (closed loop, one client).  The job's
``warmup`` operation runs first, untimed; then the job's operations run in
turn, at least one whole cycle of them, until ``seconds`` have passed.  With
tracing on, each operation runs twice in a row, untraced and then traced, so
the tracing overhead is measured on the same work.  Untraced, a fresh
interpreter importing ``riskshrink.cli`` (set-up time) is timed between
operations, once every ``setup_every`` seconds, so that set-up is sampled
across the whole run rather than at its ends.  The worker owns no input
arrays, so its peak RSS is that of the program under test.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path


def _digest(path) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def _run_op(op: dict, tracer=None) -> dict:
    out = io.StringIO()
    error = None
    if tracer is not None:
        tracer.install()
    try:
        cli = sys.modules["riskshrink.cli"]
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            try:
                rc = cli.main(op["argv"])
            except SystemExit as exc:
                rc = exc.code
            elapsed = time.perf_counter() - t0
    except Exception:
        rc, elapsed, error = None, 0.0, traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "key": op["key"],
        "rc": rc,
        "seconds": elapsed,
        "stdout": out.getvalue(),
        "digest": _digest(op["output"]) if op.get("output") else None,
        "error": error,
    }


def _time_import(src: str) -> float:
    """Wall time of a fresh interpreter importing ``riskshrink.cli``."""
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import riskshrink.cli"], env=env, check=True)
    return time.perf_counter() - t0


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text())
    sys.path.insert(0, job["src"])
    import riskshrink
    import riskshrink.cli  # noqa: F401  (looked up through sys.modules per op)

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()

    ops = job["ops"]
    warmup = _run_op(job["warmup"])
    warmup["cycle"] = -1
    records = [warmup]
    setup_s = []
    next_setup = time.perf_counter()
    deadline = next_setup + job["seconds"]
    i = 0
    while i < len(ops) or time.perf_counter() < deadline:
        if job["setup_every"] and time.perf_counter() >= next_setup:
            setup_s.append(_time_import(job["src"]))
            next_setup = time.perf_counter() + job["setup_every"]
        op = ops[i % len(ops)]
        rec = _run_op(op)
        rec["cycle"] = i // len(ops)
        records.append(rec)
        if tracer is not None:
            rec = _run_op(op, tracer)
            rec["cycle"], rec["traced"] = i // len(ops), True
            records.append(rec)
        i += 1

    result = {
        "backend": riskshrink.BACKEND,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
        "setup_s": setup_s,
    }
    if tracer is not None:
        result["trace"] = {
            "totals": tracer.totals(),
            "functions": sorted(
                ([f"{layer}.{fn}", s] for (layer, fn), s in tracer.self_s.items()),
                key=lambda item: -item[1],
            ),
        }
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
