#!/usr/bin/env python3
"""Benchmark the gain kernels: the numpy fallback, and the compiled extension
beside it when it is built.

Times ``gain_into`` for every measure over a large xi buffer, over one frame
of bins, and over the calls the lockstep denoiser makes per frame and kind
(``inputs x bins`` slices, at one and at seven inputs).

Usage:
    python3 benchmarks/bench_gains.py [--size 1000000] [--repeats 20]
"""

import argparse
import time

import numpy as np

from riskshrink import _gains_py
from riskshrink.shrinkage import BACKEND, ShrinkageKind, _KIND_ID

try:
    from riskshrink import _gains
except ImportError:
    _gains = None


def _time_backend(impl, kind_id, xi, out, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        impl.gain_into(kind_id, xi.ravel(), 1.75, out.ravel())
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=1_000_000)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)

    backends = [("numpy", _gains_py)]
    if _gains is not None:
        backends.insert(0, ("compiled", _gains))
    else:
        print("compiled backend not built; timing the numpy kernel alone")

    rng = np.random.default_rng(0)
    print(f"active backend at import: {BACKEND}")
    cases = (
        ((args.size,), "bulk"),
        ((320,), "one frame"),
        ((1, 320), "lockstep, 1 input"),
        ((7, 320), "lockstep, 7 inputs"),
    )
    for shape, label in cases:
        xi = 10.0 ** rng.uniform(-4.0, 6.0, shape)
        out = np.empty_like(xi)
        dims = " x ".join(str(d) for d in shape)
        print(f"\n{label}: {dims} bins, best of {args.repeats}")
        header = "".join(f" {name:>12s}" for name, _ in backends)
        print(f"{'kind':<10s}{header}" + (f" {'speedup':>9s}" if len(backends) > 1 else ""))
        for kind in ShrinkageKind:
            kid = _KIND_ID[kind]
            times = [_time_backend(impl, kid, xi, out, args.repeats) for _, impl in backends]
            row = "".join(f" {t * 1e3:>10.3f}ms" for t in times)
            if len(times) > 1:
                row += f" {times[1] / times[0]:>8.1f}x"
            print(f"{kind.value:<10s}{row}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
