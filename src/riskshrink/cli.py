"""Command-line interface: denoise, evaluate, curves, verify.

Exit codes: 0 success, 1 check/runtime failure, 2 usage error.  All
randomness flows from explicit seed flags, so identical invocations produce
byte-identical outputs.
"""

import argparse
import csv
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import risklab
from .audio import WavFormatError, mix_at_snr, read_wav, read_wav_header
from .metrics import GainReport, gain_report
from .pipeline import DenoiserConfig, denoise_file, denoise_kinds
from .shrinkage import ShrinkageKind, gain_rows

# Bounds on outside input that would otherwise allocate without limit: the
# points of one curves table (0:100:0.001 is the largest range taken), the
# oracle grid step of verify (1e-6 gives each of its 1,400 searches 1e6 points),
# and the Monte Carlo draws of each verify check.
_MAX_CURVE_POINTS = 100_001
_MIN_GRID_STEP = 1e-6
_MAX_SAMPLES = 10_000_000


def _parse_kind(text: str) -> ShrinkageKind:
    """Kind by name, in any letter case; the error lists the valid names."""
    name = text.strip().lower()
    try:
        return ShrinkageKind(name)
    except ValueError:
        valid = ", ".join(k.value for k in ShrinkageKind)
        raise ValueError(f"unknown kind {name!r} (choose from: {valid})") from None


def _parse_kinds(text: str) -> list[ShrinkageKind]:
    if text.strip().lower() == "all":
        return list(ShrinkageKind)
    return [_parse_kind(name) for name in text.split(",")]


def _parse_alpha(text: str) -> float:
    """``--alpha`` of evaluate and curves: anything but ``0 < alpha < inf`` is a
    usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must satisfy 0 < alpha < inf, got {text!r}")
    return value


# The denoise flags and the config-file keys: one value parser per
# DenoiserConfig field.  sample_rate is not among them, because denoise_file
# always takes the rate from the WAV header.
_FIELD_PARSERS = {
    f.name: {int: int, float: float, ShrinkageKind: _parse_kind}[f.type]
    for f in fields(DenoiserConfig)
    if f.name != "sample_rate"
}


def _parse_field(name: str, raw: str, where: str):
    try:
        return _FIELD_PARSERS[name](raw.strip())
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _parse_config_file(path: str) -> dict:
    raw_bytes = Path(path).read_bytes()
    try:
        text = raw_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw_bytes.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ValueError(f"{where}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _FIELD_PARSERS:
            raise ValueError(f"{where}: unknown config key {key!r}")
        values[key] = _parse_field(key, raw, where)
    return values


def _header_rate(path) -> int:
    """The sample rate in the WAV header of ``path``, or the default rate when
    there is none: a bad flag is then still a usage error, and the file's own
    fault is reported when ``denoise_file`` reads it."""
    try:
        with open(path, "rb") as f:
            return read_wav_header(f, path)[0] or DenoiserConfig.sample_rate
    except (OSError, WavFormatError):
        return DenoiserConfig.sample_rate


def _build_config(args: argparse.Namespace) -> DenoiserConfig:
    """The denoise config from the flags and the config file, checked at the
    input's sample rate, since the frame geometry depends on it."""
    merged = _parse_config_file(args.config) if args.config else {}
    for name in _FIELD_PARSERS:
        raw = getattr(args, name)
        if raw is not None:
            merged[name] = _parse_field(name, raw, where=name)
    return DenoiserConfig(sample_rate=_header_rate(args.in_path), **merged)


def _write_csv(path: str | None, header: list[str], rows: list[list[str]]) -> None:
    """Write the table to the CSV file ``path`` and say so on stdout, or write
    it to stdout itself when ``path`` is None."""
    with nullcontext(sys.stdout) if path is None else open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    if path is not None:
        print(f"wrote {len(rows)} rows to {path}")


def _cmd_denoise(args, parser) -> int:
    try:
        config = _build_config(args)
    except ValueError as exc:
        parser.error(str(exc))
    summary = denoise_file(args.in_path, args.out_path, config)
    print(
        json.dumps(
            {
                "in": args.in_path,
                "out": args.out_path,
                "kind": config.kind.value,
                "alpha": config.alpha,
                "frame_len": summary.frame_len,
                "hop": summary.hop,
                "frames": summary.frames,
                "speech_percent": round(100.0 * summary.speech_fraction, 2),
            }
        )
    )
    return 0


def _cmd_evaluate(args, parser) -> int:
    try:
        kinds = _parse_kinds(args.kinds)
        snrs = [float(v) for v in args.snr_list.split(",") if v.strip()]
        seeds = [int(v) for v in args.seeds.split(",") if v.strip()]
    except ValueError as exc:
        parser.error(str(exc))
    if not snrs or not seeds:
        parser.error("--snr-list and --seeds must be non-empty")
    if not all(map(math.isfinite, snrs)):
        parser.error("--snr-list values must be finite")
    if min(seeds) < 0:
        parser.error("--seeds must be non-negative")
    clean = read_wav(args.clean)
    noise = read_wav(args.noise)

    kinds = [k for k in ShrinkageKind if k in kinds]  # row order, no repeats
    config = DenoiserConfig(sample_rate=clean.sample_rate, alpha=args.alpha)
    metrics = [f.name for f in fields(GainReport)]
    rows = []
    for snr_db in sorted(snrs):
        noisy = [mix_at_snr(clean, noise, snr_db, seed_offset=seed)[0] for seed in seeds]
        out = denoise_kinds(np.stack([buf.samples for buf in noisy]), config, kinds)
        for k, kind in enumerate(kinds):
            reports = [
                gain_report(clean.samples, buf.samples, out[k, i], config.frame_len)
                for i, buf in enumerate(noisy)
            ]
            means = [float(np.mean([getattr(r, m) for r in reports])) for m in metrics]
            rows.append(
                [Path(args.clean).name, kind.value, f"{args.alpha:.6f}", f"{snr_db:.2f}"]
                + [f"{v:.6f}" for v in means]
                + [str(len(seeds))]
            )
    header = ["file", "kind", "alpha", "snr_db"] + metrics + ["seeds"]
    _write_csv(args.out_csv, header, rows)
    return 0


def _db_to_power(v: float) -> float:
    """``10 ** (v / 10)``; inf above about 3082.5 dB, where a float overflows
    and every gain is 1."""
    try:
        return 10.0 ** (v / 10.0)
    except OverflowError:
        return math.inf


def _cmd_curves(args, parser) -> int:
    try:
        lo, hi, step = (float(v) for v in args.xi_db_range.split(":"))
    except ValueError:
        parser.error("--xi-db-range must look like lo:hi:step, e.g. -10:40:0.5")
    # (hi - lo) / step is finite only for finite lo and hi, and a countable range
    if not (0 < step < math.inf and lo <= hi and math.isfinite((hi - lo) / step)):
        parser.error("--xi-db-range needs finite lo <= hi, 0 < step, finite (hi-lo)/step")

    n = int(np.floor((hi - lo) / step + 0.5)) + 1
    if n > _MAX_CURVE_POINTS:
        parser.error(
            f"--xi-db-range gives {n} points, more than the limit of {_MAX_CURVE_POINTS}"
        )
    kinds = list(ShrinkageKind)
    header = ["xi_db"] + [k.value for k in kinds]
    xi_db = [lo + i * step for i in range(n)]
    xi = np.array([_db_to_power(v) for v in xi_db])
    columns = gain_rows(kinds, np.broadcast_to(xi, (len(kinds), n)), args.alpha)
    rows = [[f"{v:.4f}"] + [f"{g:.9f}" for g in gs] for v, *gs in zip(xi_db, *columns)]
    _write_csv(args.out_csv or None, header, rows)
    return 0


def _cmd_verify(args, parser) -> int:
    if args.samples < 2:
        parser.error("--samples must be at least 2")
    if args.samples > _MAX_SAMPLES:
        parser.error(f"--samples must be at most {_MAX_SAMPLES}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not _MIN_GRID_STEP <= args.grid_step <= 0.5:
        parser.error(f"--grid-step must be in [{_MIN_GRID_STEP:g}, 0.5]")
    rows = risklab.verification_suite(
        n_samples=args.samples, seed=args.seed, grid_step=args.grid_step
    )
    failures = 0
    print(f"{'check':<42s} {'lhs':>15s} {'rhs':>15s} {'tol':>12s} status")
    for row in rows:
        ok = row.passed
        failures += 0 if ok else 1
        print(
            f"{row.name:<42s} {row.lhs:>15.8g} {row.rhs:>15.8g} "
            f"{row.tol:>12.4g} {'PASS' if ok else 'FAIL'}"
        )
    print(f"{len(rows)} checks, {failures} failed")
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskshrink",
        description="DCT-domain speech enhancement by risk-optimal shrinkage",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_den = subs.add_parser("denoise", help="denoise a mono PCM-16 WAV file")
    p_den.add_argument("--in", dest="in_path", required=True, help="input WAV")
    p_den.add_argument("--out", dest="out_path", required=True, help="output WAV")
    p_den.add_argument("--config", help="plain-text key=value config file")
    for name in _FIELD_PARSERS:
        p_den.add_argument("--" + name.replace("_", "-"))
    p_den.set_defaults(func=_cmd_denoise)

    p_eval = subs.add_parser(
        "evaluate", help="mix noise into clean speech at target SNRs and score gains"
    )
    p_eval.add_argument("--clean", required=True, help="clean reference WAV")
    p_eval.add_argument(
        "--noise", required=True, help="noise WAV, at least as long as the clean file"
    )
    p_eval.add_argument("--snr-list", default="5,10,15", help="comma-separated dB values")
    p_eval.add_argument("--kinds", default="all", help="comma-separated kinds or 'all'")
    p_eval.add_argument("--out-csv", required=True)
    p_eval.add_argument("--seeds", default="0", help="comma-separated noise-segment seeds")
    p_eval.add_argument("--alpha", type=_parse_alpha, default=DenoiserConfig.alpha)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_cur = subs.add_parser(
        "curves", help="export gain-versus-SNR curves for every measure"
    )
    p_cur.add_argument(
        "--xi-db-range",
        default="-10:40:0.5",
        help="lo:hi:step in dB (use --xi-db-range=-10:40:0.5 for negative lo)",
    )
    p_cur.add_argument("--alpha", type=_parse_alpha, default=1.0)
    p_cur.add_argument("--out-csv", default=None, help="default: stdout")
    p_cur.set_defaults(func=_cmd_curves)

    p_ver = subs.add_parser(
        "verify", help="run the numerical verification suite and print a report"
    )
    p_ver.add_argument("--samples", type=int, default=1_000_000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--grid-step", type=float, default=1e-4)
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (OSError, ValueError, WavFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
