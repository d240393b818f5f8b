import csv
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import PCM_GUID, make_voiced, write_overlong_fmt_wav, write_pcm16_wav
from riskshrink.audio import AudioBuffer, generate_white_noise, read_wav, write_wav
from riskshrink.cli import _build_config, _build_parser, main
from riskshrink.pipeline import DenoiserConfig
from riskshrink.risklab import CheckResult
from riskshrink.shrinkage import ShrinkageKind


@pytest.fixture()
def fixture_wavs(tmp_path, voiced_buffer):
    clean_path = tmp_path / "clean.wav"
    noise_path = tmp_path / "noise.wav"
    write_wav(clean_path, voiced_buffer)
    write_wav(
        noise_path, generate_white_noise(len(voiced_buffer) + 8000, 0.05, seed=40)
    )
    return clean_path, noise_path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def test_curves_row_count_and_values(tmp_path):
    out = tmp_path / "curves.csv"
    # note the = form: a leading '-' after a space would parse as a flag
    assert main(["curves", "--xi-db-range=-10:40:0.5", "--out-csv", str(out)]) == 0
    rows = _read_csv(out)
    header, data = rows[0], rows[1:]
    assert header[0] == "xi_db"
    assert len(data) == 101

    by_db = {float(r[0]): r for r in data}
    row10 = by_db[10.0]
    expected = {
        "mse": 0.9,
        "we": 1.0 / 1.174,
        "log_mse": 1.0,
        "is": 1.0 / 1.144,
        "is_ii": 1.85**-0.5,
        "cosh": math.sqrt(1.1 / 1.144),
        "wcosh": 2.19**-0.5,
    }
    for col, kind in enumerate(ShrinkageKind, start=1):
        assert float(row10[col]) == pytest.approx(expected[kind.value], abs=1e-6)
    # gains approach unity at the top of the range
    last = data[-1]
    assert all(float(v) > 0.99 for v in last[1:])


def test_curves_beyond_float_range_give_unit_gain(capsys):
    # 10**(3090/10) overflows a float: such a point is xi = inf, gain 1
    assert main(["curves", "--xi-db-range=3080:3100:10"]) == 0
    header, *data = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert [r[0] for r in data] == ["3080.0000", "3090.0000", "3100.0000"]
    for row in data[1:]:
        assert row[1:] == ["1.000000000"] * len(ShrinkageKind)


# sha256 of the curves CSV; curves forms u = alpha / xi itself.  The gains
# are printed to 9 decimals, so both numpy dispatches give the same bytes.
_PINNED_CURVES_SHA256 = {
    ("-10:40:0.01", "1.75"):
        "66c0500603a9d207e7177e37becc55fec03ca8f280a8f3e9e02458e6c6c959f7",
    # past 3082.5 dB xi overflows to inf; far below 0 dB u overflows
    ("-3100:3100:0.5", "0.3"):
        "6f942e08148e371dc702491ff896bb1b228deb326a8bc2fa4dd2288a37acb4c7",
}


@pytest.mark.parametrize("xi_db_range, alpha", list(_PINNED_CURVES_SHA256))
def test_curves_csv_bytes_pinned(xi_db_range, alpha, tmp_path):
    out = tmp_path / "curves.csv"
    argv = ["curves", "--xi-db-range=" + xi_db_range, "--alpha", alpha, "--out-csv", str(out)]
    assert main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == _PINNED_CURVES_SHA256[xi_db_range, alpha]


@pytest.mark.parametrize(
    "xi_db_range",
    [
        "oops",
        "10:0:1",
        "0:10:0",
        "0:inf:1",
        "-inf:0:1",
        "nan:10:1",
        "0:10:inf",
        "0:10:nan",
        "0:1e300:1e-300",
    ],
)
def test_curves_bad_range_is_usage_error(xi_db_range):
    with pytest.raises(SystemExit) as exc:
        main(["curves", "--xi-db-range=" + xi_db_range])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "xi_db_range, points",
    [
        ("0:1:0.4", ["0.0000", "0.4000", "0.8000"]),
        ("0:1:0.6", ["0.0000", "0.6000"]),
        ("0.1:0.7:0.2", ["0.1000", "0.3000", "0.5000", "0.7000"]),
    ],
)
def test_curves_points_stop_at_hi(xi_db_range, points, capsys):
    # a step that does not divide hi - lo ends below hi, never past it; a
    # ratio that rounds just below a whole number still keeps hi itself
    assert main(["curves", "--xi-db-range=" + xi_db_range]) == 0
    header, *data = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert [r[0] for r in data] == points


def test_curves_point_limit(tmp_path, capsys):
    # 0:100:0.001 is the largest range taken; a step just below it is refused
    # before any point is built
    out = tmp_path / "curves.csv"
    assert main(["curves", "--xi-db-range=0:100:0.001", "--out-csv", str(out)]) == 0
    assert len(_read_csv(out)) == 1 + 100_001
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["curves", "--xi-db-range=0:100:0.00099"])
    assert exc.value.code == 2
    assert "101011 points, more than the limit of 100001" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["inf", "nan", "0", "-1", "abc"])
@pytest.mark.parametrize("command", ["curves", "evaluate"])
def test_bad_alpha_is_usage_error(command, alpha, tmp_path, capsys):
    files = ["--clean", "c.wav", "--noise", "n.wav", "--out-csv", str(tmp_path / "x.csv")]
    with pytest.raises(SystemExit) as exc:
        main([command, "--alpha", alpha] + (files if command == "evaluate" else []))
    assert exc.value.code == 2
    assert "0 < alpha < inf" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["evaluate", "--snr-list=-inf"], "--snr-list"),
        (["evaluate", "--snr-list=inf"], "--snr-list"),
        (["evaluate", "--snr-list=5,nan"], "--snr-list"),
        (["evaluate", "--seeds=0,-1"], "--seeds"),
        (["evaluate", "--kinds=,"], "--kinds"),
        (["evaluate", "--snr-list=,"], "--snr-list"),
        (["evaluate", "--seeds=,"], "--seeds"),
        (["verify", "--seed=-1"], "--seed"),
    ],
    ids=[
        "snr-minus-inf",
        "snr-inf",
        "snr-nan",
        "negative-seeds",
        "empty-kinds",
        "empty-snr-list",
        "empty-seeds",
        "verify-negative-seed",
    ],
)
def test_bad_snr_or_seed_is_usage_error(argv, message, tmp_path, capsys):
    # the WAVs do not exist: the check comes before any file is read
    files = ["--clean", "c.wav", "--noise", "n.wav", "--out-csv", str(tmp_path / "x.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv + (files if argv[0] == "evaluate" else []))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_single_condition_row(fixture_wavs, tmp_path):
    clean, noise = fixture_wavs
    out = tmp_path / "eval.csv"
    rc = main(
        [
            "evaluate",
            "--clean", str(clean),
            "--noise", str(noise),
            "--snr-list", "10",
            "--kinds", "mse",
            "--seeds", "1",
            "--out-csv", str(out),
        ]
    )
    assert rc == 0
    rows = _read_csv(out)
    assert len(rows) == 2  # header + one condition
    assert rows[1][1] == "mse"


def test_evaluate_all_kinds_cardinality_and_positive_gains(fixture_wavs, tmp_path):
    clean, noise = fixture_wavs
    out = tmp_path / "eval_all.csv"
    rc = main(
        [
            "evaluate",
            "--clean", str(clean),
            "--noise", str(noise),
            "--snr-list", "10",
            "--kinds", "all",
            "--seeds", "0,1",
            "--out-csv", str(out),
        ]
    )
    assert rc == 0
    rows = _read_csv(out)
    header, data = rows[0], rows[1:]
    assert len(data) == 7
    gain_col = header.index("snr_gain_db")
    ssnr_col = header.index("ssnr_gain_db")
    for row in data:
        assert float(row[gain_col]) > 0.0
        assert float(row[ssnr_col]) > 0.0


def test_evaluate_deterministic_bytes(fixture_wavs, tmp_path):
    clean, noise = fixture_wavs
    args = [
        "evaluate",
        "--clean", str(clean),
        "--noise", str(noise),
        "--snr-list", "10",
        "--kinds", "mse,wcosh",
        "--seeds", "0,1",
    ]
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    assert main(args + ["--out-csv", str(out1)]) == 0
    assert main(args + ["--out-csv", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # pinned with numpy 2.4.6 on Python 3.11.7, x86-64, as the denoiser outputs
    # are; the six-decimal CSV also held when the DCT moved from scipy to np.fft
    assert hashlib.sha256(out1.read_bytes()).hexdigest() == (
        "5d3c13f87be3f6d1253d3f61c68e35529cbf94a77e19fd6c00cd8bb311b01950"
    )


def test_evaluate_lists_drop_blank_items(fixture_wavs, tmp_path):
    # --kinds, --snr-list and --seeds split alike: a trailing comma adds nothing
    clean, noise = fixture_wavs
    args = ["evaluate", "--clean", str(clean), "--noise", str(noise)]
    plain, trailing = tmp_path / "plain.csv", tmp_path / "trailing.csv"
    lists = ["--snr-list", "10", "--kinds", "mse", "--seeds", "1"]
    assert main(args + lists + ["--out-csv", str(plain)]) == 0
    lists = ["--snr-list", "10,", "--kinds", "mse,", "--seeds", "1,"]
    assert main(args + lists + ["--out-csv", str(trailing)]) == 0
    assert trailing.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize(
    "once, repeated",
    [(("5", "0"), ("5,5", "0,0")), (("0,5", "1,0"), ("5,0,5", "1,0,1"))],
    ids=["one-value-twice", "first-occurrence-kept"],
)
def test_evaluate_drops_repeated_snrs_and_seeds(once, repeated, fixture_wavs, tmp_path):
    # as with --kinds, a repeat adds nothing: the SNRs stay sorted and the
    # seeds keep the order of their first occurrences, which sets the
    # summation order of each mean
    clean, noise = fixture_wavs
    args = ["evaluate", "--clean", str(clean), "--noise", str(noise), "--kinds", "mse"]
    outs = []
    for name, (snrs, seeds) in (("once", once), ("repeated", repeated)):
        outs.append(tmp_path / f"{name}.csv")
        argv = args + ["--snr-list", snrs, "--seeds", seeds, "--out-csv", str(outs[-1])]
        assert main(argv) == 0
    assert outs[1].read_bytes() == outs[0].read_bytes()


def test_evaluate_clean_file_shorter_than_the_denoiser_needs(tmp_path, capsys):
    # the denoiser's check speaks before the scorer finds no segment to score
    clean, noise = tmp_path / "clean.wav", tmp_path / "noise.wav"
    write_wav(clean, AudioBuffer(0.3 * np.sin(2 * np.pi * 440.0 * np.arange(300) / 8000), 8000))
    write_wav(noise, generate_white_noise(8000, 0.05, seed=0))
    out = tmp_path / "eval.csv"
    argv = ["evaluate", "--clean", str(clean), "--noise", str(noise), "--out-csv", str(out)]
    assert main(argv) == 1
    assert "error: signal too short: 300 samples, need at least 1120" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_unknown_kind_is_usage_error(fixture_wavs, tmp_path):
    clean, noise = fixture_wavs
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "evaluate",
                "--clean", str(clean),
                "--noise", str(noise),
                "--kinds", "nope",
                "--out-csv", str(tmp_path / "x.csv"),
            ]
        )
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# denoise
# ---------------------------------------------------------------------------


def test_denoise_missing_in_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["denoise", "--out", str(tmp_path / "o.wav")])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["denoise", "--in", "a.wav", "--out", "b.wav", "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--frame-ms", "inf"),
        ("--frame-ms", "nan"),
        ("--vad-threshold", "nan"),
        ("--frame-ms", "1e306"),  # finite, but no finite number of samples
    ],
)
def test_denoise_non_finite_value_is_usage_error(flag, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["denoise", "--in", "a.wav", "--out", str(tmp_path / "o.wav"), flag, value])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_denoise_huge_vad_hangover_is_usage_error(source, tmp_path, capsys):
    # the hangover counter is int64: a larger value must not reach it
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("vad_hangover=100000000000000000000\n")
    extra = (["--vad-hangover", "100000000000000000000"] if source == "flag"
             else ["--config", str(cfg)])
    with pytest.raises(SystemExit) as exc:
        main(["denoise", "--in", "a.wav", "--out", str(tmp_path / "o.wav")] + extra)
    assert exc.value.code == 2
    assert "vad_hangover must be in [0, 9223372036854775807]" in capsys.readouterr().err


def test_denoise_missing_file_fails_without_output(tmp_path, capsys):
    dst = tmp_path / "out.wav"
    rc = main(["denoise", "--in", str(tmp_path / "ghost.wav"), "--out", str(dst)])
    assert rc == 1
    assert not dst.exists()
    assert "error:" in capsys.readouterr().err


def test_denoise_zero_sample_rate_names_the_file(tmp_path, capsys):
    src = tmp_path / "zero_rate.wav"
    write_pcm16_wav(src, [0] * 4000, 0)
    rc = main(["denoise", "--in", str(src), "--out", str(tmp_path / "o.wav")])
    assert rc == 1
    assert f"error: {src}: " in capsys.readouterr().err


def test_denoise_valid_run(fixture_wavs, tmp_path, capsys):
    clean, _ = fixture_wavs
    dst = tmp_path / "denoised.wav"
    rc = main(["denoise", "--in", str(clean), "--out", str(dst), "--kind", "wcosh"])
    assert rc == 0
    assert dst.exists()
    assert '"kind": "wcosh"' in capsys.readouterr().out


@pytest.mark.parametrize("rate, frame_len, hop", [(11025, 441, 110), (22050, 882, 220)])
def test_denoise_at_rates_with_fractional_hops(rate, frame_len, hop, tmp_path, capsys):
    clean = make_voiced(rate)
    noise = generate_white_noise(len(clean), 0.05, seed=41, sample_rate=rate)
    src, dst = tmp_path / "noisy.wav", tmp_path / "out.wav"
    write_wav(src, AudioBuffer(clean.samples + noise.samples, rate))
    assert main(["denoise", "--in", str(src), "--out", str(dst)]) == 0
    out = read_wav(dst)
    assert (len(out), out.sample_rate) == (len(clean), rate)
    assert np.all(np.isfinite(out.samples))
    summary = json.loads(capsys.readouterr().out)
    assert (summary["frame_len"], summary["hop"]) == (frame_len, hop)


def test_denoise_checks_the_geometry_at_the_file_rate(tmp_path, capsys):
    # 0.1 ms is a 4-sample frame with a 1-sample hop at 44.1 kHz
    src, dst = tmp_path / "hi.wav", tmp_path / "out.wav"
    write_wav(src, generate_white_noise(4410, 0.05, seed=43, sample_rate=44100))
    assert main(["denoise", "--in", str(src), "--out", str(dst), "--frame-ms", "0.1"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["frame_len"], summary["hop"]) == (4, 1)
    assert len(read_wav(dst)) == 4410


def test_denoise_geometry_refused_at_the_file_rate_is_usage_error(tmp_path, capsys):
    src = tmp_path / "lo.wav"
    write_wav(src, generate_white_noise(800, 0.05, seed=43, sample_rate=8000))
    with pytest.raises(SystemExit) as exc:
        main(["denoise", "--in", str(src), "--out", str(tmp_path / "o.wav"),
              "--frame-ms", "0.1"])
    assert exc.value.code == 2
    assert "at 8000 Hz give frame_len=1 and hop=0" in capsys.readouterr().err


def test_denoise_takes_the_rate_of_an_extensible_header(tmp_path, capsys):
    # 0.1 ms is a 4-sample frame with a 1-sample hop at 44.1 kHz, and is
    # refused at the default 8 kHz
    src, dst = tmp_path / "ext.wav", tmp_path / "out.wav"
    noise = generate_white_noise(4410, 0.05, seed=44, sample_rate=44100)
    ints = np.round(noise.samples * 32768).astype(int)
    write_pcm16_wav(src, ints, 44100, subformat=PCM_GUID)
    assert main(["denoise", "--in", str(src), "--out", str(dst), "--frame-ms", "0.1"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["frame_len"], summary["hop"]) == (4, 1)
    assert len(read_wav(dst)) == 4410


def test_evaluate_at_11025_hz(tmp_path):
    clean, noise = tmp_path / "clean.wav", tmp_path / "noise.wav"
    write_wav(clean, make_voiced(11025))
    write_wav(noise, generate_white_noise(4 * 11025, 0.05, seed=42, sample_rate=11025))
    out = tmp_path / "eval.csv"
    argv = ["evaluate", "--clean", str(clean), "--noise", str(noise), "--out-csv", str(out)]
    assert main(argv) == 0
    header, *data = _read_csv(out)
    assert len(data) == 21  # 7 kinds x 3 SNRs
    gain_col = header.index("snr_gain_db")
    assert all(float(row[gain_col]) > 0.0 for row in data)


def test_evaluate_at_11025_hz_bytes_pinned(tmp_path):
    # at 11025 Hz the denoiser's spans of 16 hops (1,760 samples) end inside
    # the scorer's 441-sample segments, which must carry across spans; the
    # digest was computed before evaluate scored spans, from whole outputs
    clean, noise = tmp_path / "clean.wav", tmp_path / "noise.wav"
    write_wav(clean, make_voiced(11025))
    write_wav(noise, generate_white_noise(4 * 11025, 0.05, seed=42, sample_rate=11025))
    out = tmp_path / "eval.csv"
    argv = ["evaluate", "--clean", str(clean), "--noise", str(noise), "--out-csv", str(out),
            "--snr-list", "0,5,10", "--seeds", "0,1", "--kinds", "all"]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9f301c7fe4693c8ad09d604c7287017f501b9919c9657d9ec6f348f901f1a983"
    )


def test_evaluate_holds_no_whole_output(tmp_path):
    # Doubling the clean file's length may grow evaluate's traced peak by
    # the noisy inputs (one copy per stream) and a few single-stream
    # temporaries, but not by the denoised outputs, 7 kinds x 15 streams of
    # float64, which scoring span by span never holds: the peak grows by 0.14
    # of their size.  Holding them (one SNR at a time, as evaluate once did)
    # grew it by 0.80.
    noise = tmp_path / "noise.wav"
    write_wav(noise, generate_white_noise(4 * 8000, 0.05, seed=40))
    argv = ["evaluate", "--noise", str(noise), "--out-csv", str(tmp_path / "eval.csv"),
            "--snr-list", "0,5,10", "--seeds", "0,1,2,3,4", "--kinds", "all"]
    peaks = []
    for seconds in (1.5, 3.0):
        clean = tmp_path / f"clean_{seconds}.wav"
        write_wav(clean, make_voiced(8000, seconds))
        tracemalloc.start()
        try:
            assert main(argv + ["--clean", str(clean)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    held = 7 * 15 * 12000 * 8  # kinds x streams x added samples x 8 B
    assert peaks[1] - peaks[0] < held / 4


def test_denoise_config_file_with_flag_override(fixture_wavs, tmp_path, capsys):
    clean, _ = fixture_wavs
    cfg = tmp_path / "denoiser.cfg"
    cfg.write_text("# comment line\nkind=cosh\nalpha=2.5\nvad_threshold=0.2\n")
    dst = tmp_path / "out.wav"
    rc = main(
        [
            "denoise",
            "--in", str(clean),
            "--out", str(dst),
            "--config", str(cfg),
            "--alpha", "1.25",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert '"kind": "cosh"' in out  # from file
    assert '"alpha": 1.25' in out  # flag wins over file


def test_denoise_bad_config_key_is_usage_error(fixture_wavs, tmp_path):
    clean, _ = fixture_wavs
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frame_size=17\n")
    with pytest.raises(SystemExit) as exc:
        main(["denoise", "--in", str(clean), "--out", str(tmp_path / "o.wav"),
              "--config", str(cfg)])
    assert exc.value.code == 2


def test_kind_is_case_insensitive_in_flag_and_config_file(fixture_wavs, tmp_path, capsys):
    clean, _ = fixture_wavs
    cfg = tmp_path / "upper.cfg"
    cfg.write_text("kind=COSH\n")
    base = ["denoise", "--in", str(clean), "--out", str(tmp_path / "o.wav")]
    assert main(base + ["--config", str(cfg)]) == 0
    assert main(base + ["--kind", "WCosh"]) == 0
    out = capsys.readouterr().out
    assert '"kind": "cosh"' in out
    assert '"kind": "wcosh"' in out


@pytest.mark.parametrize("source", ["flag", "config"])
def test_unknown_kind_lists_valid_kinds(fixture_wavs, tmp_path, capsys, source):
    clean, _ = fixture_wavs
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# header\nkind=nope\n")
    extra = ["--kind", "nope"] if source == "flag" else ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(["denoise", "--in", str(clean), "--out", str(tmp_path / "o.wav")] + extra)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown kind 'nope'" in err
    assert ", ".join(k.value for k in ShrinkageKind) in err
    if source == "config":
        assert f"{cfg}:2:" in err


def test_bad_config_value_names_file_and_line(fixture_wavs, tmp_path, capsys):
    clean, _ = fixture_wavs
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kind=mse\nalpha=abc\n")
    with pytest.raises(SystemExit) as exc:
        main(["denoise", "--in", str(clean), "--out", str(tmp_path / "o.wav"),
              "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"{cfg}:2: could not convert string to float: 'abc'" in capsys.readouterr().err


def test_config_file_not_utf8_names_file_and_line(fixture_wavs, tmp_path, capsys):
    clean, _ = fixture_wavs
    cfg = tmp_path / "utf16.cfg"
    cfg.write_bytes("kind=mse\n".encode("utf-16"))  # starts with ff fe
    with pytest.raises(SystemExit) as exc:
        main(["denoise", "--in", str(clean), "--out", str(tmp_path / "o.wav"),
              "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"{cfg}:1: not UTF-8 text" in capsys.readouterr().err


def test_config_file_with_utf8_bom_and_crlf(fixture_wavs, tmp_path, capsys):
    # "UTF-8 with BOM", as Windows Notepad saves it: the mark is skipped
    clean, _ = fixture_wavs
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfframe_ms=32\r\nkind=cosh\r\n")
    rc = main(["denoise", "--in", str(clean), "--out", str(tmp_path / "o.wav"),
               "--config", str(cfg)])
    assert rc == 0
    line = json.loads(capsys.readouterr().out)
    rate = read_wav(clean).sample_rate
    assert line["kind"] == "cosh"
    assert line["frame_len"] == DenoiserConfig(sample_rate=rate, frame_ms=32.0).frame_len


def test_config_file_with_bom_names_the_line_of_a_bad_byte(fixture_wavs, tmp_path, capsys):
    # the bad byte opens line 2, closer to the start than the mark is long
    clean, _ = fixture_wavs
    cfg = tmp_path / "bom_bad.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfkind=mse\r\n\xffalpha=2\r\n")
    with pytest.raises(SystemExit) as exc:
        main(["denoise", "--in", str(clean), "--out", str(tmp_path / "o.wav"),
              "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"{cfg}:2: not UTF-8 text" in capsys.readouterr().err


def test_sample_rate_is_neither_flag_nor_config_key(fixture_wavs, tmp_path):
    # the WAV header sets the rate
    clean, _ = fixture_wavs
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("sample_rate=16000\n")
    base = ["denoise", "--in", str(clean), "--out", str(tmp_path / "o.wav")]
    for extra in (["--sample-rate", "16000"], ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2


def test_every_field_but_sample_rate_is_a_flag_and_a_config_key(tmp_path):
    values = {"frame_ms": "32", "overlap_fraction": "0.5", "kind": "is_ii", "alpha": "1.5",
              "beta": "0.9", "eta": "0.95", "init_noise_frames": "8",
              "vad_threshold": "0.2", "vad_hangover": "3"}
    assert set(values) == {f.name for f in fields(DenoiserConfig)} - {"sample_rate"}
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    flags = [a for k, v in values.items() for a in ("--" + k.replace("_", "-"), v)]
    base = ["denoise", "--in", "a.wav", "--out", "b.wav"]
    for extra in (["--config", str(cfg)], flags):
        config = _build_config(_build_parser().parse_args(base + extra))
        assert config == DenoiserConfig(frame_ms=32.0, overlap_fraction=0.5,
                                        kind=ShrinkageKind.IS_II, alpha=1.5, beta=0.9,
                                        eta=0.95, init_noise_frames=8, vad_threshold=0.2,
                                        vad_hangover=3)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_small_run_passes(capsys):
    rc = main(["verify", "--samples", "20000", "--seed", "2", "--grid-step", "0.001"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 failed" in out
    assert "PASS" in out
    # the whole report, pinned with numpy 2.4.6 on Python 3.11.7, x86-64;
    # verify runs no transform
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "88ff247425afe13f2ce415e38e3d9ac6ef9e1cad2451907f1cb08587162e00a6"
    )


def test_verify_coarse_grid_still_passes(capsys):
    # tolerance scales with the grid step
    rc = main(["verify", "--samples", "20000", "--seed", "2", "--grid-step", "0.1"])
    assert rc == 0


@pytest.mark.parametrize("samples", ["0", "1"])
def test_verify_zero_samples_is_usage_error(samples, capsys):
    # one draw has no standard error, so no tolerance could be formed
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--samples", samples])
    assert exc.value.code == 2
    assert "--samples must be at least 2" in capsys.readouterr().err


def test_verify_too_many_samples_is_usage_error(monkeypatch, capsys):
    # refused before anything is drawn: 1e9 samples would need gigabytes
    import riskshrink.cli as cli_mod

    def never(**kw):
        pytest.fail("verification_suite ran past the --samples limit")

    monkeypatch.setattr(cli_mod.risklab, "verification_suite", never)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--samples", "10000001"])
    assert exc.value.code == 2
    assert "--samples must be at most 10000000" in capsys.readouterr().err


@pytest.mark.parametrize("grid_step", ["9e-7", "0", "0.6", "nan", "-1"])
def test_verify_grid_step_out_of_range_is_usage_error(grid_step, capsys):
    # a step below 1e-6 would make the oracle's grid alone gigabytes long
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--samples", "2", "--grid-step=" + grid_step])
    assert exc.value.code == 2
    assert "--grid-step must be in [1e-06, 0.5]" in capsys.readouterr().err


def test_verify_reports_failure_with_exit_one(monkeypatch, capsys):
    import riskshrink.cli as cli_mod

    monkeypatch.setattr(
        cli_mod.risklab,
        "verification_suite",
        lambda **kw: [CheckResult("forced", 1.0, 0.0, 0.1)],
    )
    rc = main(["verify", "--samples", "10"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------


def _run_module(argv):
    """Run ``python -m riskshrink.cli`` on ``argv`` from this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "riskshrink.cli"] + argv,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def _run_python(code):
    """Run ``python -c code`` with this checkout's package on the path."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_the_cli_needs_no_scipy(tmp_path, voiced_buffer):
    # scipy is a test dependency only: with it blocked, denoise and curves
    # succeed, and a plain import of the CLI loads no scipy module, whose
    # import would be most of every start-up
    noisy = tmp_path / "noisy.wav"
    samples = voiced_buffer.samples[:4000] + generate_white_noise(4000, 0.05, seed=3).samples
    write_wav(noisy, AudioBuffer(samples, voiced_buffer.sample_rate))
    blocked = _run_python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from riskshrink.cli import main\n"
        f"assert main(['denoise', '--in', {str(noisy)!r}, "
        f"'--out', {str(tmp_path / 'out.wav')!r}]) == 0\n"
        "assert main(['curves', '--xi-db-range=0:1:1']) == 0\n"
    )
    assert blocked.returncode == 0, blocked.stderr
    assert (tmp_path / "out.wav").exists()
    fresh = _run_python(
        "import sys, riskshrink.cli\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    assert fresh.returncode == 0, fresh.stderr


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_repeated_verify_does_not_refault_freed_memory():
    # each check row frees arrays of 800 kB; under glibc's default thresholds
    # the next row maps and faults them in again, about 212,000 minor faults
    # per call, while main's allocator policy leaves a few dozen
    result = _run_python(
        "import contextlib, io, resource\n"
        "from riskshrink.cli import main\n"
        "argv = ['verify', '--samples', '100000', '--seed', '0', '--grid-step', '1e-2']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(argv)\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    main(argv)\n"
        "    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "print(after - before)\n"
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 10_000


def test_cli_runs_unchanged_without_mallopt():
    # where the C library cannot be looked up, main runs as before; the lookup
    # is made once per process however often main runs
    argv = ["curves", "--xi-db-range=0:1:1"]
    result = _run_python(
        "import contextlib, ctypes, io\n"
        "from riskshrink.cli import main\n"
        "lookups = []\n"
        "def no_libc(*args, **kwargs):\n"
        "    lookups.append(args)\n"
        "    raise OSError('no C library')\n"
        "ctypes.CDLL = no_libc\n"
        "outs = []\n"
        "for _ in range(3):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"        assert main({argv!r}) == 0\n"
        "    outs.append(out.getvalue())\n"
        "assert len(lookups) == 1, lookups\n"
        "assert outs[0] == outs[1] == outs[2]\n"
        "print(outs[0], end='')\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == _run_module(argv).stdout


@pytest.mark.parametrize(
    "argv, code",
    [
        (["curves", "--xi-db-range=0:1:1"], 0),
        (["denoise", "--in", "{tmp}/ghost.wav", "--out", "{tmp}/o.wav"], 1),
        (["verify", "--samples", "1"], 2),
    ],
    ids=["success", "runtime-error", "usage-error"],
)
def test_module_entry_point_exit_codes(argv, code, tmp_path):
    result = _run_module([a.format(tmp=tmp_path) for a in argv])
    assert result.returncode == code, result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["denoise", "--in", "{bad}", "--out", "{tmp}/o.wav"],
        ["evaluate", "--clean", "{bad}", "--noise", "{bad}", "--out-csv", "{tmp}/o.csv"],
    ],
    ids=["denoise", "evaluate"],
)
def test_chunk_past_the_riff_end_names_the_file(argv, tmp_path):
    bad = tmp_path / "long_fmt.wav"
    write_overlong_fmt_wav(bad)
    result = _run_module([a.format(bad=bad, tmp=tmp_path) for a in argv])
    assert result.returncode == 1
    assert f"error: {bad}: " in result.stderr
    assert "Traceback" not in result.stderr


def test_rate_beyond_the_byte_rate_field_names_the_file(tmp_path):
    # 3e9 Hz makes 0.00001 ms a 30-sample frame; the byte-rate field cannot
    # hold 2 * 3e9, so the file is refused before any output is written
    src, dst = tmp_path / "fast.wav", tmp_path / "o.wav"
    write_pcm16_wav(src, [0, 100, -100, 0] * 1000, 3_000_000_000)
    result = _run_module(
        ["denoise", "--in", str(src), "--out", str(dst), "--frame-ms", "0.00001"]
    )
    assert result.returncode == 1
    assert f"error: {src}: " in result.stderr
    assert "Traceback" not in result.stderr
    assert not dst.exists()
