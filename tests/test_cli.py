"""Command-line interface: exit codes, record round-trips, file formats."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from fblimits import (
    SimConfig,
    asymptotic_limits,
    limits,
    random_codebook,
    simulate_c_spectral,
    solve_x_minus,
    solve_x_plus,
)
from fblimits.cli import RunRecord, build_parser, load_codebook, main, save_codebook


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --version and argparse both raise
            code = exc.code or 0
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# exit codes


def test_version_flag():
    code, out, _ = run(["--version"])
    assert code == 0
    assert "fblimits" in out


def test_no_command_is_usage_error():
    code, _, _ = run([])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    (
        ["asymptotic", "--beta", "-1", "--rate", "1"],
        ["asymptotic", "--beta", "1", "--rate", "0"],
        ["asymptotic", "--beta", "1", "--rate", "1", "--sigma2", "-2"],
        ["sweep", "--beta", "1"],
        ["sweep", "--beta", "1", "--rates", "0.5,-0.3"],
        ["sweep", "--beta", "1", "--rate-min", "0.1", "--rate-max", "1", "--points", "1"],
        ["simulate", "--n", "4", "--m", "4", "--r-fb", "1", "--trials", "5",
         "--method", "spectral", "--codebook", "designed"],
        ["ldp", "--beta", "1", "--x", "1.0", "--sizes", "50"],
        ["ldp", "--beta", "1", "--x", "9.9", "--sizes", "50"],
        ["design", "--n", "0", "--size", "4", "--codebook-out", "x.txt"],
        ["sweep", "--beta", "1", "--rates", "0.5,abc"],
        ["ldp", "--beta", "1", "--x", "0.5", "--sizes", "50,x"],
        ["asymptotic", "--beta", "nan", "--rate", "1"],
        ["asymptotic", "--beta", "1", "--rate", "inf"],
        ["asymptotic", "--beta", "1", "--rate", "1", "--sigma2", "nan"],
        ["sweep", "--beta", "1", "--rates", "nan"],
        ["asymptotic", "--beta", "1", "--rate", "1", "--threads", "0"],
        ["asymptotic", "--beta", "1", "--rate", "1", "--threads", "-5"],
        ["sweep", "--beta", "1", "--rates", "0.5", "--sigma2", "-1"],
        ["simulate", "--n", "4", "--m", "4", "--r-fb", "1", "--trials", "5", "--threads", "0"],
        ["simulate", "--n", "4", "--m", "4", "--r-fb", "1", "--trials", "5", "--threads", "-5"],
        ["simulate", "--n", "4", "--m", "4", "--r-fb", "1", "--trials", "1" + "0" * 400],
        ["simulate", "--n", "4", "--m", "4", "--r-fb", "1", "--trials", "5", "--threads", "2"],
        ["sweep", "--beta", "1", "--rates", ","],
        ["sweep", "--beta", "1", "--rates", "0.5", "--rate-min", "0.1", "--rate-max", "0.3"],
    ),
)
def test_usage_errors_exit_2(argv):
    code, _, _ = run(argv)
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    (
        ["sweep", "--beta", "1"],
        ["sweep", "--beta", "1", "--rate-min", "1", "--rate-max", "0.5"],
        ["simulate", "--n", "4", "--m", "4", "--r-fb", "1", "--method", "cdf",
         "--codebook", "designed"],
        ["ldp", "--beta", "1", "--x", "9"],
        ["simulate", "--n", "4", "--m", "4", "--r-fb", "1", "--trials", "5", "--threads", "2"],
        ["asymptotic", "--beta", "1", "--rate", "1", "--threads", "0"],
    ),
    ids=("sweep-rates", "sweep-rate-order", "simulate-codebook", "ldp-x",
         "simulate-unknown-flag", "asymptotic-unknown-flag"),
)
def test_cross_flag_errors_print_their_subcommand_usage(argv):
    code, _, err = run(argv)
    assert code == 2
    assert err.startswith(f"usage: fblimits {argv[0]} ")


# A cheap valid command line per subcommand, and the first value below each
# typed option's documented range (None: every int is a valid seed).
BASE_ARGV = {
    "asymptotic": ["--beta", "1", "--rate", "1"],
    "sweep": ["--beta", "1", "--rates", "0.5"],
    "simulate": ["--n", "2", "--m", "2", "--r-fb", "1", "--trials", "2"],
    "design": ["--n", "2", "--size", "2", "--iterations", "1", "--codebook-out", "cb.txt"],
    "ldp": ["--beta", "1", "--x", "0.5", "--sizes", "4", "--samples", "100"],
}
BELOW_RANGE = {
    "--beta": "0", "--rate": "0", "--sigma2": "0", "--rate-min": "0", "--rate-max": "0",
    "--x": "0", "--rates": "0", "--sizes": "0", "--n": "0", "--m": "0", "--trials": "0",
    "--size": "0", "--iterations": "0", "--r-fb": "-1",
    "--samples": "1", "--points": "1", "--seed": None,
}
UNTYPED_VALUE_OPTIONS = {"--out", "--codebook-out"}  # file paths


def _subcommand_options():
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    for name, sp in subparsers.choices.items():
        for action in sp._actions:
            if action.option_strings and action.nargs != 0:
                yield name, action


def test_every_typed_option_is_checked_by_argparse(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a value that slips through must not write cb.txt here
    seen, failures = set(), []
    for command, action in _subcommand_options():
        flag = action.option_strings[0]
        if action.type is None:
            # A value argparse does not convert must be a choice or a path.
            assert action.choices is not None or flag in UNTYPED_VALUE_OPTIONS, flag
            continue
        assert flag in BELOW_RANGE, f"{command} {flag} has no documented range here"
        seen.add(flag)
        bad = ["nan", "inf", "abc"] + ([] if flag == "--seed" else ["-1", BELOW_RANGE[flag]])
        for value in bad:
            code, _, err = run([command, *BASE_ARGV[command], flag, value])
            if code != 2 or f"argument {flag}" not in err:
                failures.append((command, flag, value, code))
    assert seen == set(BELOW_RANGE)
    assert not failures, failures


RECORD_PARAMS = {
    "asymptotic": {"beta", "rate", "sigma2"},
    "sweep": {"beta", "mode", "points", "rate_max", "rate_min", "rates", "sigma2"},
    "simulate": {"codebook", "m", "method", "mode", "n", "r_fb", "samples", "seed", "trials"},
    "design": {"codebook_out", "iterations", "n", "seed", "size"},
    "ldp": {"beta", "samples", "seed", "sizes", "x"},
}


@pytest.mark.parametrize("command", sorted(RECORD_PARAMS))
def test_record_params_are_the_subcommand_flags(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run([command, *BASE_ARGV[command]])
    assert code == 0
    assert set(RunRecord.from_json(out).params) == RECORD_PARAMS[command]


def test_unwritable_output_exits_3(tmp_path):
    target = str(tmp_path / "missing" / "deep" / "out.json")
    for argv in (["asymptotic", "--beta", "1", "--rate", "1", "--out", target],
                 ["design", "--n", "2", "--size", "2", "--iterations", "5",
                  "--codebook-out", target]):
        code, _, err = run(argv)
        assert code == 3
        assert err


def test_a_failed_write_to_stdout_exits_3(monkeypatch):
    class BrokenPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["asymptotic", "--beta", "1", "--rate", "1"]) == 3
    assert "Broken pipe" in err.getvalue()


def test_numeric_error_exits_4():
    # A valid command line whose computation fails: a one-eigenvalue spectrum
    # never brackets the level, so the tilted estimator raises ReliabilityError;
    # a subnormal level has no finite tilt interval, so RateContext refuses it.
    for x, sizes in (("0.5", "1"), ("5e-324", "4")):
        code, _, err = run(["ldp", "--beta", "1", "--x", x, "--sizes", sizes])
        assert code == 4
        assert "error" in err.lower()


def test_a_level_the_quadrature_cannot_take_exits_4_with_one_line():
    # At beta = 1, r = 1022 the lower level is subnormal: its tilt overflows the
    # quadrature's integrand.  A fresh interpreter shows what a user sees on stderr.
    src = str(pathlib.Path(limits.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "fblimits.cli", "sweep", "--beta", "1", "--rates", "1022", "--mode", "min"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 4
    assert re.fullmatch(r"error: at beta=1\.0, r=1022\.0: minus level: integrand returned .*\n", proc.stderr)
    assert "Warning" not in proc.stderr


def test_budget_refusal_exits_5():
    code, _, err = run(["simulate", "--n", "8", "--m", "8", "--r-fb", "50",
                        "--trials", "100", "--method", "direct"])
    assert code == 5
    assert "budget" in err.lower() or "cdf" in err.lower()


@pytest.mark.parametrize("exc, says", [
    (MemoryError("Unable to allocate 74.5 GiB for an array"), "Unable to allocate 74.5 GiB for an array"),
    (MemoryError(), "out of memory"),
])
def test_a_refused_allocation_exits_5(exc, says, monkeypatch):
    # Raised, not allocated: a machine that overcommits would try to fill the array.
    def refuse(*args):
        raise exc

    monkeypatch.setattr("fblimits.cli.ldp_rate_estimate", refuse)
    code, out, err = run(["ldp", "--beta", "1", "--x", "0.5", "--sizes", "100000"])
    assert (code, out) == (5, "")
    assert err == f"error: {says}\n"


@pytest.mark.parametrize("method", ("spectral", "direct"))
def test_codewords_over_the_array_cap_are_refused(method):
    # 2^30 codewords x n=1 x 3 trials passes the element-op budget, but one
    # trial's codeword array alone would hold 2^30 entries.
    code, _, err = run(["simulate", "--n", "1", "--m", "1", "--r-fb", "30", "--trials", "3",
                        "--method", method])
    assert code == 5
    assert "cap" in err


def test_design_gram_over_the_array_cap_is_refused(tmp_path):
    # 8 restarts x 100000^2 codeword pairs would be a 1.16 TiB Gram.
    out = tmp_path / "codebook.txt"
    code, _, err = run(["design", "--n", "1", "--size", "100000", "--iterations", "1",
                        "--codebook-out", str(out)])
    assert code == 5
    assert "cap" in err
    assert not out.exists()


def test_cdf_route_takes_feedback_deeper_than_enumeration():
    code, out, _ = run(["simulate", "--method", "cdf", "--n", "100", "--m", "50",
                        "--r-fb", "100", "--trials", "2", "--samples", "2000",
                        "--format", "json"])
    assert code == 0
    assert math.isfinite(RunRecord.from_json(out).payload["mean"])
    for extra in ([], ["--codebook", "designed"]):
        code, _, err = run(["simulate", "--method", "direct", "--n", "8", "--m", "8",
                            "--r-fb", "63", *extra])
        assert code == 5
        assert "cdf" in err.lower()


# ---------------------------------------------------------------------------
# asymptotic command


def test_asymptotic_json_payload():
    code, out, _ = run(["asymptotic", "--beta", "1", "--rate", "1", "--format", "json"])
    assert code == 0
    rec = RunRecord.from_json(out)
    assert rec.command == "asymptotic"
    # Deterministic: no seed, and no thread count to record.
    assert rec.seed is None
    assert "seed" not in rec.params and "threads" not in rec.params
    p = rec.payload
    assert p["x_minus"] == pytest.approx(0.23196095298653446, abs=1e-9)
    assert p["x_plus"] == pytest.approx(4.0 - math.e / 2.0, abs=1e-9)
    assert p["c_min"] == p["x_minus"]  # beta = 1: c = x
    assert p["r_min"] is None
    assert p["r_max"] == pytest.approx(1.0 / math.log(2.0) - 1.0, abs=1e-12)
    assert p["branch_plus"] == "explicit"


def test_asymptotic_solves_a_deep_fixed_point():
    # beta r log 2 ~ 64: the lower level is ~1e-28, past where the fixed
    # point's bracket once lost its sign to rounding.
    code, out, _ = run(["asymptotic", "--beta", "5.095978550731885",
                        "--rate", "18.105209876548013"])
    assert code == 0
    assert RunRecord.from_json(out).payload["branch_minus"] == "fixed_point"


def test_asymptotic_solves_a_deep_explicit_level():
    # At r = 28 one ulp of x_plus moves the rate by ~1e-7, past a fixed 1e-8.
    code, out, _ = run(["asymptotic", "--beta", "1", "--rate", "28"])
    assert code == 0
    assert RunRecord.from_json(out).payload["branch_plus"] == "explicit"


def test_asymptotic_throughput_fields_appear_with_sigma2():
    _, plain, _ = run(["asymptotic", "--beta", "1", "--rate", "1", "--format", "json"])
    _, noisy, _ = run(["asymptotic", "--beta", "1", "--rate", "1",
                       "--sigma2", "1.0", "--format", "json"])
    assert "throughput_cdma_min" not in RunRecord.from_json(plain).payload
    p = RunRecord.from_json(noisy).payload
    assert p["throughput_mimo_max"] == pytest.approx(math.log(1.0 + p["c_max"]), rel=1e-12)
    assert p["throughput_cdma_min"] > 0.0


def test_asymptotic_json_round_trip_lossless():
    _, out, _ = run(["asymptotic", "--beta", "0.5", "--rate", "0.7", "--format", "json"])
    rec = RunRecord.from_json(out)
    again = RunRecord.from_json(rec.to_json())
    assert again == rec


def test_asymptotic_csv_round_trip_lossless():
    _, out, _ = run(["asymptotic", "--beta", "2", "--rate", "0.3", "--format", "csv"])
    rec = RunRecord.from_csv(out)
    assert rec.command == "asymptotic"
    again = RunRecord.from_csv(rec.to_csv())
    assert again == rec
    assert rec.payload["x_minus"] == pytest.approx(
        RunRecord.from_json(run(["asymptotic", "--beta", "2", "--rate", "0.3",
                                 "--format", "json"])[1]).payload["x_minus"],
        abs=1e-15,
    )


def test_out_file_replaces_stdout(tmp_path):
    target = tmp_path / "rec.json"
    code, out, _ = run(["asymptotic", "--beta", "1", "--rate", "1",
                        "--format", "json", "--out", str(target)])
    assert code == 0
    assert out == ""
    disk = RunRecord.from_json(target.read_text())
    _, direct, _ = run(["asymptotic", "--beta", "1", "--rate", "1", "--format", "json"])
    assert disk.payload == RunRecord.from_json(direct).payload


def test_csv_cells_round_trip_unchanged():
    cells = {"a": "1e3", "b": "true", "c": "", "d": "nan", "e": None, "f": "1,2"}
    for payload in (cells, {"rows": [cells, dict(cells, a=0.1)]}):
        rec = RunRecord(command="x", params={}, seed=None, version="0", duration_s=0.5,
                        payload=payload)
        assert RunRecord.from_csv(rec.to_csv()) == rec


def test_csv_empty_payloads_round_trip():
    for payload in ({"rows": []}, {}):
        rec = RunRecord("x", {}, None, "0", 0.0, payload)
        assert RunRecord.from_csv(rec.to_csv()) == rec
    with pytest.raises(ValueError, match="missing provenance line"):
        RunRecord.from_csv("key,value\n")


@pytest.mark.parametrize("command", sorted(BASE_ARGV))
def test_csv_record_reads_back_as_the_json_record(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [command, *BASE_ARGV[command]]
    if command == "design":
        argv[argv.index("cb.txt")] = "1e3"  # a path that reads as a number
    records = []
    for fmt, read in (("json", RunRecord.from_json), ("csv", RunRecord.from_csv)):
        code, out, _ = run([*argv, "--format", fmt])
        assert code == 0
        records.append(read(out))
    as_json, as_csv = records
    assert (as_csv.params, as_csv.payload) == (as_json.params, as_json.payload)


# ---------------------------------------------------------------------------
# sweep command


def test_sweep_explicit_rates_and_monotone_columns():
    code, out, _ = run(["sweep", "--beta", "0.5",
                        "--rates", "0.1,0.2,0.4,0.8", "--format", "json"])
    assert code == 0
    rows = RunRecord.from_json(out).payload["rows"]
    assert [row["r"] for row in rows] == [0.1, 0.2, 0.4, 0.8]
    mins = [row["c_min"] for row in rows]
    maxs = [row["c_max"] for row in rows]
    assert all(a > b for a, b in zip(mins, mins[1:]))
    assert all(a < b for a, b in zip(maxs, maxs[1:]))


def test_sweep_branch_flips_once_at_threshold():
    # r_max(0.5) ~ 0.4972: the upper solution leaves the edge branch there.
    _, out, _ = run(["sweep", "--beta", "0.5", "--rates", "0.4,0.497,0.6",
                     "--format", "json"])
    rows = RunRecord.from_json(out).payload["rows"]
    branches = [row["branch_plus"] for row in rows]
    assert branches == ["fixed_point", "fixed_point", "explicit"]


def test_sweep_linspace_spec():
    _, out, _ = run(["sweep", "--beta", "1", "--rate-min", "0.2",
                     "--rate-max", "1.0", "--points", "5", "--format", "json"])
    rows = RunRecord.from_json(out).payload["rows"]
    assert [row["r"] for row in rows] == pytest.approx(list(np.linspace(0.2, 1.0, 5)))


def test_sweep_mode_drops_other_side():
    lower, upper = {"x_minus", "c_min"}, {"x_plus", "c_max"}
    for mode, kept, dropped in (("min", lower, upper), ("max", upper, lower)):
        _, out, _ = run(["sweep", "--beta", "1", "--rates", "0.5", "--mode", mode,
                         "--format", "json"])
        row = RunRecord.from_json(out).payload["rows"][0]
        assert kept <= row.keys() and not dropped & row.keys()


def test_sweep_csv_round_trip():
    _, out, _ = run(["sweep", "--beta", "2", "--rates", "0.1,0.3", "--format", "csv"])
    rec = RunRecord.from_csv(out)
    assert len(rec.payload["rows"]) == 2
    assert RunRecord.from_csv(rec.to_csv()) == rec
    # r_min is None at beta >= 1 and must read back as None, not as a string
    assert rec.payload["rows"][0]["r_min"] is None


SWEEP_HEADERS = {
    ("min", None): "beta,r,x_minus,c_min,r_min,r_max,branch_minus",
    ("min", "0.1"): "beta,r,x_minus,c_min,r_min,r_max,branch_minus,throughput_cdma_min",
    ("max", None): "beta,r,x_plus,c_max,r_min,r_max,branch_plus",
    ("max", "0.1"): "beta,r,x_plus,c_max,r_min,r_max,branch_plus,throughput_mimo_max",
    ("both", None): "beta,r,x_minus,x_plus,c_min,c_max,r_min,r_max,branch_minus,branch_plus",
    ("both", "0.1"): "beta,r,x_minus,x_plus,c_min,c_max,r_min,r_max,branch_minus,branch_plus,"
                     "throughput_cdma_min,throughput_mimo_max",
}


@pytest.mark.parametrize("mode, sigma2", SWEEP_HEADERS)
def test_sweep_csv_header_keeps_its_column_order(mode, sigma2):
    argv = ["sweep", "--beta", "1", "--rates", "0.5", "--mode", mode, "--format", "csv"]
    code, out, _ = run(argv + (["--sigma2", sigma2] if sigma2 else []))
    assert code == 0
    assert out.splitlines()[1] == SWEEP_HEADERS[mode, sigma2]


def test_one_sided_commands_report_the_fields_of_asymptotic_limits():
    res = asymptotic_limits(2.0, 0.5)
    for mode, side, c in (("min", "minus", res.c_min_limit), ("max", "plus", res.c_max_limit)):
        _, out, _ = run(["sweep", "--beta", "2", "--rates", "0.5", "--mode", mode])
        (row,) = RunRecord.from_json(out).payload["rows"]
        assert (row[f"x_{side}"], row[f"c_{mode}"], row[f"branch_{side}"]) == (
            getattr(res, f"x_{side}"), c, getattr(res, f"branch_{side}"))
        assert (row["r_min"], row["r_max"]) == (res.r_min, res.r_max)
        _, out, _ = run(["simulate", "--n", "4", "--m", "2", "--r-fb", "2", "--trials", "3",
                         "--method", "spectral", "--mode", mode])
        assert RunRecord.from_json(out).payload["limit"] == c


def test_one_sided_commands_solve_only_the_side_they_report():
    # At beta = 1, r = 60 the upper level rounds onto lambda_+ = 4; at
    # beta = 50, r = 22 the lower level underflows to 0.  Neither side that
    # a command drops can fail it.
    code, out, _ = run(["sweep", "--beta", "1", "--rates", "60", "--mode", "min"])
    assert code == 0
    (row,) = RunRecord.from_json(out).payload["rows"]
    assert (row["x_minus"], row["branch_minus"]) == solve_x_minus(1.0, 60.0)
    code, _, err = run(["sweep", "--beta", "1", "--rates", "60", "--mode", "max"])
    assert code == 4 and "x=4.0" in err
    code, out, _ = run(["simulate", "--n", "50", "--m", "1", "--r-fb", "1100", "--method", "cdf",
                        "--mode", "max", "--trials", "1", "--samples", "2000"])
    assert code == 0
    assert RunRecord.from_json(out).payload["limit"] == solve_x_plus(50.0, 22.0)[0] / 50.0


@pytest.mark.parametrize("argv, where", (
    # The upper level rounds onto lambda_+ = 4 at the second rate only.
    (["sweep", "--beta", "1", "--rates", "0.5,60", "--mode", "max"], "beta=1.0, r=60.0: plus"),
    # The lower level underflows to the atom at 0, or rounds onto lambda_- = 0.81.
    (["asymptotic", "--beta", "50", "--rate", "22"], "beta=50.0, r=22.0: minus"),
    (["asymptotic", "--beta", "0.01", "--rate", "5000"], "beta=0.01, r=5000.0: minus"),
))
def test_a_level_a_double_cannot_hold_names_beta_rate_and_side(argv, where):
    code, _, err = run(argv)
    assert code == 4
    assert where in err and "must lie strictly inside" in err


def test_a_moved_upper_level_fails_only_the_commands_that_report_it(monkeypatch):
    solve = limits.solve_x_plus
    monkeypatch.setattr(limits, "solve_x_plus",
                        lambda beta, r: (solve(beta, r)[0] * (1.0 + 1e-7), "moved"))
    for mode, code in (("min", 0), ("max", 4), ("both", 4)):
        got, _, err = run(["sweep", "--beta", "1", "--rates", "1", "--mode", mode])
        assert got == code
        assert ("residuals too large" in err and "plus" in err) == (code == 4)


# ---------------------------------------------------------------------------
# simulate command


def test_simulate_payload_and_determinism():
    argv = ["simulate", "--n", "4", "--m", "4", "--r-fb", "2", "--trials", "50",
            "--method", "direct", "--mode", "min", "--seed", "3", "--format", "json"]
    code, out, _ = run(argv)
    assert code == 0
    p = RunRecord.from_json(out).payload
    assert set(p) >= {"mean", "stderr", "limit", "gap", "rel_gap", "trials", "beta", "r"}
    assert p["beta"] == 1.0
    assert p["r"] == 0.5  # r_fb / n
    assert p["gap"] == pytest.approx(abs(p["mean"] - p["limit"]), rel=1e-12)
    _, out2, _ = run(argv)
    assert RunRecord.from_json(out2).payload == p


def test_simulate_at_zero_feedback_compares_against_the_mean():
    # One codeword: every estimator returns its mean, and the limit is m/n.
    code, out, _ = run(["simulate", "--n", "4", "--m", "2", "--r-fb", "0", "--trials", "3",
                        "--method", "spectral", "--format", "json"])
    assert code == 0
    p = RunRecord.from_json(out).payload
    assert p["r"] == 0.0
    assert p["limit"] == 0.5


def test_simulate_spectral_reports_the_estimator_exactly():
    code, out, _ = run(["simulate", "--n", "4", "--m", "8", "--r-fb", "3", "--trials", "40",
                        "--method", "spectral", "--mode", "max", "--seed", "5",
                        "--format", "json"])
    assert code == 0
    p = RunRecord.from_json(out).payload
    est = simulate_c_spectral(SimConfig(n=4, m=8, r_fb=3, trials=40, seed=5, mode="max"))
    assert (p["mean"], p["stderr"]) == (est.mean, est.stderr)


def test_simulate_designed_codebook_reports_geometry():
    code, out, _ = run(["simulate", "--n", "2", "--m", "2", "--r-fb", "1",
                        "--trials", "30", "--method", "direct",
                        "--codebook", "designed", "--format", "json"])
    assert code == 0
    p = RunRecord.from_json(out).payload
    assert p["codebook_min_chordal"] == pytest.approx(1.0, abs=1e-6)


def test_simulate_checks_its_limit_before_the_trial(monkeypatch):
    # beta = 50, r = 22: the lower level x_r^- underflows to 0, so no trial runs.
    called = []
    monkeypatch.setattr("fblimits.cli.simulate_c_cdf", lambda *args, **kw: called.append(args))
    code, out, err = run(["simulate", "--n", "50", "--m", "1", "--r-fb", "1100",
                          "--method", "cdf", "--mode", "min", "--trials", "1"])
    assert (code, out, called) == (4, "", [])
    assert "x=0.0" in err


# ---------------------------------------------------------------------------
# ldp command


def test_ldp_rows_report_relative_error():
    code, out, _ = run(["ldp", "--beta", "1", "--x", "0.5", "--sizes", "50,100",
                        "--samples", "4000", "--seed", "1", "--format", "json"])
    assert code == 0
    rows = RunRecord.from_json(out).payload["rows"]
    assert [row["n"] for row in rows] == [50, 100]
    for row in rows:
        assert row["rate_limit"] == pytest.approx(0.1931471805599453, abs=1e-12)
        assert row["rel_err"] == pytest.approx(
            abs(row["rate_estimate"] - row["rate_limit"]) / row["rate_limit"], rel=1e-12
        )


# ---------------------------------------------------------------------------
# design command and codebook files


def test_design_writes_codebook_and_reports_baseline(tmp_path):
    cb_path = tmp_path / "cb.txt"
    code, out, _ = run(["design", "--n", "2", "--size", "3", "--iterations", "80",
                        "--codebook-out", str(cb_path), "--format", "json"])
    assert code == 0
    p = RunRecord.from_json(out).payload
    assert p["min_chordal"] >= 0.86
    assert p["min_chordal"] > p["min_chordal_random"]
    cb = load_codebook(str(cb_path))
    assert cb.size == 3 and cb.n == 2


def test_design_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["design", "--n", "3", "--size", "4", "--iterations", "60", "--seed", "2"]
    run(argv + ["--codebook-out", str(a)])
    run(argv + ["--codebook-out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_codebook_save_load_save_round_trip(tmp_path):
    cb = random_codebook(5, 7, seed=4)
    first, second = tmp_path / "1.txt", tmp_path / "2.txt"
    save_codebook(cb, str(first))
    loaded = load_codebook(str(first))
    assert np.array_equal(loaded.vectors, cb.vectors)
    assert loaded.kind == cb.kind and loaded.seed == cb.seed
    save_codebook(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()


def test_saved_codebook_rows_hold_the_complex128_values(tmp_path):
    # A complex64 codebook is widened before its rows are split into re, im.
    cb = random_codebook(3, 4, seed=2)
    narrow = dataclasses.replace(cb, vectors=cb.vectors.astype(np.complex64)[:, ::-1])
    path = tmp_path / "narrow.txt"
    save_codebook(narrow, str(path))
    rows = np.loadtxt(path, comments="#")
    assert np.array_equal(rows[:, 0::2] + 1j * rows[:, 1::2], narrow.vectors.astype(np.complex128))


def test_codebook_loader_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a codebook\n")
    with pytest.raises(ValueError):
        load_codebook(str(bad))
    good = tmp_path / "good.txt"
    save_codebook(random_codebook(2, 2, seed=0), str(good))
    magic, header, row0, row1 = good.read_text().splitlines()
    unnormed = " ".join(str(2.0 * float(t)) for t in row0.split())
    for lines, match in (
        ([magic, "# n=2 size=two kind=random seed=0", row0, row1], "malformed codebook header"),
        ([magic], "malformed codebook header"),
        ([magic, "# n=2 size=0 kind=random seed=0"], "malformed codebook header"),
        ([magic, "# n=0 size=1 kind=random seed=0", ""], "malformed codebook header"),
        ([magic, header, row0], "expected 2 codewords, found 1"),
        ([magic, header, row0 + " 0.0", row1 + " 0.0"], "expected 4 floats per row"),
        ([magic, header, row0, row1 + " 0.0"], "expected 4 floats per row"),
        ([magic, header, unnormed, row1], "not unit norm"),
        ([magic, "# n=1 size=1 kind=random seed=0", "nan 0"], "not unit norm"),
    ):
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=match):
            load_codebook(str(bad))


def test_a_codebook_header_count_is_read_by_the_integer_rule(tmp_path):
    path = tmp_path / "cb.txt"
    path.write_text("# fblimits codebook v1\n# n=2 size=0 kind=random seed=0\n")
    with pytest.raises(ValueError, match="malformed codebook header") as exc:
        load_codebook(str(path))
    assert str(exc.value.__cause__) == "size must be >= 1, got 0"


def test_codebook_preserves_metadata_through_file(tmp_path):
    cb_path = tmp_path / "cb.txt"
    run(["design", "--n", "4", "--size", "4", "--iterations", "60", "--seed", "6",
         "--codebook-out", str(cb_path)])
    cb = load_codebook(str(cb_path))
    assert cb.kind == "designed"
    assert cb.seed == 6
    assert cb.min_chordal is not None
    assert np.abs(np.linalg.norm(cb.vectors, axis=1) - 1.0).max() <= 1e-9


# ---------------------------------------------------------------------------
# README examples

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_limit_examples_run(tmp_path, monkeypatch):
    # Every command line the README shows runs as written, in about 3 s;
    # design writes its codebook file into the test's own directory.
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    argvs = [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
             if line.startswith("fblimits ")]
    assert len(argvs) >= 11
    assert {argv[0] for argv in argvs} == {"asymptotic", "sweep", "simulate", "design", "ldp"}
    for argv in argvs:
        assert run(argv)[0] == 0, argv
