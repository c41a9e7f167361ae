"""Command-line interface: exit codes, record round-trips, file formats."""

import argparse
import contextlib
import io
import json
import math

import numpy as np
import pytest

from fblimits import SimConfig, random_codebook, simulate_c_spectral
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


def test_numeric_error_exits_4():
    # A valid command line whose computation fails: a one-eigenvalue spectrum
    # never brackets the level, so the tilted estimator raises ReliabilityError.
    code, _, err = run(["ldp", "--beta", "1", "--x", "0.5", "--sizes", "1"])
    assert code == 4
    assert "error" in err.lower()


def test_budget_refusal_exits_5():
    code, _, err = run(["simulate", "--n", "8", "--m", "8", "--r-fb", "50",
                        "--trials", "100", "--method", "direct"])
    assert code == 5
    assert "budget" in err.lower() or "cdf" in err.lower()


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
    # r_min is None at beta >= 1 and must survive the empty-cell encoding
    assert rec.payload["rows"][0]["r_min"] is None


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
    ):
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=match):
            load_codebook(str(bad))


def test_codebook_preserves_metadata_through_file(tmp_path):
    cb_path = tmp_path / "cb.txt"
    run(["design", "--n", "4", "--size", "4", "--iterations", "60", "--seed", "6",
         "--codebook-out", str(cb_path)])
    cb = load_codebook(str(cb_path))
    assert cb.kind == "designed"
    assert cb.seed == 6
    assert cb.min_chordal is not None
    assert np.abs(np.linalg.norm(cb.vectors, axis=1) - 1.0).max() <= 1e-9
