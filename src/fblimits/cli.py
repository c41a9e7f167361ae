"""Command line front end.

Every subcommand emits a single run record carrying the command name, every
parameter of the subcommand (defaults included), the seed (null for the
deterministic asymptotic and sweep), the package version, and the wall
time, so a result file is reproducible on its own.  Records serialize to
JSON (default) or CSV; CSV keeps the provenance in a leading comment line,
and each payload cell is a JSON scalar (strings quoted, None as null,
floats by repr), so a record reads back exactly.

Exit codes: 0 success; 2 the command line was refused before any
computation, by a flag's argparse type (which checks that flag's range) or
by a check across two flags; 3 I/O failure; 4 the computation ran and hit a
numeric or consistency failure; 5 compute-budget refusal, or an
allocation the machine refused.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .spectra import EigenSolverError, QuadratureError, _integer
from .ratefn import ConsistencyError, RateContext, rate_zero
from .limits import _checked_level, thresholds, throughput
from .montecarlo import (
    BudgetError,
    Codebook,
    ReliabilityError,
    SimConfig,
    _check_budget,
    _ldp_law,
    design_codebook,
    ldp_rate_estimate,
    random_codebook,
    simulate_c_cdf,
    simulate_c_direct,
    simulate_c_spectral,
)

_CODEBOOK_MAGIC = "# fblimits codebook v1"


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """Self-describing result of one CLI invocation."""

    command: str
    params: dict
    seed: int | None
    version: str
    duration_s: float
    payload: dict

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "RunRecord":
        data = json.loads(text)
        return RunRecord(**data)

    def to_csv(self) -> str:
        head = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name != "payload"}
        buf = io.StringIO()
        buf.write("# fblimits-record " + json.dumps(head, sort_keys=True) + "\n")
        rows = self.payload.get("rows")
        if rows is not None:
            cols = list(rows[0].keys()) if rows else []
            buf.write(",".join(cols) + "\n")
            for row in rows:
                buf.write(",".join(json.dumps(row[c]) for c in cols) + "\n")
        else:
            buf.write("key,value\n")
            for key, val in self.payload.items():
                buf.write(f"{key},{json.dumps(val)}\n")
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "RunRecord":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("# fblimits-record "):
            raise ValueError("not a run-record CSV: missing provenance line")
        head = json.loads(lines[0][len("# fblimits-record "):])
        if len(lines) == 1:  # an empty rows list writes a blank header line
            return RunRecord(payload={"rows": []}, **head)
        header = lines[1].split(",")
        if header == ["key", "value"]:
            payload = {}
            for ln in lines[2:]:
                key, _, val = ln.partition(",")
                payload[key] = json.loads(val)
        else:
            # A JSON string keeps its commas inside quotes, so one row reads as one array.
            payload = {"rows": [dict(zip(header, json.loads(f"[{ln}]"))) for ln in lines[2:]]}
        return RunRecord(payload=payload, **head)


# ---------------------------------------------------------------------------
# codebook files


def save_codebook(codebook: Codebook, path: str) -> None:
    """Text format: two comment lines, then one row of 2n floats per word."""
    mc = "none" if codebook.min_chordal is None else f"{codebook.min_chordal:.17g}"
    lines = [
        _CODEBOOK_MAGIC,
        f"# n={codebook.n} size={codebook.size} kind={codebook.kind} "
        f"seed={codebook.seed} min_chordal={mc}",
    ]
    # A complex128 row viewed as floats is already re im re im ...
    rows = np.ascontiguousarray(codebook.vectors, dtype=np.complex128).view(np.float64)
    lines += [" ".join(f"{v:.17g}" for v in row) for row in rows.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_codebook(path: str) -> Codebook:
    """Read a file written by save_codebook; its min_chordal field is not read."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0] != _CODEBOOK_MAGIC:
        raise ValueError(f"{path}: not a codebook file")
    try:
        meta = dict(tok.split("=", 1) for tok in raw[1].lstrip("# ").split())
        n, size = _integer("n", int(meta["n"]), 1), _integer("size", int(meta["size"]), 1)
        seed, kind = int(meta["seed"]), meta["kind"]
    except (IndexError, KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed codebook header") from exc
    data = [ln.split() for ln in raw[2:] if ln.strip()]
    if len(data) != size:
        raise ValueError(f"{path}: expected {size} codewords, found {len(data)}")
    if any(len(row) != 2 * n for row in data):
        raise ValueError(f"{path}: expected {2 * n} floats per row")
    flat = np.array([[float(t) for t in row] for row in data], dtype=float)
    vectors = flat[:, 0::2] + 1j * flat[:, 1::2]
    if not np.abs(np.linalg.norm(vectors, axis=1) - 1.0).max() <= 1e-9:  # a NaN norm fails too
        raise ValueError(f"{path}: codewords are not unit norm")
    return Codebook(n=n, vectors=vectors, kind=kind, seed=seed)


# ---------------------------------------------------------------------------
# subcommands


# Every limits row keeps this column order, whichever sides it reports.
_COLUMNS = ("beta", "r", "x_minus", "x_plus", "c_min", "c_max", "r_min", "r_max", "branch_minus",
            "branch_plus", "throughput_cdma_min", "throughput_mimo_max")


def _limit_fields(beta: float, rate: float, sigma2: float | None, mode: str = "both") -> dict:
    """One row of limits; a one-sided mode solves and checks only its side."""
    r_min, r_max = thresholds(beta)
    fields = {"beta": beta, "r": rate, "r_min": r_min, "r_max": r_max}
    for m, s, t in (("min", "minus", "cdma_min"), ("max", "plus", "mimo_max")):
        if mode in (m, "both"):
            x, branch = _checked_level(beta, rate, s)
            fields.update({f"x_{s}": x, f"c_{m}": x / beta, f"branch_{s}": branch})
            if sigma2 is not None:
                fields[f"throughput_{t}"] = throughput(x / beta, sigma2, t)
    return {k: fields[k] for k in _COLUMNS if k in fields}


def _cmd_asymptotic(args, parser: argparse.ArgumentParser) -> dict:
    return _limit_fields(args.beta, args.rate, args.sigma2)


def _cmd_sweep(args, parser: argparse.ArgumentParser) -> dict:
    ranged = (args.rate_min, args.rate_max)
    if args.rates is not None and ranged == (None, None):
        rates = args.rates
    elif args.rates is None and None not in ranged:
        if not args.rate_min < args.rate_max:
            parser.error("--rate-min must be below --rate-max")
        rates = [float(r) for r in np.linspace(args.rate_min, args.rate_max, args.points)]
    else:
        parser.error("give either --rates or both --rate-min and --rate-max")
    return {"rows": [_limit_fields(args.beta, r, args.sigma2, args.mode) for r in rates]}


def _cmd_simulate(args, parser: argparse.ArgumentParser) -> dict:
    if args.codebook != "random" and args.method != "direct":
        parser.error("--codebook designed applies only to --method direct")
    cfg = SimConfig(
        n=args.n,
        m=args.m,
        r_fb=args.r_fb,
        trials=args.trials,
        seed=args.seed,
        mode=args.mode,
    )
    beta = cfg.n / cfg.m
    rate = cfg.r_fb / cfg.n
    # The limit is cheap and can fail; check it before any trial runs.
    limit = _limit_fields(beta, rate, None, cfg.mode)[f"c_{cfg.mode}"]
    codebook = None
    if args.codebook == "designed":
        # The budget is checked before 2^r_fb codewords are designed.
        codebook = design_codebook(cfg.n, _check_budget(cfg)[0], cfg.seed)
    if args.method == "direct":
        est = simulate_c_direct(cfg, codebook=codebook)
    elif args.method == "spectral":
        est = simulate_c_spectral(cfg)
    else:
        est = simulate_c_cdf(cfg, samples=args.samples)
    payload = {
        "mean": est.mean,
        "stderr": est.stderr,
        "trials": est.samples,
        "beta": beta,
        "r": rate,
        "limit": limit,
        "gap": est.mean - limit,
        "rel_gap": (est.mean - limit) / limit if limit != 0.0 else None,
    }
    if codebook is not None:
        payload["codebook_min_chordal"] = codebook.min_chordal
    return payload


def _cmd_design(args, parser: argparse.ArgumentParser) -> dict:
    codebook = design_codebook(args.n, args.size, args.seed, iterations=args.iterations)
    baseline = random_codebook(args.n, args.size, args.seed)
    save_codebook(codebook, args.codebook_out)
    return {
        "n": args.n,
        "size": args.size,
        "iterations": args.iterations,
        "min_chordal": codebook.min_chordal,
        "min_chordal_random": baseline.min_chordal,
        "codebook_path": args.codebook_out,
    }


def _cmd_ldp(args, parser: argparse.ArgumentParser) -> dict:
    try:
        law = _ldp_law(args.beta, args.x)
    except ValueError as exc:
        parser.error(str(exc))
    limit = rate_zero(RateContext(law=law, x=args.x)).value
    pairs = ldp_rate_estimate(args.beta, args.x, args.sizes, args.samples, args.seed)
    rows = []
    for n, rate in pairs:
        rel = abs(rate - limit) / limit if limit > 0.0 else None
        rows.append({"n": n, "rate_estimate": rate, "rate_limit": limit, "rel_err": rel})
    return {"rows": rows}


def _number(kind: type, low: float, strict: bool = False):
    """argparse type: a finite `kind` that is >= low, or > low when strict."""
    bound = f"a finite number {'>' if strict else '>='} {low:g}"

    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError as "invalid <kind> value"
        # float(text) reads an int beyond float range as inf rather than overflowing.
        if not (math.isfinite(float(text)) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _comma_list(item):
    """argparse type: a non-empty comma-separated list, each entry checked by `item`."""

    def parse(text: str) -> list:
        values = [item(tok) for tok in text.split(",") if tok.strip()]
        if not values:
            raise argparse.ArgumentTypeError("must list at least one value")
        return values

    parse.__name__ = f"comma-separated {item.__name__}"
    return parse


_POSITIVE = _number(float, 0.0, strict=True)
_COUNT = _number(int, 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fblimits",
        description="Asymptotic limits of finite-rate-feedback codebook selection.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=summary)
        # Leftover arguments and checks across two flags then print this
        # subcommand's usage line.
        sp.set_defaults(run=handler, parser=sp)
        return sp

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", help="write the run record here instead of stdout")

    sp = command("asymptotic", _cmd_asymptotic, "limits of c_min and c_max at one (beta, rate)")
    sp.add_argument("--beta", type=_POSITIVE, required=True)
    sp.add_argument("--rate", type=_POSITIVE, required=True)
    sp.add_argument("--sigma2", type=_POSITIVE, help="noise power for throughput columns")
    common(sp)

    sp = command("sweep", _cmd_sweep, "limits over a list of normalized feedback rates")
    sp.add_argument("--beta", type=_POSITIVE, required=True)
    sp.add_argument("--rates", type=_comma_list(_POSITIVE), help="comma-separated rate values")
    sp.add_argument("--rate-min", type=_POSITIVE, help="sweep start (with --rate-max)")
    sp.add_argument("--rate-max", type=_POSITIVE, help="sweep end")
    sp.add_argument("--points", type=_number(int, 2), default=21)
    sp.add_argument("--mode", choices=("min", "max", "both"), default="both")
    sp.add_argument("--sigma2", type=_POSITIVE)
    common(sp)

    sp = command("simulate", _cmd_simulate, "finite-size Monte Carlo vs the limit")
    sp.add_argument("--n", type=_COUNT, required=True)
    sp.add_argument("--m", type=_COUNT, required=True)
    sp.add_argument("--r-fb", type=_number(int, 0), required=True, help="feedback bits per channel use")
    sp.add_argument("--trials", type=_COUNT, default=200)
    sp.add_argument("--mode", choices=("min", "max"), default="min")
    sp.add_argument("--method", choices=("direct", "spectral", "cdf"), default="direct")
    sp.add_argument(
        "--codebook",
        choices=("random", "designed"),
        default="random",
        help="designed packs a codebook first (direct method only)",
    )
    sp.add_argument("--samples", type=_number(int, 2), default=20000, help="CDF-route sample panel size")
    sp.add_argument("--seed", type=int, default=0)
    common(sp)

    sp = command("design", _cmd_design, "pack a codebook and write it to a file")
    sp.add_argument("--n", type=_COUNT, required=True)
    sp.add_argument("--size", type=_COUNT, required=True)
    sp.add_argument("--iterations", type=_COUNT, default=800)
    sp.add_argument("--codebook-out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)

    sp = command("ldp", _cmd_ldp, "empirical tail decay rates against the rate function")
    sp.add_argument("--beta", type=_POSITIVE, required=True)
    sp.add_argument("--x", type=_POSITIVE, required=True)
    sp.add_argument("--sizes", type=_comma_list(_COUNT), default="50,100,200",
                    help="comma-separated spectrum sizes")
    sp.add_argument("--samples", type=_number(int, 2), default=20000)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        start = time.perf_counter()
        payload = args.run(args, args.parser)
        record = RunRecord(
            command=args.command,
            params=_record_params(args),
            seed=getattr(args, "seed", None),
            version=__version__,
            duration_s=time.perf_counter() - start,
            payload=payload,
        )
        text = record.to_json() if args.format == "json" else record.to_csv()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except SystemExit as exc:  # argparse, or a handler's check across flags
        return int(exc.code or 0)
    except (BudgetError, MemoryError) as exc:
        # numpy names the refused allocation; a bare MemoryError has no text.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 5
    except (ConsistencyError, ReliabilityError, QuadratureError, EigenSolverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def _record_params(args: argparse.Namespace) -> dict:
    skip = {"command", "run", "parser", "format", "out"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
