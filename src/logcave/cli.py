"""Command-line front end: fit, eval, sample and simulate subcommands.

All commands are deterministic functions of their inputs, flags and seed;
repeated runs produce byte-identical outputs.  Numbers are formatted with
shortest round-trip precision.  Exit codes: 0 success, 1 usage or input
error, 2 solver did not converge (the artifact is still written).
"""

import argparse
import csv
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    BadCount,
    BadGrid,
    EmptyInput,
    LogcaveError,
    ParseError,
)
from .model import LogConcaveFit, SortedSample, validate_sample
from .simulation import REFERENCE_DENSITIES, SimulationSpec, run_monte_carlo
from .solver import IcmConfig, fit

ARTIFACT_FORMAT = "logcave-fit/1"

DEFAULT_SEED = 12345

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2


def _fmt(value):
    return repr(float(value))


def ingest(path, column=None):
    """Read raw observations from a text or CSV file.

    Without ``column`` the file must hold one number per line (blank lines
    skipped).  With ``column`` the file is CSV with a header row and the
    column is selected by name or 0-based index.
    """
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    text = p.read_text()
    values = []
    if column is None:
        for lineno, line in enumerate(text.splitlines(), start=1):
            token = line.strip()
            if not token:
                continue
            try:
                values.append(float(token))
            except ValueError:
                raise ParseError(lineno, token) from None
    else:
        reader = csv.reader(io.StringIO(text))
        col_idx = None
        for row in reader:
            lineno = reader.line_num
            if not row or all(not cell.strip() for cell in row):
                continue
            if col_idx is None:
                header = [cell.strip() for cell in row]
                if column in header:
                    col_idx = header.index(column)
                else:
                    try:
                        col_idx = int(column)
                    except ValueError:
                        raise ParseError(
                            lineno, column,
                            f"column {column!r} not in header {header}") from None
                    if not 0 <= col_idx < len(header):
                        raise ParseError(
                            lineno, column,
                            f"column index {col_idx} out of range") from None
                continue
            token = row[col_idx].strip() if col_idx < len(row) else ""
            try:
                values.append(float(token))
            except ValueError:
                raise ParseError(lineno, token) from None
    if not values:
        raise EmptyInput(f"no data values in {path}")
    return np.asarray(values)


def _input_digest(raw):
    payload = "\n".join(_fmt(v) for v in raw).encode()
    return hashlib.sha256(payload).hexdigest()


def artifact_from_fit(fit_obj, report, digest):
    return {
        "format": ARTIFACT_FORMAT,
        "version": __version__,
        "input_digest": digest,
        "n": int(fit_obj.sample.n),
        "knots": [float(x) for x in fit_obj.sample.knots],
        "theta": [float(t) for t in fit_obj.theta],
        "intercept": float(fit_obj.theta[0]),
        "slopes": [float(s) for s in fit_obj.slopes],
        "log_likelihood": float(fit_obj.log_likelihood),
        "iterations": int(report.iterations),
        "converged": bool(report.converged),
        "kkt_residual": float(report.kkt_residual),
    }


def read_artifact(path):
    """Load a fit artifact; returns (LogConcaveFit, raw dictionary)."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"artifact not found: {path}")
    data = json.loads(p.read_text())
    if data.get("format") != ARTIFACT_FORMAT:
        raise LogcaveError(f"unrecognized artifact format in {path}")
    sample = SortedSample(np.asarray(data["knots"], dtype=float))
    fit_obj = LogConcaveFit(sample, np.asarray(data["theta"], dtype=float),
                            log_likelihood=data["log_likelihood"],
                            slopes=np.asarray(data["slopes"], dtype=float))
    return fit_obj, data


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def parse_grid(spec):
    """Grid from 'min:max:count' or an explicit comma-separated list."""
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise BadGrid(f"grid must be min:max:count, got {spec!r}")
            lo, hi = float(parts[0]), float(parts[1])
            count = int(parts[2])
            if count < 1:
                raise BadGrid(f"grid count must be >= 1, got {count}")
            if lo > hi:
                raise BadGrid(f"grid min {lo} exceeds max {hi}")
            return np.linspace(lo, hi, count)
        values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise BadGrid(f"cannot parse grid {spec!r}") from None
    if not values:
        raise BadGrid("empty grid")
    return np.asarray(values)


def _resolve_seed(value):
    if value is not None:
        return value
    env = os.environ.get("LOGCAVE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise LogcaveError(f"LOGCAVE_SEED is not an integer: {env!r}") from None
    return DEFAULT_SEED


def _solver_config(args):
    return IcmConfig(phi_tolerance=args.tolerance,
                     max_iterations=args.max_iter)


def cmd_fit(args):
    raw = ingest(args.input, args.column)
    digest = _input_digest(raw)
    sample = validate_sample(raw, jitter_ties=args.jitter_ties)
    fit_obj, report = fit(sample, _solver_config(args))
    artifact = artifact_from_fit(fit_obj, report, digest)
    _write_text(args.output, json.dumps(artifact, indent=2) + "\n")
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def cmd_eval(args):
    fit_obj, _ = read_artifact(args.input)
    grid = parse_grid(args.grid)
    log_pdf = np.atleast_1d(fit_obj.log_pdf(grid))
    with np.errstate(over="ignore"):
        pdf = np.exp(log_pdf)
    cdf = np.atleast_1d(fit_obj.cdf(grid))
    lines = ["x,pdf,log_pdf,cdf"]
    for i, x in enumerate(np.atleast_1d(grid)):
        lines.append(",".join((_fmt(x), _fmt(pdf[i]), _fmt(log_pdf[i]),
                               _fmt(cdf[i]))))
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sample(args):
    if args.count < 0:
        raise BadCount(f"draw count must be nonnegative, got {args.count}")
    fit_obj, _ = read_artifact(args.input)
    draws = fit_obj.sample_points(args.count, _resolve_seed(args.seed))
    text = "".join(_fmt(v) + "\n" for v in draws)
    _write_text(args.output, text)
    return EXIT_OK


def cmd_simulate(args):
    names = [tok.strip() for tok in args.densities.split(",") if tok.strip()]
    unknown = [name for name in names if name not in REFERENCE_DENSITIES]
    if unknown:
        raise LogcaveError(
            f"unknown densities {unknown}; choose from "
            f"{sorted(REFERENCE_DENSITIES)}")
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError:
        raise LogcaveError(f"cannot parse sizes {args.sizes!r}") from None
    spec = SimulationSpec(
        densities=[REFERENCE_DENSITIES[name] for name in names],
        sizes=sizes,
        replications=args.replications,
        master_seed=_resolve_seed(args.seed),
        config=_solver_config(args),
    )
    table = run_monte_carlo(spec)
    lines = ["density,n,M,mean_hellinger,sd_hellinger,failures"]
    for row in table.rows:
        lines.append(",".join((row.density, str(row.n), str(row.replications),
                               _fmt(row.mean_hellinger), _fmt(row.sd_hellinger),
                               str(row.failures))))
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_common(parser):
    parser.add_argument("--output", default="-",
                        help="output path ('-' for stdout)")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (falls back to LOGCAVE_SEED, then "
                             f"{DEFAULT_SEED})")
    parser.add_argument("--tolerance", type=float, default=1e-8,
                        help="relative objective tolerance for stopping")
    parser.add_argument("--max-iter", type=int, default=1000,
                        help="solver iteration cap")


def build_parser():
    parser = _Parser(prog="logcave",
                     description="Log-concave density estimation toolkit")
    sub = parser.add_subparsers(dest="command")

    p_fit = sub.add_parser("fit", help="fit a log-concave density to data")
    p_fit.add_argument("--input", required=True, help="data file")
    p_fit.add_argument("--column", default=None,
                       help="CSV column name or 0-based index")
    p_fit.add_argument("--jitter-ties", action="store_true",
                       help="spread duplicated values deterministically")
    _add_common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="evaluate a fit artifact on a grid")
    p_eval.add_argument("--input", required=True, help="fit artifact path")
    p_eval.add_argument("--grid", required=True,
                        help="min:max:count or comma-separated x values")
    _add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_sample = sub.add_parser("sample", help="draw from a fit artifact")
    p_sample.add_argument("--input", required=True, help="fit artifact path")
    p_sample.add_argument("--count", type=int, required=True,
                          help="number of draws")
    _add_common(p_sample)
    p_sample.set_defaults(func=cmd_sample)

    p_sim = sub.add_parser("simulate",
                           help="Monte Carlo Hellinger-distance table")
    p_sim.add_argument("--densities",
                       default=",".join(REFERENCE_DENSITIES),
                       help="comma-separated reference density names")
    p_sim.add_argument("--sizes", default="50,100,200,500,1000",
                       help="comma-separated sample sizes")
    p_sim.add_argument("--replications", "-M", "--M", dest="replications",
                       type=int, default=100, help="replications per cell")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


# a grid value such as -3:3:121 or -1,2; argparse would read it as an option
_NEGATIVE_GRID = re.compile(r"-[\d.]")


def _join_grid_value(argv):
    """Rewrite '--grid VALUE' as '--grid=VALUE' where VALUE starts with a
    minus sign and a digit."""
    out = []
    for arg in argv:
        if out and out[-1] == "--grid" and _NEGATIVE_GRID.match(arg):
            out[-1] = f"--grid={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_join_grid_value(argv))
    except _UsageError as exc:
        print(f"logcave: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (LogcaveError, FileNotFoundError, OSError) as exc:
        print(f"logcave: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
