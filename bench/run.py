"""logcave benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload fit_large --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Rounds of the workload's operations run until the next round would end more
than half a round past ``--seconds``, and at least three rounds (one in each
half of a traced run).  Each operation is timed in every round, and the
timings use its fastest round (see ``best_times``).  Every operation is
checked outside the timed region.  The last line of standard output is one
JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics of BENCHMARK.json for ``--trace 0`` and its per-layer metrics for
``--trace 1``.  A traced run first runs untraced rounds for half the time,
then traced rounds for the other half.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS/OpenMP thread here and in every process started from here; set
# before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# an untraced run times every operation in at least this many rounds, so
# that its fastest round can miss a slow spell of the host
MIN_ROUNDS = 3


def _startup_before(start):
    """Seconds from the start of this process to perf_counter() == start,
    from /proc (10 ms resolution); 0 where /proc is not readable."""
    try:
        stat = Path("/proc/self/stat").read_text()
        ticks = int(stat.rsplit(")", 1)[1].split()[19])
        uptime = float(Path("/proc/uptime").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    age = uptime - ticks / os.sysconf("SC_CLK_TCK")
    return max(0.0, age - (time.perf_counter() - start))


def run_rounds(workload, seconds, min_rounds):
    """Whole rounds of the workload until ``min_rounds`` have run and the
    next would end more than half a round past ``seconds``.  Returns the
    round times (sum of the timed operations), each operation's times (one
    list per operation, one entry per round it passed), the per-operation
    figures of the first round, the attempted and failed counts, and
    whether the round-level checks held."""
    round_times, first = [], None
    op_times = [[] for _ in workload.operations]
    attempted = failed = 0
    round_checks_ok = True
    began = time.perf_counter()
    while True:
        round_began = time.perf_counter()
        timed = 0.0
        figures = []
        for index, operation in enumerate(workload.operations):
            if workload.tracer is not None:
                workload.tracer.op = index
            attempted += 1
            start = time.perf_counter()
            try:
                output = operation()
            except Exception:  # a raising operation counts as failed
                timed += time.perf_counter() - start
                traceback.print_exc(file=sys.stderr)
                failed += 1
                figures.append(None)
                continue
            elapsed = time.perf_counter() - start
            timed += elapsed
            op_times[index].append(elapsed)
            try:
                figures.append(workload.check(index, output))
            except Exception:  # a failed check (or a crashing one) fails it
                traceback.print_exc(file=sys.stderr)
                failed += 1
                figures.append(None)
        try:
            workload.check_round(figures)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            round_checks_ok = False
        round_times.append(timed)
        if first is None:
            first = figures
        now = time.perf_counter()
        if len(round_times) >= min_rounds and \
                now - began + 0.5 * (now - round_began) > seconds:
            break
    return {"round_times": round_times, "op_times": op_times,
            "figures": first, "attempted": attempted, "failed": failed,
            "ok": round_checks_ok}


def best_times(result):
    """Each operation's least time over the rounds of a run.

    The host's speed drifts by tens of percent over seconds to minutes,
    with process CPU time moving along with wall time, so one timing of an
    operation says as much about the host as about the program.  Its
    fastest round is the timing least inflated by the host; every
    operation has had the same number of tries at it."""
    return [min(times) for times in result["op_times"] if times]


def _median_wall(cmd, env, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def startup_costs():
    """Wall time of a bare interpreter, and of importing logcave.cli on top
    of it, each the median of three fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare = _median_wall([sys.executable, "-c", "pass"], env)
    full = _median_wall([sys.executable, "-c", "import logcave.cli"], env)
    return bare, full - bare


def _fit_figures(figures):
    return [f for f in figures if f is not None]


def end_to_end(workload, result, setup_s):
    figs = _fit_figures(result["figures"])
    usage = resource.RUSAGE_CHILDREN if workload.in_children \
        else resource.RUSAGE_SELF
    best = best_times(result)
    return {
        "setup_s": setup_s,
        "run_s": sum(best),
        "op_p50_s": statistics.median(best),
        "op_samples": len(best),
        "rounds": len(result["round_times"]),
        "loglik_gain_nats": sum(f["gain"] for f in figs),
        "peak_rss_mib": resource.getrusage(usage).ru_maxrss / 1024.0,
    }


def per_layer(workload, plain, traced, tracer):
    import spans
    traces = spans.TraceSet()
    traces.add(tracer.arrays())
    for path in workload.trace_files:
        traces.add_file(path)
    rounds = len(traced["round_times"])
    out = spans.layer_metrics(traces, rounds)
    figs = _fit_figures(plain["figures"]) + _fit_figures(traced["figures"])
    out["solver.dr_violation_max"] = max((f["dr_violation"] for f in figs),
                                         default=0.0)
    out["solver.mean_shift_sd_max"] = max((f["mean_shift_sd"] for f in figs),
                                          default=0.0)
    sizes = workload.bytes
    out["cli.artifact_bytes"] = float(sizes.get("fit.json", 0))
    out["cli.output_bytes"] = float(sum(v for k, v in sizes.items()
                                        if k != "fit.json"))
    out["cli.interpreter_s"], out["cli.import_s"] = startup_costs()
    out["trace.overhead_s"] = sum(best_times(traced)) - sum(best_times(plain))
    tracer.save(workload.dir / "trace.npz")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "logcave" / "__init__.py").is_file():
        print(f"bench: no logcave sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = HERE / "_work" / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    for stale in work_dir.glob("trace*.npz"):
        stale.unlink()

    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    setup_s = time.perf_counter() - START + _startup_before(START)

    if args.trace:
        import spans
        plain = run_rounds(workload, args.seconds / 2, 1)
        tracer = spans.Tracer()
        workload.trace_with(tracer)
        traced = run_rounds(workload, args.seconds / 2, 1)
        values = per_layer(workload, plain, traced, tracer)
        declared = spec["per_layer"]
        results = (plain, traced)
    else:
        result = run_rounds(workload, args.seconds, MIN_ROUNDS)
        values = end_to_end(workload, result, setup_s)
        print(f"op_p50_s over {values['op_samples']} operations, "
              f"each timed in {values['rounds']} rounds", file=sys.stderr)
        declared = spec["end_to_end"]
        results = (result,)

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared if m["name"] in values}
    print(json.dumps({
        "correct": all(r["ok"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
