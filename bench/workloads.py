"""The benchmark's workloads.

Each workload builds its inputs from the seed when it is constructed, then
offers the same list of operations for every round.  ``check`` verifies one
operation's output against ``checks`` and returns the figures the run
reports; it runs outside the timed region.
"""

import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launch.py"

DENSITIES = ("normal", "double_exponential", "gamma", "beta", "weibull")


def _draw(name, rng, n):
    """n draws from a reference density, made by the benchmark itself."""
    if name == "normal":
        return rng.standard_normal(n)
    if name == "double_exponential":
        return rng.laplace(0.0, 1.0, n)
    if name == "gamma":
        return rng.gamma(3.0, 1.0, n)
    if name == "beta":
        return rng.beta(3.0, 2.0, n)
    return rng.weibull(3.0, n)


def _child_seed(seed, *key):
    return np.random.SeedSequence(seed, spawn_key=key)


def _replication_seed(lc, seed, name, n, m):
    """The child seed ``run_monte_carlo`` derives for one replication."""
    return _child_seed(seed, list(lc.REFERENCE_DENSITIES).index(name), n, m)


class Workload:
    """Inputs and operations of one workload; ``in_children`` says whether
    the program runs in child processes rather than in this one."""

    in_children = False
    tracer = None

    def __init__(self, seed, work_dir):
        import logcave
        self.lc = logcave
        self.seed = seed
        self.dir = work_dir
        self.trace_files = []   # spans written by child processes
        self.bytes = {}         # output file sizes of the last operation

    def trace_with(self, tracer):
        """Record spans from now on (in this process by default)."""
        self.tracer = tracer
        tracer.install()

    def check_round(self, figures):
        """Checks over a whole round; ``figures`` is one dict per operation."""


class FitLarge(Workload):
    """REPS fits of DENSITY samples of size N, each with a budget of
    MAX_ITERATIONS solver iterations (``--max-iter``).

    The budget is below the iteration count these fits need to stop by
    themselves (about 450 up to the 1 000 cap), so every fit does the same
    work and the round time measures the cost of an iteration, not the
    seed-to-seed spread of the stopping point.  It also ends before the
    solver's extended-precision endgame, which some samples enter within
    200 iterations at twice the cost per fit.  At this size the fits of
    some normal, gamma, beta and Weibull samples have a variance above the
    sample variance, which the MLE cannot have (see CHANGES.md), so only
    double-exponential samples are used."""

    DENSITY = "double_exponential"
    N = 5000
    REPS = 12
    MAX_ITERATIONS = 100

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.cases = []
        for r in range(self.REPS):
            key = (DENSITIES.index(self.DENSITY), self.N, r)
            raw = _draw(self.DENSITY,
                        np.random.default_rng(_child_seed(seed, *key)), self.N)
            self.cases.append((raw, self.lc.validate_sample(raw)))
        self.config = self.lc.IcmConfig(max_iterations=self.MAX_ITERATIONS)
        self.operations = [self._op(sample) for _, sample in self.cases]

    def _op(self, sample):
        return lambda: self.lc.fit(sample, self.config)

    def check(self, index, output):
        fit_obj, _ = output
        raw = self.cases[index][0]
        return checks.check_fit(raw, fit_obj.sample.knots, fit_obj.theta,
                                fit_obj.log_likelihood)


class McSmall(Workload):
    """Monte Carlo replications: draw, validate with jittered ties, fit and
    Hellinger distance, seeded by (seed, density index, n, replication)
    spawn keys as ``run_monte_carlo`` does."""

    # replications per sample size; more of the cheap n = 25 ones, so that
    # the median operation falls inside one size rather than between two
    REPLICATIONS = {25: 40, 50: 20}

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.cells = []
        for name in DENSITIES:
            for n, replications in self.REPLICATIONS.items():
                for m in range(replications):
                    self.cells.append((name, n, _replication_seed(
                        self.lc, seed, name, n, m)))
        self.operations = [self._op(*cell) for cell in self.cells]

    def _op(self, name, n, seed_seq):
        lc = self.lc
        density = lc.REFERENCE_DENSITIES[name]

        def replication():
            raw = lc.sample_true(density, seed_seq, n)
            sample = lc.validate_sample(raw, jitter_ties=True)
            fit_obj, _ = lc.fit(sample)
            return raw, fit_obj, lc.hellinger(fit_obj, density)

        return replication

    def check(self, index, output):
        raw, fit_obj, distance = output
        name = self.cells[index][0]
        figures = checks.check_fit(raw, fit_obj.sample.knots, fit_obj.theta,
                                   fit_obj.log_likelihood)
        checks.check_hellinger(distance, fit_obj.sample.knots, fit_obj.theta,
                               name)
        figures["hellinger"] = distance
        return figures

    def check_round(self, figures):
        distances = {}
        for (name, n, _), fig in zip(self.cells, figures):
            if fig is not None:
                distances.setdefault((name, n), []).append(fig["hellinger"])
        checks.check_hellinger_trend(distances)


class CliRoundtrip(Workload):
    """fit -> eval -> sample -> simulate, each a fresh ``logcave`` process
    started through the benchmark's launcher."""

    DATA_DENSITY = "double_exponential"
    N = 10_000
    MAX_ITERATIONS = FitLarge.MAX_ITERATIONS   # for the same reasons
    GRID_POINTS = 100_001
    DRAWS = 200_000
    SIM_DENSITIES = ("normal", "gamma")
    SIM_SIZES = (25, 50)
    SIM_REPLICATIONS = 3

    in_children = True

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        key = (DENSITIES.index(self.DATA_DENSITY), self.N)
        self.raw = _draw(self.DATA_DENSITY,
                         np.random.default_rng(_child_seed(seed, *key)), self.N)
        self.data = work_dir / "data.txt"
        self.data.write_text("".join(f"{v!r}\n" for v in self.raw.tolist()))
        lo, hi = float(self.raw.min()), float(self.raw.max())
        pad = 0.25 * (hi - lo)
        self.grid_spec = (lo - pad, hi + pad, self.GRID_POINTS)
        self.files = {name: work_dir / name for name in
                      ("fit.json", "curve.csv", "draws.txt", "table.csv")}
        self.round = 0
        self._simulation = None
        self.operations = [self._roundtrip]

    def trace_with(self, tracer):
        # the logcave code runs in the launched processes, which install
        # the wrappers themselves
        self.tracer = tracer

    def _command(self, name, args, ok_codes=(0,)):
        cmd = [sys.executable, str(LAUNCHER)]
        trace_file = None
        if self.tracer is not None:
            trace_file = self.dir / f"trace-{self.round}-{name}.npz"
            cmd += ["--trace", str(trace_file)]
        cmd += ["--", name] + args
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        end = time.perf_counter()
        if proc.returncode not in ok_codes:
            raise RuntimeError(f"logcave {name} exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")
        if self.tracer is not None:
            self.tracer.record(f"cli.{name}", start, end)
            self.trace_files.append(trace_file)

    def _roundtrip(self):
        f = self.files
        lo, hi, count = self.grid_spec
        # an unconverged fit (exit 2) still writes its artifact
        self._command("fit", ["--input", str(self.data),
                              "--max-iter", str(self.MAX_ITERATIONS),
                              "--output", str(f["fit.json"])], (0, 2))
        self._command("eval", ["--input", str(f["fit.json"]),
                               f"--grid={lo!r}:{hi!r}:{count}",
                               "--output", str(f["curve.csv"])])
        self._command("sample", ["--input", str(f["fit.json"]),
                                 "--count", str(self.DRAWS),
                                 "--seed", str(self.seed),
                                 "--output", str(f["draws.txt"])])
        self._command("simulate", [
            "--densities", ",".join(self.SIM_DENSITIES),
            "--sizes", ",".join(map(str, self.SIM_SIZES)),
            "--replications", str(self.SIM_REPLICATIONS),
            "--seed", str(self.seed), "--output", str(f["table.csv"])])
        self.round += 1
        return f

    def _recompute_simulation(self):
        """Mean Hellinger distance per (density, n) and the summed figures
        of the fits, recomputed in this process from the same child seeds
        ``logcave simulate`` uses.  The fits are deterministic, so these are
        the fits the command made whenever the table matches."""
        lc = self.lc
        table, figures = {}, []
        for name in self.SIM_DENSITIES:
            density = lc.REFERENCE_DENSITIES[name]
            for n in self.SIM_SIZES:
                distances = []
                for m in range(self.SIM_REPLICATIONS):
                    raw = lc.sample_true(density, _replication_seed(
                        lc, self.seed, name, n, m), n)
                    fit_obj, _ = lc.fit(lc.validate_sample(raw,
                                                           jitter_ties=True))
                    knots, theta = fit_obj.sample.knots, fit_obj.theta
                    figures.append(checks.check_fit(
                        raw, knots, theta, fit_obj.log_likelihood))
                    distances.append(lc.hellinger(fit_obj, density))
                    checks.check_hellinger(distances[-1], knots, theta, name)
                table[(name, n)] = float(np.mean(distances))
        return table, figures

    def check(self, index, output):
        self.bytes = {name: path.stat().st_size for name, path in output.items()}
        artifact = json.loads(output["fit.json"].read_text())
        knots = np.asarray(artifact["knots"], dtype=float)
        theta = np.asarray(artifact["theta"], dtype=float)
        figures = checks.check_fit(self.raw, knots, theta,
                                   float(artifact["log_likelihood"]))

        lo, hi, count = self.grid_spec
        curve = np.loadtxt(output["curve.csv"], delimiter=",", skiprows=1,
                           ndmin=2)
        checks.check_eval(knots, theta, np.linspace(lo, hi, count), curve)
        draws = np.loadtxt(output["draws.txt"], ndmin=1)
        checks.check_draws(knots, theta, draws, self.DRAWS)

        if self._simulation is None:
            self._simulation = self._recompute_simulation()
        expected, sim_figures = self._simulation
        with open(output["table.csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        seen = {(row["density"], int(row["n"])): row for row in rows}
        if set(seen) != set(expected):
            raise checks.CheckFailed(f"simulate rows {sorted(seen)} differ "
                                     "from the requested cells")
        for key, mean in expected.items():
            got = float(seen[key]["mean_hellinger"])
            if int(seen[key]["M"]) != self.SIM_REPLICATIONS or \
                    abs(got - mean) > 1e-12:
                raise checks.CheckFailed(
                    f"simulate {key}: mean {got!r}, recomputed {mean!r}")
        # the simulate samples are fitted in this round trip too
        figures["gain"] += sum(f["gain"] for f in sim_figures)
        for key in ("dr_violation", "mean_shift_sd"):
            figures[key] = max([figures[key]] + [f[key] for f in sim_figures])
        return figures


WORKLOADS = {"fit_large": FitLarge, "mc_small": McSmall,
             "cli_roundtrip": CliRoundtrip}
