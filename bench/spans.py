"""In-memory spans around logcave's public functions, and the per-layer
figures computed from them.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper that
records one span per call: name, start, end, parent span and operation id,
plus an element count where the layer has a natural one.  Spans stay in
memory and are written to an ``.npz`` file when the run ends.  A target
that no longer exists is skipped, and the figures derived from it are left
out of the result.
"""

import functools
import importlib
import math
import sys
import time

import numpy as np

# (span name, module, attribute, index of the argument whose size is the
# element count or None).  Method indices count ``self``.
TARGETS = (
    ("rho.segment_masses", "logcave._rho", "segment_masses", 1),
    ("rho.segment_triples", "logcave._rho", "segment_triples", 1),
    ("rho.weighted_rho_parts", "logcave._rho", "weighted_rho_parts", 0),
    ("objective.manifold_phi", "logcave.objective",
     "ObjectiveWorkspace.manifold_phi", None),
    ("objective.derivatives", "logcave.objective",
     "ObjectiveWorkspace.derivatives", None),
    ("objective.restore_intercept", "logcave.objective",
     "ObjectiveWorkspace.restore_intercept", None),
    ("solver.concave_majorant_slopes", "logcave.solver",
     "concave_majorant_slopes", 0),
    ("solver.fit", "logcave.solver", "fit", None),
    ("solver.kkt_residual", "logcave.solver", "kkt_residual", None),
    ("model.validate_sample", "logcave.model", "validate_sample", None),
    ("model.LogConcaveFit.init", "logcave.model", "LogConcaveFit.__init__",
     None),
    ("model.cdf", "logcave.model", "LogConcaveFit.cdf", 1),
    ("model.quantile", "logcave.model", "LogConcaveFit.quantile", 1),
    ("model.log_pdf", "logcave.model", "LogConcaveFit.log_pdf", 1),
    ("simulation.sample_true", "logcave.simulation", "sample_true", None),
    ("simulation.hellinger", "logcave.simulation", "hellinger", None),
    ("cli.ingest", "logcave.cli", "ingest", None),
)

# fit statistics kept per solver.fit call
FIT_FIELDS = ("iterations", "converged", "capped", "uniform", "unit_steps",
              "kkt")


class Tracer:
    """Span recorder for one process.  ``op`` is the id of the operation
    that spans recorded now belong to."""

    def __init__(self):
        self.names = []
        self.installed = set()
        self.rows = []
        self.fits = []
        self.op = -1
        self._stack = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def record(self, name, start, end, elems=0):
        """Add a span measured by the caller (for example a subprocess)."""
        parent = self._stack[-1] if self._stack else -1
        self.rows.append((self._name_id(name), start, end, parent, self.op,
                          elems))

    def wrap(self, name, fn, size_arg=None, after=None):
        nid = self._name_id(name)
        rows, stack = self.rows, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(row)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elems = (int(np.size(args[size_arg]))
                         if size_arg is not None and size_arg < len(args)
                         else 0)
                rows[row] = (nid, start, end, parent, self.op, elems)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_fit(self, args, kwargs, result):
        _, report = result
        config = args[1] if len(args) > 1 else kwargs.get("config")
        if config is None:
            config = importlib.import_module("logcave.solver").IcmConfig()
        iterations = int(getattr(report, "iterations", 0))
        converged = bool(getattr(report, "converged", True))
        steps = np.asarray(getattr(report, "step_sizes", ()))
        self.fits.append((
            iterations, converged,
            (not converged) and iterations >= config.max_iterations,
            getattr(report, "initializer", "normal") == "uniform",
            int(np.count_nonzero(steps == 1.0)),
            float(getattr(report, "kkt_residual", math.nan))))

    def install(self):
        """Wrap every target that exists in the loaded logcave modules."""
        for name, module_name, attr, size_arg in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            after = self._after_fit if name == "solver.fit" else None
            wrapped = self.wrap(name, original, size_arg, after)
            if owner_name:
                setattr(owner, leaf, wrapped)
            else:
                # rebind every module-level reference, re-exports included
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "logcave":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
            self.installed.add(name)

    def arrays(self):
        rows = np.array(self.rows, dtype=float).reshape(-1, 6)
        fits = np.array(self.fits, dtype=float).reshape(-1, len(FIT_FIELDS))
        return {"names": np.array(self.names, dtype=str),
                "installed": np.array(sorted(self.installed), dtype=str),
                "rows": rows, "fits": fits}

    def save(self, path):
        np.savez(path, **self.arrays())


class TraceSet:
    """Spans of one process, or several merged ones."""

    def __init__(self):
        self.rows = np.empty((0, 6))
        self.fits = np.empty((0, len(FIT_FIELDS)))
        self.names = []
        self.installed = set()

    def add(self, data):
        names = [str(s) for s in data["names"]]
        for name in names:
            if name not in self.names:
                self.names.append(name)
        rows = np.array(data["rows"], dtype=float).reshape(-1, 6)
        if rows.size:
            remap = np.array([self.names.index(s) for s in names])
            rows[:, 0] = remap[rows[:, 0].astype(int)]
            offset = self.rows.shape[0]
            rows[:, 3] = np.where(rows[:, 3] >= 0, rows[:, 3] + offset, -1)
            self.rows = np.vstack((self.rows, rows))
        self.fits = np.vstack((self.fits, np.array(data["fits"], dtype=float)
                               .reshape(-1, len(FIT_FIELDS))))
        self.installed |= {str(s) for s in data["installed"]}

    def add_file(self, path):
        with np.load(path, allow_pickle=False) as data:
            self.add(data)

    def by_name(self):
        """name -> (calls, total seconds, self seconds, elements)."""
        rows = self.rows
        dur = rows[:, 2] - rows[:, 1]
        parent = rows[:, 3].astype(int)
        child = parent >= 0
        children = np.bincount(parent[child], weights=dur[child],
                               minlength=rows.shape[0])
        self_time = dur - children
        name = rows[:, 0].astype(int)
        out = {}
        for i, label in enumerate(self.names):
            mask = name == i
            out[label] = (int(np.count_nonzero(mask)), float(dur[mask].sum()),
                          float(self_time[mask].sum()),
                          float(rows[mask, 5].sum()))
        return out


def layer_metrics(traces, rounds):
    """Per-layer figures per round of the workload, for the layers whose
    functions were found."""
    stats = traces.by_name()
    out = {}

    def get(name):
        return stats.get(name, (0, 0.0, 0.0, 0.0))

    def per_elem(self_s, elems):
        return 1e9 * self_s / elems if elems else 0.0

    have = traces.installed
    for layer in ("segment_masses", "segment_triples", "weighted_rho_parts"):
        if f"rho.{layer}" in have:
            calls, _, self_s, elems = get(f"rho.{layer}")
            out[f"rho.{layer}.calls"] = calls / rounds
            out[f"rho.{layer}.self_s"] = self_s / rounds
            out[f"rho.{layer}.ns_per_elem"] = per_elem(self_s, elems)
    for layer in ("manifold_phi", "derivatives", "restore_intercept"):
        if f"objective.{layer}" in have:
            calls, _, self_s, _ = get(f"objective.{layer}")
            out[f"objective.{layer}.calls"] = calls / rounds
            out[f"objective.{layer}.self_s"] = self_s / rounds
    if "solver.concave_majorant_slopes" in have:
        _, _, self_s, elems = get("solver.concave_majorant_slopes")
        out["solver.concave_majorant_slopes.self_s"] = self_s / rounds
        out["solver.concave_majorant_slopes.ns_per_elem"] = per_elem(self_s,
                                                                     elems)
    if "solver.fit" in have:
        calls, total, _, _ = get("solver.fit")
        out["solver.fit.calls"] = calls / rounds
        out["solver.fit.s"] = total / rounds
        fits = dict(zip(FIT_FIELDS, traces.fits.T))
        iterations = float(fits["iterations"].sum())
        out["solver.iterations"] = iterations / rounds
        if "objective.manifold_phi" in have:
            out["solver.phi_evals_per_step"] = (
                get("objective.manifold_phi")[0] / iterations
                if iterations else 0.0)
        out["solver.unit_step_share"] = (float(fits["unit_steps"].sum())
                                         / iterations if iterations else 0.0)
        out["solver.cap_hits"] = float(fits["capped"].sum()) / rounds
        out["solver.not_converged"] = float(
            np.count_nonzero(fits["converged"] == 0)) / rounds
        out["solver.uniform_restarts"] = float(fits["uniform"].sum()) / rounds
        out["solver.kkt_max"] = float(np.max(fits["kkt"], initial=0.0))
    if "solver.kkt_residual" in have:
        out["solver.kkt_residual.self_s"] = get("solver.kkt_residual")[2] / rounds
    if "model.validate_sample" in have:
        out["model.validate_sample.self_s"] = (
            get("model.validate_sample")[2] / rounds)
    if "model.LogConcaveFit.init" in have:
        out["model.LogConcaveFit.init_s"] = (
            get("model.LogConcaveFit.init")[1] / rounds)
    for query in ("cdf", "quantile", "log_pdf"):
        if f"model.{query}" in have:
            _, total, _, points = get(f"model.{query}")
            out[f"model.{query}.ns_per_point"] = per_elem(total, points)
    if "simulation.sample_true" in have:
        out["simulation.sample_true.self_s"] = (
            get("simulation.sample_true")[2] / rounds)
    if "simulation.hellinger" in have:
        calls, _, self_s, _ = get("simulation.hellinger")
        out["simulation.hellinger.calls"] = calls / rounds
        out["simulation.hellinger.self_s"] = self_s / rounds
    if "cli.ingest" in have:
        out["cli.ingest.self_s"] = get("cli.ingest")[2] / rounds
    for command in ("fit", "eval", "sample", "simulate"):
        out[f"cli.{command}_s"] = get(f"cli.{command}")[1] / rounds
    return out
