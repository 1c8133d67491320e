"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy Monte Carlo experiment (criterion 5) runs once in a module
fixture; its wall time feeds the performance criterion.
"""

import contextlib
import json
import subprocess
import sys
import time

import numpy as np
import pytest

import logcave as lc
from logcave.errors import NoAscent
from logcave.solver import _candidate_slopes, _line_search

from oracles import (
    concave_majorant_slopes_minmax,
    curvature_reference,
    grad_reference,
    grid_search_loglik,
    projected_gradient_loglik,
)

# configuration that runs the solver to its accuracy floor (stops on the
# extended-precision no-ascent signal rather than the phi tolerance)
FLOOR = lc.IcmConfig(phi_tolerance=1e-30, max_iterations=200000)


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE CRITERION {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE CRITERION {number} ({label}): PASS")


def feasible_omega(sample, rng):
    # random nonincreasing slopes straddling zero; spans stay moderate so
    # the finite-difference oracle keeps its own error well below the
    # comparison tolerances
    drops = rng.uniform(0.02, 0.25, sample.n - 2)
    top = rng.normal(0.0, 0.5) + drops.sum() / 2
    slopes = top - np.concatenate(([0.0], np.cumsum(drops)))
    return lc.OmegaVector(lc.ObjectiveWorkspace(sample).restore_intercept(
        slopes), slopes)


def test_criterion_1_derivative_correctness():
    with criterion(1, "gradient and curvature vs finite differences"):
        for n in (3, 5, 20, 100):
            rng = np.random.default_rng(1000 + n)
            for _ in range(100):
                sample = lc.validate_sample(
                    np.cumsum(rng.uniform(0.2, 1.0, n)))
                omega = feasible_omega(sample, rng)
                ws = lc.ObjectiveWorkspace(sample)
                grad = ws.gradient(omega)
                want_g = grad_reference(omega.intercept, omega.slopes,
                                        sample.knots)
                rel_g = np.max(np.abs(grad - want_g)
                               / np.maximum(1.0, np.abs(want_g)))
                assert rel_g < 1e-6, f"gradient mismatch {rel_g} at n={n}"
                curv = ws.derivatives(omega)[1]
                want_c = curvature_reference(omega.intercept, omega.slopes,
                                             sample.knots)
                rel_c = np.max(np.abs(curv - want_c)
                               / np.maximum(1.0, np.abs(want_c)))
                assert rel_c < 1e-5, f"curvature mismatch {rel_c} at n={n}"


def test_criterion_2_projection_equivalence():
    with criterion(2, "pooling projection equals min-max formula"):
        rng = np.random.default_rng(2000)
        for _ in range(500):
            m = int(rng.integers(1, 13))
            d = rng.uniform(0.05, 8.0, m)
            v = d * rng.normal(0.0, 3.0, m)
            fast = lc.concave_majorant_slopes(d, v)
            slow = concave_majorant_slopes_minmax(d, v)
            assert np.max(np.abs(fast - slow)) < 1e-10


def test_criterion_3_small_instance_oracles():
    with criterion(3, "small-n fits match independent oracles"):
        for fit_fn in (lc.fit, lc.fit_icm):
            rng = np.random.default_rng(3000)
            # n = 2: closed form, the uniform density on the gap
            for _ in range(10):
                a = rng.normal(0.0, 5.0)
                gap = rng.uniform(0.1, 4.0)
                fit, _ = fit_fn(lc.validate_sample([a, a + gap]))
                assert np.max(np.abs(fit.theta + np.log(gap))) < 1e-6
            # n = 3: two-stage dense grid search over the slope half-plane
            for _ in range(20):
                sample = lc.validate_sample(
                    np.cumsum(rng.uniform(0.25, 1.2, 3)))
                fit, _ = fit_fn(sample, FLOOR)
                want = grid_search_loglik(sample.knots)
                assert abs(fit.log_likelihood - want) < 1e-4
            # n = 4: long-run projected-gradient ascent
            for _ in range(20):
                sample = lc.validate_sample(
                    np.cumsum(rng.uniform(0.25, 1.2, 4)))
                fit, _ = fit_fn(sample, FLOOR)
                start = lc.initialize_normal(sample).slopes
                want = projected_gradient_loglik(sample.knots, start)
                assert abs(fit.log_likelihood - want) < 1e-4


@pytest.fixture(scope="module")
def invariant_corpus():
    """Fits checked by criterion 4: every density, two sizes, two seeds,
    solved to the accuracy floor so that 'converged' is meaningful.  One
    (sample, active-set fit, ICM fit) triple per sample."""
    out = []
    for density in lc.REFERENCE_DENSITIES.values():
        for n in (20, 50):
            for rep in (0, 1):
                draws = lc.sample_true(
                    density, np.random.SeedSequence(40, spawn_key=(n, rep)), n)
                sample = lc.validate_sample(draws, jitter_ties=True)
                out.append((sample, lc.fit(sample, FLOOR),
                            lc.fit_icm(sample, FLOOR)))
    return out


def test_criterion_4_solver_invariants(invariant_corpus):
    with criterion(4, "ascent, feasibility, normalization, KKT, peak bound"):
        for sample, *fits in invariant_corpus:
            for fit, report in fits:
                trace = report.phi_trace
                # ascent with the 1e-12 slack: strict in the solvers'
                # comparisons, but endgame gains collapse to ties in the
                # stored double-precision trace
                assert np.all(np.diff(trace) > -1e-12)
                assert trace[-1] > trace[0]
                # slope ordering (exactly, on the solver's iterate) and the
                # unit-mass side condition
                assert np.all(fit.slopes[:-1] >= fit.slopes[1:])
                assert abs(fit.mass - 1.0) < 1e-10
                assert abs(lc.normalization_mass(fit.theta, sample)
                           - 1.0) < 1e-10
                # first-order optimality on converged fits
                if report.converged:
                    assert report.kkt_residual < 1e-6
                # pairwise bound: g(b) <= (1 + log(g(b)/g(a))) / (b - a)
                x = sample.knots
                g = np.exp(fit.theta)
                ratio = g[None, :] / g[:, None]
                gap = x[None, :] - x[:, None]
                applicable = (gap > 0) & (ratio >= 1.0)
                safe_ratio = np.where(applicable, ratio, 1.0)
                bound = np.where(applicable,
                                 (1.0 + np.log(safe_ratio))
                                 / np.where(gap > 0, gap, 1.0), np.inf)
                g_upper = np.broadcast_to(g[None, :], ratio.shape)
                assert np.all(g_upper[applicable] - bound[applicable] <= 1e-9)
        # exact cone membership holds at accepted iterates
        sample = lc.validate_sample(lc.sample_true(lc.NORMAL, 41, 40))
        config = lc.IcmConfig()
        ws = lc.ObjectiveWorkspace(sample)
        omega = lc.initialize_normal(sample)
        for _ in range(10):
            cand = _candidate_slopes(ws, omega)
            try:
                slopes, intercept, _, _ = _line_search(
                    ws, omega.slopes, np.longdouble(ws.phi(omega)), cand,
                    config.max_halvings)
            except NoAscent:
                break
            assert np.all(slopes[:-1] >= slopes[1:])
            omega = lc.OmegaVector(float(intercept), slopes)


def test_active_set_matches_icm_floor_fits(invariant_corpus):
    # where ICM reaches its accuracy floor both find the same MLE; the
    # exact solver never ends below it
    for _, (fit, report), (icm, icm_report) in invariant_corpus:
        assert report.converged
        gap = fit.log_likelihood - icm.log_likelihood
        assert gap > -1e-9
        if icm_report.converged:
            assert abs(gap) < 1e-6
            assert icm_report.certificate < 1e-8


@pytest.fixture(scope="module")
def trend_experiment():
    spec = lc.SimulationSpec(
        densities=list(lc.REFERENCE_DENSITIES.values()),
        sizes=[50, 1000], replications=100, master_seed=2024)
    start = time.perf_counter()
    table = lc.run_monte_carlo(spec)
    elapsed = time.perf_counter() - start
    return table, elapsed


@pytest.mark.slow
def test_criterion_5_consistency_trend(trend_experiment):
    with criterion(5, "Hellinger decreases from n=50 to n=1000, below 0.12"):
        table, _ = trend_experiment
        means = {(r.density, r.n): r.mean_hellinger for r in table.rows}
        for name in lc.REFERENCE_DENSITIES:
            at_small, at_large = means[(name, 50)], means[(name, 1000)]
            assert at_large < at_small, f"{name}: {at_large} !< {at_small}"
            assert at_large < 0.12, f"{name}: mean at n=1000 is {at_large}"


@pytest.mark.slow
def test_criterion_6_table_bands():
    with criterion(6, "Monte Carlo means sit in the published-table bands"):
        spec50 = lc.SimulationSpec(
            densities=[lc.NORMAL, lc.DOUBLE_EXPONENTIAL], sizes=[50],
            replications=500, master_seed=2024)
        rows = {r.density: r for r in lc.run_monte_carlo(spec50).rows}
        assert 0.08 <= rows["normal"].mean_hellinger <= 0.30
        assert 0.08 <= rows["double_exponential"].mean_hellinger <= 0.30
        spec500 = lc.SimulationSpec(densities=[lc.GAMMA], sizes=[500],
                                    replications=500, master_seed=2024)
        gamma_row = lc.run_monte_carlo(spec500).rows[0]
        assert gamma_row.mean_hellinger < 0.10


def test_criterion_7_peak_boundedness():
    with criterion(7, "estimated peak stays bounded as n grows"):
        peaks = {n: [] for n in (50, 200, 1000)}
        for n in peaks:
            for seed in range(20):
                draws = lc.sample_true(
                    lc.NORMAL, np.random.SeedSequence(70, spawn_key=(n, seed)),
                    n)
                fit, _ = lc.fit(lc.validate_sample(draws))
                peaks[n].append(float(np.exp(np.max(fit.theta))))
        for n, values in peaks.items():
            assert max(values) < 2.0, f"peak {max(values)} at n={n}"
        medians = {n: float(np.median(v)) for n, v in peaks.items()}
        assert medians[1000] <= medians[50] + 0.05, medians


@pytest.mark.slow
def test_criterion_8_performance(trend_experiment):
    with criterion(8, "single fit under 5s; trend experiment under 30min"):
        draws = lc.sample_true(lc.NORMAL, 80, 1000)
        sample = lc.validate_sample(draws)
        start = time.perf_counter()
        lc.fit(sample)
        single = time.perf_counter() - start
        assert single < 5.0, f"n=1000 fit took {single:.2f}s"
        _, elapsed = trend_experiment
        assert elapsed < 1800.0, f"trend experiment took {elapsed:.0f}s"


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "fit and simulate produce byte-identical reruns"):
        rng = np.random.default_rng(90)
        data = tmp_path / "data.txt"
        data.write_text("".join(f"{float(v)!r}\n"
                                for v in rng.normal(0.0, 1.0, 60)))
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / f"fit-{name}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "logcave.cli", "fit",
                 "--input", str(data), "--output", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["converged"] is True

        tables = []
        for name in ("a", "b"):
            out = tmp_path / f"table-{name}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "logcave.cli", "simulate",
                 "--densities", "normal,weibull", "--sizes", "30,60",
                 "--replications", "3", "--seed", "7",
                 "--output", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]