"""Reference densities, samplers, Hellinger distance, Monte Carlo driver."""

import math

import numpy as np
import pytest

import logcave as lc
from logcave.simulation import pdf_mass, _gauss_kronrod

from oracles import hellinger_quad, hellinger_unique_cuts


class TestReferencePdfs:
    def test_laplace_peak(self):
        assert lc.DOUBLE_EXPONENTIAL.pdf(0.0) == pytest.approx(0.5)

    def test_gamma_value(self):
        # x^2 e^{-x} / 2 at x = 2
        assert lc.GAMMA.pdf(2.0) == pytest.approx(2.0 * np.exp(-2.0), rel=1e-14)

    def test_beta_value(self):
        # 12 x^2 (1 - x) at x = 1/2
        assert lc.BETA.pdf(0.5) == pytest.approx(1.5, rel=1e-14)

    def test_weibull_value(self):
        assert lc.WEIBULL.pdf(1.0) == pytest.approx(3.0 * np.exp(-1.0), rel=1e-14)

    def test_zero_outside_support(self):
        assert lc.GAMMA.pdf(-1.0) == 0.0
        assert lc.BETA.pdf(1.5) == 0.0
        assert lc.WEIBULL.pdf(0.0) == 0.0

    @pytest.mark.parametrize("name", sorted(lc.REFERENCE_DENSITIES))
    def test_integrates_to_one(self, name):
        assert pdf_mass(lc.REFERENCE_DENSITIES[name]) == pytest.approx(
            1.0, abs=1e-8)

    @pytest.mark.parametrize("name", sorted(lc.REFERENCE_DENSITIES))
    def test_log_concave_on_support(self, name):
        density = lc.REFERENCE_DENSITIES[name]
        lo = max(density.support[0], -8.0) + 1e-3
        hi = min(density.support[1], 8.0) - 1e-3
        x = np.linspace(lo, hi, 2001)
        logf = density.log_pdf(x)
        second = np.diff(logf, 2)
        assert np.all(second < 1e-9)


class TestSamplers:
    def test_empty(self):
        assert lc.sample_true(lc.NORMAL, 1, 0).size == 0

    def test_deterministic(self):
        a = lc.sample_true(lc.WEIBULL, 123, 50)
        b = lc.sample_true(lc.WEIBULL, 123, 50)
        assert np.array_equal(a, b)

    def test_gamma_mean_clt_band(self):
        draws = lc.sample_true(lc.GAMMA, 7, 100000)
        # mean 3, variance 3
        assert abs(draws.mean() - 3.0) < 3.0 * math.sqrt(3.0 / draws.size)

    def test_laplace_moments(self):
        draws = lc.sample_true(lc.DOUBLE_EXPONENTIAL, 8, 100000)
        assert abs(draws.mean()) < 3.0 * math.sqrt(2.0 / draws.size)
        assert abs(np.mean(np.abs(draws)) - 1.0) < 0.02

    def test_beta_support_and_mean(self):
        draws = lc.sample_true(lc.BETA, 9, 100000)
        assert np.all((draws > 0) & (draws < 1))
        assert abs(draws.mean() - 0.6) < 0.01  # mean 3/5

    def test_weibull_third_moment(self):
        draws = lc.sample_true(lc.WEIBULL, 10, 100000)
        # x^3 is standard exponential
        assert abs(np.mean(draws ** 3) - 1.0) < 0.02


class TestGaussKronrod:
    def test_polynomial_exact(self):
        got = _gauss_kronrod(lambda x: x ** 3 - x + 2.0,
                             np.array([0.0]), np.array([2.0]), 1e-12)
        assert got == pytest.approx(4.0 - 2.0 + 4.0, abs=1e-12)

    def test_exp_segments(self):
        cuts = np.linspace(0.0, 1.0, 7)
        got = _gauss_kronrod(np.exp, cuts[:-1], cuts[1:], 1e-10)
        assert got == pytest.approx(np.e - 1.0, abs=1e-9)

    def test_against_scipy_on_oscillatory(self):
        from scipy.integrate import quad
        f = lambda x: np.exp(-x) * np.cos(5 * x) ** 2
        got = _gauss_kronrod(f, np.array([0.0]), np.array([4.0]), 1e-10)
        want, _ = quad(f, 0.0, 4.0, epsabs=1e-12)
        assert got == pytest.approx(want, abs=1e-9)


class TestHellinger:
    def test_identical_reference_densities(self):
        for name, density in lc.REFERENCE_DENSITIES.items():
            assert lc.hellinger_pdfs(density, density) == pytest.approx(
                0.0, abs=1e-6)

    def test_symmetry_of_pdf_variant(self):
        a = lc.hellinger_pdfs(lc.NORMAL, lc.GAMMA)
        b = lc.hellinger_pdfs(lc.GAMMA, lc.NORMAL)
        assert a == pytest.approx(b, abs=1e-9)

    def test_disjoint_supports_hit_upper_bound(self):
        fit = lc.LogConcaveFit(lc.validate_sample([0.0, 1.0]), np.zeros(2))
        far = lc.ReferenceDensity("far-uniform",
                                  lambda x: np.where(
                                      (np.asarray(x) >= 5.0)
                                      & (np.asarray(x) <= 6.0), 0.0, -np.inf),
                                  (5.0, 6.0))
        assert lc.hellinger(fit, far) == pytest.approx(math.sqrt(2.0))

    def test_gaussian_closed_form(self):
        shifted = lc.ReferenceDensity(
            "normal-shifted",
            lambda x: -0.5 * (np.asarray(x, float) - 1.0) ** 2
            - 0.5 * math.log(2 * math.pi),
            (-np.inf, np.inf))
        got = lc.hellinger_pdfs(lc.NORMAL, shifted)
        want = math.sqrt(2.0 * (1.0 - math.exp(-1.0 / 8.0)))
        assert got == pytest.approx(want, abs=1e-9)

    def test_fit_vs_density_matches_quad(self):
        from scipy.integrate import quad
        data = lc.sample_true(lc.NORMAL, 3, 80)
        fit, _ = lc.fit(lc.validate_sample(data))
        got = lc.hellinger(fit, lc.NORMAL)
        lo, hi = fit.support
        overlap, _ = quad(lambda x: math.sqrt(float(fit.pdf(x))
                                              * float(lc.NORMAL.pdf(x))),
                          lo, hi, points=list(fit.sample.knots[1:-1])[:50],
                          limit=200, epsabs=1e-11)
        want = math.sqrt(2.0 * (1.0 - overlap))
        assert got == pytest.approx(want, abs=1e-7)

    def test_cuts_match_clipped_unique_knots(self):
        # every fit against every density, so that the common support
        # clips the knots at either end in some pairs.  The oracle is
        # adaptive Simpson cut at every knot
        densities = list(lc.REFERENCE_DENSITIES.values())
        for seed, source in enumerate(densities):
            data = lc.sample_true(source, seed, 60)
            fit, _ = lc.fit(lc.validate_sample(data))
            for density in densities:
                got = lc.hellinger(fit, density)
                assert got == pytest.approx(
                    hellinger_unique_cuts(fit, density), abs=1e-8)
                assert got == pytest.approx(
                    hellinger_quad(fit, density), abs=1e-10)

    @pytest.mark.parametrize("seed, spawn_key", [(11, (1, 25, 4)),
                                                 (10, (1, 50, 1))])
    def test_laplace_kink_near_a_cut(self, seed, spawn_key):
        # fits with a kink of their own near 0, so that the Laplace kink
        # can fall before the first Gauss-Kronrod node of a piece; without
        # the declared kink the second misses by 5e-4
        density = lc.DOUBLE_EXPONENTIAL
        assert density.kinks == (0.0,)
        data = lc.sample_true(density, np.random.SeedSequence(
            seed, spawn_key=spawn_key), spawn_key[1])
        fit, _ = lc.fit(lc.validate_sample(data, jitter_ties=True))
        assert lc.hellinger(fit, density) == pytest.approx(
            hellinger_quad(fit, density), abs=1e-10)

    @pytest.mark.parametrize("name, seed, key", [
        ("normal", 7, (0, 5000)),
        ("beta", 5, (3, 5000)),
        ("beta", 356, (3, 1000))], ids=["normal-5000", "beta-5000",
                                        "beta-1000"])
    def test_large_fits_match_quad(self, name, seed, key):
        # both beta samples reach within 1e-3 of 1, where sqrt(1 - x) is
        # nearly singular at the last cut
        density = lc.REFERENCE_DENSITIES[name]
        data = lc.sample_true(density, np.random.SeedSequence(
            seed, spawn_key=key), key[1])
        fit, _ = lc.fit(lc.validate_sample(data))
        if name == "beta":
            assert 1.0 - fit.sample.knots[-1] < 1e-3
        assert lc.hellinger(fit, density) == pytest.approx(
            hellinger_quad(fit, density), abs=1e-10)

    def test_cuts_only_where_the_fit_bends(self):
        # cutting at each of the 4 999 knots would take at least 15 points
        # per piece, 74 985 in all
        data = lc.sample_true(lc.NORMAL, np.random.SeedSequence(
            7, spawn_key=(0, 5000)), 5000)
        fit, _ = lc.fit(lc.validate_sample(data))
        points = []

        def counted(x):
            points.append(np.size(x))
            return lc.NORMAL.log_pdf(x)

        density = lc.ReferenceDensity("counted", counted, lc.NORMAL.support)
        assert lc.hellinger(fit, density) == lc.hellinger(fit, lc.NORMAL)
        assert sum(points) < 7500

    def test_fit_from_theta_alone_is_cut_at_every_knot(self):
        data = lc.sample_true(lc.GAMMA, 4, 80)
        fit, _ = lc.fit(lc.validate_sample(data))
        bare = lc.LogConcaveFit(fit.sample, fit.theta)
        assert lc.hellinger(bare, lc.GAMMA) == pytest.approx(
            hellinger_quad(fit, lc.GAMMA), abs=1e-10)

    def test_kinks_outside_the_support_change_nothing(self):
        data = lc.sample_true(lc.NORMAL, 6, 50)
        fit, _ = lc.fit(lc.validate_sample(data))
        outside = lc.ReferenceDensity("normal-far-kinks", lc.NORMAL.log_pdf,
                                      lc.NORMAL.support, kinks=(-50.0, 50.0))
        assert lc.hellinger(fit, outside) == lc.hellinger(fit, lc.NORMAL)

    @pytest.mark.parametrize("kinks", [(math.nan,), (0.0, math.inf),
                                       (-math.inf,), ("0.5",), (None,), 0.5])
    def test_bad_kinks_rejected(self, kinks):
        with pytest.raises(lc.LogcaveError, match="kinks"):
            lc.ReferenceDensity("bad", lc.NORMAL.log_pdf, lc.NORMAL.support,
                                kinks=kinks)

    def test_bounds_respected(self):
        fit = lc.LogConcaveFit(lc.validate_sample([0.0, 1.0]), np.zeros(2))
        for density in lc.REFERENCE_DENSITIES.values():
            h = lc.hellinger(fit, density)
            assert 0.0 <= h <= math.sqrt(2.0)


def _laplace_on(lo, hi, centre=1.3):
    """Laplace density with its kink at ``centre``, restricted to (lo, hi)
    and renormalized."""
    mass = (1.0 - math.exp(-(centre - lo))) + (1.0 - math.exp(-(hi - centre)))
    log_norm = math.log(mass)

    def log_pdf(x):
        x = np.asarray(x, dtype=float)
        inside = (x > lo) & (x < hi)
        return np.where(inside, -np.abs(x - centre) - log_norm, -np.inf)

    return lc.ReferenceDensity(f"laplace-{lo}-{hi}", log_pdf, (lo, hi))


# one kinked density per support shape: (-inf, inf), (a, inf), (-inf, b), [a, b]
KINKED = [_laplace_on(-np.inf, np.inf), _laplace_on(0.5, np.inf),
          _laplace_on(-np.inf, 2.1), _laplace_on(-1.0, 2.5)]


def _quad_oracle(func, lo, hi, kink=1.3):
    """scipy's quad over [lo, hi], split at the kink."""
    from scipy.integrate import quad
    cuts = [lo] + ([kink] if lo < kink < hi else []) + [hi]
    return sum(quad(lambda x: float(func(x)), a, b, epsabs=1e-13,
                    epsrel=1e-13, limit=200)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))


class TestQuadrature:
    @pytest.mark.parametrize("density", KINKED + list(
        lc.REFERENCE_DENSITIES.values()), ids=lambda d: d.name)
    def test_pdf_mass_matches_quad(self, density):
        want = _quad_oracle(density.pdf, *density.support)
        assert pdf_mass(density) == pytest.approx(want, abs=1e-10)
        assert pdf_mass(density) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("other", [lc.NORMAL, lc.GAMMA, lc.BETA],
                             ids=lambda d: d.name)
    @pytest.mark.parametrize("density", KINKED, ids=lambda d: d.name)
    def test_hellinger_pdfs_matches_quad(self, density, other):
        lo = max(density.support[0], other.support[0])
        hi = min(density.support[1], other.support[1])
        overlap = _quad_oracle(
            lambda x: math.sqrt(density.pdf(x) * other.pdf(x)), lo, hi)
        want = math.sqrt(2.0 * (1.0 - overlap))
        assert lc.hellinger_pdfs(density, other) == pytest.approx(
            want, abs=1e-10)

    def test_unnormalized_density_fails_the_mass_check(self):
        double = lc.ReferenceDensity(
            "normal-times-two",
            lambda x: lc.NORMAL.log_pdf(x) + math.log(2.0),
            lc.NORMAL.support, lc.NORMAL.sampler)
        assert pdf_mass(double) == pytest.approx(2.0, abs=1e-10)
        spec = lc.SimulationSpec(densities=[double], sizes=[25],
                                 replications=1)
        with pytest.raises(lc.LogcaveError, match="integrates to"):
            lc.run_monte_carlo(spec)


class TestMonteCarlo:
    def test_table_is_deterministic(self):
        spec = lc.SimulationSpec(densities=[lc.NORMAL], sizes=[30],
                                 replications=2, master_seed=7)
        a = lc.run_monte_carlo(spec)
        b = lc.run_monte_carlo(spec)
        assert a == b

    def test_row_layout_and_ranges(self):
        spec = lc.SimulationSpec(densities=[lc.GAMMA, lc.NORMAL],
                                 sizes=[40, 25], replications=3,
                                 master_seed=11)
        table = lc.run_monte_carlo(spec)
        assert [(r.density, r.n) for r in table.rows] == [
            ("gamma", 25), ("gamma", 40), ("normal", 25), ("normal", 40)]
        for row in table.rows:
            assert 0.0 <= row.mean_hellinger <= math.sqrt(2.0)
            assert row.sd_hellinger >= 0.0
            assert row.replications == 3
            assert 0 <= row.failures <= 3

    def test_single_replication_has_zero_sd(self):
        spec = lc.SimulationSpec(densities=[lc.BETA], sizes=[20],
                                 replications=1, master_seed=3)
        table = lc.run_monte_carlo(spec)
        assert table.rows[0].sd_hellinger == 0.0

    def test_cell_seeds_do_not_depend_on_selection(self):
        # the same (density, n, replication) cell gives the same numbers no
        # matter which other densities are requested alongside
        a = lc.run_monte_carlo(lc.SimulationSpec(
            densities=[lc.WEIBULL], sizes=[30], replications=2, master_seed=5))
        b = lc.run_monte_carlo(lc.SimulationSpec(
            densities=[lc.NORMAL, lc.WEIBULL], sizes=[30], replications=2,
            master_seed=5))
        weibull_rows = [r for r in b.rows if r.density == "weibull"]
        assert weibull_rows == a.rows

    def test_spec_validation(self):
        with pytest.raises(lc.LogcaveError):
            lc.SimulationSpec(densities=[lc.NORMAL], sizes=[50],
                              replications=0)
        with pytest.raises(lc.LogcaveError):
            lc.SimulationSpec(densities=[lc.NORMAL], sizes=[1],
                              replications=2)
