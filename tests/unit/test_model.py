"""Unit tests for repro.core.model (Section 5.3 performance model)."""

import math

import numpy as np
import pytest

from repro.core import model
from repro.data.synthetic import uniform_products, uniform_weights
from repro.errors import InvalidParameterError


class TestDice:
    def test_two_dice_classic(self):
        # Two six-sided dice: 6 ways to roll 7, 1 way to roll 2 or 12.
        assert model.dice_ways(7, 2, 6) == 6
        assert model.dice_ways(2, 2, 6) == 1
        assert model.dice_ways(12, 2, 6) == 1

    def test_out_of_range_totals(self):
        assert model.dice_ways(1, 2, 6) == 0
        assert model.dice_ways(13, 2, 6) == 0

    def test_ways_match_bruteforce(self):
        import itertools

        faces, dice = 4, 3
        counts = {}
        for roll in itertools.product(range(1, faces + 1), repeat=dice):
            counts[sum(roll)] = counts.get(sum(roll), 0) + 1
        for total, ways in counts.items():
            assert model.dice_ways(total, dice, faces) == ways

    def test_probabilities_sum_to_one(self):
        dice, faces = 4, 9
        total_prob = sum(
            model.dice_probability(s, dice, faces)
            for s in range(dice, dice * faces + 1)
        )
        assert total_prob == pytest.approx(1.0)

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidParameterError):
            model.dice_ways(3, 0, 6)

    def test_score_cell_probability(self):
        # d=1, n=2 -> 4 equally likely cells.
        assert model.score_cell_probability(1, 1, 2) == pytest.approx(0.25)


class TestNormalApproximation:
    def test_subscore_moments_equation16(self):
        mu, sigma = model.subscore_moments(1.0)
        assert mu == pytest.approx(0.5)
        assert sigma == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)))

    def test_score_params_equation19(self):
        mu_p, sigma_p = model.score_distribution_params(16, 1.0)
        assert mu_p == pytest.approx(8.0)
        assert sigma_p == pytest.approx(math.sqrt(16) / (2 * math.sqrt(3)))

    def test_pdf_integrates_to_one(self):
        xs = np.linspace(-5, 15, 20001)
        pdf = model.score_pdf(xs, 10, 1.0)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        assert trapezoid(pdf, xs) == pytest.approx(1.0, abs=1e-3)

    def test_empirical_subscore_distribution(self):
        """The CLT claim of Lemma 1: standardized mean sub-scores are
        roughly N(0,1) for moderate d."""
        rng = np.random.default_rng(6)
        d = 36
        # Note: the model assumes w*p uniform per dimension; emulate that.
        sub = rng.random((5000, d)) * rng.random((5000, d))
        # Each factor uniform makes the product non-uniform; instead draw
        # the sub-scores uniform directly, as the model states.
        sub = rng.random((5000, d))
        mu, sigma = model.subscore_moments(1.0)
        z = math.sqrt(d) / sigma * (sub.mean(axis=1) - mu)
        assert abs(z.mean()) < 0.1
        assert abs(z.std() - 1.0) < 0.1


class TestTheorem1:
    def test_worked_example_d20(self):
        """Section 5.3: d = 20, eps = 1% -> n = 32 (next power of two)."""
        bound = model.required_partitions(20, 0.01)
        assert 20 < bound < 32
        assert model.recommend_partitions(20, 0.01) == 32

    def test_worst_case_filtering_d20_n32(self):
        """n = 32 must guarantee > 99% filtering at d = 20."""
        assert model.worst_case_filtering(20, 32) > 0.99

    def test_filtering_monotone_in_n(self):
        values = [model.worst_case_filtering(20, n) for n in (4, 8, 16, 32, 64)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_filtering_decreases_with_d(self):
        assert (model.worst_case_filtering(50, 16)
                < model.worst_case_filtering(5, 16))

    def test_recommended_n_grows_with_d(self):
        assert (model.recommend_partitions(50, 0.01)
                >= model.recommend_partitions(5, 0.01))

    def test_recommendation_satisfies_target(self):
        for d in (4, 10, 20, 40):
            n = model.recommend_partitions(d, 0.01)
            assert model.worst_case_filtering(d, n) > 0.99

    def test_non_power_of_two_option(self):
        n = model.recommend_partitions(20, 0.01, power_of_two=False)
        assert 24 <= n <= 26

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidParameterError):
            model.required_partitions(10, 0.0)
        with pytest.raises(InvalidParameterError):
            model.required_partitions(10, 1.5)

    def test_grid_memory_section53(self):
        """32x32 grid: 'less than 8K (32*32*8) bytes' per the paper."""
        assert model.grid_memory_bytes(32) == 33 * 33 * 8
        assert model.grid_memory_bytes(32) < 10_000

    def test_grid_interval_width(self):
        assert model.grid_interval_width(20, 32, 1.0) == pytest.approx(
            20 / 1024
        )


class TestMeasuredFiltering:
    def test_measured_below_idealized_model(self):
        """Reproduction finding (see EXPERIMENTS.md): the Section 5.3 model
        assumes each per-dimension product is quantized into n^2 equal
        intervals, but the real grid cell for codes (i, j) spans
        (i+j+1)/n^2.  Measured bound-only filtering therefore sits well
        below the model's prediction — around 0.7-0.8 at d=6, n=32 on UN
        data — while still being substantial."""
        P = uniform_products(300, 6, value_range=1.0, seed=8).values
        W = uniform_weights(30, 6, seed=9).values
        queries = P[:3]
        measured = model.measure_filtering(P, W, 32, 1.0, queries)
        assert 0.6 < measured < model.worst_case_filtering(6, 32)

    def test_more_partitions_filter_more(self):
        P = uniform_products(200, 6, value_range=1.0, seed=10).values
        W = uniform_weights(20, 6, seed=11).values
        queries = P[:2]
        coarse = model.measure_filtering(P, W, 4, 1.0, queries)
        fine = model.measure_filtering(P, W, 64, 1.0, queries)
        assert fine > coarse


class TestCeilPartitions:
    """The single normalization point between Theorem 1's real-valued
    bound and an integer grid size (regression: callers used to
    truncate/round the float themselves, inconsistently)."""

    def test_ceil_and_floor_clamp(self):
        assert model.ceil_partitions(4.001) == 5
        assert model.ceil_partitions(4.0) == 4
        assert model.ceil_partitions(0.3) == 1
        assert model.ceil_partitions(-7.0) == 1

    def test_non_finite_bounds_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidParameterError):
                model.ceil_partitions(bad)
        with pytest.raises(InvalidParameterError):
            model.ceil_partitions("many")

    def test_non_finite_epsilon_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                model.required_partitions(8, bad)
            with pytest.raises(InvalidParameterError):
                model.recommend_partitions(8, bad)

    def test_recommendation_goes_through_ceil(self):
        bound = model.required_partitions(20, 0.01)
        n = model.recommend_partitions(20, 0.01, power_of_two=False)
        assert n == model.ceil_partitions(bound)
        assert n >= 1


class TestLazyScipy:
    def test_serving_process_never_imports_scipy_stats(self):
        """``scipy.stats`` is ~1 s of cold start and ~60 MB of RSS; only
        the three normal-approximation functions may pay for it."""
        import os
        import subprocess
        import sys

        script = (
            "import sys\n"
            "import repro.cli\n"
            "from repro.data.synthetic import uniform_products, "
            "uniform_weights\n"
            "from repro.service import QueryService\n"
            "service = QueryService.from_datasets(\n"
            "    uniform_products(30, 3, seed=1), "
            "uniform_weights(20, 3, seed=2))\n"
            "try:\n"
            "    service.query(product=4, kind='rkr', k=3)\n"
            "finally:\n"
            "    service.close()\n"
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats loaded'\n"
            "from repro.core import model\n"
            "model.worst_case_filtering(4, 32)\n"
            "assert 'scipy.stats' in sys.modules\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src)] + env.get("PYTHONPATH", "").split(os.pathsep))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
