"""The shared nearest-rank percentile: edge cases and properties.

One implementation (:func:`repro.stats.timing.percentile`) serves the
service metrics and the bench harness — these tests pin
its edge-case contract and cross-check it against
:func:`statistics.quantiles` on well-behaved inputs.
"""

import math
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench import harness
from repro.errors import InvalidParameterError
from repro.service.metrics import percentile as service_percentile
from repro.stats.timing import percentile


class TestEdgeCases:
    def test_empty_returns_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_sample_is_every_quantile(self):
        for q in (0.0, 0.25, 0.5, 0.95, 1.0):
            assert percentile([3.25], q) == 3.25

    def test_q_zero_is_minimum(self):
        assert percentile([5.0, 1.0, 3.0], 0.0) == 1.0

    def test_q_one_is_maximum(self):
        assert percentile([5.0, 1.0, 3.0], 1.0) == 5.0

    @pytest.mark.parametrize("q", [-0.01, 1.01, 2.0, float("nan"),
                                   float("inf"), -float("inf")])
    def test_out_of_range_q_raises(self, q):
        with pytest.raises(InvalidParameterError):
            percentile([1.0, 2.0], q)

    def test_non_finite_samples_dropped(self):
        samples = [float("nan"), 2.0, float("inf"), 1.0, -float("inf")]
        assert percentile(samples, 0.5) == 1.0
        assert percentile(samples, 1.0) == 2.0

    def test_all_non_finite_returns_zero(self):
        assert percentile([float("nan"), float("inf")], 0.5) == 0.0

    def test_nearest_rank_convention(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        # ceil(0.5 * 4) = 2nd order statistic.
        assert percentile(samples, 0.5) == 2.0
        # ceil(0.95 * 4) = 4th.
        assert percentile(samples, 0.95) == 4.0

    def test_one_shared_implementation(self):
        """Every consumer resolves to the same function object."""
        assert service_percentile is percentile
        assert harness.percentile is percentile


finite_samples = st.lists(
    st.floats(min_value=-1e9, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=200,
)


class TestProperties:
    @given(finite_samples, st.floats(min_value=0.0, max_value=1.0))
    def test_result_is_an_observed_sample(self, samples, q):
        assert percentile(samples, q) in samples

    @given(finite_samples,
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_in_q(self, samples, q1, q2):
        lo, hi = sorted((q1, q2))
        assert percentile(samples, lo) <= percentile(samples, hi)

    @given(finite_samples)
    def test_bounds(self, samples):
        assert percentile(samples, 0.0) == min(samples)
        assert percentile(samples, 1.0) == max(samples)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=4, max_size=100),
           st.integers(min_value=1, max_value=99))
    def test_close_to_statistics_quantiles(self, samples, pct):
        """Nearest-rank never strays past an adjacent order statistic
        from the inclusive interpolation ``statistics.quantiles`` uses."""
        ordered = sorted(samples)
        ours = percentile(samples, pct / 100.0)
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        theirs = cuts[pct - 1]
        idx = max(1, math.ceil(pct / 100.0 * len(ordered))) - 1
        assert ordered[idx] == ours
        neighborhood = ordered[max(0, idx - 1):idx + 2]
        span = max(neighborhood) - min(neighborhood)
        assert abs(ours - theirs) <= span + 1e-9 * max(
            1.0, abs(ours), abs(theirs)
        )
