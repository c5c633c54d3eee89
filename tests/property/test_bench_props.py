"""Property-based tests: bench metric summaries.

The summary a gate reads is ordered like the samples it summarizes,
for any samples: min <= median <= max and min <= mean <= max.
"""

from hypothesis import given, settings, strategies as st

from repro.bench.runner import summarize


def samples(min_size=2, max_size=40):
    return st.lists(
        st.floats(min_value=-1e6, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=min_size, max_size=max_size,
    )


class TestStatsProperties:
    @given(samples(min_size=1))
    @settings(max_examples=100, deadline=None)
    def test_summary_ordering_invariants(self, values):
        summary = summarize(values)
        assert summary.min <= summary.median <= summary.max
        assert summary.min <= summary.mean <= summary.max
        assert summary.std >= 0.0
