"""Parameter sweep helper tests."""

from repro.core.sweep import sweep


class TestSweep:
    def test_cartesian_product(self):
        result = sweep(
            {"a": [1, 2], "b": [10, 20]},
            lambda a, b: {"sum": a + b},
        )
        assert len(result) == 4
        assert result.records[0] == {"a": 1, "b": 10, "sum": 11}

    def test_skip_via_none(self):
        result = sweep(
            {"a": [1, 2, 3]},
            lambda a: None if a == 2 else {"sq": a * a},
        )
        assert len(result) == 2
        assert (result.stats.evaluations, result.stats.skipped) == (2, 1)

    def test_column_access(self):
        result = sweep({"a": [1, 2]}, lambda a: {"b": a * 2})
        assert result.column("b") == [2, 4]

    def test_where_filter(self):
        result = sweep({"a": [1, 2], "b": [3, 4]}, lambda a, b: {})
        assert len(result.where(a=1)) == 2
        assert len(result.where(a=1, b=3)) == 1

    def test_iterable(self):
        result = sweep({"a": [5]}, lambda a: {})
        assert [r["a"] for r in result] == [5]

    def test_axes_materialized(self):
        result = sweep({"a": iter([1, 2])}, lambda a: {})
        assert result.axes["a"] == [1, 2]
