"""Buffered-pipeline engine tests: the semantics everything else rests on."""

import pytest

from repro.sim.engine import PipelineSimulator, PipelineStage


def constant(value):
    return lambda item: value


class TestBasics:
    def test_single_stage(self):
        pipe = PipelineSimulator([PipelineStage("s", constant(2.0))])
        assert pipe.run(3).makespan == pytest.approx(6.0)

    def test_zero_items(self):
        pipe = PipelineSimulator([PipelineStage("s", constant(2.0))])
        assert pipe.run(0).makespan == 0.0

    def test_rejects_empty_pipeline(self):
        with pytest.raises(ValueError):
            PipelineSimulator([])

    def test_rejects_negative_items(self):
        pipe = PipelineSimulator([PipelineStage("s", constant(1.0))])
        with pytest.raises(ValueError):
            pipe.run(-1)

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            PipelineStage("s", constant(1.0), slots=0)


class TestDoubleBufferedPipeline:
    def test_steady_state_is_max_of_stage_times(self):
        """Double buffering: throughput = 1/max(stage times) — exactly
        the paper's Eq. 1/2 max() structure."""
        pipe = PipelineSimulator(
            [
                PipelineStage("load", constant(3.0), slots=2),
                PipelineStage("compute", constant(5.0), slots=2),
                PipelineStage("store", constant(2.0), slots=2),
            ]
        )
        n = 50
        result = pipe.run(n)
        # fill (3 + 5 + 2) + (n-1) * max
        assert result.makespan == pytest.approx(10.0 + (n - 1) * 5.0)

    def test_fill_is_first_item_traversal(self):
        pipe = PipelineSimulator(
            [PipelineStage("a", constant(1.0)), PipelineStage("b", constant(4.0))]
        )
        result = pipe.run(1)
        assert result.makespan == pytest.approx(5.0)


class TestSingleBufferedPipeline:
    def test_single_buffer_serialises_adjacent_stages(self):
        """Section V-G: single buffering serialises producer/consumer."""
        pipe = PipelineSimulator(
            [
                PipelineStage("load", constant(3.0), slots=2),
                PipelineStage("compute", constant(5.0), slots=1),
            ]
        )
        n = 20
        result = pipe.run(n)
        # each load must wait for the previous compute to finish
        assert result.makespan == pytest.approx(3.0 + n * 5.0 + (n - 1) * 3.0)

    def test_single_always_slower_than_double(self):
        def build(slots):
            return PipelineSimulator(
                [
                    PipelineStage("load", constant(3.0), slots=2),
                    PipelineStage("compute", constant(5.0), slots=slots),
                ]
            )

        assert build(1).run(10).makespan > build(2).run(10).makespan

    def test_deep_buffers_behave_like_infinite(self):
        deep = PipelineSimulator(
            [
                PipelineStage("a", constant(1.0)),
                PipelineStage("b", constant(2.0), slots=100),
            ]
        )
        result = deep.run(10)
        assert result.makespan == pytest.approx(1.0 + 10 * 2.0)


class TestVariableService:
    def test_item_dependent_times(self):
        pipe = PipelineSimulator(
            [PipelineStage("s", lambda t: 1.0 if t % 2 == 0 else 3.0)]
        )
        assert pipe.run(4).makespan == pytest.approx(8.0)

    def test_lumpy_stage_with_wide_buffer_absorbed(self):
        """A periodic burst (like the C write-back) hides behind a buffer
        that spans the burst period."""
        burst = lambda t: 8.0 if (t + 1) % 4 == 0 else 0.0
        pipe = PipelineSimulator(
            [
                PipelineStage("work", constant(3.0), slots=2),
                PipelineStage("burst", burst, slots=8),
            ]
        )
        result = pipe.run(16)
        # bursts (2 per period of 12) never block: makespan ~ work-bound
        assert result.makespan == pytest.approx(16 * 3.0 + 8.0, rel=0.05)


class TestBlockingSemantics:
    """Satellite: pin the engine's backpressure rules to hand-computed
    schedules so the vectorized path has an unambiguous oracle."""

    def test_zero_items_empty_rows(self):
        pipe = PipelineSimulator(
            [PipelineStage("a", 1.0), PipelineStage("b", 2.0)]
        )
        result = pipe.run(0)
        assert result.makespan == 0.0
        assert result.end_times == [[], []]
        assert result.start_times == [[], []]

    def test_slots_one_vs_two_makespans(self):
        def build(slots):
            return PipelineSimulator(
                [
                    PipelineStage("produce", 2.0, slots=2),
                    PipelineStage("consume", 3.0, slots=slots),
                ]
            )

        # slots=2 (double buffered): fill 5, then consumer-bound
        assert build(2).run(6).makespan == pytest.approx(5.0 + 5 * 3.0)
        # slots=1 (single buffered): producer waits for the consumer to
        # drain its only slot, so each item costs 2 + 3 after the first
        assert build(1).run(6).makespan == pytest.approx(2.0 + 6 * 3.0 + 5 * 2.0)

    def test_three_stage_backpressure_hand_computed(self):
        """A slow tail stage with slots=1 backpressures through the middle."""
        pipe = PipelineSimulator(
            [
                PipelineStage("a", 1.0, slots=2),
                PipelineStage("b", 1.0, slots=2),
                PipelineStage("c", 4.0, slots=1),
            ]
        )
        result = pipe.run(3)
        # item0 flows freely: a 0-1, b 1-2, c 2-6
        # item1: a 1-2, but b may not begin until c's single slot frees
        #        (b writes into c's buffer): b 6-7, c 7-11
        # item2: a 2-3, b waits for c item1: b 11-12, c 12-16
        assert result.end_times[0] == pytest.approx([1.0, 2.0, 3.0])
        assert result.end_times[1] == pytest.approx([2.0, 7.0, 12.0])
        assert result.end_times[2] == pytest.approx([6.0, 11.0, 16.0])
        assert result.start_times[1] == pytest.approx([1.0, 6.0, 11.0])
        assert result.makespan == pytest.approx(16.0)


class TestVectorizedRun:
    """Tentpole: run(vectorize=True) must be bit-identical to the exact
    event loop for constant-service stages."""

    CASES = [
        [PipelineStage("s", 2.0)],
        [PipelineStage("a", 3.0, slots=2), PipelineStage("b", 5.0, slots=2)],
        [PipelineStage("a", 3.0, slots=2), PipelineStage("b", 5.0, slots=1)],
        [
            PipelineStage("load", 0.7, slots=2),
            PipelineStage("compute", 1.3, slots=2),
            PipelineStage("store", 0.2, slots=2),
        ],
        [
            PipelineStage("a", 1.0, slots=2),
            PipelineStage("b", 1.0, slots=2),
            PipelineStage("c", 4.0, slots=1),
        ],
        [PipelineStage("zero", 0.0), PipelineStage("work", 1.0)],
        [PipelineStage("a", 2.0, slots=1), PipelineStage("b", 3.0, slots=1)],
    ]

    @pytest.mark.parametrize("stages", CASES)
    @pytest.mark.parametrize("num_items", [0, 1, 2, 5, 33, 100, 600])
    def test_bit_identical_to_exact(self, stages, num_items):
        pipe = PipelineSimulator(stages)
        exact = pipe.run(num_items, vectorize=False)
        fast = pipe.run(num_items, vectorize=True)
        assert fast.end_times == exact.end_times  # exact float equality
        assert fast.start_times == exact.start_times
        assert fast.makespan == exact.makespan

    def test_numeric_service_matches_callable_constant(self):
        numeric = PipelineSimulator(
            [PipelineStage("a", 1.5, slots=2), PipelineStage("b", 2.5, slots=2)]
        )
        via_callable = PipelineSimulator(
            [
                PipelineStage("a", constant(1.5), slots=2),
                PipelineStage("b", constant(2.5), slots=2),
            ]
        )
        assert numeric.run(40).end_times == via_callable.run(40).end_times

    def test_auto_mode_matches_forced_exact_at_scale(self):
        pipe = PipelineSimulator(
            [PipelineStage("a", 0.3, slots=2), PipelineStage("b", 0.4, slots=1)]
        )
        # 2000 items crosses VECTORIZE_MIN_ITEMS, so auto vectorizes
        assert pipe.run(2000).end_times == pipe.run(2000, vectorize=False).end_times

    def test_callable_stages_fall_back_to_exact(self):
        pipe = PipelineSimulator(
            [PipelineStage("s", lambda t: 1.0 if t % 2 == 0 else 3.0)]
        )
        assert (
            pipe.run(600, vectorize=True).end_times
            == pipe.run(600, vectorize=False).end_times
        )

    def test_rejects_negative_numeric_service(self):
        with pytest.raises(ValueError):
            PipelineStage("s", -1.0)


class TestResultQueries:
    def test_stage_busy(self):
        pipe = PipelineSimulator(
            [PipelineStage("a", constant(2.0)), PipelineStage("b", constant(1.0))]
        )
        result = pipe.run(5)
        assert result.stage_busy_by_name("a") == pytest.approx(10.0)
        assert result.stage_busy_by_name("b") == pytest.approx(5.0)

    def test_bottleneck_stage(self):
        pipe = PipelineSimulator(
            [PipelineStage("small", constant(1.0)), PipelineStage("big", constant(4.0))]
        )
        assert pipe.run(10).bottleneck_stage() == "big"

    def test_monotone_end_times(self):
        pipe = PipelineSimulator(
            [PipelineStage("a", constant(1.5)), PipelineStage("b", constant(2.5))]
        )
        result = pipe.run(8)
        for stage_ends in result.end_times:
            assert all(b > a for a, b in zip(stage_ends, stage_ends[1:]))

    def test_items_flow_forward_in_time(self):
        pipe = PipelineSimulator(
            [PipelineStage("a", constant(1.0)), PipelineStage("b", constant(1.0))]
        )
        result = pipe.run(5)
        for t in range(5):
            assert result.start_times[1][t] >= result.end_times[0][t]
