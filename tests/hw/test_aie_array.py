"""AIE array + switch network tests."""

import random
import re

import pytest

from repro.hw.aie_array import AieArray, HOP_LATENCY_CYCLES
from repro.hw.specs import VCK5000


class TestGrid:
    def test_400_tiles(self):
        assert AieArray().num_tiles == 400

    def test_tile_lookup(self):
        array = AieArray()
        assert array.tile(10, 3).position == (10, 3)

    def test_initial_utilization_zero(self):
        assert AieArray().utilization() == 0.0


class TestPlacement:
    def test_place_block_contiguous(self):
        array = AieArray()
        placed = array.place_block("k", 16)
        assert len(placed) == 16
        assert array.occupied_count() == 16

    def test_place_block_exhaustion(self):
        array = AieArray()
        array.place_block("k", 400)
        with pytest.raises(RuntimeError):
            array.place_block("extra", 1)

    def test_place_scattered_deterministic(self):
        a1, a2 = AieArray(), AieArray()
        p1 = [t.position for t in a1.place_scattered("k", 8, seed=42)]
        p2 = [t.position for t in a2.place_scattered("k", 8, seed=42)]
        assert p1 == p2

    def test_place_scattered_differs_by_seed(self):
        a1, a2 = AieArray(), AieArray()
        p1 = [t.position for t in a1.place_scattered("k", 8, seed=1)]
        p2 = [t.position for t in a2.place_scattered("k", 8, seed=2)]
        assert p1 != p2

    def test_reset_placement(self):
        array = AieArray()
        array.place_block("k", 32)
        array.reset_placement()
        assert array.occupied_count() == 0


class TestRouting:
    def test_route_is_shortest_path(self):
        array = AieArray()
        route = array.route((0, 0), (3, 0))
        assert route.hop_count == 3

    def test_route_latency(self):
        array = AieArray()
        route = array.route((0, 0), (2, 2))
        assert route.latency_cycles == route.hop_count * HOP_LATENCY_CYCLES

    def test_distance_manhattan(self):
        assert AieArray().distance((0, 0), (3, 4)) == 7

    def test_congestion_counts_shared_links(self):
        array = AieArray()
        array.route((0, 0), (5, 0))
        array.route((0, 0), (5, 0))
        assert array.max_link_congestion() == 2

    def test_congestion_zero_without_routes(self):
        assert AieArray().max_link_congestion() == 0

    def test_mean_congestion(self):
        array = AieArray()
        array.route((0, 0), (2, 0))
        assert array.mean_link_congestion() == 1.0

    def test_device_parameterised(self):
        from repro.hw.specs import AIE_ML_DEVICE

        array = AieArray(AIE_ML_DEVICE)
        assert array.num_tiles == AIE_ML_DEVICE.num_aies


class TestRoutingMatchesNetworkx:
    """The grid BFS must return networkx's exact path (ties included),
    so hop counts and link congestion match the networkx-routed seed."""

    @staticmethod
    def _array(cols, rows):
        import dataclasses

        return AieArray(dataclasses.replace(VCK5000, aie_cols=cols, aie_rows=rows))

    @pytest.mark.parametrize("cols,rows", [(5, 3), (6, 4), (1, 5), (4, 1), (1, 1)])
    def test_all_pairs_of_small_grids(self, cols, rows):
        nx = pytest.importorskip("networkx")
        array, graph = self._array(cols, rows), nx.grid_2d_graph(cols, rows)
        for src in graph.nodes:
            for dst in graph.nodes:
                assert array.shortest_path(src, dst) == nx.shortest_path(graph, src, dst)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_pairs_of_the_vck5000_grid(self, seed):
        nx = pytest.importorskip("networkx")
        array = AieArray()
        graph = nx.grid_2d_graph(VCK5000.aie_cols, VCK5000.aie_rows)
        nodes = sorted(graph.nodes)
        rng = random.Random(seed)
        for _ in range(2000):
            src, dst = rng.choice(nodes), rng.choice(nodes)
            assert array.shortest_path(src, dst) == nx.shortest_path(graph, src, dst)

    def test_link_congestion_unchanged(self):
        nx = pytest.importorskip("networkx")
        graph = nx.grid_2d_graph(VCK5000.aie_cols, VCK5000.aie_rows)
        nodes = sorted(graph.nodes)
        rng = random.Random(7)
        array, expected = AieArray(), {}
        for _ in range(300):
            src, dst = rng.choice(nodes), rng.choice(nodes)
            route = array.route(src, dst)
            path = nx.shortest_path(graph, src, dst)
            assert list(route.hops) == path
            for a, b in zip(path, path[1:]):
                link = frozenset((a, b))
                expected[link] = expected.get(link, 0) + 1
        assert array.max_link_congestion() == max(expected.values())
        assert array.mean_link_congestion() == sum(expected.values()) / len(expected)

    @pytest.mark.parametrize(
        "src,dst,bad",
        [((50, 0), (0, 0), (50, 0)), ((0, 0), (3, 8), (3, 8)), ((-1, 2), (0, 0), (-1, 2))],
    )
    def test_off_grid_endpoint_names_the_tile(self, src, dst, bad):
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            AieArray().route(src, dst)
