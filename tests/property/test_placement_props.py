"""Property-based tests: physical-placement invariants."""

from hypothesis import given, settings, strategies as st

from repro.hw.plio import PlioExhaustedError
from repro.mapping.charm import CharmDesign
from repro.mapping.configs import ALL_CONFIGS, config_by_name
from repro.mapping.placement import CharmPlacer, PlacementError

config_names = st.sampled_from([c.name for c in ALL_CONFIGS if c.num_aies <= 64])

#: a placer's history: place a config, or clear the array between placements
placer_steps = st.lists(
    st.one_of(
        st.sampled_from([c.name for c in ALL_CONFIGS]),
        st.just("reset"),
    ),
    min_size=1,
    max_size=12,
)


def scan_from_tile_zero(placer, depth):
    """The reference scan: walk the snake from its first tile, following
    each free tile's cascade successors for a fully free chain."""
    tiles = placer.array.tiles
    for row in range(placer.device.aie_rows):
        cols = range(placer.device.aie_cols)
        for col in reversed(cols) if row % 2 else cols:
            chain = [(col, row)]
            while chain[-1] is not None and len(chain) < depth:
                chain.append(tiles[chain[-1]].cascade_successor())
            if None not in chain and not any(tiles[p].occupied for p in chain):
                return chain
    return None


class CheckedPlacer(CharmPlacer):
    """Checks every free-chain lookup against the reference scan."""

    def _find_free_chain(self, depth):
        expected = scan_from_tile_zero(self, depth)
        try:
            chain = super()._find_free_chain(depth)
        except PlacementError:
            assert expected is None
            raise
        assert chain == expected
        return chain


class TestPlacementProperties:
    @given(config_names, st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_tiles_never_shared(self, name, replicas):
        placer = CharmPlacer()
        design = CharmDesign(config_by_name(name))
        placements = placer.place_replicas(design, count=replicas)
        tiles = [t for p in placements for pack in p.packs for t in pack.tiles]
        assert len(tiles) == len(set(tiles))
        assert len(tiles) == replicas * design.config.num_aies

    @given(config_names)
    @settings(max_examples=15, deadline=None)
    def test_chains_follow_cascade(self, name):
        placer = CharmPlacer()
        placement = placer.place(CharmDesign(config_by_name(name)))
        for pack in placement.packs:
            for a, b in zip(pack.tiles, pack.tiles[1:]):
                assert placer.array.tiles[a].cascade_successor() == b

    @given(config_names)
    @settings(max_examples=15, deadline=None)
    def test_fill_until_exhaustion_respects_budgets(self, name):
        placer = CharmPlacer()
        design = CharmDesign(config_by_name(name))
        placements = placer.place_replicas(design)
        used_aies = sum(p.tiles_used for p in placements)
        assert used_aies <= placer.device.num_aies
        assert placer.plio_usage() <= placer.device.usable_plios
        # greedy fill leaves no room for one more replica
        expected_max = min(
            placer.device.num_aies // design.config.num_aies,
            placer.device.usable_plios // design.config.num_plios,
        )
        assert len(placements) <= expected_max
        assert len(placements) >= expected_max - 1  # snake fragmentation slack

    @given(placer_steps)
    @settings(max_examples=40, deadline=None)
    def test_free_chain_cursor_matches_full_scan(self, steps):
        placer = CheckedPlacer()
        for step in steps:
            if step == "reset":
                placer.array.reset_placement()
                continue
            occupied = {p for p, t in placer.array.tiles.items() if t.occupied}
            try:
                placer.place(CharmDesign(config_by_name(step)))
            except (PlacementError, PlioExhaustedError):
                # an overflow rolls back every tile it took
                assert occupied == {
                    p for p, t in placer.array.tiles.items() if t.occupied
                }
