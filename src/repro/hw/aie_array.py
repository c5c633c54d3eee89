"""The 2-D AI Engine array and its stream-switch network.

Models the 50x8 grid of the VCK5000 (400 tiles), the interface-tile row
at the bottom, and the switch network used by via-switch (stream)
connections.  Routing is a breadth-first search over the switch grid so
via-switch hop counts, placements (near / far / random) and link
congestion can be measured rather than assumed — these feed the Fig. 8
communication-scheme study.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.hw.aie import AieTile
from repro.hw.specs import DeviceSpec, VCK5000

#: Switch traversal latency per hop, in AIE cycles (stream register stage).
HOP_LATENCY_CYCLES = 4


@dataclass(frozen=True)
class Route:
    """A routed stream through the switch network."""

    source: tuple[int, int]
    dest: tuple[int, int]
    hops: tuple[tuple[int, int], ...]

    @property
    def hop_count(self) -> int:
        return len(self.hops) - 1

    @property
    def latency_cycles(self) -> int:
        return self.hop_count * HOP_LATENCY_CYCLES


class AieArray:
    """The AIE array: tile grid + switch network + placement bookkeeping."""

    def __init__(self, device: DeviceSpec = VCK5000):
        self.device = device
        self.tiles = {
            (col, row): AieTile(col, row, device)
            for col in range(device.aie_cols)
            for row in range(device.aie_rows)
        }
        #: stream flows currently routed, per link (for congestion analysis)
        self._link_flows: dict[frozenset[tuple[int, int]], int] = {}
        #: how many times :meth:`reset_placement` has cleared the grid
        self.resets = 0

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        return len(self.tiles)

    def tile(self, col: int, row: int) -> AieTile:
        return self.tiles[(col, row)]

    def occupied_count(self) -> int:
        return sum(1 for t in self.tiles.values() if t.occupied)

    def utilization(self) -> float:
        return self.occupied_count() / self.num_tiles

    def free_positions(self) -> list[tuple[int, int]]:
        return [pos for pos, t in sorted(self.tiles.items()) if not t.occupied]

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place_block(self, name_prefix: str, count: int, data_bytes: int = 0) -> list[AieTile]:
        """Place ``count`` kernels on contiguous free tiles (column-major).

        This is the compact placement cascade connections require: each
        kernel's cascade successor is physically adjacent.
        """
        free = self.free_positions()
        if count > len(free):
            raise RuntimeError(
                f"cannot place {count} kernels; only {len(free)} tiles free"
            )
        placed = []
        for i, pos in enumerate(free[:count]):
            tile = self.tiles[pos]
            tile.place_kernel(f"{name_prefix}{i}", data_bytes)
            placed.append(tile)
        return placed

    def place_scattered(
        self, name_prefix: str, count: int, seed: int, data_bytes: int = 0
    ) -> list[AieTile]:
        """Place kernels on random free tiles (the compiler's 'random'
        placement in the Fig. 8 via-switch experiments)."""
        free = self.free_positions()
        if count > len(free):
            raise RuntimeError(
                f"cannot place {count} kernels; only {len(free)} tiles free"
            )
        rng = random.Random(seed)
        chosen = rng.sample(free, count)
        placed = []
        for i, pos in enumerate(chosen):
            tile = self.tiles[pos]
            tile.place_kernel(f"{name_prefix}{i}", data_bytes)
            placed.append(tile)
        return placed

    def reset_placement(self) -> None:
        for tile in self.tiles.values():
            tile.kernel = None
            tile.reserved_bytes = 0
        self._link_flows.clear()
        self.resets += 1

    # ------------------------------------------------------------------
    # Via-switch routing
    # ------------------------------------------------------------------
    def _neighbours(self, pos: tuple[int, int]) -> list[tuple[int, int]]:
        # networkx's grid_2d_graph adjacency order; route ties break on it
        i, j = pos
        return [
            p for p in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
            if p in self.tiles
        ]

    def shortest_path(
        self, src: tuple[int, int], dst: tuple[int, int]
    ) -> list[tuple[int, int]]:
        """Bidirectional breadth-first search from ``src`` to ``dst``.

        Expands the smaller frontier a level at a time and stops at the
        first tile both searches reach, as ``networkx.shortest_path``
        does on a grid graph, so ties resolve to the same path.
        """
        for pos in (src, dst):
            if pos not in self.tiles:
                raise ValueError(
                    f"tile {pos} is off the {self.device.aie_cols}x"
                    f"{self.device.aie_rows} AIE grid"
                )
        # parents[0] leads back to src, parents[1] on to dst
        parents: tuple[dict, dict] = ({src: None}, {dst: None})
        fringes = [[src], [dst]]
        meet = src if src == dst else None
        while meet is None:
            side = 0 if len(fringes[0]) <= len(fringes[1]) else 1
            seen, other = parents[side], parents[1 - side]
            level, fringes[side] = fringes[side], []
            for v in level:
                for w in self._neighbours(v):
                    if w not in seen:
                        seen[w] = v
                        fringes[side].append(w)
                    if w in other:
                        meet = w
                        break
                if meet is not None:
                    break
        path = [meet]
        while parents[0][path[-1]] is not None:
            path.append(parents[0][path[-1]])
        path.reverse()
        while parents[1][path[-1]] is not None:
            path.append(parents[1][path[-1]])
        return path

    def route(self, src: tuple[int, int], dst: tuple[int, int]) -> Route:
        """Shortest-path route through the switch network, recording the
        flow on every traversed link for congestion accounting."""
        path = self.shortest_path(src, dst)
        for a, b in zip(path, path[1:]):
            link = frozenset((a, b))
            self._link_flows[link] = self._link_flows.get(link, 0) + 1
        return Route(source=src, dest=dst, hops=tuple(path))

    def max_link_congestion(self) -> int:
        """Largest number of flows sharing one switch link."""
        if not self._link_flows:
            return 0
        return max(self._link_flows.values())

    def mean_link_congestion(self) -> float:
        if not self._link_flows:
            return 0.0
        return sum(self._link_flows.values()) / len(self._link_flows)

    def distance(self, src: tuple[int, int], dst: tuple[int, int]) -> int:
        """Manhattan hop distance between two tiles."""
        return abs(src[0] - dst[0]) + abs(src[1] - dst[1])
