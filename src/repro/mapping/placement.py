"""Physical placement of a CHARM design onto the AIE array.

Table II's configurations are logical groupings; building one means
assigning every kernel to a physical tile such that

* each cascade pack occupies consecutive tiles along the cascade snake
  (the 384-bit link only connects physical neighbours),
* each pack's head/tail reach a PLIO through the switch network from an
  interface column,
* the per-kernel data memory (double-buffered operand footprint) fits
  the 32 KB tile memory.

The placer below implements CHARM's column-major strategy and reports
what the Fig. 13 utilization axis measures for real: how many design
replicas fit, how long the PLIO feeder routes get, and how congested the
switch links are.  It also realises the Fig. 8 placement flavours
(``near`` / ``far`` / ``random``) for via-switch experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.aie_array import AieArray, Route
from repro.hw.plio import PlioAllocator, PlioDirection, PlioExhaustedError
from repro.hw.specs import DeviceSpec, VCK5000
from repro.mapping.charm import CharmDesign


class PlacementError(RuntimeError):
    """The design cannot be placed on the array."""


@dataclass(frozen=True)
class PlacedPack:
    """One cascade pack mapped to physical tiles."""

    pack_index: int
    tiles: tuple[tuple[int, int], ...]

    @property
    def head(self) -> tuple[int, int]:
        return self.tiles[0]

    @property
    def tail(self) -> tuple[int, int]:
        return self.tiles[-1]

    @property
    def depth(self) -> int:
        return len(self.tiles)


@dataclass
class Placement:
    """A fully placed design replica."""

    design: CharmDesign
    packs: list[PlacedPack]
    feeder_routes: list[Route] = field(default_factory=list)

    @property
    def tiles_used(self) -> int:
        return sum(p.depth for p in self.packs)

    def max_feeder_hops(self) -> int:
        if not self.feeder_routes:
            return 0
        return max(route.hop_count for route in self.feeder_routes)

    def mean_feeder_hops(self) -> float:
        if not self.feeder_routes:
            return 0.0
        return sum(r.hop_count for r in self.feeder_routes) / len(self.feeder_routes)


class CharmPlacer:
    """Places CHARM designs onto an :class:`AieArray`."""

    def __init__(self, device: DeviceSpec = VCK5000):
        self.device = device
        self.array = AieArray(device)
        self.plios = PlioAllocator(device)
        self.placements: list[Placement] = []
        self._snake = self._snake_order()
        #: every snake position before this index is occupied; valid
        #: while the array has not been reset since ``_array_resets``
        self._first_free = 0
        self._array_resets = self.array.resets

    # ------------------------------------------------------------------
    def _snake_order(self) -> list[tuple[int, int]]:
        """All positions in cascade-snake order (row-major, alternating
        direction), so chains pack without fragmenting the snake.  Each
        position's cascade successor is the next one in this order."""
        order = []
        for row in range(self.device.aie_rows):
            cols = range(self.device.aie_cols)
            if row % 2 == 1:
                cols = reversed(cols)
            order.extend((col, row) for col in cols)
        return order

    def _find_free_chain(self, depth: int) -> list[tuple[int, int]]:
        """The first ``depth`` consecutive free tiles along the snake."""
        snake, tiles = self._snake, self.array.tiles
        if self._array_resets != self.array.resets:
            self._first_free, self._array_resets = 0, self.array.resets
        while self._first_free < len(snake) and tiles[snake[self._first_free]].occupied:
            self._first_free += 1
        run = 0
        for index in range(self._first_free, len(snake)):
            if tiles[snake[index]].occupied:
                run = 0
                continue
            run += 1
            if run == depth:
                return snake[index - depth + 1 : index + 1]
        raise PlacementError(f"no free cascade chain of depth {depth} left")

    # ------------------------------------------------------------------
    def place(self, design: CharmDesign, name: str | None = None) -> Placement:
        """Place one replica of ``design``; raises when resources run out."""
        design.validate()
        grouping = design.config.grouping
        kernel_bytes = design.kernel.footprint_bytes()
        label = name if name is not None else f"replica{len(self.placements)}"

        packs = []
        placed_positions: list[tuple[int, int]] = []
        try:
            for pack_index in range(grouping.num_packs):
                chain = self._find_free_chain(grouping.pack_depth)
                for j, position in enumerate(chain):
                    self.array.tiles[position].place_kernel(
                        f"{label}-p{pack_index}k{j}", kernel_bytes
                    )
                    placed_positions.append(position)
                packs.append(PlacedPack(pack_index, tuple(chain)))
            plios_a, plios_b, plios_c = design.config.plio_split()
            self.plios.allocate_many(f"{label}-a", PlioDirection.PL_TO_AIE, plios_a)
            self.plios.allocate_many(f"{label}-b", PlioDirection.PL_TO_AIE, plios_b)
            self.plios.allocate_many(f"{label}-c", PlioDirection.AIE_TO_PL, plios_c)
        except (PlacementError, PlioExhaustedError):
            for position in placed_positions:  # roll back partial placement
                tile = self.array.tiles[position]
                tile.kernel = None
                tile.reserved_bytes = 0
            self._first_free = 0
            raise

        placement = Placement(design=design, packs=packs)
        self._route_feeders(placement)
        self.placements.append(placement)
        return placement

    def _route_feeders(self, placement: Placement) -> None:
        """Route each pack's input feed from the nearest interface tile
        (row 0 of its column) to the pack head."""
        for pack in placement.packs:
            col, _ = pack.head
            interface = (min(col, self.device.aie_cols - 1), 0)
            placement.feeder_routes.append(self.array.route(interface, pack.head))

    # ------------------------------------------------------------------
    def place_replicas(self, design: CharmDesign, count: int | None = None) -> list[Placement]:
        """Place as many replicas as fit (or exactly ``count``)."""
        placed = []
        while count is None or len(placed) < count:
            try:
                placed.append(self.place(design))
            except (PlacementError, PlioExhaustedError):
                if count is not None:
                    raise
                break
        return placed

    def utilization(self) -> float:
        return self.array.utilization()

    def plio_usage(self) -> int:
        return self.plios.used_total

    def congestion(self) -> int:
        return self.array.max_link_congestion()
