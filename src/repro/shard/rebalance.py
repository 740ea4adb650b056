"""Online shard rebalancing plans.

A :class:`RebalancePlan` is a pure description — an ordered list of
:class:`ShardMove` record transfers — computed from the facade's
per-shard gauges (row counts, and optionally the scatter-latency
EWMAs behind ``repro_shard_scatter_seconds``, fed by the ranking
scatters of :meth:`~repro.shard.table.ShardedTable.map_shards`).
Applying one (:meth:`repro.shard.table.ShardedTable.rebalance`) moves
each record under the facade's write lock as an ordinary delete +
insert, so the downstream machinery — fragment caches, window
indexes, ranking column stores, WAL durability — sees
plain ``RemoveDelta``/``InsertDelta`` events and needs **no new
invalidation paths**: a moved record is simply removed from one shard
epoch-stream and inserted into another.

The planner is deliberately simple (the paper's workloads skew by
record count, not by per-record cost): level every live shard to the
mean load, shedding each donor's **highest** record ids first so the
moved ranges are deterministic and contiguous-ish under the sorted
iteration order the facade guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.shard.table import ShardedTable

__all__ = ["RebalancePlan", "ShardMove", "plan_rebalance"]


@dataclass(frozen=True, slots=True)
class ShardMove:
    """Move one record from its current shard to *target*."""

    record_id: int
    source: int
    target: int


@dataclass(frozen=True, slots=True)
class RebalancePlan:
    """An ordered batch of record moves plus the sizing rationale."""

    moves: tuple[ShardMove, ...]
    #: Row count per shard when the plan was computed (retired shards
    #: report 0 and are never receivers).
    sizes_before: tuple[int, ...] = ()
    #: The per-shard load the plan levels toward.
    target_size: float = 0.0

    def __bool__(self) -> bool:
        return bool(self.moves)

    @property
    def move_count(self) -> int:
        return len(self.moves)

    def moves_by_target(self) -> dict[int, list[ShardMove]]:
        grouped: dict[int, list[ShardMove]] = {}
        for move in self.moves:
            grouped.setdefault(move.target, []).append(move)
        return grouped


def plan_rebalance(
    table: "ShardedTable",
    tolerance: float = 0.1,
    use_latency: bool = False,
    max_moves: int | None = None,
) -> RebalancePlan:
    """Plan moves leveling *table*'s live shards to the mean load.

    A shard whose weighted load exceeds the mean by more than
    *tolerance* (fraction) donates its highest record ids to the
    most-underloaded receivers until both sides are inside the band.
    With ``use_latency=True`` each shard's row count is weighted by
    its scatter-latency EWMA relative to the fleet mean, so a slow
    shard is treated as bigger than its row count says (skew by
    per-record cost, not just cardinality).  Retired shards (merged
    away) always donate everything and never receive.
    """
    shards = table.shards
    retired = getattr(table, "retired_shards", frozenset())
    sizes = [len(shard) for shard in shards]
    live = [index for index in range(len(shards)) if index not in retired]
    if not live:
        return RebalancePlan(moves=(), sizes_before=tuple(sizes))

    weights = [1.0] * len(shards)
    if use_latency:
        ewmas = list(getattr(table, "scatter_latency", lambda: [])() or [])
        observed = [value for value in ewmas if value]
        if observed:
            mean_latency = sum(observed) / len(observed)
            if mean_latency > 0:
                for index, value in enumerate(ewmas):
                    if index < len(weights) and value:
                        weights[index] = value / mean_latency

    loads = [sizes[index] * weights[index] for index in range(len(shards))]
    live_total = sum(loads[index] for index in live)
    target = live_total / len(live)
    band = target * max(0.0, tolerance)

    # Donors: retired shards (shed everything), then live shards above
    # the band.  Receivers: live shards below the band, emptiest first.
    surplus: list[tuple[int, int]] = []  # (shard, rows to shed)
    for index in range(len(shards)):
        if index in retired:
            if sizes[index]:
                surplus.append((index, sizes[index]))
        elif loads[index] > target + band:
            weight = weights[index] or 1.0
            shed = int((loads[index] - target) / weight)
            if shed > 0:
                surplus.append((index, min(shed, sizes[index])))

    # Receivers: live shards strictly below target, emptiest first.
    deficit: list[tuple[float, int]] = sorted(
        (loads[index], index) for index in live if loads[index] < target
    )
    if not deficit and any(source in retired for source, _shed in surplus):
        # Perfectly level live fleet but a retired shard still holds
        # rows: every live shard is an (overflow) receiver.
        deficit = sorted((loads[index], index) for index in live)
    if not surplus or not deficit:
        return RebalancePlan(
            moves=(), sizes_before=tuple(sizes), target_size=target
        )

    capacity: dict[int, float] = {
        index: (target - load) / (weights[index] or 1.0)
        for load, index in deficit
    }
    receivers = [index for _load, index in deficit]

    moves: list[ShardMove] = []
    cursor = 0
    for source, shed in surplus:
        # Highest ids first: deterministic, and the complement of the
        # insertion order, so the remaining shard keeps its oldest rows.
        candidates = sorted(
            (record.record_id for record in shards[source].snapshot()),
            reverse=True,
        )[:shed]
        for record_id in candidates:
            placed = False
            for _spin in range(len(receivers)):
                receiver = receivers[cursor % len(receivers)]
                if receiver != source and capacity.get(receiver, 0) >= 1:
                    moves.append(ShardMove(record_id, source, receiver))
                    capacity[receiver] -= 1
                    cursor += 1
                    placed = True
                    break
                cursor += 1
            if not placed and source in retired:
                # A retired shard must empty even when receivers are
                # nominally full: round-robin the overflow.
                receiver = receivers[cursor % len(receivers)]
                if receiver == source:
                    cursor += 1
                    receiver = receivers[cursor % len(receivers)]
                moves.append(ShardMove(record_id, source, receiver))
                cursor += 1
            if max_moves is not None and len(moves) >= max_moves:
                return RebalancePlan(
                    moves=tuple(moves),
                    sizes_before=tuple(sizes),
                    target_size=target,
                )
    return RebalancePlan(
        moves=tuple(moves), sizes_before=tuple(sizes), target_size=target
    )
