"""Levelized topology generation (Sec. 4.1.1).

A complete nearest-neighbor graph is maintained over the current level's
sub-trees with edge cost ``alpha * distance + beta * |delay difference|``;
the matching heuristic repeatedly pairs the node farthest from the sink
centroid with its nearest (cheapest-edge) neighbor. With an odd node
count, a *seed* node — the one with maximum latency — is promoted directly
to the next level, where its larger delay is better matched.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.options import CTSOptions
from repro.geom.point import Point
from repro.timing.analysis import SubtreeBounds
from repro.tree.nodes import TreeNode


@dataclass
class SubTree:
    """One node of the nearest-neighbor graph: a sub-tree plus its timing.

    ``parts`` records the two sub-tree roots that were merge-routed to
    form this sub-tree (None for level-0 sinks); H-structure correction
    uses it to re-pair grandchildren.
    """

    root: TreeNode
    bounds: SubtreeBounds
    parts: tuple[TreeNode, TreeNode] | None = None

    @property
    def point(self) -> Point:
        return self.root.location

    @property
    def max_delay(self) -> float:
        return self.bounds.max_delay


class EdgeCost:
    """The paper's cost (Eq. 4.1), with delay converted to length units.

    Distance is in layout units and delay difference in seconds; the delay
    term is scaled by ``units_per_second`` (how much path length one second
    of delay corresponds to, calibrated from the routed delay per unit) so
    ``alpha`` and ``beta`` are dimensionless as in the paper.
    """

    def __init__(self, options: CTSOptions, delay_per_unit: float):
        self.alpha = options.cost_alpha
        self.beta = options.cost_beta
        self.units_per_second = 1.0 / delay_per_unit if delay_per_unit > 0 else 0.0

    def __call__(self, a: SubTree, b: SubTree) -> float:
        distance = a.point.manhattan_to(b.point)
        delay_diff = abs(a.max_delay - b.max_delay)
        return self.alpha * distance + self.beta * delay_diff * self.units_per_second


def select_seed_index(nodes: list[SubTree]) -> int:
    """Index of the node promoted unmatched on odd counts: max latency.

    The tie-break is explicit — among equal delays the *lowest pool
    index* wins — rather than relying on ``max`` iteration order over
    bare float delays; the parallel flow's bit-identical guarantee
    depends on this being deterministic.
    """
    if not nodes:
        raise ValueError("seed selection on empty level")
    return max(range(len(nodes)), key=lambda i: (nodes[i].max_delay, -i))


def select_seed(nodes: list[SubTree]) -> SubTree:
    """The node promoted unmatched on odd counts: maximum latency."""
    return nodes[select_seed_index(nodes)]


def greedy_matching(
    nodes: list[SubTree],
    centroid: Point,
    cost: EdgeCost,
) -> tuple[list[tuple[SubTree, SubTree]], SubTree | None]:
    """The paper's matching heuristic.

    Repeatedly take the unmatched node farthest from the sink centroid and
    pair it with its nearest neighbor under the edge cost. Returns the
    pairs plus the promoted seed (odd counts only).

    The partner search runs over a grid-bucketed spatial index: since the
    delay term of the edge cost is non-negative, any candidate at Manhattan
    distance ``d`` costs at least ``alpha * d``, so rings of buckets are
    scanned outward and the scan stops once the ring's distance lower bound
    alone exceeds the best cost found. The pairing is identical to
    :func:`greedy_matching_reference` (ties resolved by pool order).
    """
    if not nodes:
        raise ValueError("matching on empty level")
    pool, seed = _promote_seed(nodes)
    # Sort once by distance from centroid (descending); consume greedily.
    pool.sort(key=lambda s: s.point.manhattan_to(centroid), reverse=True)
    return _match_pool(pool, cost), seed


def greedy_matching_reference(
    nodes: list[SubTree],
    centroid: Point,
    cost: EdgeCost,
) -> tuple[list[tuple[SubTree, SubTree]], SubTree | None]:
    """The original O(n^2) matching scan (semantics reference)."""
    if not nodes:
        raise ValueError("matching on empty level")
    pool, seed = _promote_seed(nodes)
    pool.sort(key=lambda s: s.point.manhattan_to(centroid), reverse=True)
    return _match_pool_scan(pool, cost), seed


def _promote_seed(nodes: list[SubTree]) -> tuple[list[SubTree], SubTree | None]:
    """Copy the pool, removing the promoted seed *by identity* on odd counts.

    ``list.remove`` drops the first ``==``-equal element, which is the
    wrong object when a level holds equal-comparing sub-trees; removal by
    index keeps seed promotion deterministic and identity-exact.
    """
    pool = list(nodes)
    if len(pool) % 2 == 0:
        return pool, None
    idx = select_seed_index(pool)
    seed = pool[idx]
    del pool[idx]
    return pool, seed


class _SpatialBuckets:
    """Uniform grid buckets over the pool's points, keyed by pool index.

    Cell size is chosen so an average bucket holds about one node; all
    candidate enumeration happens per Chebyshev ring of buckets around the
    anchor's bucket, giving the near-linear behavior for the usual case of
    roughly uniform levels.
    """

    def __init__(self, pool: list[SubTree]):
        xs = [s.point.x for s in pool]
        ys = [s.point.y for s in pool]
        self.x0, self.y0 = min(xs), min(ys)
        span = (max(xs) - self.x0) + (max(ys) - self.y0)
        self.cell = max(span / (2.0 * max(len(pool), 1) ** 0.5), 1e-9)
        self.buckets: dict[tuple[int, int], list[int]] = {}
        self.key_of: list[tuple[int, int]] = []
        for idx, s in enumerate(pool):
            key = self._key(s.point)
            self.key_of.append(key)
            self.buckets.setdefault(key, []).append(idx)
        keys = self.buckets.keys()
        self.ki_min = min(k[0] for k in keys)
        self.ki_max = max(k[0] for k in keys)
        self.kj_min = min(k[1] for k in keys)
        self.kj_max = max(k[1] for k in keys)

    def _key(self, p: Point) -> tuple[int, int]:
        return (int((p.x - self.x0) // self.cell), int((p.y - self.y0) // self.cell))

    def remove(self, idx: int) -> None:
        key = self.key_of[idx]
        bucket = self.buckets[key]
        bucket.remove(idx)
        if not bucket:
            del self.buckets[key]

    def ring(self, center: tuple[int, int], r: int):
        """Occupied buckets at Chebyshev distance ``r`` from ``center``."""
        ci, cj = center
        if r == 0:
            bucket = self.buckets.get(center)
            if bucket:
                yield bucket
            return
        for i in range(ci - r, ci + r + 1):
            for j in (cj - r, cj + r):
                bucket = self.buckets.get((i, j))
                if bucket:
                    yield bucket
        for j in range(cj - r + 1, cj + r):
            for i in (ci - r, ci + r):
                bucket = self.buckets.get((i, j))
                if bucket:
                    yield bucket

    def max_ring(self, center: tuple[int, int]) -> int:
        """Largest ring that can still contain an occupied bucket."""
        ci, cj = center
        return max(
            ci - self.ki_min, self.ki_max - ci, cj - self.kj_min, self.kj_max - cj
        )


def _match_pool(pool: list[SubTree], cost: EdgeCost) -> list[tuple[SubTree, SubTree]]:
    """Pair the (even-sized, anchor-ordered) pool; identical to the O(n^2)
    scan, including tie resolution by pool order."""
    pairs: list[tuple[SubTree, SubTree]] = []
    if not pool:
        return pairs
    alpha = getattr(cost, "alpha", 0.0)
    if len(pool) <= 8 or alpha <= 0:
        # Tiny levels (or no distance term to prune on): plain scan.
        return _match_pool_scan(pool, cost)
    index = _SpatialBuckets(pool)
    matched = [False] * len(pool)
    for i, anchor in enumerate(pool):
        if matched[i]:
            continue
        matched[i] = True
        index.remove(i)
        center = index.key_of[i]
        best_idx = -1
        best_cost = float("inf")
        max_ring = index.max_ring(center)
        for r in range(max_ring + 1):
            # Any point in ring r is at Manhattan distance >= (r-1)*cell,
            # hence cost >= alpha * (r-1) * cell; equal-cost candidates in
            # later rings must still be seen for the pool-order tie-break,
            # so the scan stops only on a strictly larger lower bound.
            if best_idx >= 0 and alpha * (r - 1) * index.cell > best_cost:
                break
            for bucket in index.ring(center, r):
                for j in bucket:
                    c = cost(anchor, pool[j])
                    if c < best_cost or (c == best_cost and j < best_idx):
                        best_cost = c
                        best_idx = j
        matched[best_idx] = True
        index.remove(best_idx)
        pairs.append((anchor, pool[best_idx]))
    return pairs


def _match_pool_scan(
    pool: list[SubTree], cost: EdgeCost
) -> list[tuple[SubTree, SubTree]]:
    unmatched = pool
    pairs: list[tuple[SubTree, SubTree]] = []
    while unmatched:
        anchor = unmatched[0]
        rest = unmatched[1:]
        partner = min(rest, key=lambda s: cost(anchor, s))
        pairs.append((anchor, partner))
        unmatched = [s for s in rest if s is not partner]
    return pairs
