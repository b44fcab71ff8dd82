"""H-structure re-estimation and correction (Sec. 4.1.2).

When the top-level matching is about to merge two sub-trees P and Q that
were themselves produced by merges, their four grandchildren A, B (under
P) and C, D (under Q) admit three pairings — (A,B)(C,D) [the current one],
(A,C)(B,D) and (A,D)(B,C) (Fig. 4.2) — and a bad earlier choice shows up
as an intertwined "H" structure. Two remedies:

- **Method 1 (re-estimation)**: score the six candidate edges with the
  topology cost function and keep the cheapest pairing; only the chosen
  pairing is actually merge-routed.
- **Method 2 (correction)**: merge-route *all* pairings and keep the one
  whose worse-side skew is smallest; the others are discarded. Best
  quality, most expensive ("all combinations need to be actually routed
  rather than simply evaluated by cost functions").

A "flipping" is counted whenever the surviving pairing differs from the
original (A,B)(C,D).

Both methods work level-wide: every H pair of a topology level goes
through the same :meth:`~repro.core.merge_routing.MergeRouter.merge_batch`
batches as plain pairs. Correction sweeps each candidate pairing over all
pairs as one batch (3 sweeps), then rebuilds every pair's winner in one
batch that reuses the winning sweep's routes; re-estimation chooses every
pair's pairing by cost, then merges the chosen pairings in one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.merge_routing import BatchedMerge, MergeRouter
from repro.core.topology import EdgeCost, SubTree
from repro.tree.nodes import TreeNode


@dataclass
class HStructureOutcome:
    """Result of examining one (P, Q) pair: two replacement sub-trees.

    ``merges`` are the pair's merges in serial order (candidates, then
    the two surviving ones), committed but not finished: the caller
    finishes them, and renumbers their ids, in the pair's serial order
    (see :class:`~repro.core.merge_routing.BatchedMerge`).
    """

    left_root: TreeNode
    right_root: TreeNode
    flipped: bool
    merges: tuple[BatchedMerge, ...]


#: The three pairings of grandchildren indices (A, B, C, D) = (0, 1, 2, 3).
PAIRINGS = (
    ((0, 1), (2, 3)),  # (A,B)(C,D) — the original
    ((0, 2), (1, 3)),  # (A,C)(B,D)
    ((0, 3), (1, 2)),  # (A,D)(B,C)
)


def _free_parts(p: SubTree, q: SubTree) -> list[TreeNode]:
    """Detach the four grandchildren from the structures above them."""
    return [part.detach() for part in (*p.parts, *q.parts)]


def _pairing_sides(parts, pairing) -> list[tuple[TreeNode, TreeNode]]:
    """The two merges of one pairing of one pair's grandchildren."""
    (i, j), (k, l) = pairing
    return [(parts[i], parts[j]), (parts[k], parts[l])]


def reestimate_pairing(
    router: MergeRouter,
    cost: EdgeCost,
    pairs: list[tuple[SubTree, SubTree]],
) -> list[HStructureOutcome]:
    """Method 1: choose each pair's pairing by cost, then route them all.

    Only the chosen pairings are merge-routed, as one batch.
    """
    quads = [_free_parts(p, q) for p, q in pairs]
    chosen = []
    for parts in quads:
        subtrees = [SubTree(part, router.subtree_bounds(part)) for part in parts]

        def pairing_cost(pairing) -> float:
            (i, j), (k, l) = pairing
            return cost(subtrees[i], subtrees[j]) + cost(subtrees[k], subtrees[l])

        chosen.append(min(PAIRINGS, key=pairing_cost))
    batch = router.merge_batch(
        [
            side
            for parts, pairing in zip(quads, chosen)
            for side in _pairing_sides(parts, pairing)
        ]
    )
    return [
        HStructureOutcome(
            batch[2 * n].root,
            batch[2 * n + 1].root,
            pairing != PAIRINGS[0],
            (batch[2 * n], batch[2 * n + 1]),
        )
        for n, pairing in enumerate(chosen)
    ]


def correct_pairing(
    router: MergeRouter,
    pairs: list[tuple[SubTree, SubTree]],
) -> list[HStructureOutcome]:
    """Method 2: route all pairings, keep the lowest worse-side skew.

    Each candidate pairing is merge-routed for every pair as one batch
    and measured with the timing engine; the grandchildren then detach
    (the candidate's merge structures are dropped) before the next
    sweep. The winners are rebuilt last, in one batch that reuses the
    winning sweep's routes, so each surviving tree contains exactly one
    routed copy.
    """
    target = router.options.target_slew
    quads = [_free_parts(p, q) for p, q in pairs]
    merges: list[list[BatchedMerge]] = [[] for _ in pairs]
    best_idx = [0] * len(pairs)
    best_key: list[tuple | None] = [None] * len(pairs)
    best_routes: list = [None] * len(pairs)
    for idx, pairing in enumerate(PAIRINGS):
        batch = router.merge_batch(
            [side for parts in quads for side in _pairing_sides(parts, pairing)]
        )
        # One batched lookup (bit-identical to per-root subtree_bounds).
        bounds = router.engine.subtree_bounds_many(
            [(merge.root, target) for merge in batch]
        )
        for n, parts in enumerate(quads):
            left, right = batch[2 * n], batch[2 * n + 1]
            worse = max(bounds[2 * n].skew, bounds[2 * n + 1].skew)
            wirelength = (
                left.root.downstream_wirelength()
                + right.root.downstream_wirelength()
            )
            # Primary criterion: worse-side skew, as in the paper. The
            # balance machinery drives every candidate's estimated skew
            # near zero, so ties (within half a picosecond) break on
            # wirelength — shorter trees are the ones without intertwined
            # "H" crossings.
            key = (round(worse / 0.5e-12), wirelength)
            for part in parts:
                part.detach()
            merges[n] += (left, right)
            if best_key[n] is None or key < best_key[n]:
                best_key[n] = key
                best_idx[n] = idx
                best_routes[n] = (left.route, right.route)
    winners = router.merge_batch(
        [
            side
            for parts, idx in zip(quads, best_idx)
            for side in _pairing_sides(parts, PAIRINGS[idx])
        ],
        [route for routes in best_routes for route in routes],
    )
    return [
        HStructureOutcome(
            winners[2 * n].root,
            winners[2 * n + 1].root,
            idx != 0,
            (*merges[n], winners[2 * n], winners[2 * n + 1]),
        )
        for n, idx in enumerate(best_idx)
    ]
