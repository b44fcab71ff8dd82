"""H-structure re-estimation and correction (Sec. 4.1.2).

When the top-level matching is about to merge two sub-trees P and Q that
were themselves produced by merges, their four grandchildren A, B (under
P) and C, D (under Q) admit three pairings — (A,B)(C,D) [the current one],
(A,C)(B,D) and (A,D)(B,C) (Fig. 4.2) — and a bad earlier choice shows up
as an intertwined "H" structure. Two remedies:

- **Method 1 (re-estimation)**: score the six candidate edges with the
  topology cost function and keep the cheapest pairing; only a chosen
  alternative pairing is actually merge-routed.
- **Method 2 (correction)**: merge-route both alternative pairings and
  keep whichever of the three has the smallest worse-side skew; the
  others are discarded. Best quality, most expensive ("all combinations
  need to be actually routed rather than simply evaluated by cost
  functions").

A "flipping" is counted whenever the surviving pairing differs from the
original (A,B)(C,D).

The original pairing is P and Q themselves, already routed, so neither
method merges it again. Both batch a topology level's H pairs through
:meth:`~repro.core.merge_routing.MergeRouter.merge_batch`, like plain
pairs. A grandchild leaves a structure through its *socket* (parent,
position among the parent's children, wire) and plugs back into the
kept one, which returns node for node; nothing below a grandchild
changes, so cached bounds stay valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.merge_routing import BatchedMerge, MergeRouter
from repro.core.topology import EdgeCost, SubTree
from repro.tree.nodes import TreeNode


@dataclass
class HStructureOutcome:
    """Result of examining one (P, Q) pair: two replacement sub-trees.

    ``merges`` are the pair's merges in serial order (the alternative
    pairings' candidates, or re-estimation's flipped pairing; none when
    re-estimation keeps P and Q), committed but not finished: the caller
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


def _unplug(parts: list[TreeNode]) -> list[tuple[TreeNode, int, float]]:
    """Detach ``parts`` in order, recording each one's socket."""
    sockets = []
    for part in parts:
        parent = part.parent
        sockets.append((parent, parent.children.index(part), part.wire_to_parent))
        part.detach()
    return sockets


def _plug(parts: list[TreeNode], sockets: list[tuple]) -> None:
    """Undo :func:`_unplug`, in reverse order so each position is exact."""
    for part, (parent, position, wire) in reversed(list(zip(parts, sockets))):
        part.parent = parent
        part.wire_to_parent = wire
        parent.children.insert(position, part)


def _pairing_sides(parts, pairing) -> list[tuple[TreeNode, TreeNode]]:
    """The two merges of one pairing of one pair's grandchildren."""
    (i, j), (k, l) = pairing
    return [(parts[i], parts[j]), (parts[k], parts[l])]


def reestimate_pairing(
    router: MergeRouter,
    cost: EdgeCost,
    pairs: list[tuple[SubTree, SubTree]],
) -> list[HStructureOutcome]:
    """Method 1: choose each pair's pairing by cost, then route the flips.

    Only the flipped pairs' chosen pairings are merge-routed, as one
    batch; a pair that keeps the original pairing returns P and Q.
    """
    quads = [[*p.parts, *q.parts] for p, q in pairs]
    target = router.options.target_slew
    chosen = []
    for parts in quads:
        subtrees = [
            SubTree(part, router.engine.subtree_bounds(part, target))
            for part in parts
        ]

        def pairing_cost(pairing) -> float:
            (i, j), (k, l) = pairing
            return cost(subtrees[i], subtrees[j]) + cost(subtrees[k], subtrees[l])

        chosen.append(min(PAIRINGS, key=pairing_cost))
    sides = []
    for parts, pairing in zip(quads, chosen):
        if pairing != PAIRINGS[0]:
            _unplug(parts)
            sides += _pairing_sides(parts, pairing)
    merged = iter(router.merge_batch(sides))
    outcomes = []
    for (p, q), pairing in zip(pairs, chosen):
        merges = () if pairing == PAIRINGS[0] else (next(merged), next(merged))
        left, right = [m.root for m in merges] if merges else (p.root, q.root)
        outcomes.append(HStructureOutcome(left, right, bool(merges), merges))
    return outcomes


def _skew_keys(
    router: MergeRouter, roots: list[tuple[TreeNode, TreeNode]]
) -> list[tuple[int, float]]:
    """Correction's rank of each pairing's two roots (lower is better).

    Primary criterion: worse-side skew, as in the paper. The balance
    machinery drives every candidate's estimated skew near zero, so ties
    (within half a picosecond) break on wirelength — shorter trees are
    the ones without intertwined "H" crossings.
    """
    nodes = [root for pair in roots for root in pair]
    mins, maxes, __ = router.engine.subtree_bounds_many(
        nodes, np.full(len(nodes), router.options.target_slew)
    )
    skews = (maxes - mins).tolist()
    return [
        (
            round(max(l_skew, r_skew) / 0.5e-12),
            left.downstream_wirelength() + right.downstream_wirelength(),
        )
        for (left, right), l_skew, r_skew in zip(roots, skews[::2], skews[1::2])
    ]


def correct_pairing(
    router: MergeRouter,
    pairs: list[tuple[SubTree, SubTree]],
) -> list[HStructureOutcome]:
    """Method 2: route the alternatives, keep the lowest worse-side skew.

    The original pairing is measured on P and Q as they stand. Each
    alternative pairing is then merge-routed for every pair as one batch
    and measured with the timing engine; the grandchildren unplug
    before the next sweep, leaving the candidate's structure whole.
    Ties keep the earlier pairing. Finally every pair's grandchildren
    plug back into the winner's sockets, so each surviving tree is the
    one that was measured.
    """
    best_roots = [(p.root, q.root) for p, q in pairs]
    best_key = _skew_keys(router, best_roots)
    best_idx = [0] * len(pairs)
    quads = [[*p.parts, *q.parts] for p, q in pairs]
    best_sockets = [_unplug(parts) for parts in quads]
    merges: list[list[BatchedMerge]] = [[] for _ in pairs]
    for idx in (1, 2):
        batch = router.merge_batch(
            [side for parts in quads for side in _pairing_sides(parts, PAIRINGS[idx])]
        )
        roots = [(batch[2 * n].root, batch[2 * n + 1].root) for n in range(len(pairs))]
        for n, (parts, key) in enumerate(zip(quads, _skew_keys(router, roots))):
            merges[n] += batch[2 * n : 2 * n + 2]
            sockets = _unplug(parts)
            if key < best_key[n]:
                best_key[n], best_idx[n] = key, idx
                best_roots[n], best_sockets[n] = roots[n], sockets
    for parts, sockets in zip(quads, best_sockets):
        _plug(parts, sockets)
    return [
        HStructureOutcome(left, right, idx != 0, tuple(pair_merges))
        for (left, right), idx, pair_merges in zip(best_roots, best_idx, merges)
    ]
