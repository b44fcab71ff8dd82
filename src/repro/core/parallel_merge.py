"""Serial-identical node numbering for the level pipeline.

:meth:`repro.core.cts.AggressiveBufferedCTS._merge_level` merges a level
in phase sweeps (all prepares, then the route, then the lockstep
commit), which creates nodes in a different *order* than merging pair by
pair would (prepare+commit per pair), and that order would leak into
auto-generated node ids and names. The flow therefore records the id
ranges each pair's merges consumed and renumbers the level's nodes
afterwards into the pair-by-pair creation order — a bijection on the
level's id block. The timing engine's memos and flat-stage columns are
keyed by node identity, so nothing but the nodes themselves follows.
The synthesized tree (including node names) is then the one a
pair-by-pair merge would build.
"""

from __future__ import annotations

from repro.tree.nodes import TreeNode


def serial_id_mapping(
    base: int, spans_per_pair: list[list[tuple[int, int]]]
) -> dict[int, int]:
    """Map phase-order node ids onto serial creation order.

    ``spans_per_pair[i]`` lists the ``[start, end)`` id ranges pair ``i``
    consumed, in that pair's own phase order (prepare first, commit
    second). The serial flow would have consumed the same ranges pair by
    pair starting at ``base``; the returned dict is that bijection,
    with identity entries dropped.
    """
    mapping: dict[int, int] = {}
    next_id = base
    for spans in spans_per_pair:
        for start, end in spans:
            for old in range(start, end):
                if old != next_id:
                    mapping[old] = next_id
                next_id += 1
    return mapping


def renumber_subtrees(
    roots: list[TreeNode], mapping: dict[int, int], base: int
) -> None:
    """Apply a serial id mapping to live nodes: ids and auto-names only.

    ``base`` is the level's first id: level-created nodes only ever sit
    above older ones (snake, chain, merge, corrective and stage buffers
    are all built over existing roots), so the walk stops at any node
    with a smaller id and costs the level's new nodes, not the tree.

    Auto-generated names (``m<id>``/``b<id>``/…) are regenerated so
    exports match the serial flow byte for byte; explicit names (sinks,
    sources) are never touched because level-created nodes are only
    merges, buffers and steiner points.
    """
    if not mapping:
        return
    stack = [root for root in roots if root.id >= base]
    while stack:
        node = stack.pop()
        stack.extend(child for child in node.children if child.id >= base)
        new_id = mapping.get(node.id)
        if new_id is None:
            continue
        auto_name = f"{node.kind.value[0]}{node.id}"
        node.id = new_id
        if node.name == auto_name:
            node.name = f"{node.kind.value[0]}{new_id}"
