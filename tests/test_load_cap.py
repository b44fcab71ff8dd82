"""The engine's collapsed-cap memo against a walk of the whole sub-tree.

``LibraryTimingEngine._load_cap_of`` sums the input cap of every buffer
below a MERGE/STEINER root from a memoized buffer-code sequence that
splices in the sequences of the memoized nodes below it. On final
200-sink trees (open, blocked and H-structure corrected) every MERGE and
STEINER node's cap, memoized during synthesis or computed afterwards,
must equal the walk bit for bit, and no released node may keep a memo.
"""

import pytest

from repro.core.cts import AggressiveBufferedCTS
from repro.core.options import CTSOptions
from repro.geom.bbox import BBox
from repro.tree.nodes import NodeKind

from tests.conftest import make_sink_pairs, walked_load_cap

BLOCKAGES = [
    BBox(8000.0, 8000.0, 16000.0, 16000.0),
    BBox(20000.0, 2000.0, 26000.0, 12000.0),
]


def sinks_clear_of(blockages):
    clear = [bbox.expanded(1200.0) for bbox in blockages]
    return [
        (p, c)
        for p, c in make_sink_pairs(200, 30000.0, seed=6)
        if not any(region.contains(p) for region in clear)
    ]


@pytest.mark.parametrize(
    "blockages, hstructure",
    [([], None), (BLOCKAGES, None), ([], "correct")],
    ids=["open", "blocked", "hstructure-correct"],
)
def test_memoized_caps_equal_the_walk(blockages, hstructure):
    cts = AggressiveBufferedCTS(
        options=CTSOptions(hstructure=hstructure), blockages=blockages or None
    )
    engine = cts.engine
    released = []
    release = engine.release

    def recording_release(nodes):
        released.extend(nodes)
        release(nodes)

    engine.release = recording_release
    result = cts.synthesize(sinks_clear_of(blockages))
    if hstructure:
        assert released
    assert not any(node in engine._codes_below for node in released)
    assert not any(node in engine._cap_cache for node in released)
    memoized = dict(engine._cap_cache)
    assert memoized
    roots = [
        node
        for node in result.tree.root.walk()
        if node.kind in (NodeKind.MERGE, NodeKind.STEINER)
    ]
    assert set(memoized) <= set(roots)
    for node in roots:
        walked = walked_load_cap(engine, node)
        if node in memoized:
            assert memoized[node] == walked
        assert engine._load_cap_of(node) == walked
