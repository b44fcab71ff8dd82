"""Golden behaviour lock: checked-in tree digests and QoR per scenario.

Every equivalence test elsewhere compares two modes of the same checkout,
so an edit to shared code moves both sides at once. These records were
generated once and checked in; each synthesis must reproduce its record
byte for byte. ``shape_digest`` hashes the tree without its
auto-generated node names, so a change that only renumbers nodes moves
``signature_digest`` and leaves ``shape_digest`` alone. A deliberate
behaviour change regenerates the records with::

    PYTHONPATH=src python -m tests.test_golden --write

and the resulting diff of ``tests/golden/*.json`` must be explained in
the change log.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _ladder(n_sinks: int, macros: bool):
    from repro.evalx.perfstats import scaling_scenario

    return scaling_scenario(n_sinks, macros)


def _snaking():
    from tests.test_grid_cache import snaking_scenario

    return snaking_scenario()


def _gsrc_r1():
    from repro.benchio.gsrc import gsrc_instance

    instance = gsrc_instance("r1")
    return instance.sink_pairs(), instance.source, []


#: name -> (instance builder, CTSOptions flow choices). Fast-path knobs
#: stay at their defaults: the lock pins what the default flow builds.
SCENARIOS = {
    "ladder-1000-open": (lambda: _ladder(1000, False), {}),
    "ladder-1000-macros": (lambda: _ladder(1000, True), {}),
    "hstructure-correct-200": (lambda: _ladder(200, True), {"hstructure": "correct"}),
    "hstructure-reestimate-200": (
        lambda: _ladder(200, True),
        {"hstructure": "reestimate"},
    ),
    "snaking-25": (_snaking, {}),
    "gsrc-r1": (_gsrc_r1, {}),
}

#: Flippings of the H-structure scenarios, pinned by test rather than in
#: the records (the serial per-pair H path produced these counts; the
#: level-batched one must reproduce them).
FLIPPINGS = {"hstructure-correct-200": 47, "hstructure-reestimate-200": 13}

#: The small scenario whose tree is also simulated with mini-SPICE.
SPICE_SCENARIO = "snaking-25"


def shape_signature(signature: dict) -> dict:
    """``signature`` with auto-generated node names dropped.

    Auto-generated names (``m<id>``/``b<id>``/…) follow the node-id
    counter, so a change that creates fewer throwaway nodes renames the
    tree without changing it. Sink and source names are explicit and
    stay; so do kinds, locations, wires, buffers and child order.
    """

    def strip(node: dict) -> dict:
        node = dict(node)
        prefix, digits = node["name"][:1], node["name"][1:]
        if (
            node["kind"] not in ("sink", "source")
            and prefix == node["kind"][0]
            and digits.isdigit()
        ):
            del node["name"]
        if "children" in node:
            node["children"] = [strip(child) for child in node["children"]]
        return node

    return strip(signature)


def synthesize_scenario(name: str):
    """``(record, result, cts)`` for one golden scenario."""
    from repro.core.cts import AggressiveBufferedCTS
    from repro.core.options import CTSOptions
    from repro.evalx.metrics import engine_metrics
    from repro.tree.export import signature_digest, tree_signature
    from repro.tree.nodes import peek_node_id

    build, flow = SCENARIOS[name]
    sinks, source, blockages = build()
    cts = AggressiveBufferedCTS(
        options=CTSOptions(**flow), blockages=blockages or None
    )
    base = peek_node_id()
    result = cts.synthesize(sinks, source)
    metrics = engine_metrics(result.tree, cts.engine)
    stats = result.tree.stats()
    signature = tree_signature(result.tree, base)
    record = {
        "scenario": name,
        "n_sinks": len(sinks),
        "signature_digest": signature_digest(signature),
        "shape_digest": signature_digest(shape_signature(signature)),
        "levels": result.levels,
        "merges": result.merge_stats.n_merges,
        "buffers": stats["n_buffers"],
        "wirelength": stats["wirelength"],
        "skew_s": metrics.skew,
        "latency_s": metrics.latency,
        "max_slew_s": metrics.worst_slew,
    }
    return record, result, cts


def render(record: dict) -> str:
    """The exact on-disk form of one record."""
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_record(name):
    record, result, __ = synthesize_scenario(name)
    assert not result.degradations
    assert render(record) == golden_path(name).read_text()
    if name in FLIPPINGS:
        assert result.n_flippings == FLIPPINGS[name]


def test_golden_small_tree_meets_slew_limit_in_spice(tech):
    """The paper's 100 ps limit, checked by simulation, not the engine."""
    from repro.evalx import evaluate_tree

    record, result, cts = synthesize_scenario(SPICE_SCENARIO)
    assert record["n_sinks"] <= 100
    metrics = evaluate_tree(result.tree, tech)
    assert metrics.worst_slew <= cts.options.slew_limit


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__, file=sys.stderr)
        return 2
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(SCENARIOS):
        record, __, __ = synthesize_scenario(name)
        golden_path(name).write_text(render(record))
        print(f"wrote {golden_path(name).name}: {record['signature_digest'][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
