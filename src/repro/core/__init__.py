"""The paper's primary contribution: aggressive-buffered CTS.

Top-level flow (:mod:`repro.core.cts`) = levelized topology generation
(:mod:`repro.core.topology`) + merge-routing (:mod:`repro.core.merge_routing`:
balance / route / binary-search) + optional H-structure correction
(:mod:`repro.core.hstructure`). Two interchangeable routers implement the
routing stage: the general bidirectional maze router
(:mod:`repro.core.maze_router`, blockage-aware) and the distance-profile
router (:mod:`repro.core.profile_router`, provably equivalent without
blockages and much faster). Synthesis routes each level's pairs together
through :func:`repro.core.grid_cache.route_level`, whose level kernels
(per-pair window search, lockstep profile expansion, segmented ranking)
return exactly what the single-pair routers return pair by pair.
"""

from importlib import import_module

#: Public name -> the module that defines it. Names resolve on first
#: access (PEP 562), so importing one submodule — ``repro.core.options``
#: for manifest validation, say — loads neither numpy nor the engine.
_EXPORTS = {
    "CTSOptions": "repro.core.options",
    "AggressiveBufferedCTS": "repro.core.cts",
    "SynthesisResult": "repro.core.cts",
    "synthesize_clock_tree": "repro.core.cts",
    "SubTree": "repro.core.topology",
    "EdgeCost": "repro.core.topology",
    "greedy_matching": "repro.core.topology",
    "select_seed": "repro.core.topology",
    "select_seed_index": "repro.core.topology",
    "MergePlan": "repro.core.merge_routing",
    "MergeRouter": "repro.core.merge_routing",
    "MergeStats": "repro.core.merge_routing",
    "PathBuilder": "repro.core.segment_builder",
    "PathState": "repro.core.segment_builder",
    "PlacedBuffer": "repro.core.segment_builder",
    "SegmentTables": "repro.core.segment_builder",
    "RouteTerminal": "repro.core.routing_common",
    "RoutedPath": "repro.core.routing_common",
    "RouteResult": "repro.core.routing_common",
    "slew_limited_length": "repro.core.routing_common",
    "route_profile": "repro.core.profile_router",
    "route_maze": "repro.core.maze_router",
    "BfsEngine": "repro.core.maze_router",
    "BFS_ENGINE": "repro.core.maze_router",
    "MazeGrid": "repro.core.maze_router",
    "SharingStats": "repro.core.grid_cache",
    "route_level": "repro.core.grid_cache",
    "BatchCommitScheduler": "repro.core.batch_commit",
    "CommitQueryStats": "repro.core.batch_commit",
    "PairCommitState": "repro.core.batch_commit",
    "binary_search_merge": "repro.core.binary_search",
    "MergePosition": "repro.core.binary_search",
    "MergeSearchState": "repro.core.binary_search",
    "ProbeRequest": "repro.core.binary_search",
    "snake_delay": "repro.core.balance",
    "SnakeResult": "repro.core.balance",
    "Degradation": "repro.core.resilience",
    "CheckpointState": "repro.core.checkpoint",
    "load_checkpoint": "repro.core.checkpoint",
    "write_checkpoint": "repro.core.checkpoint",
    "HStructureOutcome": "repro.core.hstructure",
    "PAIRINGS": "repro.core.hstructure",
    "correct_pairing": "repro.core.hstructure",
    "reestimate_pairing": "repro.core.hstructure",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = import_module(module)
    value = loaded if module == f"{__name__}.{name}" else getattr(loaded, name)
    globals()[name] = value
    return value


__all__ = list(_EXPORTS)
