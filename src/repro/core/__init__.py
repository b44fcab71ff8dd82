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
(lockstep window search, lockstep profile expansion, segmented ranking)
return exactly what the single-pair routers return pair by pair.
"""

from repro.core.options import CTSOptions
from repro.core.cts import AggressiveBufferedCTS, SynthesisResult, synthesize_clock_tree
from repro.core.topology import (
    SubTree,
    EdgeCost,
    greedy_matching,
    select_seed,
    select_seed_index,
)
from repro.core.merge_routing import MergePlan, MergeRouter, MergeStats
from repro.core.segment_builder import PathBuilder, PathState, PlacedBuffer, SegmentTables
from repro.core.routing_common import (
    RouteTerminal,
    RoutedPath,
    RouteResult,
    slew_limited_length,
)
from repro.core.profile_router import route_profile
from repro.core.maze_router import route_maze, BfsEngine, BFS_ENGINE, MazeGrid
from repro.core.grid_cache import GridCache, SharingStats, route_level
from repro.core.batch_commit import (
    BatchCommitScheduler,
    CommitQueryStats,
    PairCommitState,
)
from repro.core.binary_search import (
    binary_search_merge,
    MergePosition,
    MergeSearchState,
    ProbeRequest,
)
from repro.core.balance import snake_delay, SnakeResult
from repro.core.resilience import Degradation
from repro.core.checkpoint import (
    CheckpointState,
    load_checkpoint,
    write_checkpoint,
)
from repro.core.hstructure import (
    HStructureOutcome,
    PAIRINGS,
    correct_pairing,
    reestimate_pairing,
)

__all__ = [
    "CTSOptions",
    "AggressiveBufferedCTS",
    "SynthesisResult",
    "synthesize_clock_tree",
    "SubTree",
    "EdgeCost",
    "greedy_matching",
    "select_seed",
    "select_seed_index",
    "MergePlan",
    "MergeRouter",
    "MergeStats",
    "PathBuilder",
    "PathState",
    "PlacedBuffer",
    "SegmentTables",
    "RouteTerminal",
    "RoutedPath",
    "RouteResult",
    "slew_limited_length",
    "route_profile",
    "route_maze",
    "BfsEngine",
    "BFS_ENGINE",
    "MazeGrid",
    "GridCache",
    "SharingStats",
    "route_level",
    "BatchCommitScheduler",
    "CommitQueryStats",
    "PairCommitState",
    "binary_search_merge",
    "MergePosition",
    "MergeSearchState",
    "ProbeRequest",
    "snake_delay",
    "SnakeResult",
    "Degradation",
    "CheckpointState",
    "load_checkpoint",
    "write_checkpoint",
    "HStructureOutcome",
    "PAIRINGS",
    "correct_pairing",
    "reestimate_pairing",
]
