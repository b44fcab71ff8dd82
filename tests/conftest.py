"""Shared fixtures: one technology / library / engine per session."""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.charlib import load_default_library
from repro.core.cts import AggressiveBufferedCTS
from repro.core.options import CTSOptions
from repro.evalx.perfstats import commit_pair_by_pair, route_pair_by_pair
from repro.geom import Point
from repro.tech import cts_buffer_library, default_technology
from repro.timing.analysis import LibraryTimingEngine, SubtreeBounds
from repro.tree.export import tree_signature
from repro.tree.nodes import NodeKind, peek_node_id


@pytest.fixture(scope="session")
def tech():
    return default_technology()


@pytest.fixture(scope="session")
def buffers():
    return cts_buffer_library()


@pytest.fixture(scope="session")
def library(tech):
    """The packaged (prebuilt) delay/slew library."""
    return load_default_library(tech)


@pytest.fixture(scope="session")
def engine(library, tech):
    return LibraryTimingEngine(library, tech)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def make_sink_pairs(n: int, area: float, seed: int = 0) -> list[tuple[Point, float]]:
    """Deterministic random sink sets for synthesis tests."""
    gen = np.random.default_rng(seed)
    return [
        (Point(float(x), float(y)), float(c))
        for x, y, c in zip(
            gen.uniform(0, area, n),
            gen.uniform(0, area, n),
            gen.uniform(4e-15, 12e-15, n),
        )
    ]


def batched_bounds(engine, items):
    """``engine.subtree_bounds_many`` over ``(node, slew)`` items, as the
    list of ``SubtreeBounds`` per-item scalar calls would return."""
    if not items:
        return []
    nodes, slews = zip(*items)
    mins, maxes, worsts = engine.subtree_bounds_many(list(nodes), slews)
    return list(
        map(SubtreeBounds, mins.tolist(), maxes.tolist(), worsts.tolist())
    )


def scalar_bucket_bounds(engine, node, bucket):
    """One bounds bucket of ``node`` through the engine's scalar
    recursion: input-referenced for a BUFFER, virtual-driver otherwise."""
    if node.kind is NodeKind.BUFFER:
        return engine._buffer_bucket_bounds(node, bucket)
    return engine._virtual_bucket_bounds(node, bucket)


def walked_load_cap(engine, node):
    """Collapsed cap of a MERGE/STEINER ``node`` from a walk of its whole
    sub-tree: wire and loads down to the buffer inputs, then the input
    cap of every buffer below it, added in DFS-pop order. The reference
    for ``LibraryTimingEngine._load_cap_of``, which memoizes the sum."""
    cap = node.unbuffered_cap(engine.tech.wire.capacitance_per_unit)
    stack = list(node.children)
    while stack:
        below = stack.pop()
        if below.kind is NodeKind.BUFFER:
            cap += below.buffer.input_cap(engine.tech)
        stack.extend(below.children)
    return cap


@pytest.fixture()
def small_sinks():
    return make_sink_pairs(8, 18000.0, seed=3)


def synthesize_signature(
    sinks,
    source,
    blockages,
    pair_by_pair=False,
    scalar_commit=False,
    **option_kwargs,
):
    """One synthesis run plus the rebased signature of its tree.

    The flags install the reference engine's swaps on this run only, so
    a test can compare the level kernels against the retained
    single-pair path in the same process: ``pair_by_pair`` replaces the
    level router with :func:`route_pair_by_pair` and ``scalar_commit``
    the lockstep commit scheduler with :func:`commit_pair_by_pair`.
    """
    option_kwargs.setdefault("fault_plan", "")
    cts = AggressiveBufferedCTS(
        options=CTSOptions(**option_kwargs),
        blockages=blockages or None,
    )
    if pair_by_pair:
        cts.router.route_level = types.MethodType(route_pair_by_pair, cts.router)
    if scalar_commit:
        scheduler = cts.router.scheduler
        scheduler.run = types.MethodType(commit_pair_by_pair, scheduler)
    base = peek_node_id()
    result = cts.synthesize(sinks, source)
    return tree_signature(result.tree, base), result


# ----------------------------------------------------------------------
# Property-test generators (hypothesis-style: seeded random case streams
# with the adversarial structure — ties, degenerate windows — built in).
# ----------------------------------------------------------------------


def random_blocked_grid(gen, max_dim: int = 12, max_blockages: int = 3):
    """A small random routing grid with random blockages.

    Dimensions span the degenerate cases on purpose (down to a single
    row/column); blockages are random boxes that may clip the window,
    cover nothing, or wall off regions. At least one cell is always left
    free.
    """
    from repro.core.maze_router import MazeGrid
    from repro.geom.bbox import BBox

    pitch = 100.0
    nx = int(gen.integers(1, max_dim + 1))
    ny = int(gen.integers(1, max_dim + 1))
    grid = MazeGrid(BBox(0, 0, (nx - 1) * pitch, (ny - 1) * pitch), pitch)
    assert (grid.nx, grid.ny) == (nx, ny)
    for _ in range(int(gen.integers(0, max_blockages + 1))):
        x0, y0 = gen.uniform(-pitch, nx * pitch), gen.uniform(-pitch, ny * pitch)
        w, h = gen.uniform(0, nx * pitch / 2), gen.uniform(0, ny * pitch / 2)
        grid.block(BBox(x0, y0, x0 + w, y0 + h))
        if grid.blocked.all():
            # Re-open a random cell so the grid stays usable.
            free = (int(gen.integers(0, nx)), int(gen.integers(0, ny)))
            grid.blocked[free] = False
    return grid


def random_ranking_case(gen, tie_levels: int = 3):
    """One random merge-ranking case: two BFS fields + tie-rich profiles.

    Returns ``(dist1, dist2, both, prof1, prof2)`` for a random blocked
    grid whose two sources reach a common region. The profile delays are
    drawn from ``tie_levels`` quantized values, so exact minimum-skew and
    minimum-total ties are common — the adversarial structure the
    documented tie order (min rounded skew, then total, then hops, then
    earliest flat index) must resolve identically in the scalar loop and
    the level-batched ranking pass.
    """
    while True:
        grid = random_blocked_grid(gen)
        free = np.argwhere(~grid.blocked)
        if len(free) < 2:
            continue
        picks = gen.integers(0, len(free), 2)
        c1 = tuple(int(v) for v in free[picks[0]])
        c2 = tuple(int(v) for v in free[picks[1]])
        dist1, dist2 = grid.bfs(c1), grid.bfs(c2)
        both = (dist1 != -1) & (dist2 != -1)
        if not both.any():
            continue
        max_k = int(max(dist1[both].max(), dist2[both].max()))
        prof1 = gen.integers(0, tie_levels, max_k + 1) * 1e-12
        prof2 = gen.integers(0, tie_levels, max_k + 1) * 1e-12
        return dist1, dist2, both, prof1, prof2


def random_expansion_case(gen, library):
    """One random profile-expansion lane: table geometry + a target step.

    Returns ``(step, n_steps, load, base_delay, target_k)`` with
    ``1 <= target_k <= n_steps - 1``. The pitch is drawn log-uniformly
    across a deliberately wide range: small pitches yield long
    buffer-free runs, large ones insertion-heavy expansions with forced
    buffers at step 0, and the extreme tail reaches pitches where even
    one step after an insertion violates the slew target — the per-pair
    lazy expansion and the lockstep scheduler must agree on all of
    them, including raising the identical RuntimeError on the
    infeasible ones.
    """
    step = float(np.exp(gen.uniform(np.log(90.0), np.log(7000.0))))
    n_steps = int(gen.integers(4, 90))
    names = library.buffer_names
    load = names[int(gen.integers(0, len(names)))]
    base_delay = float(gen.uniform(0.0, 5e-10))
    target_k = int(gen.integers(1, n_steps))
    return step, n_steps, load, base_delay, target_k


def random_descent_case(gen):
    """One random descent case: a BFS field plus a reached target cell.

    Returns ``(grid, dist, cell)`` with ``dist[cell] >= 0``; the start
    may equal the target (zero-length descent).
    """
    while True:
        grid = random_blocked_grid(gen)
        free = np.argwhere(~grid.blocked)
        start = tuple(int(v) for v in free[int(gen.integers(0, len(free)))])
        dist = grid.bfs(start)
        reached = np.argwhere(dist >= 0)
        cell = tuple(int(v) for v in reached[int(gen.integers(0, len(reached)))])
        return grid, dist, cell
