"""Equivalence of the vectorized routing engine vs the seed references.

The contract of the vectorized rewrite (maze BFS, blocking, matching):

- ``block`` marks exactly the same cells as the cell-by-cell reference;
- both strategies of the consolidated BFS engine (closed-form on
  unblocked grids, the run-sweep on blocked ones) produce distance
  fields bit-identical to the queue reference, for every start of a
  stacked sweep;
- descent paths are distance-consistent shortest paths (each step
  adjacent and one BFS level closer), identical for every strategy
  because they are a pure function of the distance field;
- ``route_maze`` picks the identical merge cell (it depends only on the
  distance fields) with identical per-side step counts;
- the bucketed ``greedy_matching`` returns the exact same pairs and seed
  as the O(n^2) reference, including tie resolution.
"""

import numpy as np
import pytest

from repro.core.maze_router import BFS_ENGINE, MazeGrid, route_maze
from repro.core.options import CTSOptions
from repro.core.routing_common import (
    MAX_WINDOW_CELLS,
    RouteTerminal,
    slew_limited_length,
)
from repro.core.topology import (
    EdgeCost,
    SubTree,
    greedy_matching,
    greedy_matching_reference,
)
from repro.geom.bbox import BBox
from repro.geom.point import Point
from repro.timing.analysis import SubtreeBounds
from repro.tree.nodes import make_sink


def random_grid(rng, max_dim=50, n_blocks=(0, 5)):
    nx = int(rng.integers(4, max_dim))
    ny = int(rng.integers(4, max_dim))
    grid = MazeGrid(BBox(0, 0, nx * 100.0, ny * 100.0), pitch=100.0)
    for _ in range(int(rng.integers(*n_blocks))):
        x0, y0 = rng.uniform(0, nx * 100.0), rng.uniform(0, ny * 100.0)
        grid.block(
            BBox(x0, y0, x0 + rng.uniform(100, 2000), y0 + rng.uniform(100, 2000))
        )
    return grid


def free_cell(grid, rng):
    free = np.argwhere(~grid.blocked)
    return tuple(free[rng.integers(len(free))])


def mask_grid(blocked):
    """A unit-pitch grid carrying exactly the ``blocked`` mask."""
    nx, ny = blocked.shape
    grid = MazeGrid(BBox(0, 0, nx - 1.0, ny - 1.0), pitch=1.0)
    assert (grid.nx, grid.ny) == (nx, ny)
    grid.blocked = blocked.copy()
    grid._any_blocked = bool(blocked.any())
    return grid


def serpentine(nx, ny):
    """Walls on every odd column, open at alternating ends: one corridor
    with a turn per wall (``nx // 2`` walls)."""
    blocked = np.zeros((nx, ny), dtype=bool)
    for n, i in enumerate(range(1, nx, 2)):
        blocked[i, :] = True
        blocked[i, ny - 1 if n % 2 == 0 else 0] = False
    return blocked


def assert_sweep_matches_reference(grid, starts):
    fields = BFS_ENGINE.run_sweep(grid, starts)
    assert len(fields) == len(starts)
    for start, field in zip(starts, fields):
        ref = grid.bfs_reference(start)
        assert field.dtype == ref.dtype
        assert np.array_equal(field, ref), start


class TestBlockEquivalence:
    def test_masked_block_matches_reference(self, rng):
        for _ in range(10):
            bbox = BBox(0, 0, float(rng.uniform(500, 6000)), float(rng.uniform(500, 6000)))
            pitch = float(rng.uniform(37.0, 240.0))
            vec, ref = MazeGrid(bbox, pitch), MazeGrid(bbox, pitch)
            for _ in range(int(rng.integers(1, 6))):
                x0, y0 = rng.uniform(-500, 6000, 2)
                region = BBox(
                    x0, y0, x0 + rng.uniform(50, 2500), y0 + rng.uniform(50, 2500)
                )
                vec.block(region)
                ref.block_reference(region)
            assert np.array_equal(vec.blocked, ref.blocked)


class TestBfsEquivalence:
    def test_distance_fields_identical(self, rng):
        for _ in range(12):
            grid = random_grid(rng)
            start = free_cell(grid, rng)
            dist_ref = grid.bfs_reference(start)
            assert np.array_equal(grid.bfs(start), dist_ref)
            if grid._any_blocked:
                assert_sweep_matches_reference(grid, [start])
            else:
                assert np.array_equal(
                    BFS_ENGINE.closed_form(grid, start), dist_ref
                )

    def test_random_masks(self, rng):
        for density in (0.1, 0.3, 0.45):
            for _ in range(4):
                shape = tuple(int(v) for v in rng.integers(2, 40, 2))
                grid = mask_grid(rng.random(shape) < density)
                if grid.blocked.all():
                    continue
                assert_sweep_matches_reference(grid, [free_cell(grid, rng)])

    def test_serpentine_needs_many_rounds(self):
        grid = mask_grid(serpentine(25, 9))
        assert grid.nx // 2 >= 10  # a turn per wall
        assert_sweep_matches_reference(grid, [(0, 0)])
        assert grid.bfs((0, 0))[24, 0] > 10 * 9

    def test_sealed_pockets_read_unreached(self):
        blocked = np.zeros((12, 10), dtype=bool)
        blocked[6:11, 2] = blocked[6:11, 7] = True  # a sealed ring ...
        blocked[6, 2:8] = blocked[10, 2:8] = True
        blocked[:, 0] = True  # ... and a row cut off by a full wall
        blocked[0, 0] = False
        grid = mask_grid(blocked)
        dist = grid.bfs((0, 5))
        assert (dist[7:10, 3:7] == -1).all()
        assert (dist[blocked] == -1).all()
        assert dist[0, 0] == 5
        assert_sweep_matches_reference(grid, [(0, 5), (8, 4)])

    @pytest.mark.parametrize("shape", [(1, 17), (17, 1)])
    def test_single_row_and_column(self, shape):
        blocked = np.zeros(shape, dtype=bool)
        blocked.flat[9] = True
        grid = mask_grid(blocked)
        assert_sweep_matches_reference(grid, [(0, 0)])
        assert_sweep_matches_reference(grid, [(16, 0) if shape[0] > 1 else (0, 16)])
        assert (grid.bfs((0, 0)).ravel()[9:] == -1).all()

    @pytest.mark.parametrize("k", [2, 3])
    def test_stacked_starts(self, rng, k):
        for _ in range(6):
            grid = random_grid(rng, n_blocks=(1, 6))
            if not grid._any_blocked:
                continue
            starts = [free_cell(grid, rng) for _ in range(k)]
            assert_sweep_matches_reference(grid, starts)
            for start, field in zip(starts, grid.bfs_many(starts)):
                assert np.array_equal(field, grid.bfs_reference(start))

    def test_window_at_the_cell_cap(self):
        """Long corridors on a window at the cell cap keep their exact
        distances (the run offsets stay far inside int64)."""
        nx, ny = 281, 284
        assert MAX_WINDOW_CELLS - 500 < nx * ny <= MAX_WINDOW_CELLS
        grid = mask_grid(serpentine(nx, ny))
        far = (nx - 1, ny - 1)
        assert_sweep_matches_reference(grid, [(0, 0), far])
        assert grid.bfs((0, 0))[far] > nx * ny // 2

    def test_descent_paths_distance_consistent(self, rng):
        for _ in range(6):
            grid = random_grid(rng, n_blocks=(1, 5))
            start = free_cell(grid, rng)
            dist_ref = grid.bfs_reference(start)
            dist = BFS_ENGINE.distances(grid, [start])[0]
            reached = np.argwhere(dist >= 0)
            for cell in map(tuple, reached[:: max(1, len(reached) // 40)]):
                path = grid.descend(dist, cell)
                assert path[0] == start
                assert path[-1] == cell
                # shortest: length equals the reference distance
                assert len(path) == dist_ref[cell] + 1
                for (i1, j1), (i2, j2) in zip(path, path[1:]):
                    assert abs(i1 - i2) + abs(j1 - j2) == 1
                    assert not grid.blocked[i2, j2]
                # the descent is a function of the field alone, so
                # equal fields give byte-equal paths
                assert path == grid.descend(dist_ref, cell)

    def test_blocked_start_raises_everywhere(self):
        grid = MazeGrid(BBox(0, 0, 1000, 1000), pitch=100.0)
        grid.block(BBox(-50, -50, 50, 50))
        for fn in (grid.bfs, grid.bfs_reference):
            with pytest.raises(ValueError):
                fn((0, 0))
        with pytest.raises(ValueError):
            grid.bfs_many([(5, 5), (0, 0)])


class TestRouteEquivalence:
    def term(self, x, y, delay=0.0):
        node = make_sink(Point(x, y), 8e-15)
        return RouteTerminal(node, Point(x, y), delay, delay, "BUF20X")

    def test_identical_merge_cell_and_step_counts(self, library, monkeypatch):
        """The merge point depends only on the distance fields, so the
        reference BFS and the vectorized BFS must choose the same cell."""
        options = CTSOptions()
        stage_length = slew_limited_length(library, options.target_slew)
        wall = [BBox(4500, -1500, 5200, 900), BBox(2000, 2000, 2600, 5200)]
        t1, t2 = self.term(0, 0, delay=30e-12), self.term(9000, 4000)
        fast = route_maze(t1, t2, library, options, stage_length, wall)
        monkeypatch.setattr(MazeGrid, "bfs", MazeGrid.bfs_reference)
        monkeypatch.setattr(
            MazeGrid, "bfs_many", lambda self, starts: [self.bfs(s) for s in starts]
        )
        ref = route_maze(t1, t2, library, options, stage_length, wall)
        assert fast.meeting_point == ref.meeting_point
        assert fast.est_left_delay == ref.est_left_delay
        assert fast.est_right_delay == ref.est_right_delay
        # Identical distance fields + deterministic descent = identical
        # geometry, not merely equal-length shortest paths.
        assert fast.left.polyline.points == ref.left.polyline.points
        assert fast.right.polyline.points == ref.right.polyline.points
        assert fast.left.state == ref.left.state
        assert fast.right.state == ref.right.state


def subtree(x, y, delay=0.0):
    node = make_sink(Point(x, y), 5e-15)
    return SubTree(node, SubtreeBounds(delay, delay, 0.0))


class TestMatchingEquivalence:
    @pytest.mark.parametrize("beta", [0.0, 1.0, 1000.0])
    def test_identical_pairs_up_to_n300(self, rng, beta):
        cost = EdgeCost(CTSOptions(cost_beta=beta), delay_per_unit=0.02e-12)
        for trial in range(12):
            n = int(rng.integers(1, 301))
            if trial % 3 == 0:  # clustered levels (register banks)
                centers = rng.uniform(0, 10000, (5, 2))
                pts = centers[rng.integers(0, 5, n)] + rng.normal(0, 250, (n, 2))
            else:
                pts = rng.uniform(0, 30000, (n, 2))
            delays = rng.uniform(0, 150e-12, n)
            if n > 3:  # exercise exact ties: duplicated locations + delays
                pts[1] = pts[0]
                delays[1] = delays[0]
            nodes = [
                subtree(float(x), float(y), float(d))
                for (x, y), d in zip(pts, delays)
            ]
            centroid = Point(float(pts[:, 0].mean()), float(pts[:, 1].mean()))
            pairs, seed = greedy_matching(list(nodes), centroid, cost)
            ref_pairs, ref_seed = greedy_matching_reference(
                list(nodes), centroid, cost
            )
            assert seed is ref_seed
            assert len(pairs) == len(ref_pairs)
            for (a, b), (ra, rb) in zip(pairs, ref_pairs):
                assert a is ra and b is rb

    def test_empty_raises_like_reference(self):
        cost = EdgeCost(CTSOptions(), delay_per_unit=0.02e-12)
        with pytest.raises(ValueError):
            greedy_matching([], Point(0, 0), cost)
        with pytest.raises(ValueError):
            greedy_matching_reference([], Point(0, 0), cost)
