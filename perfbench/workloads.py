"""The benchmark's workloads: instance construction and flow options.

Instances come from ``benchio.generator.clustered_instance`` over the
density-constant die of the scaling ladder (1200 units per sqrt(sink)),
with the benchmark's own copy of the six-macro floorplan, so the
benchmark does not depend on the perf-ladder helpers in
``repro.evalx.perfstats``. Only flow options (``hstructure``,
``checkpoint_dir``) are passed to ``CTSOptions``; fast-path knobs are
left at their defaults, so the benchmark keeps running unchanged when
those knobs are retired.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Die side per sqrt(sink): the scaling ladder's sink density.
AREA_PER_SQRT_SINK = 1200.0

#: Every run of every workload uses this instance seed. Across seeds the
#: amount of work moves by about +-15% (probe and rasterized-cell
#: counts), far more than the timing bounds, so the instance is pinned
#: and the command-line ``--seed`` varies only the interpreter's hash
#: seed (see run.py).
INSTANCE_SEED = 5


@dataclass(frozen=True)
class Workload:
    name: str
    n_sinks: int
    macros: bool
    hstructure: str | None
    checkpoint: bool


#: The rationale for each workload is its ``why`` in BENCHMARK.json and
#: the workload table in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("open-4000", 4000, macros=False, hstructure=None, checkpoint=True),
        Workload("macro-4000", 4000, macros=True, hstructure=None, checkpoint=False),
        Workload("hstructure-1000", 1000, macros=True, hstructure="correct", checkpoint=False),
    )
}


def macro_floorplan(area: float):
    """Six macro blocks with routing corridors between them."""
    from repro.geom.bbox import BBox

    return [
        BBox(0.12 * area, 0.10 * area, 0.22 * area, 0.45 * area),
        BBox(0.30 * area, 0.33 * area, 0.43 * area, 0.90 * area),
        BBox(0.57 * area, 0.07 * area, 0.67 * area, 0.53 * area),
        BBox(0.72 * area, 0.60 * area, 0.95 * area, 0.70 * area),
        BBox(0.10 * area, 0.65 * area, 0.25 * area, 0.78 * area),
        BBox(0.50 * area, 0.75 * area, 0.62 * area, 0.95 * area),
    ]


def build_instance(workload: Workload, seed: int = INSTANCE_SEED):
    """``(sinks, source, blockages)``: clustered sinks pushed off the macros.

    A sink that falls within 3% of the die side of a macro moves to the
    nearer vertical edge of that clearance band, so no terminal lies
    inside a blockage.
    """
    from repro.benchio.generator import clustered_instance
    from repro.geom.point import Point

    area = AREA_PER_SQRT_SINK * workload.n_sinks**0.5
    instance = clustered_instance(workload.n_sinks, area, seed=seed)
    blockages = macro_floorplan(area) if workload.macros else []
    clear = 0.03 * area
    sinks = []
    for p, cap in instance.sink_pairs():
        for region in blockages:
            if region.expanded(clear).contains(p):
                near_left = abs(p.x - region.xmin) < abs(p.x - region.xmax)
                p = Point(region.xmin - clear if near_left else region.xmax + clear, p.y)
        sinks.append((p, cap))
    return sinks, instance.source, blockages


def flow_options(workload: Workload, checkpoint_dir: str | None):
    """``CTSOptions`` carrying only the workload's flow choices."""
    from repro.core.options import CTSOptions

    kwargs = {}
    if workload.hstructure is not None:
        kwargs["hstructure"] = workload.hstructure
    if workload.checkpoint:
        kwargs["checkpoint_dir"] = checkpoint_dir
    return CTSOptions(**kwargs)
