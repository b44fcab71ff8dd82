"""The correctness gate a synthesized tree must pass to count as done.

A synthesis counts as failed when it raises (handled by the caller), when
``validate_tree`` rejects the tree, when its sinks differ from the
instance's, when its worst slew exceeds the paper's 100 ps limit, or when
any fast path degraded during the run: a kernel fault must fail loudly,
not pass as a slower run.
"""

from __future__ import annotations

#: The paper's hard slew limit (synthesis itself targets 80 ps).
SLEW_LIMIT_PS = 100.0


def check_tree(tree, engine, n_sinks: int, degradations) -> tuple[dict, list[str]]:
    """``(qor, failures)`` for one synthesized tree.

    ``qor`` holds skew, latency and worst slew from the library timing
    engine, buffer count, wirelength and the rebased tree-signature
    digest; it is empty when the tree is too broken to time.
    """
    from repro.evalx.metrics import engine_metrics
    from repro.tree.export import signature_digest, tree_signature
    from repro.tree.nodes import NodeKind
    from repro.tree.validate import TreeInvariantError, validate_tree

    failures = []
    try:
        validate_tree(tree.root, expect_source_root=True)
    except TreeInvariantError as exc:
        failures.append(f"invalid tree: {exc}")
    names = [n.name for n in tree.root.walk() if n.kind is NodeKind.SINK]
    if len(names) != n_sinks or set(names) != {f"s{i}" for i in range(n_sinks)}:
        failures.append(f"tree has {len(names)} sinks, instance has {n_sinks}")
    if degradations:
        failures.append(
            "degraded: " + ", ".join(str(getattr(d, "component", d)) for d in degradations)
        )
    if failures:
        return {}, failures
    metrics = engine_metrics(tree, engine)
    qor = {
        "skew_ps": metrics.skew * 1e12,
        "latency_ps": metrics.latency * 1e12,
        "max_slew_ps": metrics.worst_slew * 1e12,
        "buffers": metrics.n_buffers,
        "wirelength": metrics.wirelength,
        "digest": signature_digest(tree_signature(tree, 0)),
    }
    if qor["max_slew_ps"] > SLEW_LIMIT_PS:
        failures.append(
            f"max slew {qor['max_slew_ps']:.2f} ps exceeds {SLEW_LIMIT_PS:.0f} ps"
        )
    return qor, failures


def tally(records: list[dict]) -> tuple[list[dict], list[str]]:
    """``(ok records, failure messages)``: a record with any failure failed."""
    return [r for r in records if not r["failures"]], [f for r in records for f in r["failures"]]
