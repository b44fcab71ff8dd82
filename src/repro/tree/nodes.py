"""Clock tree nodes."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.geom.point import Point
from repro.tech.buffers import BufferType


class _NodeIdCounter:
    """Monotonic node-id source with a non-consuming :meth:`peek`.

    The level pipeline records which id range each prepare/commit phase
    consumed so it can renumber a level's nodes into the exact order a
    pair-by-pair merge would have assigned (see
    :mod:`repro.core.parallel_merge`); that requires reading the counter
    without advancing it, which :func:`itertools.count` cannot do.
    """

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next = 0

    def __iter__(self) -> "_NodeIdCounter":
        return self

    def __next__(self) -> int:
        value = self._next
        self._next += 1
        return value

    def peek(self) -> int:
        return self._next


_node_ids = _NodeIdCounter()

def peek_node_id() -> int:
    """The id the next created :class:`TreeNode` will receive."""
    return _node_ids.peek()


def set_node_id(value: int) -> None:
    """Set the id the next created :class:`TreeNode` will receive.

    Checkpoint resume restores the counter to its value at snapshot
    time, so nodes created after the restart get the exact ids (and
    auto-generated names) the uninterrupted run would have assigned —
    a precondition for bit-identical resumed trees.
    """
    if value < 0:
        raise ValueError("node id counter cannot go negative")
    _node_ids._next = value


class NodeKind(Enum):
    """Role of a node in the clock tree."""

    SOURCE = "source"  # the clock root (drives the tree)
    SINK = "sink"  # a clocked element's clock pin
    MERGE = "merge"  # two sub-trees join here
    BUFFER = "buffer"  # an inserted buffer (merge node or mid-route)
    STEINER = "steiner"  # route bend / wire tap, electrically just wire


@dataclass(eq=False)
class TreeNode:
    """One node of a clock tree.

    ``wire_to_parent`` is the *electrical* length of the wire from the
    parent (in layout units); wire-snaking makes it exceed the Manhattan
    distance between the endpoints.
    """

    kind: NodeKind
    location: Point
    name: str = ""
    cap: float = 0.0  # sink load capacitance (SINK nodes only)
    buffer: BufferType | None = None  # BUFFER nodes only
    parent: "TreeNode | None" = None
    wire_to_parent: float = 0.0
    children: list["TreeNode"] = field(default_factory=list)
    id: int = field(default_factory=lambda: next(_node_ids))

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"{self.kind.value[0]}{self.id}"
        if self.kind is NodeKind.BUFFER and self.buffer is None:
            raise ValueError("BUFFER node requires a buffer type")
        if self.kind is not NodeKind.BUFFER and self.buffer is not None:
            raise ValueError(f"{self.kind} node cannot carry a buffer")
        if self.kind is not NodeKind.SINK and self.cap:
            raise ValueError(f"{self.kind} node cannot carry sink cap")

    def __repr__(self) -> str:
        extra = f" buf={self.buffer.name}" if self.buffer else ""
        return (
            f"<{self.kind.value} {self.name} @({self.location.x:.0f},"
            f"{self.location.y:.0f}){extra}>"
        )

    # ------------------------------------------------------------------

    def attach(self, child: "TreeNode", wire_length: float | None = None) -> "TreeNode":
        """Make ``child`` a child of this node.

        ``wire_length`` defaults to the Manhattan distance between the two
        locations (no snaking).
        """
        if child.parent is not None:
            raise ValueError(f"{child} already has a parent")
        if wire_length is None:
            wire_length = self.location.manhattan_to(child.location)
        if wire_length < self.location.manhattan_to(child.location) - 1e-6:
            raise ValueError(
                "wire length shorter than Manhattan distance between endpoints"
            )
        child.parent = self
        child.wire_to_parent = wire_length
        self.children.append(child)
        return child

    def detach(self) -> "TreeNode":
        """Remove this node from its parent; returns self (now a root)."""
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None
            self.wire_to_parent = 0.0
        return self

    # ------------------------------------------------------------------

    def is_stage_root(self) -> bool:
        """Whether a simulation/analysis stage starts at this node."""
        return self.kind in (NodeKind.BUFFER, NodeKind.SOURCE)

    def walk(self):
        """Yield this node and all descendants, parents before children."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def sinks(self) -> list["TreeNode"]:
        return [n for n in self.walk() if n.kind is NodeKind.SINK]

    def buffers(self) -> list["TreeNode"]:
        return [n for n in self.walk() if n.kind is NodeKind.BUFFER]

    def downstream_wirelength(self) -> float:
        """Total wire length strictly below this node."""
        return sum(n.wire_to_parent for n in self.walk()) - self.wire_to_parent

    def unbuffered_cap(self, wire_cap_per_unit: float) -> float:
        """Capacitance seen looking down from this node up to stage loads.

        Sums wire capacitance and terminal caps of the unbuffered region
        below this node; descent stops at buffer inputs (their input cap
        must be added by the caller, which knows the Technology).
        """
        total = 0.0
        stack = list(self.children)
        while stack:
            node = stack.pop()
            total += wire_cap_per_unit * node.wire_to_parent
            if node.kind is NodeKind.SINK:
                total += node.cap
            elif node.kind is NodeKind.BUFFER:
                continue  # stage boundary; caller adds input cap
            stack.extend(node.children if node.kind is not NodeKind.BUFFER else [])
        return total

    def root(self) -> "TreeNode":
        node = self
        while node.parent is not None:
            node = node.parent
        return node


def make_sink(location: Point, cap: float, name: str = "") -> TreeNode:
    return TreeNode(NodeKind.SINK, location, name=name, cap=cap)


def make_merge(location: Point, name: str = "") -> TreeNode:
    return TreeNode(NodeKind.MERGE, location, name=name)


def make_buffer(location: Point, buffer: BufferType, name: str = "") -> TreeNode:
    return TreeNode(NodeKind.BUFFER, location, name=name, buffer=buffer)


def make_steiner(location: Point, name: str = "") -> TreeNode:
    return TreeNode(NodeKind.STEINER, location, name=name)


def make_source(location: Point, name: str = "clk") -> TreeNode:
    return TreeNode(NodeKind.SOURCE, location, name=name)
