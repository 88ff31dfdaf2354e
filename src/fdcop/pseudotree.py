"""DFS pseudo-tree construction over the constraint graph: one walk yields the
tree, its separators, and the post- and pre-order the DPOP phases follow."""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import StructureError

if TYPE_CHECKING:
    from .model import ConstraintGraph


@dataclass(frozen=True)
class PseudoTree:
    root: str
    parent: dict[str, str]
    children: dict[str, tuple[str, ...]]
    separator: dict[str, tuple[str, ...]]  # sorted
    induced_width: int
    post_order: tuple[str, ...]  # DFS finish order: children before parents
    pre_order: tuple[str, ...]  # DFS discovery order: parents before children

    def is_tree(self) -> bool:
        # a backedge puts both the parent and the pseudo-parent of its lower
        # end into that end's separator, so only a tree has width <= 1
        return self.induced_width <= 1


def build(graph: ConstraintGraph) -> PseudoTree:
    """Deterministic DFS pseudo-tree.

    The root is a max-degree node (ties to the smallest id) and neighbors are
    visited in ascending id order, so the same graph always yields the same
    arrangement. `graph` may be any object with the `ConstraintGraph` reads
    used here (`nodes`, `neighbors`, `degree`, `number_of_nodes`), a
    `networkx.Graph` among them.
    """
    if graph.number_of_nodes() == 0:
        raise StructureError("graph has no nodes")
    root = min(graph.nodes, key=lambda v: (-graph.degree(v), v))

    parent: dict[str, str] = {}
    children: dict[str, list[str]] = {v: [] for v in graph.nodes}
    visited: dict[str, int] = {}  # node -> DFS depth
    pseudo_parents: dict[str, set[str]] = {v: set() for v in graph.nodes}
    finished: list[str] = []

    # iterative DFS with explicit neighbor iterators for deterministic order;
    # on an undirected graph every non-tree edge joins a node to an ancestor
    # or a descendant, so each one is a backedge
    visited[root] = 0
    stack = [(root, iter(sorted(graph.neighbors(root))))]
    while stack:
        node, neighbors = stack[-1]
        advanced = False
        for nb in neighbors:
            if nb not in visited:
                visited[nb] = visited[node] + 1
                parent[nb] = node
                children[node].append(nb)
                stack.append((nb, iter(sorted(graph.neighbors(nb)))))
                advanced = True
                break
            if nb != parent.get(node) and visited[nb] < visited[node]:
                pseudo_parents[node].add(nb)
        if not advanced:
            stack.pop()
            finished.append(node)
    if len(finished) != graph.number_of_nodes():
        raise StructureError("pseudo-tree requires a connected constraint graph")

    separator: dict[str, tuple[str, ...]] = {}
    for node in finished:
        sep = set(pseudo_parents[node])
        if node != root:
            sep.add(parent[node])
        for child in children[node]:
            sep.update(separator[child])
        sep.discard(node)
        separator[node] = tuple(sorted(sep))

    width = max((len(separator[v]) for v in graph.nodes if v != root), default=0)
    return PseudoTree(
        root=root,
        parent=dict(parent),
        children={v: tuple(c) for v, c in children.items()},
        separator=separator,
        induced_width=width,
        post_order=tuple(finished),
        pre_order=tuple(visited),
    )

