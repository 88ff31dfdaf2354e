"""Pseudo-tree construction over constraint graphs."""
import networkx as nx
import pytest

from fdcop import generators, model, pseudotree
from fdcop.errors import StructureError

from conftest import nx_copy


def path3():
    g = nx.Graph()
    g.add_edges_from([("x1", "x2"), ("x2", "x3")])
    return g


def ancestors(tree, node):
    """Oracle: the `parent` walk from `node` up to the root."""
    out = []
    while node != tree.root:
        node = tree.parent[node]
        out.append(node)
    return out


class TestBuild:
    def test_path_rooted_at_max_degree(self):
        tree = pseudotree.build(path3())
        assert tree.root == "x2"
        assert sorted(tree.children["x2"]) == ["x1", "x3"]
        assert tree.separator["x1"] == ("x2",)
        assert tree.separator["x3"] == ("x2",)
        assert tree.induced_width == 1
        assert tree.is_tree()

    def test_triangle(self):
        g = nx.Graph()
        g.add_edges_from([("x1", "x2"), ("x2", "x3"), ("x1", "x3")])
        tree = pseudotree.build(g)
        n_tree_edges = len(tree.parent)
        n_backedges = g.number_of_edges() - n_tree_edges
        assert n_tree_edges == 2
        assert n_backedges == 1
        assert tree.induced_width == 2
        assert not tree.is_tree()

    def test_same_branch_property(self):
        p = generators.gen_graph(20, 0.2, 4)
        g = model.build_constraint_graph(p)
        tree = pseudotree.build(g)
        for u, v in g.edges():
            anc_u = set(ancestors(tree, u))
            anc_v = set(ancestors(tree, v))
            assert u in anc_v or v in anc_u, f"edge {u}-{v} spans branches"

    def test_separator_recurrence(self):
        p = generators.gen_graph(15, 0.25, 2)
        g = model.build_constraint_graph(p)
        tree = pseudotree.build(g)
        for node in tree.parent:
            # the parent and the pseudo-parents: every neighbor above the node
            expected = set(g.neighbors(node)) & set(ancestors(tree, node))
            for child in tree.children[node]:
                expected |= set(tree.separator[child])
            expected.discard(node)
            assert tree.separator[node] == tuple(sorted(expected))

    def test_determinism(self):
        p = generators.gen_graph(12, 0.3, 9)
        g = model.build_constraint_graph(p)
        assert pseudotree.build(g) == pseudotree.build(g)

    def test_acyclic_width_one(self):
        p = generators.gen_tree(15, 3)
        tree = pseudotree.build(model.build_constraint_graph(p))
        assert tree.is_tree()
        assert tree.induced_width == 1
        for node in tree.parent:
            assert tree.separator[node] == (tree.parent[node],)

    def test_is_tree_means_no_backedge(self):
        graphs = oracle_graphs()
        assert sum(g.number_of_edges() > g.number_of_nodes() - 1 for g in graphs) >= 15
        for g in graphs:
            tree = pseudotree.build(g)
            assert tree.is_tree() == (g.number_of_edges() == len(tree.parent))

    def test_disconnected_rejected(self):
        g = nx.Graph()
        g.add_edge("a", "b")
        g.add_edge("c", "d")
        with pytest.raises(StructureError):
            pseudotree.build(g)

    def test_empty_rejected(self):
        with pytest.raises(StructureError):
            pseudotree.build(nx.Graph())


class TestTraversals:
    def test_orders_cover_all_nodes(self):
        p = generators.gen_graph(10, 0.3, 1)
        tree = pseudotree.build(model.build_constraint_graph(p))
        post = tree.post_order
        pre = tree.pre_order
        assert sorted(post) == sorted(p.variables)
        assert sorted(pre) == sorted(p.variables)
        assert post[-1] == tree.root
        assert pre[0] == tree.root
        # children precede parents in post-order
        pos = {v: i for i, v in enumerate(post)}
        for child, parent in tree.parent.items():
            assert pos[child] < pos[parent]


def stack_post_order(tree):
    """Oracle: a post-order stack walk of `children`, apart from the DFS
    that `build` records its orders in."""
    out = []
    stack = [(tree.root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            out.append(node)
        else:
            stack.append((node, True))
            for child in reversed(tree.children[node]):
                stack.append((child, False))
    return out


def stack_pre_order(tree):
    """Oracle: the matching pre-order walk of `children`."""
    out = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        out.append(node)
        for child in reversed(tree.children[node]):
            stack.append(child)
    return out


def reversed_graph(g):
    """The same graph with its nodes and edges inserted in reverse order and
    every edge's endpoints swapped."""
    g = nx_copy(g)
    reverse = nx.Graph()
    reverse.add_nodes_from(reversed(list(g.nodes)))
    reverse.add_edges_from((v, u) for u, v in reversed(list(g.edges)))
    return reverse


def oracle_graphs():
    """60 graphs: 25 from `gen_tree`, 25 from `gen_graph` (16 with cycles),
    and the last ten of the latter inserted in reverse."""
    trees = [model.build_constraint_graph(generators.gen_tree(3 + seed, seed))
             for seed in range(25)]
    graphs = [model.build_constraint_graph(
        generators.gen_graph(4 + seed % 12, 0.15 + 0.05 * (seed % 5), seed)) for seed in range(25)]
    return trees + graphs + [reversed_graph(g) for g in graphs[-10:]]


class TestStoredOrdersMatchTheWalks:
    def test_against_the_stack_walks(self):
        graphs = oracle_graphs()
        assert len(graphs) >= 50
        for g in graphs:
            tree = pseudotree.build(g)
            assert tree.post_order == tuple(stack_post_order(tree))
            assert tree.pre_order == tuple(stack_pre_order(tree))

    def test_reverse_insertion_gives_the_same_tree(self):
        g = model.build_constraint_graph(generators.gen_graph(12, 0.3, 5))
        assert pseudotree.build(reversed_graph(g)) == pseudotree.build(g)
