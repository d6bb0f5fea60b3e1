"""Tree validation, subgraph calculus, cores, and the two standard models.

The hull oracle at the top recomputes convex hulls of cone points by brute
enumeration of all geodesics, independently of the pruning implementation.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitrain.errors import BadGroupTable, BadOrbigraph
from orbitrain.groups import FiniteGroup, FreeProduct
from orbitrain.orbigraph import (
    Orbigraph,
    Subgraph,
    find_isomorphism,
    hedgehog,
    thistle,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_reachable(graph, edge_set, start):
    """Reachability by repeated sweeps over the raw endpoint table."""
    cells = {start}
    grew = True
    while grew:
        grew = False
        for e in edge_set:
            a, b = graph.ends[e - 1]
            if a in cells and b not in cells:
                cells.add(b)
                grew = True
            if b in cells and a not in cells:
                cells.add(a)
                grew = True
    return cells


def oracle_hull_edges(graph, comp_edges, cones):
    """Union of all pairwise geodesics, recomputed by exhaustive search."""
    hull = set()
    for a, b in itertools.combinations(sorted(cones), 2):
        path = oracle_geodesic(graph, comp_edges, a, b)
        hull.update(abs(d) for d in path)
    return hull


def oracle_geodesic(graph, edge_set, a, b):
    """Breadth-first geodesic using only the allowed edge set."""
    frontier = [(a, ())]
    seen = {a}
    while frontier:
        nxt = []
        for cell, walk in frontier:
            if cell == b:
                return walk
            for d in graph.directed_edges():
                if abs(d) not in edge_set or graph.src(d) != cell:
                    continue
                t = graph.dst(d)
                if t not in seen:
                    seen.add(t)
                    nxt.append((t, walk + (d,)))
        frontier = nxt
    raise AssertionError("oracle found no geodesic")


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def random_orbigraphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    orders = [draw(st.integers(min_value=2, max_value=4)) for _ in range(n)]
    W = FreeProduct([FiniteGroup.cyclic(m) for m in orders])
    extra_vertices = draw(st.integers(min_value=0, max_value=4))
    k = n + extra_vertices
    kinds = [-1] * k
    cone_slots = draw(st.permutations(range(k)))[:n]
    for factor, slot in enumerate(cone_slots):
        kinds[slot] = factor
    ends = []
    for c in range(1, k):
        anchor = draw(st.integers(min_value=0, max_value=c - 1))
        if draw(st.booleans()):
            ends.append((c, anchor))
        else:
            ends.append((anchor, c))
    return Orbigraph(W, kinds, ends)


@st.composite
def graphs_with_subgraphs(draw):
    graph = draw(random_orbigraphs())
    edges = [e for e in graph.edges() if draw(st.booleans())]
    extra = [c for c in graph.cells() if draw(st.booleans())]
    return graph, graph.subgraph(edges, extra)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def w3():
    return FreeProduct([FiniteGroup.cyclic(2) for _ in range(3)],
                       names=["a", "b", "c"])


def test_thistle_shape():
    g = thistle(w3())
    assert g.n_cells == 4
    assert g.n_edges == 3
    assert not g.is_cone(0)
    assert [g.factor_at(c) for c in range(1, 4)] == [0, 1, 2]
    assert g.ends == ((1, 0), (2, 0), (3, 0))
    assert g.edge_names == ("A", "B", "C")
    assert g.valence(0) == 3


def test_hedgehog_shape():
    g = hedgehog(w3())
    assert g.n_cells == 3
    assert g.n_edges == 2
    assert all(g.is_cone(c) for c in g.cells())
    assert g.ends == ((1, 0), (2, 0))
    assert g.edge_names == ("X", "Y")


def test_hedgehog_respects_apex_choice():
    g = hedgehog(w3(), apex=1)
    assert g.ends == ((0, 1), (2, 1))
    assert g.factor_at(g.dst(1)) == 1


def test_single_factor_thistle_is_legal_but_hedgehog_is_not():
    W = FreeProduct([FiniteGroup.cyclic(3)])
    assert thistle(W).n_edges == 1
    with pytest.raises(BadOrbigraph):
        hedgehog(W)


def test_trees_only():
    W = w3()
    with pytest.raises(BadOrbigraph):
        Orbigraph(W, [-1, 0, 1, 2], [(1, 0), (2, 0), (3, 0), (1, 2)])
    with pytest.raises(BadOrbigraph):
        Orbigraph(W, [-1, 0, 1, 2], [(1, 0), (2, 0)])
    with pytest.raises(BadOrbigraph):
        Orbigraph(W, [-1, 0, 1, 1], [(1, 0), (2, 0), (3, 0)])
    with pytest.raises(BadOrbigraph):
        Orbigraph(W, [-1, 0, 1], [(1, 0), (2, 0), (2, 1)])


def test_trivial_stabilizers_rejected():
    with pytest.raises(BadGroupTable):
        FiniteGroup.cyclic(1)


def test_directed_edge_endpoints():
    g = thistle(w3())
    assert g.src(2) == 2 and g.dst(2) == 0
    assert g.src(-2) == 0 and g.dst(-2) == 2
    assert g.edge_label(2) == "B"
    assert g.edge_label(-2) == "~B"
    assert g.edge_by_name("~B") == -2


def test_non_edges_have_no_endpoints():
    g = thistle(w3())
    for d in (0, 4, -4):
        with pytest.raises(BadOrbigraph):
            g.src(d)
        with pytest.raises(BadOrbigraph):
            g.dst(d)


@given(random_orbigraphs())
def test_signed_edge_tables_agree_with_ends(graph):
    assert set(graph.src_of) == set(graph.dst_of) == set(
        graph.directed_edges())
    for e, (a, b) in enumerate(graph.ends, start=1):
        assert graph.src_of[e] == graph.dst_of[-e] == graph.src(e) == a
        assert graph.dst_of[e] == graph.src_of[-e] == graph.dst(e) == b


def test_geodesic_between_cones_crosses_the_center():
    g = thistle(w3())
    assert g.geodesic(1, 3) == (1, -3)
    assert g.geodesic(3, 3) == ()
    assert g.geodesic(0, 2) == (-2,)


# ---------------------------------------------------------------------------
# subgraphs: frozen examples
# ---------------------------------------------------------------------------


def test_components_of_two_prickles():
    g = thistle(w3())
    s = g.subgraph([2, 3])
    comps = s.components()
    assert len(comps) == 1
    assert comps[0].cells == frozenset({0, 2, 3})


def test_isolated_cells_are_their_own_components():
    g = thistle(w3())
    s = g.subgraph([2], extra_cells=[3])
    comps = s.components()
    assert len(comps) == 2
    assert comps[1].cells == frozenset({3})
    assert not comps[1].nontrivial


def test_contractibility_examples():
    tg = thistle(w3())
    assert tg.subgraph([1]).is_contractible()
    assert not hedgehog(w3()).subgraph([1]).is_contractible()
    assert tg.subgraph([], extra_cells=[0]).is_contractible()
    with pytest.raises(BadOrbigraph):
        tg.subgraph([1], extra_cells=[3]).is_contractible()


def test_forest_examples():
    tg = thistle(w3())
    hg = hedgehog(w3())
    assert not tg.subgraph([]).is_forest()
    assert tg.subgraph([1]).is_forest()
    assert not hg.subgraph([1]).is_forest()
    assert not tg.subgraph([1, 2]).is_forest()


def test_core_examples():
    tg = thistle(w3())
    hg = hedgehog(w3())
    prickle = tg.subgraph([1]).core()
    assert prickle.edges == frozenset()
    assert prickle.cells == frozenset({1})
    everything = hg.full_subgraph().core()
    assert everything.edges == frozenset({1, 2})
    pair = tg.subgraph([2, 3]).core()
    assert pair.edges == frozenset({2, 3})
    assert pair.cells == frozenset({0, 2, 3})
    empty = tg.subgraph([], extra_cells=[0]).core()
    assert empty.cells == frozenset()


def test_core_drops_hanging_vertex_trees():
    W = w3()
    # cones at 1, 2, 4; vertices 0, 3, 5; a hair 3-5 hangs off the hull
    g = Orbigraph(
        W,
        [-1, 0, 1, -1, 2, -1],
        [(1, 0), (2, 0), (0, 3), (3, 4), (3, 5)],
    )
    s = g.full_subgraph()
    core = s.core()
    assert core.edges == frozenset({1, 2, 3, 4})
    assert 5 not in core.cells


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(graphs_with_subgraphs())
def test_components_partition_matches_reachability_oracle(pair):
    graph, s = pair
    comps = s.components()
    all_cells = sorted(c for comp in comps for c in comp.cells)
    assert all_cells == sorted(s.cells)
    all_edges = sorted(e for comp in comps for e in comp.edges)
    assert all_edges == sorted(s.edges)
    for comp in comps:
        start = min(comp.cells)
        reach = oracle_reachable(graph, comp.edges, start)
        if comp.edges:
            assert reach == set(comp.cells)
        else:
            assert comp.cells == frozenset({start})


@settings(max_examples=120, deadline=None)
@given(graphs_with_subgraphs())
def test_core_is_idempotent_and_contained(pair):
    graph, s = pair
    core = s.core()
    assert core.edges <= s.edges
    assert core.cells <= s.cells
    again = core.core()
    assert again.edges == core.edges
    assert again.cells == core.cells


@settings(max_examples=120, deadline=None)
@given(graphs_with_subgraphs())
def test_core_edges_match_hull_oracle(pair):
    graph, s = pair
    core = s.core()
    expected = set()
    for comp in s.components():
        cones = comp.cone_cells()
        if len(cones) >= 2:
            expected |= oracle_hull_edges(graph, comp.edges, cones)
    assert core.edges == frozenset(expected)


@settings(max_examples=120, deadline=None)
@given(graphs_with_subgraphs())
def test_forests_have_edge_free_cores(pair):
    graph, s = pair
    if s.is_forest():
        assert s.core().edges == frozenset()


@settings(max_examples=60, deadline=None)
@given(random_orbigraphs())
def test_random_trees_validate_and_walk(graph):
    assert graph.n_edges == graph.n_cells - 1
    for i in range(graph.W.n):
        c = graph.cone_cell(i)
        assert graph.factor_at(c) == i
    # geodesics exist between all cell pairs and invert correctly
    cells = list(graph.cells())
    a, b = cells[0], cells[-1]
    walk = graph.geodesic(a, b)
    back = graph.geodesic(b, a)
    assert tuple(-d for d in reversed(walk)) == back


def test_standard_models_validate_across_sizes():
    rng = random.Random(7)
    for n in range(1, 13):
        groups = [FiniteGroup.cyclic(rng.randint(2, 8)) for _ in range(n)]
        W = FreeProduct(groups)
        t = thistle(W)
        assert t.n_edges == n
        assert sorted(t.cone_cells()) == list(range(1, n + 1))
        if n >= 2:
            h = hedgehog(W)
            assert h.n_edges == n - 1
            assert all(h.is_cone(c) for c in h.cells())


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def test_isomorphism_matches_collapse_image_of_thistle():
    W = w3()
    quotient = Orbigraph(
        W,
        [0, 1, 2],
        [(1, 0), (2, 0)],
        edge_names=["B", "C"],
    )
    found = find_isomorphism(quotient, hedgehog(W))
    assert found is not None
    cellmap, edgemap = found
    assert cellmap == {0: 0, 1: 1, 2: 2}
    assert edgemap == {1: 1, 2: 2}


def test_isomorphism_rejects_orientation_flips():
    W = w3()
    flipped = Orbigraph(W, [0, 1, 2], [(0, 1), (2, 0)])
    assert find_isomorphism(flipped, hedgehog(W)) is None


def test_isomorphism_permutes_plain_vertices():
    W = w3()
    g1 = Orbigraph(W, [-1, 0, 1, 2, -1],
                   [(1, 0), (2, 0), (0, 4), (4, 3)])
    g2 = Orbigraph(W, [-1, 0, 1, 2, -1],
                   [(1, 4), (2, 4), (4, 0), (0, 3)])
    found = find_isomorphism(g1, g2)
    assert found is not None
    cellmap, _ = found
    assert cellmap[0] == 4 and cellmap[4] == 0
