"""Tree validation, the tree walk and forest test on edge sets, the two
standard models, and isomorphism as equal representative keys.

The reachability oracle at the top recomputes components by sweeping the
raw endpoint table, independently of the tree walk.
"""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitrain.errors import BadGroupTable, BadOrbigraph
from orbitrain.groups import FiniteGroup, FreeProduct
from orbitrain.orbigraph import Orbigraph, hedgehog, thistle
from orbitrain.traintrack import _rep_key
from test_moves import identity_rep

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
def graphs_and_edges(draw):
    graph = draw(random_orbigraphs())
    edges = {e for e in graph.edges() if draw(st.booleans())}
    return graph, edges


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


def test_a_tree_count_of_edges_must_connect():
    """Four cells and three edges, two of them parallel, leave cell 1 and
    the vertex 3 apart."""
    with pytest.raises(BadOrbigraph, match="not connected"):
        Orbigraph(w3(), [0, 1, 2, -1], [(0, 3), (3, 0), (1, 2)])


@pytest.mark.parametrize("kinds, ends, message", [
    ([-1, 0, 1, 2.0], [(1, 0), (2, 0), (3, 0)], "cell 3 has kind 2.0"),
    ([-1, 0, True, 2], [(1, 0), (2, 0), (3, 0)], "cell 2 has kind True"),
    ([-1.0, 0, 1, 2], [(1, 0), (2, 0), (3, 0)], "cell 0 has kind -1.0"),
    ([-1, 0, 1, 2], [(1, 0), (2, 0), (0, "3")], "edge 3 has ends"),
    ([-1, 0, 1, 2], [(1, 0), (2, 0), (3.9, 0)], "edge 3 has ends"),
    ([-1, 0, 1, 2], [(True, 0), (2, 0), (3, 0)], "edge 1 has ends"),
])
def test_kinds_and_ends_must_be_ints(kinds, ends, message):
    """Ends used to pass through ``int()``, so ``(0, "3")`` was taken and
    ``(3.9, 0)`` read as cell 3; a kind ``2.0`` was taken and made
    ``group_at`` raise a bare ``TypeError`` later."""
    with pytest.raises(BadOrbigraph, match=re.escape(message)):
        Orbigraph(w3(), kinds, ends)


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
    """An edge id must be an ``int`` naming a signed edge: ``True`` used
    to pass as edge 1, ``1.0`` and ``-1.0`` as the edges they equal, and
    ``edge_label(-1.0)`` raised a bare ``TypeError``."""
    g = thistle(w3())
    for d in (0, 4, -4, True, 1.0, -1.0, "1"):
        with pytest.raises(BadOrbigraph):
            g.src(d)
        with pytest.raises(BadOrbigraph):
            g.dst(d)
        with pytest.raises(BadOrbigraph):
            g.edge_label(d)


def test_bad_factor_and_cell_ids_are_refused():
    """A factor or cell id must be an ``int`` in range, as an edge must:
    ``-1`` used to wrap around to the last cone point or walk from no
    cell, ``True`` passed as 1, and 3 or 4 raised a bare ``IndexError``.
    ``geodesic`` checks its far end too: ``geodesic(0, True)`` used to be
    the walk to cell 1, and ``geodesic(0, 7)`` said the cells were not
    connected."""
    g = thistle(w3())
    for factor in (-1, 3, True, 1.0, "a"):
        with pytest.raises(BadOrbigraph, match="^no factor"):
            g.cone_cell(factor)
    for root in (-1, 4, True, 0.0, None):
        with pytest.raises(BadOrbigraph, match="^no cell"):
            g.walks(root)
        with pytest.raises(BadOrbigraph, match="^no cell"):
            g.geodesic(root, 0)
        with pytest.raises(BadOrbigraph, match="^no cell"):
            g.geodesic(0, root)
    assert [g.cone_cell(i) for i in range(3)] == [1, 2, 3]
    assert g.walks(0) == {0: (), 1: (-1,), 2: (-2,), 3: (-3,)}


def test_factor_at_refuses_non_cells():
    """``factor_at`` checks its cell as ``walks`` does: ``factor_at(9)``
    used to raise a bare ``IndexError``, ``factor_at(-1)`` wrapped round
    to the last cell, and ``factor_at(True)`` passed as cell 1."""
    g = thistle(w3())
    for cell in (9, 4, -1, True, 1.0, None):
        with pytest.raises(BadOrbigraph, match="^no cell"):
            g.factor_at(cell)
    assert [g.factor_at(c) for c in g.cells()] == [None, 0, 1, 2]


@pytest.mark.parametrize("cell", [-1, 4, True, 1.0, None])
@pytest.mark.parametrize("accessor", ["is_cone", "group_at", "edges_at",
                                      "valence"])
def test_cell_accessors_refuse_non_cells(accessor, cell):
    """The per-cell accessors check their cell as ``factor_at`` does.  On
    the W3 thistle ``is_cone(-1)`` used to give ``True``, ``group_at(-1)``
    Z/2, ``edges_at(-1)`` ``(3,)`` and ``valence(-1)`` 1, all read off
    the last cell.  ``True`` read cell 1, ``1.0`` and ``None`` raised a
    bare ``TypeError``, and cell 4 a bare ``IndexError``."""
    g = thistle(w3())
    assert g.n_cells == 4
    with pytest.raises(BadOrbigraph, match="^no cell"):
        getattr(g, accessor)(cell)


def test_cell_accessors_read_every_cell():
    g = thistle(w3())
    assert [g.is_cone(c) for c in g.cells()] == [False, True, True, True]
    assert [g.edges_at(c) for c in g.cells()] == [(-1, -2, -3), (1,), (2,),
                                                  (3,)]
    assert [g.valence(c) for c in g.cells()] == [3, 1, 1, 1]
    assert all(g.group_at(c) == FiniteGroup.cyclic(2) for c in (1, 2, 3))
    with pytest.raises(BadOrbigraph, match="is a vertex"):
        g.group_at(0)


@given(random_orbigraphs())
def test_signed_edge_tables_agree_with_ends(graph):
    assert set(graph.src_of) == set(graph.dst_of) == {
        d for e in graph.edges() for d in (e, -e)}
    for e, (a, b) in enumerate(graph.ends, start=1):
        assert graph.src_of[e] == graph.dst_of[-e] == graph.src(e) == a
        assert graph.dst_of[e] == graph.src_of[-e] == graph.dst(e) == b


def test_geodesic_between_cones_crosses_the_center():
    g = thistle(w3())
    assert g.geodesic(1, 3) == (1, -3)
    assert g.geodesic(3, 3) == ()
    assert g.geodesic(0, 2) == (-2,)


# ---------------------------------------------------------------------------
# edge sets: frozen examples
# ---------------------------------------------------------------------------


def test_components_of_two_prickles():
    g = thistle(w3())
    assert set(g.walks(0, {2, 3})) == {0, 2, 3}


def test_forest_examples():
    tg = thistle(w3())
    hg = hedgehog(w3())
    assert not tg.is_forest(set())
    assert tg.is_forest({1})
    assert not hg.is_forest({1})
    assert not tg.is_forest({1, 2})


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(graphs_and_edges())
def test_walks_match_reachability_oracle(pair):
    """From every cell the walk reaches exactly what the oracle reaches,
    and each walk is a reduced edge walk to its cell inside ``edges``."""
    graph, edges = pair
    for c in graph.cells():
        walks = graph.walks(c, edges)
        assert set(walks) == oracle_reachable(graph, edges, c)
        for end, walk in walks.items():
            at = c
            for i, d in enumerate(walk):
                assert abs(d) in edges and graph.src(d) == at
                assert i == 0 or d != -walk[i - 1]
                at = graph.dst(d)
            assert at == end


@settings(max_examples=120, deadline=None)
@given(graphs_and_edges())
def test_forest_test_matches_cone_pair_oracle(pair):
    """An edge set is a forest exactly when it has an edge and joins no
    two cone points."""
    graph, edges = pair
    joined = any(b in oracle_reachable(graph, edges, a)
                 for a, b in itertools.combinations(graph.cone_cells(), 2))
    assert graph.is_forest(edges) == (bool(edges) and not joined)


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
    assert walk == graph.walks(a)[b] and back == graph.walks(b)[a]


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
# isomorphism, as equal representative keys
# ---------------------------------------------------------------------------


def same_shape(g1, g2):
    """Whether the identity maps of two graphs have the same key, that is,
    whether a factor-respecting isomorphism carries one graph onto the
    other with the edge orientations."""
    return _rep_key(identity_rep(g1)) == _rep_key(identity_rep(g2))


def test_isomorphism_matches_collapse_image_of_thistle():
    W = w3()
    quotient = Orbigraph(
        W,
        [0, 1, 2],
        [(1, 0), (2, 0)],
        edge_names=["B", "C"],
    )
    assert same_shape(quotient, hedgehog(W))


def test_isomorphism_rejects_orientation_flips():
    W = w3()
    flipped = Orbigraph(W, [0, 1, 2], [(0, 1), (2, 0)])
    assert not same_shape(flipped, hedgehog(W))


def test_isomorphism_permutes_plain_vertices():
    """Two trivalent vertices, the one next to a and b numbered first in
    one graph and last in the other."""
    W = FreeProduct([FiniteGroup.cyclic(2)] * 4, names=["a", "b", "c", "d"])
    g1 = Orbigraph(W, [-1, 0, 1, 2, 3, -1],
                   [(1, 0), (2, 0), (0, 5), (3, 5), (4, 5)])
    g2 = Orbigraph(W, [-1, 0, 1, 2, 3, -1],
                   [(1, 5), (2, 5), (5, 0), (3, 0), (4, 0)])
    assert same_shape(g1, g2)
