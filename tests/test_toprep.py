"""Representatives on thistles and hedgehogs, their matrices, turns,
legality, filtrations, and induced outer automorphisms.

A turn is illegal when ``TopRep.dying_turn`` finds its orbit dying, and a
representative is a train track when ``_descent_turn`` finds no illegal
turn crossed by an edge image.

The worked W3 pair alpha and beta anchors most expectations: both share
the transition matrix [[3,2],[2,1]], alpha is a train track map and beta
is not, and beta's offending turn is the letterless one at the apex.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitrain.errors import (BadOrbigraph, BadRepresentative, NoMarking,
                              NothingToFold)
from orbitrain.groups import Automorphism, FiniteGroup, FreeProduct
from orbitrain.moves import fold
from orbitrain.orbigraph import VERTEX, Orbigraph, hedgehog, thistle
from orbitrain.paths import (Path, Turn, format_path, loop_of_word, tighten,
                             tighten_circuit)
from orbitrain.pf import _berkowitz, pf_compare, pf_data
from orbitrain.toprep import (
    ConeMap,
    Marking,
    TopRep,
    hedgehog_rep,
    maximal_filtration,
    rep_from_path_texts,
    thistle_rep,
)
from orbitrain.traintrack import _descent_turn, _rep_key
from test_groups import random_word
from test_moves import identity_rep, random_twisted_automorphism
from test_paths import random_closed_walk
from test_pf import is_transitive_permutation, mat_mul

Z2 = FiniteGroup.cyclic(2)


@pytest.fixture(scope="module")
def f_alpha(alpha_w3):
    return hedgehog_rep(alpha_w3)


@pytest.fixture(scope="module")
def f_beta(beta_w3):
    return hedgehog_rep(beta_w3)


@pytest.fixture(scope="module")
def t_alpha(alpha_w3):
    return thistle_rep(alpha_w3)


@pytest.fixture(scope="module")
def golden(w4):
    """The golden-ratio pair on the four-factor hedgehog: homotopy
    inverse irreducible train track maps with different eigenvalues."""
    g4 = hedgehog(w4)
    f = rep_from_path_texts(g4, {"X": "Y", "Y": "Z", "Z": "X ~Y^ .a"})
    g = rep_from_path_texts(g4, {"X": "Z .a ~X^", "Y": "X", "Z": "Y"})
    return f, g


def image_texts(rep):
    return {
        rep.graph.edge_names[e - 1]: format_path(rep.edge_images[e])
        for e in sorted(rep.edge_images)
    }


def block(M, edges):
    """The diagonal block of a transition matrix on ``edges``."""
    return tuple(tuple(M.entries[e - 1][d - 1] for d in edges)
                 for e in edges)


def edges_of(p):
    """The edge items of the path ``p``, in order."""
    return [item for item in p.items if type(item) is int]


def all_turns(f):
    """Every nondegenerate turn of the graph of ``f``."""
    g = f.graph
    return [t for c in g.cells()
            for d1 in g.edges_at(c) for d2 in g.edges_at(c)
            for x in (g.group_at(c).elements() if g.is_cone(c) else (None,))
            for t in (Turn(d1, x, d2, c),) if not t.degenerate]


def illegal_turns(f):
    """The turns whose orbit under the turn map dies."""
    return frozenset(t for t in all_turns(f) if f.dying_turn(t) is not None)


def is_train_track(f):
    return _descent_turn(f) is None


def random_path(rng, graph, steps=6):
    c = rng.randrange(graph.n_cells)
    start = c
    items = []
    for _ in range(steps):
        if graph.is_cone(c) and rng.random() < 0.4:
            items.append((c, rng.randrange(graph.group_at(c).order)))
        dirs = graph.edges_at(c)
        if not dirs:
            break
        d = rng.choice(dirs)
        items.append(d)
        c = graph.dst(d)
    return tighten(graph, start, items)


# ---- standard representatives ------------------------------------------------


class TestStandardReps:
    def test_hedgehog_alpha_images(self, f_alpha):
        assert image_texts(f_alpha) == {
            "X": "X .a ~Y .c Y .a ~X .b X",
            "Y": "Y .a ~X .b X",
        }

    def test_hedgehog_beta_images(self, f_beta):
        assert image_texts(f_beta) == {
            "X": "X ~Y .c Y ~X .b X",
            "Y": "Y ~X .b X",
        }

    def test_hedgehog_alpha_induces_alpha_exactly(self, f_alpha, alpha_w3):
        assert f_alpha.induced_automorphism() == alpha_w3

    def test_hedgehog_beta_induces_beta_exactly(self, f_beta, beta_w3):
        assert f_beta.induced_automorphism() == beta_w3

    def test_thistle_alpha_images(self, t_alpha):
        assert image_texts(t_alpha) == {
            "A": "A",
            "B": "B ~A .a A ~C .c C ~A .a A ~B .b B",
            "C": "C ~A .a A ~B .b B",
        }

    def test_thistle_induces_on_the_nose(self, alpha_w3, beta_w3, phi_w4, w4):
        swap = Automorphism.from_gen_images(
            w4, [w4.parse_word("b"), w4.parse_word("a"),
                 w4.parse_word("c"), w4.parse_word("d")])
        for phi in (alpha_w3, beta_w3, phi_w4, swap):
            assert thistle_rep(phi).induced_automorphism() == phi

    def test_hedgehog_needs_fixed_apex(self, w3):
        swap = Automorphism.from_gen_images(
            w3, [w3.parse_word("b"), w3.parse_word("a"), w3.parse_word("c")])
        with pytest.raises(BadRepresentative):
            hedgehog_rep(swap)
        rep = hedgehog_rep(swap, apex=2)
        assert rep.induced_automorphism().outer_equal(swap)

    def test_hedgehog_normalizes_apex_conjugator(self, alpha_w3, w3):
        twisted = Automorphism.inner(w3, w3.parse_word("b a")).compose(alpha_w3)
        rep = hedgehog_rep(twisted)
        assert rep.induced_automorphism().outer_equal(alpha_w3)

    def test_identity_rep_is_neutral(self, w3):
        graph = hedgehog(w3)
        ident = identity_rep(graph)
        rng = random.Random(61)
        for _ in range(25):
            p = random_path(rng, graph)
            assert ident.apply(p) == p
        assert ident.induced_automorphism().is_identity()
        assert illegal_turns(ident) == frozenset()

    def test_path_text_rep_infers_cone_targets(self, golden):
        f, _ = golden
        assert f.cone_images[1].target == 2
        assert f.cone_images[2].target == 3
        assert f.cone_images[3].target == 1
        assert f.cone_images[0].target == 0

    def test_path_text_rep_rejects_conflicts(self, w4):
        g4 = hedgehog(w4)
        with pytest.raises(BadRepresentative):
            rep_from_path_texts(g4, {"X": "Y", "Y": "Z", "Z": "Y"})

    def test_validation_rejects_wrong_endpoints(self, f_alpha):
        bad = dict(f_alpha.edge_images)
        bad[1], bad[2] = bad[2], bad[1]
        with pytest.raises(BadRepresentative):
            TopRep(f_alpha.graph, bad, f_alpha.cone_images,
                   f_alpha.vertex_images, f_alpha.marking)

    def test_validation_rejects_non_iso_table(self, f_alpha):
        cones = dict(f_alpha.cone_images)
        broken = cones[1]
        cones[1] = ConeMap(broken.target, (0, 0))
        with pytest.raises(BadRepresentative):
            TopRep(f_alpha.graph, f_alpha.edge_images, cones,
                   f_alpha.vertex_images, f_alpha.marking)


def _swap_a_and_b(edges):
    edges[1], edges[2] = edges[2], edges[1]


# One broken part of the W3 thistle representative of alpha per row, in
# the order ``_validate`` checks them: the part to change, the change,
# the error and its message.
VALIDATION_BREAKS = [
    ("cones", lambda cones: cones.pop(3), BadRepresentative,
     "every cone point needs exactly one image"),
    ("vertices", lambda verts: verts.pop(0), BadRepresentative,
     "every vertex needs exactly one image"),
    ("cones", lambda cones: cones.update({1: ConeMap(0, (0, 1))}),
     BadRepresentative, "cone points must map to cone points"),
    ("cones", lambda cones: cones.update({1: ConeMap(True, (0, 1))}),
     BadRepresentative, "cone points must map to cone points"),
    ("cones", lambda cones: cones.update({1: ConeMap(1.0, (0, 1))}),
     BadRepresentative, "cone points must map to cone points"),
    ("cones", lambda cones: cones.update({2: ConeMap(2, (0, 0))}),
     BadRepresentative, "cone map at cell 2 is not a group isomorphism"),
    ("cones", lambda cones: cones.update({2: ConeMap(1, (0, 1))}),
     BadRepresentative, "cone points must permute"),
    ("vertices", lambda verts: verts.update({0: "0"}), BadRepresentative,
     "vertex 0 maps to '0', not a cell"),
    ("vertices", lambda verts: verts.update({0: 4}), BadRepresentative,
     "vertex 0 maps outside the graph"),
    ("edges", lambda edges: edges.pop(3), BadRepresentative,
     "every edge needs exactly one image path"),
    ("edges", lambda edges: edges.update({3: (3,)}), BadRepresentative,
     "edge images must be paths here"),
    ("edges", _swap_a_and_b, BadRepresentative,
     "image of edge A joins the wrong cells"),
    ("marking", None, NoMarking, "marking lives on a different graph"),
]


@pytest.mark.parametrize("part, change, error, message", VALIDATION_BREAKS)
def test_validation_raises_each_check(t_alpha, w3, part, change, error,
                                      message):
    parts = {"edges": dict(t_alpha.edge_images),
             "cones": dict(t_alpha.cone_images),
             "vertices": dict(t_alpha.vertex_images),
             "marking": t_alpha.marking}
    if part == "marking":
        parts["marking"] = Marking(thistle(w3), 0)
    else:
        change(parts[part])
    with pytest.raises(error) as info:
        TopRep(t_alpha.graph, parts["edges"], parts["cones"],
               parts["vertices"], parts["marking"])
    assert str(info.value) == message


@pytest.mark.parametrize("image", ["0", 0.0, 0.7, True, False, None])
def test_vertex_images_must_be_cell_ids(t_alpha, image):
    """The central vertex's image used to pass through ``int()``, so
    ``"0"``, ``0.0`` and ``0.7`` (truncated to 0) were all taken for
    cell 0."""
    with pytest.raises(BadRepresentative, match="not a cell"):
        TopRep(t_alpha.graph, t_alpha.edge_images, t_alpha.cone_images,
               {0: image}, t_alpha.marking)


def test_cone_tables_must_hold_ints(t_alpha):
    """A cone table of floats is no group isomorphism, though it equals
    the identity table entry by entry."""
    cones = dict(t_alpha.cone_images)
    cones[1] = ConeMap(1, (0, 1.0))
    with pytest.raises(BadRepresentative, match="cone map at cell 1"):
        TopRep(t_alpha.graph, t_alpha.edge_images, cones,
               t_alpha.vertex_images, t_alpha.marking)


# ---- transition matrices ------------------------------------------------------


class TestTransition:
    def test_alpha_and_beta_share_the_matrix(self, f_alpha, f_beta):
        assert f_alpha.transition_matrix().entries == ((3, 2), (2, 1))
        assert f_beta.transition_matrix().entries == ((3, 2), (2, 1))

    def test_thistle_alpha_matrix(self, t_alpha):
        assert t_alpha.transition_matrix().entries == (
            (1, 4, 2), (0, 3, 2), (0, 2, 1))

    def test_identity_matrix(self, w3):
        ident = identity_rep(thistle(w3))
        assert ident.transition_matrix().entries == (
            (1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_golden_characteristic_polynomials(self, golden):
        f, g = golden
        assert _berkowitz(f.transition_matrix().entries) == (1, 0, -2, -1)
        assert _berkowitz(g.transition_matrix().entries) == (1, -2, 0, -1)

    def test_lookup_helpers(self, t_alpha):
        """Edge e is row and column e - 1: the image of B crosses A four
        times, and that of C crosses B twice."""
        M = t_alpha.transition_matrix()
        assert M.entries[0][1] == 4
        assert M.entries[1][2] == 2
        assert block(M, (2, 3)) == ((3, 2), (2, 1))


# ---- applying maps to paths ----------------------------------------------------


class TestApply:
    def test_beta_applied_to_edge_path(self, f_beta):
        x = tighten(f_beta.graph, 1, (1,))
        assert format_path(f_beta.apply(x)) == "X ~Y .c Y ~X .b X"

    def test_alpha_on_marked_generator_loop(self, t_alpha, alpha_w3, w3):
        loop = t_alpha.marking.realize(w3.parse_word("b"))
        expected = loop_of_word(t_alpha.graph, 0, alpha_w3(w3.parse_word("b")))
        assert t_alpha.apply(loop) == expected

    def test_apply_respects_concatenation(self, f_alpha):
        rng = random.Random(4114)
        graph = f_alpha.graph
        for _ in range(40):
            p = random_path(rng, graph)
            q = random_path(rng, graph)
            if p.end != q.start:
                continue
            assert f_alpha.apply(p * q) == f_alpha.apply(p) * f_alpha.apply(q)

    def test_circuit_words_follow_the_automorphism(self, f_alpha, alpha_w3, w3):
        rng = random.Random(230)
        graph = f_alpha.graph
        for _ in range(30):
            p = random_path(rng, graph, steps=5)
            loop = tighten_circuit(graph, p.items) if p.is_loop else None
            if loop is None or not loop.items:
                continue
            image = f_alpha.apply_circuit(loop)
            assert image.word_class() == w3.conjugacy_normal_form(
                alpha_w3(loop.word_class()))


def flat_image(f, items):
    """The image walk of ``items`` as raw items: every edge image spelled
    out item by item, every letter carried across its cone map."""
    out = []
    for item in items:
        if type(item) is int:
            out.extend(f.image(item).items)
        else:
            cm = f.cone_images[item[0]]
            out.append((cm.target, cm.table[item[1]]))
    return out


@st.composite
def reps_and_seeds(draw, corpus_automorphism):
    """A thistle or hedgehog representative of a random twisted W3-W5
    automorphism, or the thistle representative of a W3-W6 corpus case,
    maybe squared so that images cancel at more seams; and a seed for the
    walks."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 10**6)))
        phi = random_twisted_automorphism(rng)
        fixed = [i for i in range(phi.W.n) if phi.kurosh().pi[i] == i]
        f = (hedgehog_rep(phi, rng.choice(fixed))
             if fixed and rng.random() < 0.5 else thistle_rep(phi))
    else:
        n, length, count = draw(st.sampled_from(
            [(3, 4, 20), (4, 6, 20), (5, 8, 10), (6, 10, 6)]))
        phi = corpus_automorphism(n, length, draw(st.integers(0, count - 1)))
        f = thistle_rep(phi)
    if draw(st.booleans()):
        f = f.compose(f)
    return f, draw(st.integers(0, 10**6))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_splicing_at_seams_matches_the_flat_walk(corpus_automorphism, data):
    """Applying a map splices tight image runs, which cancel only at their
    seams; the result equals tightening the flattened raw image walk,
    items and stored edge count both, for paths and for circuits."""
    f, seed = data.draw(reps_and_seeds(corpus_automorphism))
    rng = random.Random(seed)
    graph = f.graph
    for _ in range(6):
        p = random_path(rng, graph, steps=rng.randint(0, 12))
        got = f.apply(p)
        want = tighten(graph, f.cell_image(p.start), flat_image(f, p.items))
        assert got.items == want.items
        assert got.n_edges == want.n_edges == len(edges_of(got))
        base = rng.randrange(graph.n_cells)
        loop = random_closed_walk(rng, graph, base, rng.randint(1, 12))
        c = tighten_circuit(graph, loop)
        got = f.apply_circuit(c)
        want = tighten_circuit(graph, flat_image(f, c.items))
        assert got.items == want.items
        assert got.n_edges == want.n_edges == sum(
            type(item) is int for item in got.items)


# ---- composition and iteration --------------------------------------------------


@pytest.mark.parametrize("method, arg, message", [
    ("apply", None, "not a path on this graph"),
    ("apply", (1,), "not a path on this graph"),
    ("apply_circuit", [1], "not a circuit on this graph"),
    ("apply_circuit", None, "not a circuit on this graph"),
    ("compose", None, "composition needs a common graph"),
])
def test_application_refuses_other_types(t_alpha, method, arg, message):
    """Each of these used to raise a bare ``AttributeError``."""
    with pytest.raises(BadRepresentative, match=message):
        getattr(t_alpha, method)(arg)


def test_application_refuses_paths_of_a_twin_graph(t_alpha, w3):
    """An equal graph is not the same graph: paths live on one object."""
    twin = thistle(w3)
    with pytest.raises(BadRepresentative, match="not a path"):
        t_alpha.apply(tighten(twin, 1, (1,)))
    with pytest.raises(BadRepresentative, match="not a circuit"):
        t_alpha.apply_circuit(tighten_circuit(twin, (-1, (1, 1), 1)))
    with pytest.raises(BadRepresentative, match="common graph"):
        t_alpha.compose(thistle_rep(Automorphism.identity(w3)))


class TestCompose:
    def test_identity_is_neutral(self, f_alpha):
        ident = identity_rep(f_alpha.graph)
        assert _rep_key(ident.compose(f_alpha)) == _rep_key(f_alpha)
        assert _rep_key(f_alpha.compose(ident)) == _rep_key(f_alpha)

    def test_square_matrix_bound(self, f_alpha, f_beta):
        for rep in (f_alpha, f_beta):
            M = rep.transition_matrix().entries
            M2 = rep.compose(rep).transition_matrix().entries
            assert all(a <= b for row2, row in zip(M2, mat_mul(M, M))
                       for a, b in zip(row2, row))

    def test_train_track_square_is_exact(self, f_alpha):
        M = f_alpha.transition_matrix().entries
        assert f_alpha.compose(f_alpha).transition_matrix().entries == \
            mat_mul(M, M)

    def test_beta_square_collapses(self, f_beta):
        # cancellation at the illegal turn loses crossings
        assert f_beta.compose(f_beta).transition_matrix().entries == \
            ((5, 4), (4, 3))

    def test_composition_induces_composition(self, f_alpha, alpha_w3):
        square = f_alpha.compose(f_alpha)
        assert square.induced_automorphism() == alpha_w3.compose(alpha_w3)

    def test_marking_survives_only_when_shared(self, f_alpha):
        assert f_alpha.compose(f_alpha).marking == f_alpha.marking
        shifted = identity_rep(f_alpha.graph, base=1)
        assert shifted.marking != f_alpha.marking
        assert f_alpha.compose(shifted).marking is None

    def test_golden_pair_are_homotopy_inverses(self, golden, w4):
        f, g = golden
        ident = identity_rep(f.graph)
        assert _rep_key(f.compose(g)) == _rep_key(ident)
        assert _rep_key(g.compose(f)) == _rep_key(ident)
        assert f.compose(g).induced_automorphism().is_identity()


# ---- derivatives and turns -------------------------------------------------------


class TestDerivative:
    """The derivative of a direction is the first edge of its image."""

    def test_golden_derivative_cycle(self, golden):
        f, _ = golden
        assert [edges_of(f.image(d))[0] for d in (1, 2, 3)] == [2, 3, 1]
        # the image of ~Z leads with a cone letter and then runs over ~Y,
        # so the derivative map folds ~Z and ~X together without harm
        assert [edges_of(f.image(d))[0]
                for d in (-1, -2, -3)] == [-2, -3, -2]

    def test_identity_derivative(self, w3):
        ident = identity_rep(thistle(w3))
        for d in ident.graph.src_of:
            assert edges_of(ident.image(d))[0] == d

    @pytest.mark.parametrize("d", [0, 4, -4, True, 1.0, -1.0, None, "1"])
    def test_image_refuses_non_edges(self, t_alpha, d):
        """``image(True)`` and ``image(1.0)`` used to return the image of
        edge 1, whose cache key they hash like, ``image(0)`` raised a bare
        ``KeyError``, and ``image(None)`` a bare ``TypeError``."""
        with pytest.raises(BadRepresentative, match="^no edge"):
            t_alpha.image(d)
        assert t_alpha.image(1) == t_alpha.edge_images[1]

    @pytest.mark.parametrize("c", [True, -1, 4, 1.0, None])
    def test_cell_image_refuses_non_cells(self, t_alpha, c):
        """``cell_image(True)`` used to return 1, ``cell_image(-1)`` raised
        a bare ``KeyError``, ``cell_image(4)`` a bare ``IndexError`` and
        ``cell_image(1.0)`` and ``cell_image(None)`` a bare ``TypeError``."""
        with pytest.raises(BadRepresentative, match="^no cell"):
            t_alpha.cell_image(c)
        assert [t_alpha.cell_image(v) for v in t_alpha.graph.cells()] == [
            t_alpha.vertex_images[v] if v in t_alpha.vertex_images
            else t_alpha.cone_images[v].target for v in t_alpha.graph.cells()]

    def test_edge_free_image_refuses(self, w3):
        # collapse-shaped map: A dies, so it cannot be differentiated
        graph = thistle(w3)
        trivial = tighten(graph, 1, ())
        images = {
            1: trivial,
            2: tighten(graph, 2, (2, -1)),
            3: tighten(graph, 3, (3, -1)),
        }
        cones = {c: ConeMap(c, (0, 1)) for c in (1, 2, 3)}
        rep = TopRep(graph, images, cones, {0: 1})
        assert edges_of(rep.image(1)) == []
        with pytest.raises(BadRepresentative):
            rep.turn_map(Turn(1, 1, 1, 1))

    def test_turn_letters_pass_through_cone_maps(self):
        Z4 = FiniteGroup.cyclic(4)
        W = FreeProduct([Z4, Z2], ["a", "b"])
        phi = Automorphism.from_gen_images(
            W, [W.parse_word("a^3"), W.parse_word("b")])
        rep = thistle_rep(phi)
        t = Turn(1, 1, 1, 1)
        image = rep.turn_map(t)
        assert image == Turn(1, 3, 1, 1)

    def test_degenerate_turns_stay_degenerate(self, f_alpha):
        graph = f_alpha.graph
        for c in graph.cells():
            for d in graph.edges_at(c):
                letter = 0 if graph.is_cone(c) else None
                t = Turn(d, letter, d, c)
                assert t.degenerate
                assert f_alpha.turn_map(t).degenerate


def reversed_turn(f, t):
    letter = None if t.letter is None else f.graph.group_at(t.base).inv(t.letter)
    return Turn(t.second, letter, t.first, t.base)


def walked_dying_turn(f, t):
    """The turn where the orbit of ``t`` dies, walked from ``t`` with a
    fresh seen set and no shared verdicts; ``None`` when it cycles."""
    seen = set()
    while t not in seen:
        seen.add(t)
        image = f.turn_map(t)
        if image.degenerate:
            return t
        t = image
    return None


def oracle_legality(f):
    """Legality by canonical chains: every orbit is walked on the lesser of
    a turn and its reversal, and each chain takes the verdict of where it
    ends (a degenerate turn, a turn already decided, or a cycle)."""

    def canonical(t):
        return min(t, reversed_turn(f, t), key=lambda s: (
            s.first, -1 if s.letter is None else s.letter, s.second))

    status = {}
    turns = all_turns(f)
    for t in turns:
        chain, t = [], canonical(t)
        while not (t.degenerate or t in status or t in chain):
            chain.append(t)
            t = canonical(f.turn_map(t))
        verdict = not t.degenerate and status.get(t, True)
        status.update((s, verdict) for s in chain)
    return frozenset(t for t in turns if not status[canonical(t)])


@st.composite
def folded_corpus_reps(draw):
    """Thistle representatives of a W3-W5 rotation composed on the left
    with partial conjugations a_i -> a_j a_i a_j, then up to three descent
    folds."""
    n = draw(st.integers(3, 5))
    W = FreeProduct([Z2] * n)
    phi = Automorphism.from_gen_images(
        W, [(((k + 1) % n, 1),) for k in range(n)])
    for i, j in draw(st.lists(st.permutations(range(n)).map(lambda p: p[:2]),
                              max_size=2 * n)):
        images = [((k, 1),) for k in range(n)]
        images[i] = ((j, 1), (i, 1), (j, 1))
        phi = Automorphism.from_gen_images(W, images).compose(phi)
    f = thistle_rep(phi)
    for _ in range(draw(st.integers(0, 3))):
        turn = _descent_turn(f)
        if turn is None:
            break
        try:
            f = fold(f, turn)
        except NothingToFold:
            break
    return f


class TestLegality:
    @given(folded_corpus_reps(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_legality_matches_the_canonical_chains(self, f, data):
        """Walking each orientation on its own gives the canonical-chain
        verdicts, and the illegal turns are closed under reversal.  Asked
        in any order on one instance, whose walks share their verdicts,
        ``dying_turn`` gives the turn an uncached walk dies at."""
        bare = TopRep(f.graph, f.edge_images, f.cone_images, f.vertex_images,
                      f.marking)
        for t in data.draw(st.permutations(all_turns(f))):
            assert f.dying_turn(t) == walked_dying_turn(bare, t)
        illegal = illegal_turns(f)
        assert illegal == oracle_legality(f)
        assert {reversed_turn(f, t) for t in illegal} == illegal

    def test_dying_turn_on_the_alpha_beta_pair(self, f_alpha, f_beta):
        t = Turn(-2, 0, -1, 0)
        assert f_beta.dying_turn(t) == t
        assert f_alpha.dying_turn(Turn(-1, 1, -2, 0)) is None

    def test_alpha_is_train_track(self, f_alpha):
        assert is_train_track(f_alpha)

    def test_beta_is_not(self, f_beta):
        assert not is_train_track(f_beta)

    def test_beta_illegal_turns_frozen(self, f_beta):
        assert illegal_turns(f_beta) == {
            Turn(-1, 0, -2, 0), Turn(-2, 0, -1, 0)}
        # the same pair of directions with the apex letter between them
        # is legal: only the letterless turn degenerates
        assert f_beta.dying_turn(Turn(-1, 1, -2, 0)) is None

    def test_beta_turn_degenerates_in_one_step(self, f_beta):
        image = f_beta.turn_map(Turn(-2, 0, -1, 0))
        assert image.degenerate

    def test_beta_images_cross_the_illegal_turn(self, f_beta):
        illegal = illegal_turns(f_beta)
        crossing = [e for e in sorted(f_beta.edge_images)
                    for t in f_beta.edge_images[e].turns() if t in illegal]
        assert crossing == [1, 1, 2]
        assert _descent_turn(f_beta) == Turn(-1, 0, -2, 0)

    def test_thistle_alpha_is_train_track(self, t_alpha):
        assert is_train_track(t_alpha)

    def test_golden_pair_both_train_track(self, golden):
        f, g = golden
        assert is_train_track(f)
        assert is_train_track(g)

    def test_finite_order_maps_are_train_track(self, w4):
        swap = Automorphism.from_gen_images(
            w4, [w4.parse_word("b"), w4.parse_word("a"),
                 w4.parse_word("c"), w4.parse_word("d")])
        assert is_train_track(thistle_rep(swap))


# ---- induced outer classes ---------------------------------------------------------


class TestInducedOuter:
    def test_inner_twists_share_the_outer_class(self, alpha_w3, w3):
        rng = random.Random(977)
        for _ in range(5):
            w = random_word(w3, rng, rng.randrange(0, 5))
            twisted = Automorphism.inner(w3, w).compose(alpha_w3)
            assert thistle_rep(twisted).induced_automorphism().outer_equal(
                alpha_w3)

    def test_unmarked_rep_refuses(self, f_alpha):
        bare = TopRep(f_alpha.graph, f_alpha.edge_images,
                      f_alpha.cone_images, f_alpha.vertex_images)
        with pytest.raises(NoMarking):
            bare.induced_automorphism()

    def test_marking_roundtrip(self, t_alpha, w3):
        rng = random.Random(3553)
        for _ in range(20):
            w = random_word(w3, rng, rng.randrange(0, 6))
            assert t_alpha.marking.read(t_alpha.marking.realize(w)) == w


    def test_trailing_central_letter_keeps_the_marking(self):
        """A letter at the end of a marking path conjugates its factor by
        that letter: the marking stays the same exactly when the letter is
        central in the factor."""
        S3 = FiniteGroup.symmetric(3)
        W = FreeProduct([Z2, S3], ["a", "s"])
        graph = thistle(W)
        plain = Marking(graph, 0)
        a_cone, s_cone = graph.cone_cells()

        def ending_in(cone, letter):
            paths = list(plain.paths)
            i = graph.factor_at(cone)
            paths[i] = tighten(graph, 0, paths[i].items + ((cone, letter),))
            return Marking(graph, 0, paths)

        central = ending_in(a_cone, 1)
        assert central.paths != plain.paths
        assert central == plain and hash(central) == hash(plain)
        twisted = ending_in(s_cone, 1)
        assert twisted != plain
        assert twisted.nu == twisted.spelled().inverse()
        loop = twisted.realize(W.parse_word("s a s[2]"))
        assert twisted.read(loop) == W.parse_word("s a s[2]")

    def test_marking_paths_must_reach_their_cones(self, w3):
        graph = thistle(w3)
        paths = Marking(graph, 0).paths
        with pytest.raises(NoMarking):
            Marking(graph, 0, paths[1:] + paths[:1])
        with pytest.raises(NoMarking):
            Marking(graph, 0, paths[:-1])

    def test_marking_paths_must_be_paths(self, w3):
        """A path that is no ``Path`` used to raise a bare
        ``AttributeError``."""
        with pytest.raises(NoMarking, match="one path per factor"):
            Marking(thistle(w3), 0, [None] * 3)

    @pytest.mark.parametrize("loop", [None, (1, -1), "0"])
    def test_only_loops_are_read(self, t_alpha, loop):
        """Reading anything but a ``Path`` used to raise a bare
        ``AttributeError``."""
        with pytest.raises(NoMarking, match="can only read loops"):
            t_alpha.marking.read(loop)

    def test_loops_on_another_graph_are_not_read(self, t_alpha, w3):
        loop = Marking(thistle(w3), 0).realize(w3.parse_word("b"))
        with pytest.raises(NoMarking, match="can only read loops"):
            t_alpha.marking.read(loop)

    @pytest.mark.parametrize("base", ["0", True, 1.0, -1, 4, None])
    def test_marking_bases_are_cells(self, w3, base):
        """A base that is not an int naming a cell is refused: ``"0"``
        used to be accepted and ``True`` moved the base to cell 1, both
        through ``int(base)``."""
        with pytest.raises(NoMarking):
            Marking(thistle(w3), base)

    @pytest.mark.parametrize("factor", [-1, True, 3, 1.0, None])
    def test_realized_factors_are_factor_ids(self, w3, factor):
        """A syllable's factor is checked as ``loop_of_word`` checks it:
        ``-1`` used to realize a loop that read back as factor 2,
        ``True`` passed as factor 1, and 3 raised a bare
        ``IndexError``."""
        with pytest.raises(BadOrbigraph, match="^no factor"):
            Marking(thistle(w3), 0).realize(((factor, 1),))


# ---- filtrations and strata ----------------------------------------------------------


def permutation_strata(rep):
    """Whether each stratum's diagonal block is a transitive permutation,
    stratum by stratum."""
    M = rep.transition_matrix()
    return [is_transitive_permutation(block(M, st))
            for st in maximal_filtration(rep)]


class TestFiltration:
    def test_thistle_alpha_strata(self, t_alpha):
        assert maximal_filtration(t_alpha) == ((1,), (2, 3))
        assert permutation_strata(t_alpha) == [True, False]

    def test_hedgehog_alpha_is_irreducible(self, f_alpha):
        assert maximal_filtration(f_alpha) == ((1, 2),)

    def test_single_edge_strata_for_triangular_map(self, phi_w4):
        rep = thistle_rep(phi_w4)
        assert maximal_filtration(rep) == ((1,), (2,), (3,), (4,))

    def test_zero_stratum_classification(self, w3):
        # a two-factor segment where one edge dies into the other side
        W2 = FreeProduct([Z2, Z2], ["a", "b"])
        graph = Orbigraph(W2, [0, VERTEX, 1], [(0, 1), (2, 1)],
                          edge_names=["A", "B"])
        images = {
            1: tighten(graph, 0, ()),
            2: tighten(graph, 2, (2, -1)),
        }
        cones = {0: ConeMap(0, (0, 1)), 2: ConeMap(2, (0, 1))}
        rep = TopRep(graph, images, cones, {1: 0})
        assert maximal_filtration(rep) == ((1,), (2,))
        assert block(rep.transition_matrix(), (1,)) == ((0,),)
        assert permutation_strata(rep) == [False, True]

    def test_zero_strata_merge_only_when_nothing_maps_across(self):
        """On the W2 tree a - u - v - b, edges A = (a, u) and B = (u, v)
        map to points and C = (b, v) stretches back across them, so the
        zero strata A and B merge.  When B crosses A instead, A is mapped
        into from B and the two stay apart."""
        W2 = FreeProduct([Z2, Z2], ["a", "b"])
        graph = Orbigraph(W2, [0, VERTEX, VERTEX, 1],
                          [(0, 1), (1, 2), (3, 2)], edge_names=["A", "B", "C"])
        cones = {0: ConeMap(0, (0, 1)), 3: ConeMap(3, (0, 1))}
        squashed = TopRep(graph, {1: tighten(graph, 0, ()),
                                  2: tighten(graph, 0, ()),
                                  3: tighten(graph, 3, (3, -2, -1))},
                          cones, {1: 0, 2: 0})
        assert maximal_filtration(squashed) == ((1, 2), (3,))
        crossing = TopRep(graph, {1: tighten(graph, 0, ()),
                                  2: tighten(graph, 0, (1,)),
                                  3: tighten(graph, 3, (3, -2))},
                          cones, {1: 0, 2: 1})
        assert crossing.transition_matrix().entries == (
            (0, 1, 0), (0, 0, 1), (0, 0, 1))
        assert maximal_filtration(crossing) == ((1,), (2,), (3,))

    def test_orientation_reversing_cycle(self, w3):
        graph = hedgehog(w3)
        images = {
            1: tighten(graph, 0, (-1,)),
            2: tighten(graph, 2, (2, -1)),
        }
        cones = {0: ConeMap(1, (0, 1)), 1: ConeMap(0, (0, 1)),
                 2: ConeMap(2, (0, 1))}
        rep = TopRep(graph, images, cones, {})
        assert maximal_filtration(rep) == ((1,), (2,))
        assert permutation_strata(rep) == [True, True]

    def test_permutation_stratum_walk(self, w4):
        swap = Automorphism.from_gen_images(
            w4, [w4.parse_word("b"), w4.parse_word("a"),
                 w4.parse_word("c"), w4.parse_word("d")])
        rep = thistle_rep(swap)
        assert maximal_filtration(rep)[0] == (1, 2)
        assert permutation_strata(rep)[0]


class TestPFSequence:
    """The PF data of the strata that are neither zero nor a permutation
    block."""

    def test_thistle_alpha_brackets_the_growth_rate(self, t_alpha):
        data = pf_data(block(t_alpha.transition_matrix(), (2, 3)))
        assert (data.lower - 2) ** 2 < 5 < (data.upper - 2) ** 2
        assert data.upper - data.lower < 10 ** -9

    def test_triangular_map_has_empty_sequence(self, phi_w4):
        rep = thistle_rep(phi_w4)
        assert all(permutation_strata(rep))

    def test_models_agree_on_the_rate(self, f_alpha, t_alpha):
        a = pf_data(f_alpha.transition_matrix().entries)
        b = pf_data(block(t_alpha.transition_matrix(), (2, 3)))
        assert pf_compare(a, b) == 0

    def test_golden_pair_rates_differ(self, golden):
        f, g = golden
        lam_f = pf_data(f.transition_matrix().entries)
        lam_g = pf_data(g.transition_matrix().entries)
        assert pf_compare(lam_g, lam_f) > 0


# ---- randomized properties -----------------------------------------------------------


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_thistle_rep_induces_its_automorphism(seed):
    rng = random.Random(seed)
    w3 = FreeProduct([Z2, Z2, Z2], ["a", "b", "c"])
    base = Automorphism.from_gen_images(
        w3,
        [w3.parse_word("a"), w3.parse_word("b a c a b a c a b"),
         w3.parse_word("b a c a b")],
    )
    phi = Automorphism.inner(w3, random_word(w3, rng, rng.randrange(0, 4)))
    phi = phi.compose(base) if rng.random() < 0.5 else phi
    assert thistle_rep(phi).induced_automorphism() == phi


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_structural_equality_survives_relabelling(seed):
    rng = random.Random(seed)
    w3 = FreeProduct([Z2, Z2, Z2], ["a", "b", "c"])
    beta = Automorphism.from_gen_images(
        w3,
        [w3.parse_word("a"), w3.parse_word("b c b c b"),
         w3.parse_word("b c b")],
    )
    rep = hedgehog_rep(beta)
    f = rep
    for _ in range(rng.randrange(0, 3)):
        f = rep.compose(f)
    renamed = Orbigraph(w3, f.graph.kinds, f.graph.ends,
                        edge_names=["P", "Q"])
    moved = TopRep(renamed, {e: Path(renamed, p.start, p.items)
                             for e, p in f.edge_images.items()},
                   f.cone_images, f.vertex_images)
    assert _rep_key(moved) == _rep_key(f)
    assert _rep_key(rep) != _rep_key(identity_rep(rep.graph))
