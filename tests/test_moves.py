"""Homotopy moves: collapses, subdivisions, folds, valence homotopies,
slides, and the transported markings behind them all.

Every move must return a representative of the same outer automorphism.
The worked W3 pair supplies the anchors: collapsing the invariant edge A
of the thistle representative of alpha lands exactly on the hedgehog
one, and folding beta's illegal apex turn drops its eigenvalue from
2 + sqrt(5) to 1 in a single step.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitrain.errors import (
    BadOrbigraph,
    BadSlidePath,
    ConePointForbidden,
    ImageNotAtZeroCell,
    NotInvariantForest,
    NothingToFold,
    NotValenceOne,
    NotValenceTwo,
)
from orbitrain import moves
from orbitrain.groups import Automorphism, FiniteGroup, FreeProduct
from orbitrain.moves import (
    collapse_forest,
    fold,
    maximal_invariant_forest,
    slide,
    subdivide,
    valence_one_homotopy,
    valence_two_homotopy,
)
from orbitrain.orbigraph import VERTEX, Orbigraph, hedgehog
from orbitrain.paths import Path, Turn, format_path, parse_path, tighten
from orbitrain.pf import is_transitive_permutation, pf_compare, pf_data
from orbitrain.toprep import (
    ConeMap,
    Marking,
    TopRep,
    hedgehog_rep,
    maximal_filtration,
    rep_from_path_texts,
    thistle_rep,
)
from orbitrain.traintrack import (
    _descent_turn, _rep_key, normalize, record_events, train_track_algorithm)

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


def same_outer(f, g):
    """Whether two marked representatives induce one outer class."""
    return f.induced_automorphism().outer_equal(g.induced_automorphism())


def block(M, edges):
    """The diagonal block of a transition matrix on ``edges``."""
    return tuple(tuple(M.entries[e - 1][d - 1] for d in edges)
                 for e in edges)


def image_texts(rep):
    return {
        rep.graph.edge_names[e - 1]: format_path(rep.edge_images[e])
        for e in sorted(rep.edge_images)
    }


def w2_rep(kinds, ends, names, texts, vertex_images, base):
    """A small hand-built representative over Z2 * Z2 with the identity
    marking; image paths are given as (start, text) pairs, an empty text
    meaning the trivial path."""
    w2 = FreeProduct([Z2, Z2], ["a", "b"])
    g = Orbigraph(w2, kinds, ends, edge_names=names)
    edge_images = {}
    for e, (start, text) in texts.items():
        if text:
            edge_images[e] = parse_path(g, text, start=start)
        else:
            edge_images[e] = Path(g, start, ())
    cone_images = {c: ConeMap(c, c, (0, 1)) for c in g.cone_cells()}
    marking = Marking(g, base)
    return TopRep(g, edge_images, cone_images, vertex_images, marking)


# ---- forests -----------------------------------------------------------------


class TestForests:
    def test_invariant_forest_of_thistle_alpha(self, t_alpha):
        forest = maximal_invariant_forest(t_alpha)
        assert sorted(forest) == [1]

    def test_hedgehog_has_no_invariant_forest(self, f_alpha):
        assert not maximal_invariant_forest(f_alpha)

    def test_one_cone_point_keeps_an_irreducible_forest(self):
        """With a single factor the whole thistle is a forest, so an
        irreducible transition matrix does not empty it."""
        f = thistle_rep(Automorphism.identity(FreeProduct([Z2])))
        assert f.transition_matrix().entries == ((1,),)
        assert maximal_invariant_forest(f) == {1}

    def test_pretrivial_forest_collects_squashed_tree(self):
        """U, V and W map to a point, so the invariant forest takes the
        whole squashed tree, with A, and normalizing leaves the single
        edge B."""
        f = star_tree_rep()
        forest = maximal_invariant_forest(f)
        assert sorted(forest) == [1, 3, 4, 5]
        out = normalize(f)
        assert image_texts(out) == {"B": "B"}
        assert out.induced_automorphism().outer_equal(
            f.induced_automorphism())


# ---- collapsing an invariant forest ------------------------------------------


class TestCollapseForest:
    def test_thistle_alpha_collapses_to_hedgehog_alpha(self, t_alpha, f_alpha):
        """Collapsing the invariant edge A realizes the standard
        hedgehog representative exactly, marking included."""
        out = collapse_forest(t_alpha, {1})
        assert out.transition_matrix().entries == ((3, 2), (2, 1))
        assert _rep_key(out) == _rep_key(f_alpha)
        assert same_outer(out, t_alpha)

    def test_collapse_drops_forest_rows_and_columns(self, t_alpha):
        out = collapse_forest(t_alpha, {1})
        assert out.transition_matrix().entries == block(
            t_alpha.transition_matrix(), (2, 3))

    def test_collapse_records_a_trace(self, t_alpha):
        """The collapse is recorded by ``normalize``, which applies it,
        not by the move."""
        assert t_alpha.transition_matrix().entries == (
            (1, 4, 2), (0, 3, 2), (0, 2, 1))
        with record_events() as log:
            out = normalize(t_alpha)
        assert log == [("collapse_forest", (1,))]
        assert out.transition_matrix().entries == ((3, 2), (2, 1))

    def test_noninvariant_forest_is_rejected(self, f_alpha):
        with pytest.raises(NotInvariantForest):
            collapse_forest(f_alpha, {1})

    def test_non_forest_is_rejected(self, f_alpha):
        with pytest.raises(NotInvariantForest):
            collapse_forest(f_alpha, {1, 2})

    def test_empty_forest_is_rejected_as_empty(self, t_alpha):
        with pytest.raises(NotInvariantForest, match="the forest has no edge"):
            collapse_forest(t_alpha, [])

    def test_forest_edges_are_read_by_abs_and_checked(self, t_alpha):
        assert (_rep_key(collapse_forest(t_alpha, [-1]))
                == _rep_key(collapse_forest(t_alpha, {1})))
        for bad in ({4}, {0}, {1, -4}):
            with pytest.raises(BadOrbigraph):
                collapse_forest(t_alpha, bad)

    def test_collapse_keeps_induced_automorphism(self, phi_w4):
        # {A, B} is invariant but its component would squash two cone
        # points together, so only one of the fixed edges may go
        t = thistle_rep(phi_w4)
        forest = maximal_invariant_forest(t)
        assert sorted(forest) == [1]
        out = collapse_forest(t, forest)
        assert out.graph.n_edges == 3
        assert out.induced_automorphism().outer_equal(phi_w4)

    def test_collapse_keeps_cone_letters_of_forest_images(self):
        """The invariant forest {A, B'} maps B' across the cone letter a,
        so B, which leaves the forest at B', keeps that letter."""
        z3 = FiniteGroup.cyclic(3)
        W = FreeProduct([z3, Z2, Z2], ["a", "b", "c"])
        g = Orbigraph(W, [VERTEX, 0, 1, 2, VERTEX],
                      [(1, 0), (2, 4), (3, 0), (4, 0)], ["A", "B", "C", "B'"])
        f = rep_from_path_texts(
            g, {"A": "A", "B": "B B'", "B'": "~A .a A", "C": "C"})
        forest = maximal_invariant_forest(f)
        assert sorted(forest) == [1, 4]
        out = collapse_forest(f, forest)
        assert image_texts(out) == {"B": "B .a", "C": "C"}
        assert out.induced_automorphism().outer_equal(
            f.induced_automorphism())


def star_tree_rep(base=2):
    """Two cones hanging off a squashed three-edge tree: U, V, W all map
    to the trivial path, B wanders across the tree."""
    return w2_rep(
        [0, 1, VERTEX, VERTEX, VERTEX, VERTEX],
        [(0, 2), (1, 3), (2, 5), (3, 5), (4, 5)],
        ["A", "B", "U", "V", "W"],
        {1: (0, "A"), 2: (1, "B V ~U"), 3: (2, ""), 4: (2, ""), 5: (2, "")},
        {2: 2, 3: 2, 4: 2, 5: 2},
        base=base,
    )


# ---- subdivision --------------------------------------------------------------


class TestSubdivide:
    def test_beta_split_after_two_crossings(self, f_beta):
        out = subdivide(f_beta, 1, 2)
        assert image_texts(out) == {
            "X": "X X' ~Y",
            "X'": ".c Y ~X' ~X .b X X'",
            "Y": "Y ~X' ~X .b X X'",
        }
        assert out.transition_matrix().entries == (
            (1, 2, 2), (1, 2, 2), (1, 1, 1))

    def test_junction_letter_goes_to_the_second_piece(self, f_beta):
        # the cut of X at 2/5 lands on the apex letter .c of its image;
        # the twist opens the second piece rather than closing the first
        out = subdivide(f_beta, 1, 2)
        first = out.edge_images[1]
        assert format_path(first) == "X X' ~Y"

    def test_early_split(self, f_beta):
        out = subdivide(f_beta, 1, 1)
        assert image_texts(out)["X"] == "X X'"
        assert image_texts(out)["X'"] == "~Y .c Y ~X' ~X .b X X'"

    def test_split_must_be_interior(self, f_alpha):
        """An interior zero cell is named by a plain integer from 1 to
        n - 1: ``True`` is not 1."""
        for split in (0, 9, True, Fraction(1), Fraction(1, 2), 1.0):
            with pytest.raises(ImageNotAtZeroCell):
                subdivide(f_alpha, 1, split)

    def test_preserves_outer_and_eigenvalue(self, f_alpha):
        out = subdivide(f_alpha, 1, 4)
        assert same_outer(out, f_alpha)
        before = pf_data(f_alpha.transition_matrix().entries)
        after = pf_data(out.transition_matrix().entries)
        assert pf_compare(before, after) == 0

    @given(edge=st.sampled_from([1, 2]), split=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_valence_two_undoes_any_subdivision(self, f_alpha, edge, split):
        n = f_alpha.edge_images[edge].n_edges
        if not 1 <= split < n:
            return
        cut = subdivide(f_alpha, edge, split)
        v = cut.graph.n_cells - 1
        second = [e for e in cut.graph.edges()
                  if cut.graph.src(e) == v or cut.graph.dst(e) == v]
        back = valence_two_homotopy(cut, v, min(second))
        assert _rep_key(back) == _rep_key(f_alpha)
        assert same_outer(back, f_alpha)


def random_twisted_automorphism(rng):
    """A random W3-W5 automorphism: a factor permutation, then partial
    conjugations, then a random inner twist."""
    n = rng.randrange(3, 6)
    W = FreeProduct([Z2] * n)
    perm = rng.sample(range(n), n)
    phi = Automorphism.from_gen_images(W, [((perm[k], 1),) for k in range(n)])
    for _ in range(rng.randrange(1, 2 * n)):
        i, j = rng.sample(range(n), 2)
        images = [((k, 1),) for k in range(n)]
        images[i] = ((j, 1), (i, 1), (j, 1))
        phi = Automorphism.from_gen_images(W, images).compose(phi)
    word = [(rng.randrange(n), 1) for _ in range(rng.randrange(4))]
    return Automorphism.inner(W, W.nf(word)).compose(phi)


def cut(f, cuts, letter_first=frozenset()):
    """Subdivide ``f`` by the cut plan ``cuts`` through the quotient
    builder, squashing nothing; the result and its transport."""
    cells = [(c,) for c in range(f.graph.n_cells + len(cuts))]
    return moves._quotient(f, cells, {}, {}, cuts=cuts,
                           letter_first=letter_first)


def seeded_subdivisions(seed):
    """The automorphism of ``seed`` and a list of the subdivisions of its
    thistle or hedgehog representative, maybe slid, as (old, new,
    transport, cuts, edges whose junction letter goes first): one cut of
    a random edge at a random zero cell, with the junction letter on a
    random side, or none when that edge's image crosses a single edge."""
    rng = random.Random(seed)
    phi = random_twisted_automorphism(rng)
    fixed = [i for i in range(phi.W.n) if phi.kurosh().pi[i] == i]
    if fixed and rng.random() < 0.5:
        # a hedgehog's apex joins edges through trivial letters
        f = hedgehog_rep(phi, rng.choice(fixed))
    else:
        f = thistle_rep(phi)
    if rng.random() < 0.5:
        # a slide along a twist loop moves the marking off the identity
        e = rng.choice(f.graph.edges())
        d = rng.choice((e, -e))
        f = slide(f, d, random_loop(rng, f.graph, f.graph.dst(d), e))
    e = rng.choice(f.graph.edges())
    n = f.edge_images[e].n_edges
    if n <= 1:
        return phi, []
    cuts = {e: rng.randrange(1, n)}
    sides = {e} if rng.random() < 0.5 else set()
    return phi, [(f, *cut(f, cuts, sides), cuts, sides)]


def cut_kinds(seed):
    """What the subdivision of ``seed`` exercises: ``"marked"`` under a
    marking other than the identity, ``"cell"`` for a cut, and
    ``("trivial letter", first)`` for a trivial junction letter on the
    cut's zero cell, ``first`` telling whether it closes the first
    piece."""
    kinds = set()
    for f, _, _, cuts, letter_first in seeded_subdivisions(seed)[1]:
        if f.marking.nu != Automorphism.identity(f.graph.W):
            kinds.add("marked")
        for e, k in cuts.items():
            kinds.add("cell")
            items = f.edge_images[e].items
            heads = [i for i, item in enumerate(items) if type(item) is int]
            junction = items[heads[k - 1] + 1]
            if type(junction) is not int and junction[1] == 0:
                kinds.add(("trivial letter", e in letter_first))
    return kinds


# seeds whose cut drops a trivial junction letter closing (20) or
# opening (109) a piece, the latter under a marking other than the
# identity
CUT_EVERY_WAY = (20, 109)


@given(st.integers(0, 2**32 - 1))
@example(CUT_EVERY_WAY[0])
@example(CUT_EVERY_WAY[1])
@settings(max_examples=30, deadline=None)
def test_subdivision_is_a_substitution(seed):
    """Each old edge image, refined, is the tightened product of its
    pieces' images; every piece image is tight; the marking is kept."""
    phi, seen = seeded_subdivisions(seed)
    for f, out, tr, _, letter_first in seen:
        for e in f.graph.edges():
            run = [out.image(piece) for piece in tr.edge_items[e]]
            for p in run:
                Path(out.graph, p.start, p.items)  # raises unless tight
            joined = run[0]
            for p, q in zip(run, run[1:]):
                # a junction letter opens the next piece unless the cut
                # is listed to close the previous one with it
                assert type(q.items[0] if e in letter_first
                            else p.items[-1]) is int
                joined = joined * q
            assert joined == tr.path(f.edge_images[e])
        assert out.marking.base == f.marking.base
        assert out.marking.nu == f.marking.nu
        assert out.induced_automorphism().outer_equal(phi)


def test_pinned_seeds_cut_every_way():
    """The pinned examples above subdivide under a marking other than the
    identity and cut over zero cells at trivial junction letters on both
    sides."""
    kinds = set().union(*map(cut_kinds, CUT_EVERY_WAY))
    assert kinds >= {"marked", "cell", ("trivial letter", True),
                     ("trivial letter", False)}


def assert_intertwines(f, out, tr):
    """The transport ``tr`` of a move from ``f`` to ``out`` intertwines
    the two maps: for the one-edge path p of every edge of ``f``,
    out(tr(p)) and tr(f(p)) are the same tight path."""
    for e in f.graph.edges():
        p = tighten(f.graph, f.graph.src(e), (e,))
        assert out.apply(tr.path(p)) == tr.path(f.apply(p))


@given(st.integers(0, 2**32 - 1))
@example(CUT_EVERY_WAY[0])
@example(CUT_EVERY_WAY[1])
@settings(max_examples=30, deadline=None)
def test_subdivisions_and_folds_intertwine_the_maps(seed):
    """On the seed's subdivision, and on the first folds of the descent
    from its thistle representative, the move's transport intertwines
    the old map with the new one."""
    phi, seen = seeded_subdivisions(seed)
    for f, out, tr, _, _ in seen:
        assert_intertwines(f, out, tr)
    f = thistle_rep(phi)
    for _ in range(3):
        turn = _descent_turn(f)
        if turn is None:
            break
        try:
            out, tr = moves._fold_core(f, turn)
        except NothingToFold:
            break
        assert_intertwines(f, out, tr)
        f = normalize(out)


@pytest.mark.parametrize("move, args, missing", [
    ("subdivide", (99, 1), "edge 99"), ("subdivide", (-1, 1), "edge -1"),
    ("subdivide", (0, 1), "edge 0"),
    ("valence_one_homotopy", (99,), "cell 99"),
    ("valence_one_homotopy", (-1,), "cell -1"),
    ("valence_two_homotopy", (99, 1), "cell 99"),
    ("valence_two_homotopy", (-1, 1), "cell -1"),
    ("fold", (Turn(99, 0, 1, 0),), "edge 99"),
    ("collapse_forest", ({99},), "edge 99"),
    ("slide", (99,), "edge 99"),
])
def test_out_of_range_move_arguments_are_bad_orbigraphs(phi_w4, move, args,
                                                        missing):
    """A move given an edge or cell that its graph lacks raises
    ``BadOrbigraph`` naming it, not a builtin error or a wrapped index."""
    f = thistle_rep(phi_w4)
    if move == "slide":
        args += (Path(f.graph, 0),)
    with pytest.raises(BadOrbigraph, match=f"^no {missing} in this graph$"):
        getattr(moves, move)(f, *args)


# ---- folding ------------------------------------------------------------------


class TestFold:
    def test_beta_fold_kills_the_growth(self, f_beta):
        """Folding the illegal apex turn of beta produces a two-edge
        representative with a unipotent matrix: beta only ever grew
        polynomially, the hedgehog just hid it."""
        out = fold(f_beta, Turn(-1, 0, -2, 0))
        assert out.transition_matrix().entries == ((1, 2), (0, 1))
        assert image_texts(out) == {"X": "X .c", "X'": "~X .b X X'"}
        assert same_outer(out, f_beta)

    def test_beta_fold_strata_are_polynomial(self, f_beta):
        out = fold(f_beta, Turn(-1, 0, -2, 0))
        assert maximal_filtration(out) == ((1,), (2,))

    def test_beta_fold_eigenvalue_drops(self, f_beta):
        """Each stratum after the fold is one edge mapped once over
        itself, so none of them grows exponentially."""
        out = fold(f_beta, Turn(-1, 0, -2, 0))
        assert not pf_data(f_beta.transition_matrix().entries).is_one
        M = out.transition_matrix()
        assert all(is_transitive_permutation(block(M, s))
                   for s in maximal_filtration(out))

    def test_fold_trace(self, f_beta):
        """The descent records the turn it folds before folding it."""
        with record_events() as log:
            train_track_algorithm(f_beta)
        assert [e[0] for e in log] == ["pass", "fold"]
        assert log[-1] == ("fold", Turn(-1, 0, -2, 0))

    def test_fold_cuts_both_reversed_directions(self):
        """A descent fold of the W5 corpus (s6) folds ~E' onto ~A along
        their first edge ~E'.  Both directions are reversed and cut, each
        at its own index on the input's images, and the junction letter b
        after ~E' in the image of ~A stays with the folded piece."""
        W = FreeProduct([Z2] * 5)
        g = Orbigraph(W, [VERTEX, 0, 1, 2, 3, 4],
                      [(1, 0), (3, 0), (4, 0), (5, 2), (2, 0)],
                      ["A", "C", "D", "E", "E'"])
        f = rep_from_path_texts(g, {
            "A": "E' ~A .a A ~D .d D ~A .a A ~E' .b E'",
            "C": "D ~A .a A ~E' .b ~E .e E E' ~C .c C ~E' ~E .e E E'",
            "D": "E E' ~C .c C ~A .a A ~C .c C ~E' ~E .e E E'",
            "E": "A ~C .c",
            "E'": "C ~E' ~E .e E E'",
        })
        out = fold(f, Turn(-5, None, -1, 0))
        assert image_texts(out) == {
            "A": "E' ~A .a A E'' ~D .d D ~E'' ~A .a A ~E' .b",
            "C": "D ~E'' ~A .a A ~E' .b ~E .e E E' E'' ~C .c C ~E'' ~E' "
                 "~E .e E E' E''",
            "D": "E E' E'' ~C .c C ~E'' ~A .a A E'' ~C .c C ~E'' ~E' "
                 "~E .e E E' E''",
            "E": "A E'' ~C .c",
            "E'": "C ~E'' ~E' ~E .e E",
            "E''": "E' E''",
        }
        assert out.induced_automorphism().outer_equal(
            f.induced_automorphism())

    def test_degenerate_turn_is_rejected(self, f_beta):
        with pytest.raises(NothingToFold):
            fold(f_beta, Turn(-1, 0, -1, 0))

    def test_legal_turn_has_nothing_to_fold(self, w4):
        g4 = hedgehog(w4)
        gold = rep_from_path_texts(g4, {"X": "Y", "Y": "Z", "Z": "X ~Y^ .a"})
        with pytest.raises(NothingToFold):
            fold(gold, Turn(-1, 0, -2, 0))

    def test_fold_base_mismatch(self, f_beta):
        with pytest.raises(NothingToFold):
            fold(f_beta, Turn(1, None, 2, 0))


# ---- valence homotopies --------------------------------------------------------


class TestValenceHomotopies:
    def test_valence_one_prunes_a_dangling_edge(self):
        f = dangling_rep()
        out = valence_one_homotopy(f, 3)
        assert sorted(out.graph.edge_names) == ["A", "B"]
        assert same_outer(out, f)

    def test_valence_one_needs_valence_one(self, f_alpha):
        with pytest.raises(NotValenceOne):
            valence_one_homotopy(subdivide(f_alpha, 1, 1), 3)

    def test_valence_one_never_at_a_cone(self, f_alpha):
        with pytest.raises(ConePointForbidden):
            valence_one_homotopy(f_alpha, 1)

    def test_valence_two_restores_alpha(self, f_alpha):
        cut = subdivide(f_alpha, 2, 2)
        v = cut.graph.n_cells - 1
        out = valence_two_homotopy(cut, v, 3)
        assert _rep_key(out) == _rep_key(f_alpha)

    def test_collapsed_edge_must_meet_the_cell(self, f_alpha):
        cut = subdivide(f_alpha, 1, 1)
        with pytest.raises(NotValenceTwo):
            valence_two_homotopy(cut, cut.graph.n_cells - 1, 3)

    def test_cone_cells_never_have_valence_two(self, f_alpha):
        with pytest.raises(ConePointForbidden):
            valence_two_homotopy(f_alpha, 0, 1)


def dangling_rep():
    """The identity-marked W2 thistle with one extra edge hanging off
    the vertex, fixed pointwise."""
    return w2_rep(
        [VERTEX, 0, 1, VERTEX],
        [(1, 0), (2, 0), (0, 3)],
        ["A", "B", "Z"],
        {1: (1, "A"), 2: (2, "B"), 3: (0, "Z")},
        {0: 0, 3: 3},
        base=0,
    )


# ---- sliding -------------------------------------------------------------------


class TestSlide:
    def test_slide_cancels_an_inner_twist(self, t_alpha):
        g = t_alpha.graph
        loop = parse_path(g, "~A .a A", start=0)
        out = slide(t_alpha, 2, loop)
        assert image_texts(out)["B"] == "B ~C .c C ~B .b B"
        assert same_outer(out, t_alpha)

    def test_slide_along_trivial_path_changes_nothing(self, t_alpha):
        g = t_alpha.graph
        out = slide(t_alpha, 2, Path(g, 0, ()))
        assert _rep_key(out) == _rep_key(t_alpha)

    def test_slide_path_must_avoid_the_edge(self, t_alpha):
        g = t_alpha.graph
        with pytest.raises(BadSlidePath):
            slide(t_alpha, 2, parse_path(g, "~B .b B", start=0))
        with pytest.raises(BadSlidePath):
            slide(t_alpha, -2, parse_path(g, "B ~C .c C ~B", start=2))

    def test_reversed_direction_slides_the_initial_end(self, t_alpha):
        """B' leaves the subdivision vertex; sliding that end around the
        b twist wraps the twist into the images of B and B'."""
        cut = subdivide(t_alpha, 2, 1)
        alpha = parse_path(cut.graph, "~B .b B", start=4)
        out = slide(cut, -3, alpha)
        assert image_texts(out) == {
            "A": "A",
            "B": ".b B B'",
            "B'": "~B' ~B .b B B' ~A .a A ~C .c C ~A .a A ~B' ~B .b B B'",
            "C": "C ~A .a A ~B' ~B .b B B'",
        }
        assert same_outer(out, t_alpha)


# ---- the recorder --------------------------------------------------------------


class TestRecorder:
    """Moves are pure: they record nothing themselves.  The descent's
    event stream, ``traintrack.record_events``, records what
    ``normalize`` and the descent loop apply."""

    def test_moves_accumulate_in_order(self, t_alpha, f_beta):
        with record_events() as log:
            subdivide(f_beta, 1, 1)
            fold(f_beta, Turn(-1, 0, -2, 0))
            assert log == []
            normalize(t_alpha)
            train_track_algorithm(f_beta)
        assert [e[0] for e in log] == ["collapse_forest", "pass", "fold"]
        _, step, cells, edges, lower, upper = log[1]
        assert (step, cells, edges) == (0, 3, 2)
        assert lower < upper

    def test_nothing_recorded_outside_the_context(self, t_alpha):
        with record_events() as log:
            pass
        normalize(t_alpha)
        assert log == []


# ---- markings under randomized twisting ----------------------------------------


def random_loop(rng, graph, base, avoid):
    """A loop at ``base`` of up to three cone twists, none reached
    across the edge ``avoid``."""
    loop = Path(graph, base, ())
    for _ in range(rng.randrange(1, 4)):
        c = rng.choice(graph.cone_cells())
        way = tighten(graph, base, graph.geodesic(base, c))
        if avoid in way.crossings():
            continue
        g = rng.randrange(1, graph.group_at(c).order)
        loop = loop * way * tighten(graph, c, ((c, g),)) * way.invert()
    return loop


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_moves_preserve_twisted_outer_classes(seed):
    """Pre- and post-composing with inner automorphisms changes the
    representative but never the outer class a move hands back."""
    rng = random.Random(seed)
    w3 = FreeProduct([Z2, Z2, Z2], ["a", "b", "c"])
    beta = Automorphism.from_gen_images(
        w3, [w3.parse_word("a"), w3.parse_word("b c b c b"),
             w3.parse_word("b c b")])
    letters = "abc"
    word = " ".join(rng.choice(letters) for _ in range(rng.randrange(1, 5)))
    twisted = Automorphism.inner(w3, w3.parse_word(word)).compose(beta)
    rep = thistle_rep(twisted)
    want = rep.induced_automorphism()

    forest = maximal_invariant_forest(rep)
    if forest:
        rep = collapse_forest(rep, forest)
        assert rep.induced_automorphism().outer_equal(want)

    edge = rng.choice(rep.graph.edges())
    n = rep.edge_images[edge].n_edges
    if n > 1:
        rep = subdivide(rep, edge, rng.randrange(1, n))
        assert rep.induced_automorphism().outer_equal(want)
        v = rep.graph.n_cells - 1
        piece = rng.choice([abs(d) for d in rep.graph.edges_at(v)])
        back = valence_two_homotopy(rep, v, piece)
        assert back.induced_automorphism().outer_equal(want)

    turn = _descent_turn(rep)
    if turn is not None:
        assert fold(rep, turn).induced_automorphism().outer_equal(want)

    edge = rng.choice(rep.graph.edges())
    for d in (edge, -edge):
        loop = random_loop(rng, rep.graph, rep.graph.dst(d), edge)
        rep = slide(rep, d, loop)
        assert rep.induced_automorphism().outer_equal(want)


def random_base_loop(rng, graph, base):
    """A loop at ``base``: a random walk with random cone letters, closed
    along the geodesic home."""
    items = []
    cur = base
    for _ in range(rng.randrange(8)):
        if graph.is_cone(cur):
            items.append((cur, rng.randrange(graph.group_at(cur).order)))
        d = rng.choice(graph.edges_at(cur))
        items.append(d)
        cur = graph.dst(d)
    items.extend(graph.geodesic(cur, base))
    return tighten(graph, base, items)


@given(st.integers(0, 2**32 - 1))
@example(0)  # its descent fold cuts both reversed directions
@settings(max_examples=25, deadline=None)
def test_moves_carry_the_marking_exactly(seed):
    """A move pushes each marked loop forward along its transport: the
    moved loop reads the same element of W exactly, not only up to the
    outer class; and every realized word reads back as itself."""
    rng = random.Random(seed)
    phi = random_twisted_automorphism(rng)
    f = thistle_rep(phi)
    if rng.random() < 0.5:
        e = rng.choice(f.graph.edges())
        d = rng.choice((e, -e))
        f = slide(f, d, random_loop(rng, f.graph, f.graph.dst(d), e))
    moved = []
    forest = maximal_invariant_forest(f)
    if forest:
        moved.append(moves._collapse(f, forest))
    e = rng.choice(f.graph.edges())
    n = f.edge_images[e].n_edges
    if n > 1:
        moved.append(cut(f, {e: rng.randrange(1, n)}))
    turn = _descent_turn(f)
    if turn is not None:
        try:
            moved.append(moves._fold_core(f, turn))
        except NothingToFold:
            pass
    W = phi.W
    for out, tr in moved:
        for _ in range(5):
            loop = random_base_loop(rng, f.graph, f.marking.base)
            assert out.marking.read(tr.path(loop)) == f.marking.read(loop)
            w = W.random_word(rng, rng.randrange(6))
            assert out.marking.read(out.marking.realize(w)) == w
