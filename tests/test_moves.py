"""Homotopy moves: collapses, subdivisions, folds, valence homotopies,
slides, tree replacement, and the transported markings behind them all.

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
    BadRepresentative,
    ConePointForbidden,
    ImageNotAtZeroCell,
    ImageNotTrivial,
    NoMarking,
    NotInvariantForest,
    NothingToFold,
    NotValenceOne,
    NotValenceTwo,
    NotZeroStratum,
    PathNotInLowerStrata,
    UnsafeMove,
)
from orbitrain import moves
from orbitrain.groups import Automorphism, FiniteGroup, FreeProduct
from orbitrain.moves import (
    MoveTrace,
    collapse_forest,
    fold,
    fold_connecting_path,
    invariant_core_subdivision,
    maximal_invariant_forest,
    maximal_pretrivial_forest,
    record_moves,
    slide,
    subdivide,
    tree_replace,
    valence_one_homotopy,
    valence_two_homotopy,
)
from orbitrain.orbigraph import VERTEX, Orbigraph, Subgraph, hedgehog
from orbitrain.paths import Path, Turn, format_path, parse_path, tighten
from orbitrain.pf import pf_compare, pf_data
from orbitrain.toprep import (
    EG,
    NEG,
    ZERO,
    ConeMap,
    Marking,
    TopRep,
    classify_strata,
    hedgehog_rep,
    maximal_filtration,
    pf_sequence,
    rep_from_path_texts,
    structurally_equal,
    thistle_rep,
)
from orbitrain.traintrack import _descent_turn

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
        assert sorted(forest.edges) == [1]

    def test_invariant_forest_is_cached_per_representative(self, f_beta):
        """The fold's cleanup leaves its forest search on the result, and
        a fresh search on a representative with the same images agrees."""
        out = fold(f_beta, Turn(-1, 0, -2, 0))
        cached = out._forest
        assert isinstance(cached, Subgraph)
        assert maximal_invariant_forest(out) is cached
        rebuilt = TopRep(out.graph, out.edge_images, out.cone_images,
                         out.vertex_images, out.marking)
        assert rebuilt._forest is None
        assert maximal_invariant_forest(rebuilt) == cached

    def test_hedgehog_has_no_invariant_forest(self, f_alpha):
        assert not maximal_invariant_forest(f_alpha).edges

    def test_pretrivial_forest_empty_on_expanding_maps(self, f_alpha, t_alpha):
        assert not maximal_pretrivial_forest(f_alpha).edges
        assert not maximal_pretrivial_forest(t_alpha).edges

    def test_pretrivial_forest_collects_squashed_tree(self):
        f = star_tree_rep()
        forest = maximal_pretrivial_forest(f)
        assert sorted(forest.edges) == [3, 4, 5]

    def test_edge_with_nontrivial_letter_is_not_pretrivial(self, w3):
        # B maps onto the b twist at its own cone: trivial crossings but
        # a nontrivial letter, so collapsing it would lose the twist
        g = Orbigraph(w3.restrict([0, 1]) if hasattr(w3, "restrict") else
                      FreeProduct([Z2, Z2], ["a", "b"]),
                      [0, 1, VERTEX], [(0, 2), (1, 2)], edge_names=["A", "B"])
        cone_images = {c: ConeMap(c, c, (0, 1)) for c in g.cone_cells()}
        f = TopRep(
            g,
            {1: parse_path(g, "A", start=0),
             2: parse_path(g, ".b B", start=1)},
            cone_images, {2: 2},
            Marking(g, 2),
        )
        assert not maximal_pretrivial_forest(f).edges


# ---- collapsing an invariant forest ------------------------------------------


class TestCollapseForest:
    def test_thistle_alpha_collapses_to_hedgehog_alpha(self, t_alpha, f_alpha):
        """Collapsing the invariant edge A realizes the standard
        hedgehog representative exactly, marking included."""
        out = collapse_forest(t_alpha, {1})
        assert out.transition_matrix().entries == ((3, 2), (2, 1))
        assert structurally_equal(out, f_alpha)
        assert out.induced_outer() == t_alpha.induced_outer()

    def test_collapse_drops_forest_rows_and_columns(self, t_alpha):
        out = collapse_forest(t_alpha, {1})
        old = t_alpha.transition_matrix()
        new = out.transition_matrix()
        keep = [2, 3]
        for i, e in enumerate(keep):
            for j, d in enumerate(keep):
                assert new.entries[i][j] == old[e, d]

    def test_collapse_records_a_trace(self, t_alpha):
        with record_moves() as log:
            collapse_forest(t_alpha, {1})
        assert [m.move for m in log] == ["collapse_forest"]
        assert log[0].details == ((1,),)
        assert log[0].before == ((1, 4, 2), (0, 3, 2), (0, 2, 1))
        assert log[0].after == ((3, 2), (2, 1))

    def test_noninvariant_forest_is_rejected(self, f_alpha):
        with pytest.raises(NotInvariantForest):
            collapse_forest(f_alpha, {1})

    def test_non_forest_is_rejected(self, f_alpha):
        with pytest.raises(NotInvariantForest):
            collapse_forest(f_alpha, {1, 2})

    def test_collapse_keeps_induced_automorphism(self, phi_w4):
        # {A, B} is invariant but its component would squash two cone
        # points together, so only one of the fixed edges may go
        t = thistle_rep(phi_w4)
        forest = maximal_invariant_forest(t)
        assert sorted(forest.edges) == [1]
        out = collapse_forest(t, forest)
        assert out.graph.n_edges == 3
        assert out.induced_outer() == phi_w4.fingerprint()

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
        assert sorted(forest.edges) == [1, 4]
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
        with pytest.raises(ImageNotAtZeroCell):
            subdivide(f_alpha, 1, 0)
        with pytest.raises(ImageNotAtZeroCell):
            subdivide(f_alpha, 1, 9)

    def test_cut_set_must_be_closed_under_the_map(self):
        # the middle of B lands inside C, which has no cut there
        with pytest.raises(ImageNotAtZeroCell):
            moves._subdivide_many(half_core_rep(), {2: (Fraction(1, 2),)})

    def test_preserves_outer_and_eigenvalue(self, f_alpha):
        out = subdivide(f_alpha, 1, 4)
        assert out.induced_outer() == f_alpha.induced_outer()
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
        back = valence_two_homotopy(cut, v, min(second), strict=False)
        assert structurally_equal(back, f_alpha)
        assert back.induced_outer() == f_alpha.induced_outer()


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


def cut_site(f, e, x):
    """Where point ``x`` of edge ``e`` lands: ``("cell", j)`` over the
    zero cell after the j-th crossing of its image, else the crossed
    direction and the point on its edge."""
    crossings = f.edge_images[e].edge_items()
    s = x * len(crossings)
    j = s.numerator // s.denominator
    if s.denominator == 1:
        return "cell", j
    d = crossings[j]
    return d, (s - j if d > 0 else j + 1 - s)


def orbit_cuts(f, e, x):
    """Point ``x`` of edge ``e`` and its forward orbit up to a zero cell:
    a cut set closed under the map, finite since every point stays over
    the denominator of ``x``."""
    cuts = {}
    todo = [(e, x)]
    while todo:
        e, x = todo.pop()
        if x not in cuts.setdefault(e, set()):
            cuts[e].add(x)
            d, y = cut_site(f, e, x)
            if d != "cell":
                todo.append((abs(d), y))
    return cuts


def seeded_subdivisions(seed):
    """The automorphism of ``seed`` and every subdivision of its thistle
    or hedgehog representative, maybe slid, as (old, new, transport, points, cuts
    whose junction letter goes first): the invariant core subdivision of
    each exponential stratum, a cut at a random zero cell with the
    junction letter on a random side, and a random rational point with
    its forward orbit."""
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
    seen = []

    def spy(g, points, letter_first=()):
        out, tr = real(g, points, letter_first)
        seen.append((g, out, tr, points, frozenset(letter_first)))
        return out, tr

    real = moves._subdivide_many
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moves, "_subdivide_many", spy)
        filt = classify_strata(f, maximal_filtration(f))
        for stratum in filt.strata:
            if stratum.kind == EG:
                invariant_core_subdivision(f, stratum.edges)
        e = rng.choice(f.graph.edges())
        n = f.edge_images[e].n_edges
        if n > 1:
            cut = Fraction(rng.randrange(1, n), n)
            sides = [(e, cut)] if rng.random() < 0.5 else []
            moves._subdivide_many(f, {e: (cut,)}, letter_first=sides)
        q = rng.randrange(2, 8)
        moves._subdivide_many(f, orbit_cuts(f, rng.choice(f.graph.edges()),
                                            Fraction(rng.randrange(1, q), q)))
    return phi, seen


# seeds whose subdivisions cut over zero cells and inside forward and
# reversed crossings (20, 21), drop a trivial junction letter closing
# (20) or opening (76) a piece, and keep a marking other than the
# identity (21, 76)
CUT_EVERY_WAY = (20, 21, 76)


@given(st.integers(0, 2**32 - 1))
@example(CUT_EVERY_WAY[0])
@example(CUT_EVERY_WAY[1])
@example(CUT_EVERY_WAY[2])
@settings(max_examples=30, deadline=None)
def test_subdivision_is_a_substitution(seed):
    """Each old edge image, refined, is the tightened product of its
    pieces' images; every piece image is tight; the marking is kept."""
    phi, seen = seeded_subdivisions(seed)
    for f, out, tr, _, letter_first in seen:
        closing = {e for e, _ in letter_first}
        for e in f.graph.edges():
            run = [out.image(piece) for piece in tr.edge_items[e]]
            for p in run:
                Path(out.graph, p.start, p.items)  # raises unless tight
            joined = run[0]
            for p, q in zip(run, run[1:]):
                # a junction letter opens the next piece unless the cut
                # is listed to close the previous one with it
                assert type(q.items[0] if e in closing
                            else p.items[-1]) is int
                joined = joined * q
            assert joined == tr.path(f.edge_images[e])
        assert out.marking.base == f.marking.base
        assert out.marking.nu == f.marking.nu
        assert out.induced_automorphism().outer_equal(phi)


def test_pinned_seeds_cut_every_way():
    """The pinned examples above subdivide under a marking other than the
    identity and cut over zero cells, at trivial junction letters on both
    sides, and inside forward and reversed crossings of edges cut more
    than once."""
    kinds = set()
    for seed in CUT_EVERY_WAY:
        for f, _, _, points, letter_first in seeded_subdivisions(seed)[1]:
            if f.marking.nu != Automorphism.identity(f.graph.W):
                kinds.add("marked")
            for e, xs in points.items():
                items = f.edge_images[e].items
                heads = [k for k, item in enumerate(items)
                         if type(item) is int]
                for x in xs:
                    d, y = cut_site(f, e, x)
                    if d == "cell":
                        kinds.add("cell")
                        junction = items[heads[y - 1] + 1]
                        if type(junction) is not int and junction[1] == 0:
                            kinds.add(("trivial letter", bool(letter_first)))
                    else:
                        kinds.add(("forward" if d > 0 else "reversed",
                                   len(points[abs(d)]) > 1))
    assert kinds >= {"marked", "cell", ("trivial letter", True),
                     ("trivial letter", False), ("forward", True),
                     ("reversed", True)}


# ---- folding ------------------------------------------------------------------


class TestFold:
    def test_beta_fold_kills_the_growth(self, f_beta):
        """Folding the illegal apex turn of beta produces a two-edge
        representative with a unipotent matrix: beta only ever grew
        polynomially, the hedgehog just hid it."""
        out = fold(f_beta, Turn(-1, 0, -2, 0))
        assert out.transition_matrix().entries == ((1, 2), (0, 1))
        assert image_texts(out) == {"X": "X .c", "X'": "~X .b X X'"}
        assert out.induced_outer() == f_beta.induced_outer()

    def test_beta_fold_strata_are_polynomial(self, f_beta):
        out = fold(f_beta, Turn(-1, 0, -2, 0))
        filt = classify_strata(out, maximal_filtration(out))
        assert [(s.edges, s.kind) for s in filt.strata] == [
            ((1,), NEG), ((2,), NEG)]

    def test_beta_fold_eigenvalue_drops(self, f_beta):
        out = fold(f_beta, Turn(-1, 0, -2, 0))
        assert not pf_data(f_beta.transition_matrix().entries).is_one
        filt = classify_strata(out, maximal_filtration(out))
        assert pf_sequence(out, filt) == ()

    def test_fold_trace(self, f_beta):
        with record_moves() as log:
            fold(f_beta, Turn(-1, 0, -2, 0))
        assert [m.move for m in log] == ["fold"]
        assert log[0].details == (-1, 0, -2, 0)

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
        assert out.induced_outer() == f.induced_outer()

    def test_valence_one_needs_valence_one(self, f_alpha):
        with pytest.raises(NotValenceOne):
            valence_one_homotopy(subdivide(f_alpha, 1, 1), 3)

    def test_valence_one_never_at_a_cone(self, f_alpha):
        with pytest.raises(ConePointForbidden):
            valence_one_homotopy(f_alpha, 1)

    def test_valence_two_restores_alpha(self, f_alpha):
        cut = subdivide(f_alpha, 2, 2)
        v = cut.graph.n_cells - 1
        out = valence_two_homotopy(cut, v, 3, strict=False)
        assert structurally_equal(out, f_alpha)

    def test_collapsed_edge_must_meet_the_cell(self, f_alpha):
        cut = subdivide(f_alpha, 1, 1)
        with pytest.raises(NotValenceTwo):
            valence_two_homotopy(cut, cut.graph.n_cells - 1, 3)

    def test_strict_mode_blocks_exponential_collapse(self, f_alpha):
        """Both pieces of a subdivided alpha edge sit in one exponential
        stratum, so the bounded-eigenvalue guarantee is off."""
        cut = subdivide(f_alpha, 1, 1)
        with pytest.raises(UnsafeMove):
            valence_two_homotopy(cut, cut.graph.n_cells - 1, 1)

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
        assert out.induced_outer() == t_alpha.induced_outer()

    def test_slide_along_trivial_path_changes_nothing(self, t_alpha):
        g = t_alpha.graph
        out = slide(t_alpha, 2, Path(g, 0, ()))
        assert structurally_equal(out, t_alpha)

    def test_slide_path_must_avoid_the_edge(self, t_alpha):
        g = t_alpha.graph
        with pytest.raises(PathNotInLowerStrata):
            slide(t_alpha, 2, parse_path(g, "~B .b B", start=0))
        with pytest.raises(PathNotInLowerStrata):
            slide(t_alpha, -2, parse_path(g, "B ~C .c C ~B", start=2))

    def test_slide_path_confined_to_lower_strata(self, t_alpha):
        g = t_alpha.graph
        loop = parse_path(g, "~C .c C", start=0)
        with pytest.raises(PathNotInLowerStrata):
            slide(t_alpha, 2, loop, lower={1})
        out = slide(t_alpha, 2, loop, lower={1, 3})
        assert out.induced_outer() == t_alpha.induced_outer()

    def test_reversed_direction_slides_the_initial_end(self, t_alpha):
        """B' leaves the subdivision vertex; sliding that end around the
        b twist wraps the twist into the images of B and B'."""
        cut = subdivide(t_alpha, 2, 1)
        alpha = parse_path(cut.graph, "~B .b B", start=4)
        with record_moves() as log:
            out = slide(cut, -3, alpha)
        assert image_texts(out) == {
            "A": "A",
            "B": ".b B B'",
            "B'": "~B' ~B .b B B' ~A .a A ~C .c C ~A .a A ~B' ~B .b B B'",
            "C": "C ~A .a A ~B' ~B .b B B'",
        }
        assert out.induced_outer() == t_alpha.induced_outer()
        assert [m.move for m in log] == ["slide"]
        assert log[0].details == (-3, alpha.items)


# ---- tree replacement ----------------------------------------------------------


class TestTreeReplace:
    def test_star_tree_contracts_to_thistle(self):
        f = star_tree_rep()
        out = tree_replace(f, {3, 4, 5})
        th = thistle_rep(Automorphism.identity(f.graph.W))
        assert structurally_equal(out, th)
        assert out.induced_outer() == f.induced_outer()

    def test_self_crossing_stratum_is_rejected(self):
        f = star_tree_rep()
        with pytest.raises(NotZeroStratum):
            tree_replace(f, {2, 3})

    def test_cone_edges_are_rejected(self):
        f = star_tree_rep()
        with pytest.raises(NotZeroStratum):
            tree_replace(f, {1})

    def test_base_inside_the_tree_moves_to_the_center(self):
        f = star_tree_rep(base=4)
        out = tree_replace(f, {3, 4, 5})
        assert out.marking.base == 2
        assert out.induced_outer() == f.induced_outer()


# ---- invariant core subdivision ------------------------------------------------


class TestInvariantCore:
    def test_full_cores_are_a_no_op(self, f_alpha):
        assert invariant_core_subdivision(f_alpha, {1, 2}) is f_alpha

    def test_half_cores_cut_at_exact_midpoints(self):
        """B(1/2) and C(1/2) swap under the map while everything beyond
        them drains into A, so both cores are exactly [0, 1/2]: a fixed
        point the hull iteration alone never reaches."""
        f = half_core_rep()
        out = invariant_core_subdivision(f, {2, 3})
        assert sorted(out.graph.edge_names) == ["A", "B", "B'", "C", "C'"]
        assert image_texts(out) == {
            "A": "A",
            "B": "B B' ~C' ~C .c C",
            "B'": "C' ~A .a A",
            "C": "C C' ~B' ~B .b B",
            "C'": "B' ~A .a A",
        }

    def test_core_pieces_form_a_closed_exponential_stratum(self):
        f = half_core_rep()
        out = invariant_core_subdivision(f, {2, 3})
        filt = classify_strata(out, maximal_filtration(out))
        eg = [s for s in filt.strata if s.kind == EG]
        assert len(eg) == 1
        core = eg[0].edges
        assert sorted(out.graph.edge_label(e) for e in core) == ["B", "C"]
        # cellular at the cores now: subdividing again does nothing
        assert invariant_core_subdivision(out, core) is out

    def test_eigenvalue_survives_the_subdivision(self):
        f = half_core_rep()
        out = invariant_core_subdivision(f, {2, 3})
        filt = classify_strata(out, maximal_filtration(out))
        eg = [s for s in filt.strata if s.kind == EG][0]
        block = out.transition_matrix().block(eg.edges)
        old = f.transition_matrix().block((2, 3))
        assert pf_compare(pf_data(block), pf_data(old)) == 0


def half_core_rep():
    """An unmarked thistle map over W3 whose B and C edges leak into A
    past their midpoints."""
    w3 = FreeProduct([Z2, Z2, Z2], ["a", "b", "c"])
    g = Orbigraph(w3, [VERTEX, 0, 1, 2], [(1, 0), (2, 0), (3, 0)],
                  edge_names=["A", "B", "C"])
    cone_images = {c: ConeMap(c, c, (0, 1)) for c in g.cone_cells()}
    return TopRep(
        g,
        {1: parse_path(g, "A", start=1),
         2: parse_path(g, "B ~C .c C ~A .a A", start=2),
         3: parse_path(g, "C ~B .b B ~A .a A", start=3)},
        cone_images, {0: 0}, None)


# ---- connecting paths ----------------------------------------------------------


class TestFoldConnectingPath:
    def test_parallel_edges_fold_together(self):
        f = parallel_rep()
        alpha = parse_path(f.graph, "~U V", start=2)
        with record_moves() as log:
            out = fold_connecting_path(f, alpha)
        assert sorted(out.graph.edge_names) == ["A", "B", "U"]
        assert out.induced_outer() == f.induced_outer()
        assert [m.move for m in log] == ["fold_connecting_path"]

    def test_squashed_tree_collapses_without_folding(self):
        f = star_tree_rep()
        alpha = parse_path(f.graph, "U ~V", start=2)
        out = fold_connecting_path(f, alpha)
        assert out.induced_outer() == f.induced_outer()
        assert out.graph.n_edges < f.graph.n_edges

    def test_essential_path_is_rejected(self):
        f = parallel_rep()
        with pytest.raises(ImageNotTrivial):
            fold_connecting_path(f, parse_path(f.graph, "~U", start=2))


def parallel_rep():
    """Two vertex edges U and V with the same image, ripe for folding."""
    return w2_rep(
        [0, 1, VERTEX, VERTEX, VERTEX],
        [(0, 2), (1, 2), (3, 2), (3, 4)],
        ["A", "B", "U", "V"],
        {1: (0, "A"), 2: (1, "B"), 3: (3, "U"), 4: (3, "U")},
        {2: 2, 3: 3, 4: 2},
        base=2,
    )


# ---- the recorder --------------------------------------------------------------


class TestRecorder:
    def test_moves_accumulate_in_order(self, f_beta):
        with record_moves() as log:
            out = subdivide(f_beta, 1, 1)
            fold(f_beta, Turn(-1, 0, -2, 0))
        assert [m.move for m in log] == ["subdivide", "fold"]
        assert all(isinstance(m, MoveTrace) for m in log)
        assert log[0].before == f_beta.transition_matrix().entries
        assert log[0].after == out.transition_matrix().entries

    def test_nothing_recorded_outside_the_context(self, f_beta):
        with record_moves() as log:
            pass
        subdivide(f_beta, 1, 1)
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
@example(19)  # its subdivision leaves a zero stratum off the cones
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
    want = rep.induced_outer()

    forest = maximal_invariant_forest(rep)
    if forest.edges:
        rep = collapse_forest(rep, forest)
        assert rep.induced_outer() == want

    edge = rng.choice(rep.graph.edges())
    n = rep.edge_images[edge].n_edges
    if n > 1:
        rep = subdivide(rep, edge, rng.randrange(1, n))
        assert rep.induced_outer() == want
        v = rep.graph.n_cells - 1
        piece = rng.choice([abs(d) for d in rep.graph.edges_at(v)])
        back = valence_two_homotopy(rep, v, piece, strict=False)
        assert back.induced_outer() == want

    filt = classify_strata(rep, maximal_filtration(rep))
    for stratum in filt.strata:
        if stratum.kind == ZERO \
                and not rep.graph.subgraph(stratum.edges).cone_cells():
            assert tree_replace(rep, stratum.edges).induced_outer() == want

    if not rep.is_train_track():
        assert fold(rep, _descent_turn(rep)).induced_outer() == want

    edge = rng.choice(rep.graph.edges())
    for d in (edge, -edge):
        loop = random_loop(rng, rep.graph, rep.graph.dst(d), edge)
        rep = slide(rep, d, loop)
        assert rep.induced_outer() == want


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
    if forest.edges:
        moved.append(moves._collapse(f, forest))
    e = rng.choice(f.graph.edges())
    n = f.edge_images[e].n_edges
    if n > 1:
        cut = Fraction(rng.randrange(1, n), n)
        moved.append(moves._subdivide_many(f, {e: (cut,)}))
    if not f.is_train_track():
        try:
            moved.append(moves._fold_core(f, _descent_turn(f)))
        except NothingToFold:
            pass
    W = phi.W
    for out, tr in moved:
        for _ in range(5):
            loop = random_base_loop(rng, f.graph, f.marking.base)
            assert out.marking.read(tr.path(loop)) == f.marking.read(loop)
            w = W.random_word(rng, rng.randrange(6))
            assert out.marking.read(out.marking.realize(w)) == w
