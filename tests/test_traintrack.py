"""Train track descent and the name-free representative key.

The W3 pair anchors the descent: alpha's hedgehog representative is
accepted unchanged with eigenvalue 2 + sqrt(5), while beta's folds once
and surfaces the invariant edge X as a reducibility witness.
Permutation-like representatives come back as finite order with exact
periods.  The descent stops when a pass revisits an earlier
representative up to renaming, which ``_rep_key`` decides.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitrain import traintrack
from orbitrain.errors import (
    BadRepresentative,
    IterationCapExceeded,
    LemmaViolated,
    NothingToFold,
)
from orbitrain.groups import Automorphism, FiniteGroup, FreeProduct
from orbitrain.moves import fold, maximal_invariant_forest
from orbitrain.orbigraph import VERTEX, Orbigraph, hedgehog, thistle
from orbitrain.paths import format_path, tighten
from orbitrain.pf import (
    _adjugate_row, _berkowitz, compare_lengths, is_irreducible, pf_data)
from orbitrain.toprep import (
    Marking,
    TopRep,
    hedgehog_rep,
    maximal_filtration,
    rep_from_path_texts,
    thistle_rep,
)
from orbitrain.traintrack import (
    FiniteOrder,
    Reducible,
    TrainTrack,
    _descent_turn,
    _rep_key,
    normalize,
    record_events,
    train_track_algorithm,
)
from test_groups import factor_moving_products
from test_moves import (cut, identity_rep, random_twisted_automorphism,
                        same_outer)

Z2 = FiniteGroup.cyclic(2)
Z3 = FiniteGroup.cyclic(3)


@pytest.fixture(scope="module")
def f_alpha(alpha_w3):
    return hedgehog_rep(alpha_w3)


@pytest.fixture(scope="module")
def f_beta(beta_w3):
    return hedgehog_rep(beta_w3)


def image_texts(rep):
    return {
        rep.graph.edge_names[e - 1]: format_path(rep.edge_images[e])
        for e in sorted(rep.edge_images)
    }


def brackets(lower, upper, base, square):
    """True when the interval [lower, upper] contains base + sqrt(square)."""
    lo, hi = Fraction(lower), Fraction(upper)
    return lo >= base and (lo - base) ** 2 <= square <= (hi - base) ** 2


# ---- irreducibility of representatives ------------------------------------------


class TestIsIrreducibleRep:
    """A representative is irreducible when its whole transition matrix
    is."""

    def test_alpha_is_irreducible(self, f_alpha):
        assert is_irreducible(f_alpha.transition_matrix().entries)

    def test_identity_is_reducible(self, w3):
        ident = identity_rep(hedgehog(w3))
        assert not is_irreducible(ident.transition_matrix().entries)

    def test_edgeless_representative(self):
        w1 = FreeProduct([Z3], ["x"])
        lone = identity_rep(Orbigraph(w1, (0,), ()))
        assert not is_irreducible(lone.transition_matrix().entries)


def edge_bound(n):
    """The largest number of edges a normalized representative on n >= 2
    factors can have: one tree with a cone per factor and no valence-one
    or valence-two vertices."""
    return 2 * n - 3


class TestEdgeBound:
    """The bound on the starting graphs; every descent pass of the
    benchmark corpus is checked against it in ``test_corpus_answers``."""

    def test_hedgehog_and_thistle_fit(self, w3):
        assert hedgehog(w3).n_edges <= edge_bound(3)
        assert thistle(w3).n_edges <= edge_bound(3)


# ---- the descent on the worked W3 pair -------------------------------------------


class TestDescent:
    def test_alpha_is_accepted_unchanged(self, f_alpha):
        out = train_track_algorithm(f_alpha)
        assert isinstance(out, TrainTrack)
        assert out.rep is f_alpha
        assert out.rep.transition_matrix().entries == ((3, 2), (2, 1))

    def test_alpha_eigenvalue_is_two_plus_root_five(self, f_alpha):
        out = train_track_algorithm(f_alpha)
        data = pf_data(out.rep.transition_matrix().entries)
        assert brackets(data.lower, data.upper, 2, 5)

    def test_beta_folds_to_a_reducible_representative(self, f_beta):
        out = train_track_algorithm(f_beta)
        assert isinstance(out, Reducible)
        assert out.witness == frozenset({1})
        assert out.rep.transition_matrix().entries == ((1, 2), (0, 1))
        assert image_texts(out.rep) == {"X": "X .c", "X'": "~X .b X X'"}

    def test_beta_outer_class_survives_the_descent(self, f_beta):
        out = train_track_algorithm(f_beta)
        assert same_outer(out.rep, f_beta)

    def test_beta_witness_is_an_invariant_bottom_stratum(self, f_beta):
        out = train_track_algorithm(f_beta)
        filt = maximal_filtration(out.rep)
        assert len(filt) > 1
        assert filt[0] == tuple(sorted(out.witness))

    def test_beta_squared_reduces_the_same_way(self, f_beta):
        square = f_beta.compose(f_beta)
        out = train_track_algorithm(square)
        assert isinstance(out, Reducible)
        assert out.rep.transition_matrix().entries == ((1, 4), (0, 1))
        assert same_outer(out.rep, square)

    def test_alpha_squared_stays_a_train_track(self, f_alpha):
        square = f_alpha.compose(f_alpha)
        out = train_track_algorithm(square)
        assert isinstance(out, TrainTrack)
        data = pf_data(out.rep.transition_matrix().entries)
        # (2 + sqrt(5)) ** 2 = 9 + sqrt(80)
        assert brackets(data.lower, data.upper, 9, 80)

    def test_golden_ratio_representative(self, w4):
        rep = rep_from_path_texts(
            hedgehog(w4), {"X": "Y", "Y": "Z", "Z": "X .a ~Y .c Y"})
        out = train_track_algorithm(rep)
        assert isinstance(out, TrainTrack)
        assert out.rep.transition_matrix().entries == (
            (0, 0, 1), (1, 0, 2), (0, 1, 0))
        data = pf_data(out.rep.transition_matrix().entries)
        assert brackets(2 * Fraction(data.lower), 2 * Fraction(data.upper),
                        1, 5)

    def test_descent_trace_brackets_the_eigenvalue(self, f_beta):
        with record_events() as log:
            train_track_algorithm(f_beta)
        names = [event[0] for event in log]
        assert names[0] == "pass"
        assert "fold" in names
        _, step, cells, edges, lower, upper = log[0]
        assert (step, cells, edges) == (0, 3, 2)
        assert type(lower) is Fraction and type(upper) is Fraction
        assert brackets(lower, upper, 2, 5)

    def test_iteration_cap_is_honoured(self, f_beta):
        with pytest.raises(IterationCapExceeded):
            train_track_algorithm(f_beta, cap=0)

    def test_descent_stops_at_a_revisited_representative(self, w3):
        """The benchmark corpus's W3 seed 4 folds in a cycle: pass 6 meets
        the representative of pass 3 again up to renaming its cells and
        edges, so the descent stops there instead of folding on to the
        cap.  The error's witness names both passes and prints the
        representative's images, which rebuild it on its graph."""
        phi = Automorphism.from_gen_images(
            w3, [w3.parse_word(t) for t in ("c a c b c a c", "c", "c a c")])
        with pytest.raises(IterationCapExceeded,
                           match="^pass 6 repeats pass 3$") as info:
            train_track_algorithm(thistle_rep(phi))
        first, step, images = info.value.witness
        assert (first, step) == (3, 6)
        f = normalize(folded(phi, step))
        assert images == {f.graph.edge_label(e): format_path(p)
                          for e, p in f.edge_images.items()}
        rebuilt = rep_from_path_texts(f.graph, images)
        assert (_rep_key(rebuilt) == _rep_key(f)
                == _rep_key(normalize(folded(phi, first))))

    def test_a_revisit_up_to_renaming_ends_the_descent(
            self, corpus_automorphism):
        """Census W4 L6 s105 revisits pass 4 at pass 7 under new edge
        names; a key that read the names would fold on past the cap."""
        phi = corpus_automorphism(4, 6, 105)
        with pytest.raises(IterationCapExceeded,
                           match="^pass 7 repeats pass 4$"):
            train_track_algorithm(thistle_rep(phi), cap=50)

    def test_a_growth_rate_increase_names_its_pass(
            self, monkeypatch, corpus_automorphism):
        """A certified increase raises ``LemmaViolated`` with the pass and
        both certified brackets as its witness.  With every comparison
        forced to an increase, W3 s11 raises at its first comparison."""
        monkeypatch.setattr(traintrack, "pf_compare", lambda x, y: 1)
        phi = corpus_automorphism(3, 4, 11)
        with pytest.raises(LemmaViolated, match="^pass 1: ") as info:
            train_track_algorithm(thistle_rep(phi))
        before, after = (pf_data(normalize(folded(phi, k))
                                 .transition_matrix().entries)
                         for k in (0, 1))
        assert info.value.witness == (1, (before.lower, before.upper),
                                      (after.lower, after.upper))


# ---- the representative key --------------------------------------------------------


class TestRepKey:
    def test_key_needs_a_normalised_tree(self, f_alpha):
        """A subdivision vertex has valence two, so it shares its set of
        factors beyond it with its far neighbour."""
        with pytest.raises(BadRepresentative):
            _rep_key(cut(f_alpha, {1: 1})[0])


# ---- finite order outcomes --------------------------------------------------------


class TestFiniteOrder:
    def test_cyclic_permutation_of_three_edges(self, w4):
        rep = rep_from_path_texts(
            hedgehog(w4), {"X": "Y", "Y": "Z", "Z": "X"})
        out = train_track_algorithm(rep)
        assert isinstance(out, FiniteOrder)
        assert out.period == 3

    def test_identity_thistle_collapses_to_one_edge(self):
        w2 = FreeProduct([Z2, Z2], ["a", "b"])
        out = train_track_algorithm(identity_rep(thistle(w2)))
        assert isinstance(out, FiniteOrder)
        assert out.period == 1
        assert out.rep.graph.n_edges == 1

    def test_edgeless_representative_is_finite_order(self):
        w1 = FreeProduct([Z3], ["x"])
        out = train_track_algorithm(identity_rep(Orbigraph(w1, (0,), ())))
        assert isinstance(out, FiniteOrder)
        assert out.period == 1

    def test_squaring_one_factor_has_period_two(self):
        wz = FreeProduct([Z3, Z3], ["x", "y"])
        sq = Automorphism.from_gen_images(
            wz, [wz.parse_word("x x"), wz.parse_word("y")])
        out = train_track_algorithm(hedgehog_rep(sq))
        assert isinstance(out, FiniteOrder)
        assert out.period == 2
        assert out.rep.transition_matrix().entries == ((1,),)

    def test_swapping_factors_has_period_two(self):
        wz = FreeProduct([Z3, Z3], ["x", "y"])
        swap = Automorphism.from_gen_images(
            wz, [wz.parse_word("y"), wz.parse_word("x")])
        out = train_track_algorithm(thistle_rep(swap))
        assert isinstance(out, FiniteOrder)
        assert out.period == 2

    def test_inner_twist_period_matches_the_element_order(self):
        wz = FreeProduct([Z3, Z3], ["x", "y"])
        inner = Automorphism.inner(wz, wz.parse_word("x"))
        out = train_track_algorithm(hedgehog_rep(inner))
        assert isinstance(out, FiniteOrder)
        assert out.period == 3
        assert out.rep.transition_matrix().entries == ((1,),)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_descent_preserves_outer_classes_of_mixed_powers(seed):
    """Random words in alpha and beta keep their outer class through the
    whole descent, whatever the outcome type."""
    rng = random.Random(seed)
    w3 = FreeProduct([Z2, Z2, Z2], ["a", "b", "c"])
    alpha = Automorphism.from_gen_images(
        w3, [w3.parse_word("a"), w3.parse_word("b a c a b a c a b"),
             w3.parse_word("b a c a b")])
    beta = Automorphism.from_gen_images(
        w3, [w3.parse_word("a"), w3.parse_word("b c b c b"),
             w3.parse_word("b c b")])
    phi = rng.choice([alpha, beta])
    for _ in range(rng.randrange(0, 2)):
        phi = phi.compose(rng.choice([alpha, beta]))
    rep = hedgehog_rep(phi)
    out = train_track_algorithm(rep)
    assert isinstance(out, (TrainTrack, FiniteOrder, Reducible))
    assert same_outer(out.rep, rep)
    if isinstance(out, TrainTrack):
        assert _descent_turn(out.rep) is None
    if isinstance(out, Reducible):
        filt = maximal_filtration(out.rep)
        assert set(out.witness) == set(filt[0])


# ---- normalization ----------------------------------------------------------------


@st.composite
def folded_reps(draw):
    """A twisted W3-W5 or mixed Z2/Z3/S3 automorphism and its thistle
    representative after up to three descent folds, the last one left
    unnormalized."""
    phi = draw(st.one_of(
        st.randoms(use_true_random=False).map(random_twisted_automorphism),
        factor_moving_products()))
    f = thistle_rep(phi)
    for _ in range(draw(st.integers(0, 3))):
        f = normalize(f)
        turn = _descent_turn(f)
        if turn is None:
            break
        try:
            f = fold(f, turn)
        except NothingToFold:
            break
    return phi, f


@given(folded_reps())
@settings(max_examples=40, deadline=None)
def test_normalize_leaves_no_forest_and_no_low_valence(case):
    """One rule, collapsing the maximal invariant forest until it is
    empty, leaves no edge whose image crosses no edge; with the valence
    moves every plain vertex ends at valence three or more."""
    phi, f = case
    out = normalize(f)
    graph = out.graph
    assert not maximal_invariant_forest(out)
    assert all(graph.valence(c) >= 3 for c in graph.cells()
               if not graph.is_cone(c))
    assert all(out.edge_images[e].n_edges for e in graph.edges())
    assert out.induced_automorphism().outer_equal(phi)


def test_normalize_retracts_a_dangling_vertex(f_alpha, alpha_w3):
    """alpha's hedgehog with an extra edge D from a new plain vertex to
    the apex, mapped across X.  Every closure joins the three cone
    points, so there is no invariant forest, and the one move is the
    valence-one retraction of the vertex, which gives alpha back."""
    g = f_alpha.graph
    graph = Orbigraph(g.W, g.kinds + (VERTEX,), g.ends + ((3, 0),),
                      g.edge_names + ("D",))
    images = {e: tighten(graph, p.start, p.items)
              for e, p in f_alpha.edge_images.items()}
    images[3] = tighten(graph, 1, (1,))
    f = TopRep(graph, images, f_alpha.cone_images, {3: 1},
               Marking(graph, f_alpha.marking.base))
    assert not maximal_invariant_forest(f)
    with record_events() as log:
        out = normalize(f)
    assert log == [("valence_one", 3)]
    assert image_texts(out) == image_texts(f_alpha)
    assert f.induced_automorphism().outer_equal(alpha_w3)
    assert out.induced_automorphism().outer_equal(alpha_w3)


def folded(phi, passes):
    """The descent's representative after ``passes`` folds, the last one
    not yet normalized."""
    f = thistle_rep(phi)
    for _ in range(passes):
        f = normalize(f)
        f = fold(f, _descent_turn(f))
    return f


class TestValenceTwoChoice:
    """``normalize`` collapses the shorter edge at a valence-two vertex,
    by the exact lengths ``pf.compare_lengths`` certifies, and the
    smaller id on an exact tie."""

    def removal(self, f, v, e1, e2):
        graph = f.graph
        assert sorted(abs(d) for d in graph.edges_at(v)) == [e1, e2]
        M = f.transition_matrix().entries
        verdict = compare_lengths(M, e1 - 1, e2 - 1)
        assert verdict == pf_data(M)._compare_by_adjugate(e1 - 1, e2 - 1)
        with record_events() as log:
            normalize(f)
        return verdict, [e for e in log if e[0] == "valence_two"][0]

    def test_the_shorter_edge_goes_when_it_has_the_larger_id(
            self, corpus_automorphism):
        # W3 s11, pass 1: edge 2 is strictly longer than edge 3
        f = folded(corpus_automorphism(3, 4, 11), 1)
        verdict, move = self.removal(f, 0, 2, 3)
        assert verdict == 1 and move == ("valence_two", 0, 3)

    def test_an_exact_tie_collapses_the_smaller_id(self, corpus_automorphism):
        # W5 s8, pass 6: edges 4 and 7 have equal lengths at an irrational
        # rate, because their adjugate polynomials (columns 3 and 6) agree
        f = folded(corpus_automorphism(5, 8, 8), 6)
        M = f.transition_matrix().entries
        assert pf_data(M).exact is None
        assert all(row[3] == row[6]
                   for row in _adjugate_row(M, _berkowitz(M)))
        verdict, move = self.removal(f, 0, 4, 7)
        assert verdict == 0 and move == ("valence_two", 0, 4)
