"""Train track descent and the reduction builder.

The W3 pair anchors the descent: alpha's hedgehog representative is
accepted unchanged with eigenvalue 2 + sqrt(5), while beta's folds once
and surfaces the invariant edge X as a reducibility witness.
Permutation-like representatives come back as finite order with exact
periods.  For automorphisms that permute the free factors in blocks,
``build_reduction`` assembles a reducible representative of the same
outer class, and on the polynomially growing W4 example it realizes the
automorphism on the nose.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitrain.errors import IterationCapExceeded, NotPermuted
from orbitrain.groups import Automorphism, FiniteGroup, FreeProduct
from orbitrain.moves import record_moves
from orbitrain.orbigraph import Orbigraph, hedgehog, thistle
from orbitrain.paths import format_path
from orbitrain.pf import pf_data
from orbitrain.toprep import (
    hedgehog_rep,
    identity_rep,
    maximal_filtration,
    rep_from_path_texts,
    thistle_rep,
)
from orbitrain.traintrack import (
    FiniteOrder,
    Reducible,
    TrainTrack,
    build_reduction,
    edge_bound,
    is_irreducible_rep,
    train_track_algorithm,
)

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
    def test_alpha_is_irreducible(self, f_alpha):
        assert is_irreducible_rep(f_alpha)

    def test_identity_is_reducible(self, w3):
        assert not is_irreducible_rep(identity_rep(hedgehog(w3)))

    def test_edgeless_representative(self):
        w1 = FreeProduct([Z3], ["x"])
        lone = Orbigraph(w1, (0,), ())
        assert not is_irreducible_rep(identity_rep(lone))


class TestEdgeBound:
    def test_small_values(self):
        assert edge_bound(2) == 1
        assert edge_bound(3) == 3
        assert edge_bound(5) == 7

    def test_hedgehog_and_thistle_fit(self, w3):
        assert hedgehog(w3).n_edges <= edge_bound(3)
        assert thistle(w3).n_edges <= edge_bound(3)

    def test_rejects_a_single_factor(self):
        with pytest.raises(ValueError):
            edge_bound(1)


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
        assert out.rep.induced_outer() == f_beta.induced_outer()

    def test_beta_witness_is_an_invariant_bottom_stratum(self, f_beta):
        out = train_track_algorithm(f_beta)
        filt = maximal_filtration(out.rep)
        assert len(filt) > 1
        assert tuple(filt.strata[0].edges) == tuple(sorted(out.witness))

    def test_beta_squared_reduces_the_same_way(self, f_beta):
        square = f_beta.compose(f_beta)
        out = train_track_algorithm(square)
        assert isinstance(out, Reducible)
        assert out.rep.transition_matrix().entries == ((1, 4), (0, 1))
        assert out.rep.induced_outer() == square.induced_outer()

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
        with record_moves() as log:
            train_track_algorithm(f_beta)
        names = [m.move for m in log]
        assert names[0] == "descent"
        assert "fold" in names
        step, lower, upper = log[0].details
        assert step == 0
        assert brackets(lower, upper, 2, 5)

    def test_iteration_cap_is_honoured(self, f_beta):
        with pytest.raises(IterationCapExceeded):
            train_track_algorithm(f_beta, cap=0)

    def test_descent_stops_at_a_revisited_representative(self, w3):
        """The benchmark corpus's W3 seed 4 folds in a cycle: pass 11 meets
        the representative of pass 5 again, so the descent stops there
        instead of folding on to the cap."""
        phi = Automorphism.from_gen_images(
            w3, [w3.parse_word(t) for t in ("c a c b c a c", "c", "c a c")])
        with pytest.raises(IterationCapExceeded,
                           match="^pass 11 repeats pass 5$"):
            train_track_algorithm(thistle_rep(phi))


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


# ---- assembling reducible representatives -----------------------------------------


class TestBuildReduction:
    def test_polynomial_example_is_realized_on_the_nose(self, w4, phi_w4):
        rep = build_reduction(phi_w4, [[0, 1]])
        assert rep.induced_automorphism() == phi_w4
        assert image_texts(rep) == {
            "B": "B",
            "C": "C .a ~B .b B",
            "D": "D .a ~C .c C",
        }
        filt = maximal_filtration(rep)
        assert [tuple(s.edges) for s in filt.strata] == [(1,), (2,), (3,)]

    def test_reduction_feeds_straight_into_the_descent(self, phi_w4):
        rep = build_reduction(phi_w4, [[0, 1]])
        out = train_track_algorithm(rep)
        assert isinstance(out, Reducible)
        assert out.witness == frozenset({1})

    def test_factor_swap_needs_the_degenerate_slide(self):
        w2 = FreeProduct([Z2, Z2], ["a", "b"])
        swap = Automorphism.from_gen_images(
            w2, [w2.parse_word("b"), w2.parse_word("a")])
        rep = build_reduction(swap, [[0], [1]])
        assert image_texts(rep) == {
            "A": "B", "B": "A", "E1": "B E2", "E2": "~A E1"}
        assert len(maximal_filtration(rep)) == 2
        assert rep.induced_automorphism().outer_equal(swap)

    def test_two_block_swap(self, w4):
        blocks = Automorphism.from_gen_images(
            w4, [w4.parse_word(t) for t in "cdab"])
        rep = build_reduction(blocks, [[0, 1], [2, 3]])
        assert len(maximal_filtration(rep)) == 2
        assert rep.induced_automorphism().outer_equal(blocks)

    def test_singleton_cycle_inside_the_swap(self, w4):
        blocks = Automorphism.from_gen_images(
            w4, [w4.parse_word(t) for t in "cdab"])
        rep = build_reduction(blocks, [[0], [2]])
        assert len(maximal_filtration(rep)) == 2
        assert rep.induced_automorphism().outer_equal(blocks)

    def test_class_that_does_not_advance_is_rejected(self, w4):
        blocks = Automorphism.from_gen_images(
            w4, [w4.parse_word(t) for t in "cdab"])
        with pytest.raises(NotPermuted, match="does not advance"):
            build_reduction(blocks, [[0], [1]])
        with pytest.raises(NotPermuted):
            build_reduction(blocks, [[0, 1], [2]])

    def test_conjugators_must_agree_on_a_class(self, alpha_w3):
        with pytest.raises(NotPermuted, match="common conjugator"):
            build_reduction(alpha_w3, [[1, 2]])

    def test_degenerate_descriptions_are_rejected(self, w4):
        ident = Automorphism.identity(w4)
        with pytest.raises(NotPermuted):
            build_reduction(ident, [[0, 1, 2, 3]])
        with pytest.raises(NotPermuted):
            build_reduction(ident, [[0], [0]])
        with pytest.raises(NotPermuted):
            build_reduction(ident, [[]])
        with pytest.raises(NotPermuted):
            build_reduction(ident, [[7]])

    def test_identity_on_a_proper_class(self, w4):
        ident = Automorphism.identity(w4)
        rep = build_reduction(ident, [[0, 1]])
        assert rep.induced_automorphism().outer_equal(ident)
        assert len(maximal_filtration(rep)) > 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_twisted_swaps_reduce_to_the_same_outer_class(seed):
    """Composing a block swap with random inner automorphisms never
    changes the outer class build_reduction realizes, and the result is
    always reducible."""
    rng = random.Random(seed)
    w4 = FreeProduct([Z2, Z2, Z2, Z2], ["a", "b", "c", "d"])
    blocks = Automorphism.from_gen_images(
        w4, [w4.parse_word(t) for t in "cdab"])
    word = " ".join(rng.choice("abcd") for _ in range(rng.randrange(1, 6)))
    twisted = Automorphism.inner(w4, w4.parse_word(word)).compose(blocks)
    rep = build_reduction(twisted, [[0, 1], [2, 3]])
    assert rep.induced_automorphism().outer_equal(twisted)
    assert len(maximal_filtration(rep)) > 1


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
    assert out.rep.induced_outer() == rep.induced_outer()
    if isinstance(out, TrainTrack):
        assert out.rep.is_train_track()
    if isinstance(out, Reducible):
        filt = maximal_filtration(out.rep)
        assert set(out.witness) == set(filt.strata[0].edges)
