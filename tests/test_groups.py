"""Free product arithmetic: normal forms, conjugacy, automorphisms.

Derived expected values are computed by the independent oracles at the top of
this file (brute-force permutation composition, exhaustive bounded conjugation)
and then asserted against the library.
"""

import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitrain.errors import (
    BadGroupTable,
    FactorMismatch,
    NotAutomorphism,
    NotInvertible,
    UnknownGenerator,
)
from orbitrain.groups import (
    Automorphism,
    FiniteGroup,
    FreeProduct,
    KuroshData,
    _mutually_inverse,
    _seam_gains,
    is_iso,
    iso_chain,
    iso_identity,
    least_rotation,
)
from test_census import KIND_AUTOMORPHISMS, mixed_case
from test_census import cases as census_cases, sweep_cases

# ---------------------------------------------------------------------------
# oracles and random words
# ---------------------------------------------------------------------------


def perm_compose(p, q):
    """Apply q first, then p (matching the library's table convention)."""
    return tuple(p[q[i]] for i in range(len(q)))


def oracle_symmetric_table(m):
    perms = sorted(itertools.permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[perm_compose(g, h)] for h in perms] for g in perms]


def oracle_conjugators(W, max_syllables):
    """All words of at most max_syllables syllables, by brute enumeration."""
    words = [()]
    layer = [()]
    for _ in range(max_syllables):
        nxt = []
        for w in layer:
            for letter in W.letters():
                if w and w[-1][0] == letter[0]:
                    continue
                nxt.append(w + (letter,))
        words.extend(nxt)
        layer = nxt
    return words


def oracle_conjugate(W, w1, w2, max_syllables=4):
    return any(W.conj(w1, u) == w2 for u in oracle_conjugators(W, max_syllables))


def random_letter(W, rng, factors=None):
    i = rng.choice(list(factors) if factors is not None else range(W.n))
    return (i, rng.randrange(1, W.factors[i].order))


def random_word(W, rng, syllables, factors=None):
    """A normal form of up to ``syllables`` syllables, no two neighbours
    from one factor."""
    pool = list(factors) if factors is not None else list(range(W.n))
    out = []
    prev = None
    for _ in range(syllables):
        choices = [i for i in pool if i != prev] or pool
        i = rng.choice(choices)
        out.append(random_letter(W, rng, [i]))
        prev = i
    return W.nf(out)


# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------


def test_s3_table_matches_permutation_composition():
    s3 = FiniteGroup.symmetric(3)
    assert [list(row) for row in s3.cayley] == oracle_symmetric_table(3)


def test_s3_transposition_product_is_three_cycle():
    s3 = FiniteGroup.symmetric(3)
    twelve = s3.names.index("(1 2)")
    twothree = s3.names.index("(2 3)")
    assert s3.names[s3.mul(twelve, twothree)] == "(1 2 3)"


def test_cyclic_arithmetic():
    z6 = FiniteGroup.cyclic(6)
    assert z6.mul(0, 5) == 5 and z6.mul(5, 0) == 5
    assert z6.mul(4, 5) == 3
    assert z6.inv(2) == 4
    assert z6.element_order(2) == 3
    assert z6.is_cyclic()


def test_involution_squares_to_identity():
    z2 = FiniteGroup.cyclic(2)
    assert z2.mul(1, 1) == 0


def test_bad_tables_rejected():
    with pytest.raises(BadGroupTable):
        FiniteGroup([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(BadGroupTable):
        FiniteGroup([[1, 0], [0, 1]])  # 0 not the identity
    with pytest.raises(BadGroupTable):
        FiniteGroup([[0]])  # trivial group disallowed


def test_associativity_is_checked_above_order_64():
    """Z/71 with one product changed keeps its identity and inverses but
    not associativity: (5.7).1 = 14 while 5.(7.1) = 13."""
    table = [[(i + j) % 71 for j in range(71)] for i in range(71)]
    table[5][7] = 13
    with pytest.raises(BadGroupTable):
        FiniteGroup(table)


def test_s4_associativity_and_inverses():
    s4 = FiniteGroup.symmetric(4)
    assert s4.order == 24
    rng = random.Random(7)
    for _ in range(200):
        g, h = rng.randrange(24), rng.randrange(24)
        assert s4.mul(s4.inv(h), s4.inv(g)) == s4.inv(s4.mul(g, h))


def test_iso_helpers_on_s3():
    s3 = FiniteGroup.symmetric(3)
    ident = iso_identity(s3)
    assert is_iso(s3, s3, ident)
    t = s3.names.index("(1 2)")
    conj = tuple(s3.mul(s3.inv(t), s3.mul(g, t)) for g in s3.elements())
    assert is_iso(s3, s3, conj)
    assert iso_chain(conj, conj) == ident  # conjugation by an involution


def reference_is_iso(source, target, mapping):
    """``is_iso`` as it was written over ``FiniteGroup.mul``, kept as the
    oracle of the table-reading one."""
    if source.order != target.order or len(mapping) != source.order:
        return False
    if sorted(mapping) != list(range(target.order)):
        return False
    if mapping[0] != 0:
        return False
    return all(
        mapping[source.mul(a, b)] == target.mul(mapping[a], mapping[b])
        for a in source.elements()
        for b in source.elements()
    )


def test_is_iso_agrees_with_the_reference_on_every_mapping():
    """Over all ordered pairs of Z2, Z3, Z4, S3, the Klein four-group and
    Z4 with elements 1 and 2 swapped, the table-reading ``is_iso`` and
    the reference agree on every mapping of the source's elements into
    its index range, and the census's factor automorphisms are the ones
    the reference finds.  The last two have the order of Z4 and other
    tables, so the identity mapping between them is no isomorphism."""
    z4 = FiniteGroup.cyclic(4)
    swap = (0, 2, 1, 3)
    z4_swapped = FiniteGroup([[swap[z4.mul(swap[a], swap[b])]
                               for b in range(4)] for a in range(4)])
    klein = FiniteGroup([[a ^ b for b in range(4)] for a in range(4)])
    groups = [FiniteGroup.cyclic(2), FiniteGroup.cyclic(3), z4,
              FiniteGroup.symmetric(3), klein, z4_swapped]
    counts = {}
    for source, target in itertools.product(groups, repeat=2):
        n = source.order
        for mapping in itertools.product(range(n), repeat=n):
            got = is_iso(source, target, mapping)
            assert got == reference_is_iso(source, target, mapping), \
                (source, target, mapping)
            counts[source, target] = counts.get((source, target), 0) + got
    assert [counts[g, g] for g in groups] == [1, 2, 2, 6, 6, 2]
    assert counts[z4, z4_swapped] == counts[z4_swapped, z4] == 2
    assert sum(counts.values()) == 23
    for group, found in KIND_AUTOMORPHISMS.items():
        assert found == [m for m in itertools.permutations(group.elements())
                         if reference_is_iso(group, group, m)]


@pytest.mark.parametrize("mapping", [(0, 1.0), (0, True), [0.0, 1],
                                     (0, 1, 2.0)])
def test_is_iso_refuses_entries_that_are_not_ints(mapping):
    """An element index is an exact ``int``.  The reference read
    ``(0, 1.0)`` as a Cayley index and raised a bare ``TypeError``, and
    took ``(0, True)`` for the identity of Z2."""
    z2 = FiniteGroup.cyclic(2)
    assert not is_iso(z2, z2, mapping)


# ---------------------------------------------------------------------------
# words and normal forms
# ---------------------------------------------------------------------------


def test_letter_multiplication(w3):
    a = (0, 1)
    assert w3.letter_mul(a, a) == (0, 0)
    with pytest.raises(FactorMismatch):
        w3.letter_mul((0, 1), (1, 1))


def test_normal_form_involution_cancellation(w3):
    assert w3.nf([(0, 1), (0, 1), (1, 1)]) == ((1, 1),)
    assert w3.nf([]) == ()


def test_normal_form_bacab_squares_to_identity(w4):
    w = w4.parse_word("b a c a b")
    assert w4.mul(w, w) == ()


def test_parse_and_format_round_trip(w4):
    for text in ["b a c a b", "a", "1", "c a d a c"]:
        word = w4.parse_word(text)
        assert w4.parse_word(w4.format_word(word)) == word


@pytest.mark.parametrize("token", ["a[x]", "a[7]", "a[-1]"])
def test_bad_element_tokens_are_unknown_generators(token):
    """Malformed and out-of-range element tokens raise the package's own
    error instead of escaping from int() or the Cayley table, or
    wrapping round to another element."""
    W = FreeProduct([FiniteGroup.cyclic(2)] * 2, ["a", "b"])
    assert W.parse_word("a[1] b[0]") == ((0, 1),)
    with pytest.raises(UnknownGenerator):
        W.parse_word(token)


def test_normal_form_merges_powers():
    z6 = FiniteGroup.cyclic(6)
    W = FreeProduct([z6, z6], ["a", "b"])
    word = W.parse_word("a^2 a^3 b a^5 a")
    assert word == W.parse_word("a^5 b")


def test_a_factor_named_t_parses():
    """``t`` is an ordinary factor name: no letter is reserved."""
    W = FreeProduct([FiniteGroup.cyclic(2)] * 2, ["s", "t"])
    word = W.parse_word("t s t")
    assert word == ((1, 1), (0, 1), (1, 1))
    assert W.format_word(word) == "t s t"


def test_free_product_factors_must_be_finite_groups():
    with pytest.raises(ValueError):
        FreeProduct([FiniteGroup.cyclic(2), object()])


def test_conjugacy_normal_form_examples(w3, w4):
    assert w3.conjugacy_normal_form(()) == ()
    aba = w3.parse_word("a b a")
    assert w3.conjugacy_normal_form(aba) == w3.parse_word("b")
    bacab = w4.parse_word("b a c a b")
    c = w4.parse_word("c")
    assert w4.conjugacy_normal_form(bacab) == w4.conjugacy_normal_form(c)


def test_conjugacy_agrees_with_brute_force(w4):
    bacab = w4.parse_word("b a c a b")
    c = w4.parse_word("c")
    assert oracle_conjugate(w4, c, bacab)
    assert w4.conjugacy_normal_form(c) == w4.conjugacy_normal_form(bacab)
    # ab is the witness the identity bacab = (ab)^-1 c (ab) predicts
    assert w4.conj(c, w4.parse_word("a b")) == bacab


def test_non_conjugate_words_rejected(w4):
    for x, y in (("a", "b"), ("a b", "a c")):
        w1, w2 = w4.parse_word(x), w4.parse_word(y)
        assert not oracle_conjugate(w4, w1, w2, max_syllables=2)
        assert w4.conjugacy_normal_form(w1) != w4.conjugacy_normal_form(w2)


def test_single_syllable_factor_conjugacy():
    s3 = FiniteGroup.symmetric(3)
    W = FreeProduct([s3, s3], ["p", "q"])
    twelve = s3.names.index("(1 2)")
    onethree = s3.names.index("(1 3)")
    w1, w2 = ((0, twelve),), ((0, onethree),)
    assert W.conjugacy_normal_form(w1) == W.conjugacy_normal_form(w2)
    assert any(W.conj(w1, ((0, s),)) == w2 for s in s3.elements())


def rotations(seq):
    return [tuple(seq[r:]) + tuple(seq[:r]) for r in range(len(seq))]


def conjugator_to_form(W, w):
    """A word u with u^-1 . w . u the conjugacy normal form of w: w is
    q^-1 . core . q, and the form is a rotation of the core, or for a
    single syllable a conjugate of it inside its factor."""
    core, q = W.cyclic_form(w)
    form = W.conjugacy_normal_form(w)
    if not core:
        return ()
    if len(core) >= 2:
        return W.mul(W.inv(q), core[:rotations(core).index(form)])
    (i, e), factor = core[0], W.factors[core[0][0]]
    s = next(s for s in factor.elements()
             if factor.mul(factor.inv(s), factor.mul(e, s)) == form[0][1])
    return W.mul(W.inv(q), ((i, s),))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=12),
       st.integers(1, 4))
def test_least_rotation_matches_brute_force(base, k):
    seq = base * k
    assert least_rotation(seq) == rotations(seq).index(min(rotations(seq)))


def test_least_rotation_of_tuples_and_short_sequences():
    assert least_rotation([(1, 0)]) == 0
    assert least_rotation([(2, 1), (0, 1), (2, 1), (0, 0)]) == 3
    assert least_rotation([(1, 1), (0, 1)] * 5) == 1


def test_conjugacy_normal_form_is_least_core_rotation():
    s3 = FiniteGroup.symmetric(3)
    rng = random.Random(3)
    for W in (FreeProduct([FiniteGroup.cyclic(2)] * 4),
              FreeProduct([s3, FiniteGroup.cyclic(3), s3])):
        for _ in range(500):
            w = random_word(W, rng, rng.randrange(0, 8))
            if rng.random() < 0.3:
                w = W.power(w, rng.randint(2, 5))
            core, q = W.cyclic_form(w)
            assert W.mul(W.inv(q), core, q) == w and W.nf(core) == core
            form = W.conjugacy_normal_form(w)
            if len(core) >= 2:
                assert core[0][0] != core[-1][0]
                assert form == min(rotations(core))
            assert W.conj(w, conjugator_to_form(W, w)) == form


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_normal_form_idempotent_and_inverse_law(w4, data):
    k = data.draw(st.integers(0, 12))
    raw = [
        (data.draw(st.integers(0, 3)), data.draw(st.integers(0, 1)))
        for _ in range(k)
    ]
    word = w4.nf(raw)
    assert w4.nf(word) == word
    assert w4.mul(word, w4.inv(word)) == ()


def test_inverse_law_large_sample(w4):
    rng = random.Random(20260816)
    for _ in range(1000):
        word = random_word(w4, rng, rng.randrange(0, 14))
        assert w4.mul(word, w4.inv(word)) == ()
        assert w4.mul(w4.inv(word), word) == ()


def test_conjugacy_form_invariant_under_conjugation(w4):
    rng = random.Random(99)
    for _ in range(1000):
        w = random_word(w4, rng, rng.randrange(0, 10))
        g = random_word(w4, rng, rng.randrange(0, 6))
        assert w4.conjugacy_normal_form(w4.conj(w, g)) == w4.conjugacy_normal_form(w)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cyclic_form_reconstructs_word(w3, data):
    k = data.draw(st.integers(0, 10))
    raw = [
        (data.draw(st.integers(0, 2)), data.draw(st.integers(0, 1)))
        for _ in range(k)
    ]
    word = w3.nf(raw)
    core, q = w3.cyclic_form(word)
    assert w3.mul(w3.inv(q), core, q) == word
    if len(core) >= 2:
        assert core[0][0] != core[-1][0]


def test_cyclic_form_peels_a_long_conjugator():
    """u^-1 . a . u with |u| = 20 000 peels to the core a and q = u, in
    time linear in the word."""
    W = FreeProduct([FiniteGroup.symmetric(3), FiniteGroup.cyclic(2),
                     FiniteGroup.cyclic(3)])
    rng = random.Random(20000)
    u = random_word(W, rng, 20000, factors=[1, 2])
    a = ((0, 1),)
    w = W.conj(a, u)
    assert len(w) == 40001
    assert W.cyclic_form(w) == (a, u)
    assert W.conjugacy_normal_form(w) == W.conjugacy_normal_form(a)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------


def test_identity_automorphism(w4):
    ident = Automorphism.identity(w4)
    assert ident.is_identity()
    word = w4.parse_word("a b c d a")
    assert ident.apply(word) == word


def test_phi_w4_applies(phi_w4, w4):
    assert phi_w4.apply(w4.parse_word("c")) == w4.parse_word("b a c a b")
    # phi(c)^2 = 1 because bacab is an involution's conjugate
    assert phi_w4.apply(w4.mul(w4.parse_word("c"), w4.parse_word("c"))) == ()


def test_non_homomorphism_images_rejected(w3):
    with pytest.raises(NotAutomorphism):
        Automorphism.from_gen_images(
            w3, [w3.parse_word("a"), w3.parse_word("a b"), w3.parse_word("c")]
        )


@pytest.mark.parametrize("letter", [(-1, 1), (True, 1), (5, 1), (0, 7),
                                    (1, True), [0, 1], (0,), (0, 1.0)])
def test_images_outside_w_are_refused(w3, letter):
    """A letter that names no factor or element of W is refused where
    images enter an automorphism.  ``(-1, 1)`` used to pass for c and
    give the map a -> c, b -> b, c -> c, ``(True, 1)`` was read as
    factor 1, and factor 5 or element 7 raised a bare ``IndexError``."""
    bad = (letter,)
    with pytest.raises(NotAutomorphism):
        Automorphism.from_gen_images(w3, [bad, ((1, 1),), ((2, 1),)])
    with pytest.raises(NotAutomorphism):
        Automorphism.from_element_images(w3, [{1: bad}, {}, {}])
    with pytest.raises(NotAutomorphism):
        Automorphism(w3, [[(), bad], [(), ((1, 1),)], [(), ((2, 1),)]])
    with pytest.raises(NotAutomorphism):
        Automorphism.inner(w3, ((0, 1),) + bad)


def test_one_generator_image_per_factor_is_required(w3):
    with pytest.raises(NotAutomorphism):
        Automorphism.from_gen_images(w3, [((0, 1),), ((1, 1),)])


def test_generator_images_need_cyclic_factors():
    W = FreeProduct([FiniteGroup.symmetric(3), FiniteGroup.cyclic(2)],
                    ["s", "a"])
    with pytest.raises(NotAutomorphism, match="factor s is not cyclic"):
        Automorphism.from_gen_images(W, [W.parse_word("s"),
                                         W.parse_word("a")])


def test_too_few_element_image_maps_are_refused(w3):
    """Two maps for three factors used to raise a bare ``IndexError``."""
    with pytest.raises(NotAutomorphism, match="one element-image map"):
        Automorphism.from_element_images(w3, [{1: ((1, 1),)}, {1: ((0, 1),)}])


def test_too_many_element_image_maps_are_refused(w3):
    """A fourth map on W3 used to be ignored."""
    maps = [{1: ((1, 1),)}, {1: ((0, 1),)}, {1: ((2, 1),)}, {1: ((0, 1),)}]
    with pytest.raises(NotAutomorphism, match="one element-image map"):
        Automorphism.from_element_images(w3, maps)


@pytest.mark.parametrize("key", [7, -1, 0, True, 1.0, "1"])
def test_element_image_keys_must_be_nontrivial_elements(w3, key):
    """A key that is no nontrivial element of its factor used to be
    ignored: ``{7: ...}`` or ``{-1: ...}`` left the map unchanged."""
    maps = [{1: ((1, 1),)}, {1: ((0, 1),)}, {key: ((2, 1),)}]
    with pytest.raises(NotAutomorphism, match="nontrivial element of factor c"):
        Automorphism.from_element_images(w3, maps)


def test_non_homomorphism_on_a_factor_of_order_three_rejected():
    z3 = FiniteGroup.cyclic(3)
    W = FreeProduct([z3, z3], ["a", "b"])
    a, b = ((0, 1),), ((1, 1),)
    with pytest.raises(NotAutomorphism):
        Automorphism(W, [[(), a, a], [(), b, W.mul(b, b)]])


def test_kurosh_data_of_phi_w4(phi_w4, w4):
    data = phi_w4.kurosh()
    assert data.pi == (0, 1, 2, 3)
    assert data.conjugators == (
        (),
        (),
        w4.parse_word("a b"),
        w4.parse_word("a c"),
    )
    assert all(iso == (0, 1) for iso in data.isos)


def test_kurosh_rejects_factor_mixing(w3):
    swap = Automorphism.from_element_images(
        w3,
        [
            {1: w3.parse_word("b")},
            {1: w3.parse_word("a")},
            {1: w3.parse_word("c")},
        ],
    )
    assert swap.kurosh().pi == (1, 0, 2)


def test_alpha_beta_are_automorphisms(alpha_w3, beta_w3):
    assert alpha_w3.kurosh().pi == (0, 1, 2)
    assert beta_w3.kurosh().pi == (0, 1, 2)


def reference_kurosh(phi):
    """``Automorphism.kurosh`` as it was written over ``FreeProduct.mul``,
    kept as the oracle of the slice-reading one."""
    W = phi.W
    pi, isos, conjugators = [], [], []
    for i, factor in enumerate(W.factors):
        w0 = phi.images[i][1]
        if len(w0) % 2 == 0:
            raise NotAutomorphism(
                f"image of {W.format_letter((i, 1))} cannot be a conjugate of a letter"
            )
        m = len(w0) // 2
        u = w0[m + 1:]
        mid = w0[m]
        if W.mul(W.inv(u), (mid,), u) != w0:
            raise NotAutomorphism(
                f"image of {W.format_letter((i, 1))} is not a conjugated letter"
            )
        j = mid[0]
        target = W.factors[j]
        if target.order != factor.order:
            raise NotAutomorphism(
                f"factor {W.names[i]} maps into a factor of different order"
            )
        mapping = [0] * factor.order
        for e in factor.nontrivial():
            img = W.mul(u, phi.images[i][e], W.inv(u))
            if len(img) != 1 or img[0][0] != j:
                raise NotAutomorphism(
                    f"factor {W.names[i]} does not map into a single factor"
                )
            mapping[e] = img[0][1]
        if not is_iso(factor, target, tuple(mapping)):
            raise NotAutomorphism(
                f"factor map on {W.names[i]} is not an isomorphism"
            )
        pi.append(j)
        isos.append(tuple(mapping))
        conjugators.append(u)
    if sorted(pi) != list(range(W.n)):
        raise NotAutomorphism("factor assignment is not a permutation")
    return KuroshData(tuple(pi), tuple(isos), tuple(conjugators))


def kurosh_verdict(kurosh, phi):
    """``kurosh(phi)``, or the class and message of its NotAutomorphism."""
    try:
        return kurosh(phi)
    except NotAutomorphism as exc:
        return type(exc), str(exc)


def unchecked(W, families):
    """An ``Automorphism`` with the normal forms of ``families`` as its
    images and no homomorphism check, so ``kurosh`` meets image families
    that no constructor lets through: every finite subgroup of W lies in
    a conjugate of a factor, so a checked family never spreads over two
    factors or has an odd image that is no conjugated letter."""
    phi = Automorphism.identity(W)
    phi.images = tuple(tuple(W.nf(w) for w in fam) for fam in families)
    return phi


KUROSH_W = FreeProduct([FiniteGroup.cyclic(2), FiniteGroup.cyclic(2),
                        FiniteGroup.cyclic(3), FiniteGroup.cyclic(2)],
                       ["a", "b", "c", "d"])

# Each refusal of ``kurosh`` on a * b * c * d, with c of order 3, in the
# order of its checks, then one family it accepts: the image texts of
# each named factor's nontrivial elements, unnamed factors fixed.  The
# conjugators of c differ from u = b a in one letter of the head or the
# tail, at each end of each.
KUROSH_FAMILIES = [
    ("cannot be a conjugate", dict(a=["1"])),
    ("cannot be a conjugate", dict(a=["a b"])),
    ("is not a conjugated letter", dict(a=["a b c"])),
    ("is not a conjugated letter", dict(a=["a b a c a"])),
    ("different order", dict(a=["c"])),
    ("single factor", dict(c=["c", "a"])),
    ("single factor", dict(c=["c", "1"])),
    ("single factor", dict(c=["a b c b a", "c b c^2 b a"])),
    ("single factor", dict(c=["a b c b a", "a d c^2 b a"])),
    ("single factor", dict(c=["a b c b a", "a b c^2 d a"])),
    ("single factor", dict(c=["a b c b a", "a b c^2 b d"])),
    ("single factor", dict(c=["a b c b a", "a b d b a"])),
    ("not an isomorphism", dict(c=["c", "c"])),
    ("not a permutation", dict(a=["b"])),
    (None, dict(a=["c^2 b c"], b=["b a b"],
                c=["a b c^2 b a", "a b c b a"])),
]


@pytest.mark.parametrize("index", range(len(KUROSH_FAMILIES)))
def test_kurosh_refuses_each_family_as_the_reference_does(index):
    refusal, images = KUROSH_FAMILIES[index]
    W = KUROSH_W
    texts = {"a": ["a"], "b": ["b"], "c": ["c", "c^2"], "d": ["d"], **images}
    phi = unchecked(W, [[()] + [W.parse_word(t) for t in texts[name]]
                        for name in W.names])
    got = kurosh_verdict(Automorphism.kurosh, phi)
    assert got == kurosh_verdict(reference_kurosh, phi)
    if refusal is None:
        assert isinstance(got, KuroshData)
    else:
        assert got[0] is NotAutomorphism and refusal in got[1]


@st.composite
def kurosh_inputs(draw):
    """Normal image families on two to four factors drawn from Z2, Z3, Z4
    and S3.  The factors are first permuted within their kinds, each by a
    factor automorphism conjugated by a drawn word, which gives the
    Kurosh data of an automorphism.  Then at most one factor is spoiled:
    sent to any factor, mapped by any map of its elements, or given as
    one image a drawn word or its letter's conjugate with a drawn word in
    place of u^-1 or of u.  So even-length images, odd ones that are no
    conjugated letter, families spread over two factors, maps of the
    wrong order or not bijective, and assignments that are no permutation
    all occur."""
    W = FreeProduct(draw(st.lists(st.sampled_from(list(KIND_AUTOMORPHISMS)),
                                  min_size=2, max_size=4)))
    n = W.n

    def word(size):
        return W.nf((f, draw(st.integers(1, W.factors[f].order - 1)))
                    for f in draw(st.lists(st.integers(0, n - 1),
                                           max_size=size)))

    targets = list(range(n))
    for group in set(W.factors):
        kind = [k for k in range(n) if W.factors[k] == group]
        for k, j in zip(kind, draw(st.permutations(kind))):
            targets[k] = j
    spoilt = draw(st.integers(0, n - 1))
    defect = draw(st.sampled_from([None, "target", "map", "image", "head",
                                   "tail"]))
    families = []
    for i, factor in enumerate(W.factors):
        j = targets[i]
        if i == spoilt and defect == "target":
            j = draw(st.integers(0, n - 1))
        target = W.factors[j]
        if target == factor and not (i == spoilt and defect == "map"):
            rho = draw(st.sampled_from(KIND_AUTOMORPHISMS[factor]))
        else:
            rho = [0] + [draw(st.integers(0, target.order - 1))
                         for _ in factor.nontrivial()]
        u = word(4)
        fam = [W.conj(((j, rho[e]),), u) if rho[e] else ()
               for e in factor.elements()]
        if i == spoilt and defect in ("image", "head", "tail"):
            e, v = draw(st.integers(1, factor.order - 1)), word(5)
            if defect == "head":
                v = W.nf(v + ((j, rho[e]),) + u)
            elif defect == "tail":
                v = W.nf(W.inv(u) + ((j, rho[e]),) + v)
            fam[e] = v
        families.append(fam)
    return unchecked(W, families)


@settings(max_examples=300, deadline=None)
@given(kurosh_inputs())
def test_kurosh_agrees_with_the_reference_on_drawn_families(phi):
    """The slice-reading ``kurosh`` gives the reference's Kurosh data, or
    its error class and message, on every drawn image family."""
    assert (kurosh_verdict(Automorphism.kurosh, phi)
            == kurosh_verdict(reference_kurosh, phi))


# ---------------------------------------------------------------------------
# the word kernel against its reference
# ---------------------------------------------------------------------------


def reference_nf(W, raw):
    """``FreeProduct.nf`` as it was written over ``FiniteGroup.mul``, one
    method call per merge, kept as the oracle of the table-reading one."""
    out = []
    for letter in raw:
        i, e = letter
        if e == 0:
            continue
        if out and out[-1][0] == i:
            merged = W.factors[i].mul(out[-1][1], e)
            if merged == 0:
                out.pop()
            else:
                out[-1] = (i, merged)
        else:
            out.append((i, e))
    return tuple(out)


def reference_inv(W, word):
    """``FreeProduct.inv`` as it was written, one ``FiniteGroup.inv`` per
    letter."""
    return tuple([(i, W.factors[i].inv(e)) for i, e in reversed(word)])


def reference_apply(phi, word):
    """``Automorphism.apply`` as it was written: the image of each letter,
    multiplied together."""
    return reference_nf(phi.W, [l for i, e in word for l in phi.images[i][e]])


def reference_homomorphism(W, families):
    """The homomorphism check of ``Automorphism.__init__`` as it was
    written: every pair of nontrivial elements, its product normalised
    and compared with the image of the product.  The pairs that fail, in
    check order, each with whether its product is trivial."""
    failing = []
    for fam, factor in zip(families, W.factors):
        for a in factor.nontrivial():
            for b in factor.nontrivial():
                ab = factor.mul(a, b)
                if reference_nf(W, fam[a] + fam[b]) != fam[ab]:
                    failing.append((a, b, ab == 0))
    return failing


def homomorphism_verdict(W, families):
    """Whether ``Automorphism`` takes the normal image ``families``, or
    refuses them as no homomorphism."""
    try:
        Automorphism(W, families)
    except NotAutomorphism as exc:
        assert "not a homomorphism" in str(exc)
        return False
    return True


@st.composite
def word_kernel_inputs(draw):
    """Two to four factors from Z2, Z3, Z4 and S3, a raw word, and image
    families.  The raw word has trivial letters, and in its middle a
    drawn raw word and its letter-by-letter inverse stand between two
    letters of one factor, so cancellation cascades back to an
    equal-factor letter.  Each factor's family is a factor automorphism
    conjugated by a drawn word; for at most one spoilt factor, one image
    is replaced by a drawn word, by the image of another element, or by
    the inverse of that image."""
    W = FreeProduct(draw(st.lists(st.sampled_from(list(KIND_AUTOMORPHISMS)),
                                  min_size=2, max_size=4)))
    n = W.n

    def letters(size):
        return [(i, e % W.factors[i].order) for i, e in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, 5)),
            max_size=size))]

    i = draw(st.integers(0, n - 1))
    first, last = ((i, draw(st.integers(0, W.factors[i].order - 1)))
                   for _ in range(2))
    middle = letters(6)
    raw = (letters(4) + [first] + middle + list(reference_inv(W, middle))
           + [last] + letters(4))
    spoilt = draw(st.integers(-1, n - 1))
    families = []
    for i, factor in enumerate(W.factors):
        rho = draw(st.sampled_from(KIND_AUTOMORPHISMS[factor]))
        u = W.nf(letters(4))
        fam = [W.conj(((i, rho[e]),), u) if rho[e] else ()
               for e in factor.elements()]
        if i == spoilt:
            a, b = draw(st.lists(st.integers(1, factor.order - 1),
                                 min_size=2, max_size=2))
            fam[a] = draw(st.sampled_from(
                [W.nf(letters(6)), fam[b], W.inv(fam[b])]))
        families.append(fam)
    return W, raw, families


@settings(max_examples=300, deadline=None)
@given(word_kernel_inputs())
def test_word_kernel_agrees_with_the_reference(case):
    """``nf``, ``inv``, ``apply`` and the homomorphism check give what
    their references give, on raw words whose cancellations cascade and
    on image families that the check takes or refuses."""
    W, raw, families = case
    word = W.nf(raw)
    assert word == reference_nf(W, raw)
    assert W.nf(word) == word
    assert W.inv(word) == reference_inv(W, word)
    assert W.mul(word, W.inv(word)) == ()
    phi = unchecked(W, families)
    assert phi.apply(word) == reference_apply(phi, word)
    assert phi.apply(raw) == reference_apply(phi, raw)
    assert homomorphism_verdict(W, families) == (
        not reference_homomorphism(W, families))


def test_normal_form_cascades_back_to_an_equal_factor_letter():
    """a^2 (b c c^2 b) a: cancelling c c^2 and then b b leaves a^2 next to
    a, which merge to a^3 on Z4, and to nothing with a^2 at the end."""
    Z4, Z2, Z3 = (FiniteGroup.cyclic(m) for m in (4, 2, 3))
    W = FreeProduct([Z4, Z2, Z3], ["a", "b", "c"])
    raw = W.parse_word("a^2") + ((1, 1), (2, 1), (2, 0), (2, 2), (1, 1))
    for tail, normal in ((((0, 1),), ((0, 3),)),
                         (((0, 2), (1, 1)), ((1, 1),))):
        assert W.nf(raw + tail) == normal == reference_nf(W, raw + tail)


# Image families that the homomorphism check refuses, on factor a: the
# family's texts, the first pair it fails on, and whether that pair's
# product is trivial.
REFUSED_FAMILIES = [
    # W2, a -> a b: (1, 1) has a trivial product, and a b is no involution
    ([FiniteGroup.cyclic(2)] * 2, ["a b"], (1, 1, True)),
    # Z3 * Z2, a -> a b: (a b)^3 is not trivial, first seen at (1, 2)
    ([FiniteGroup.cyclic(3), FiniteGroup.cyclic(2)], ["a b", "a b a b"],
     (1, 2, True)),
    # Z4 * Z2, a -> a b: (a b)^4 is not trivial, first seen at (1, 3);
    # (2, 2) fails as well
    ([FiniteGroup.cyclic(4), FiniteGroup.cyclic(2)],
     ["a b", "a b a b", "a b a b a b"], (1, 3, True)),
    # Z4 * Z2, a^3 -> b: a . a^2 is not b
    ([FiniteGroup.cyclic(4), FiniteGroup.cyclic(2)], ["a", "a^2", "b"],
     (1, 2, False)),
    # Z3 * Z2, a^2 -> a: a . a is not a
    ([FiniteGroup.cyclic(3), FiniteGroup.cyclic(2)], ["a", "a"],
     (1, 1, False)),
]


@pytest.mark.parametrize("index", range(len(REFUSED_FAMILIES)))
def test_homomorphism_check_refuses_as_the_reference_does(index):
    factors, texts, first = REFUSED_FAMILIES[index]
    W = FreeProduct(factors)
    families = [[()] + [W.parse_word(t) for t in texts]]
    families += [[()] + [((k, e),) for e in factor.nontrivial()]
                 for k, factor in enumerate(factors) if k]
    failing = reference_homomorphism(W, families)
    assert failing and failing[0] == first
    assert not homomorphism_verdict(W, families)


def test_homomorphism_check_takes_the_inverse_pairs_of_a_conjugated_factor():
    """On Z4 * Z2, a -> b a b: the pairs (1, 3), (2, 2) and (3, 1) have
    trivial products and are checked as inverse words."""
    W = FreeProduct([FiniteGroup.cyclic(4), FiniteGroup.cyclic(2)])
    families = [[()] + [W.parse_word(t) for t in ("b a b", "b a^2 b",
                                                  "b a^3 b")],
                [(), ((1, 1),)]]
    assert reference_homomorphism(W, families) == []
    assert homomorphism_verdict(W, families)


@pytest.fixture(scope="module")
def standing_cases(corpus_automorphism):
    """The 60 corpus automorphisms, then the 1 130 census cases (mixed
    products included)."""
    return ([corpus_automorphism(n, length, seed)
             for n, length, seeds in CORPUS_SIZES for seed in range(seeds)]
            + [phi for _, phi in census_cases()])


def test_kurosh_agrees_with_the_reference_on_the_census(standing_cases):
    """The corpus, the census and the sweep past five factors: the same
    Kurosh data as the reference on every case."""
    for phi in standing_cases + [phi for _, phi in sweep_cases()]:
        assert phi.kurosh() == reference_kurosh(phi)


def is_normal(phi):
    return all(w == phi.W.nf(w) for fam in phi.images for w in fam)


def test_trusted_images_are_in_normal_form(standing_cases):
    """Every constructor that passes ``_in_w`` hands ``Automorphism`` its
    images in normal form, which it now takes as given: ``identity``,
    ``from_gen_images``, ``inner``, ``compose`` (each case is a product),
    ``power`` and ``inverse``, over the corpus and the census; powers,
    which are products, on the corpus alone."""
    for phi in standing_cases:
        W = phi.W
        built = [phi, Automorphism.identity(W), phi.inverse(),
                 Automorphism.inner(W, phi.images[0][1] + phi.images[-1][1])]
        if all(factor.is_cyclic() for factor in W.factors):
            built.append(Automorphism.from_gen_images(
                W, [fam[factor.generator()] + fam[factor.generator()]
                    for fam, factor in zip(phi.images, W.factors)]))
        assert all(is_normal(psi) for psi in built), phi
    assert all(is_normal(phi.power(k)) for phi in standing_cases[:60]
               for k in (2, 3, -1))


def test_peak_reduction_inverts_phi_w4(phi_w4, w4):
    inv = phi_w4.inverse()
    assert inv.apply(w4.parse_word("c")) == w4.parse_word("a b c b a")
    assert inv.apply(w4.parse_word("d")) == w4.parse_word("b c b a d a b c b")
    assert inv.compose(phi_w4).is_identity()
    assert phi_w4.compose(inv).is_identity()


def test_peak_reduction_inverts_alpha(alpha_w3):
    inv = alpha_w3.inverse()
    assert inv.compose(alpha_w3).is_identity()


def test_an_inverse_does_not_outlive_its_automorphism(w4):
    """The inverse keeps no link back to the automorphism, so reference
    counting alone frees the pair."""
    phi = Automorphism.from_gen_images(
        w4, [w4.parse_word(t) for t in ("a", "b", "b a c a b", "c a d a c")])
    enabled = gc.isenabled()
    gc.disable()
    try:
        inverse = weakref.ref(phi.inverse())
        assert inverse() is not None
        del phi
        assert inverse() is None
    finally:
        if enabled:
            gc.enable()


def test_injective_non_surjective_endomorphism_not_invertible():
    z2 = FiniteGroup.cyclic(2)
    W = FreeProduct([z2, z2], ["a", "b"])
    phi = Automorphism.from_gen_images(
        W, [W.parse_word("b a b"), W.parse_word("a b a")]
    )
    phi.kurosh()  # factor images are honest conjugates
    with pytest.raises(NotInvertible):
        phi.inverse()


@pytest.mark.parametrize("n, length, seed",
                         [(6, 10, s) for s in range(6)]
                         + [(8, 12, s) for s in range(4)])
def test_peak_reduction_inverts_large_corpus_cases(n, length, seed,
                                                  corpus_automorphism):
    phi = corpus_automorphism(n, length, seed)
    assert _mutually_inverse(phi, phi.inverse())


FACTOR_KINDS = {"S3": FiniteGroup.symmetric(3), "Z3": FiniteGroup.cyclic(3),
                "Z2": FiniteGroup.cyclic(2)}
# every automorphism of each factor kind, as element mappings
FACTOR_AUTOMORPHISMS = {
    group: [m for m in itertools.permutations(group.elements())
            if is_iso(group, group, m)]
    for group in FACTOR_KINDS.values()}


@st.composite
def factor_moving_products(draw):
    """A product of multiple partial conjugations, factor automorphisms and
    swaps of isomorphic factors on a free product of S3, Z3 and Z2."""
    kinds = draw(st.lists(st.sampled_from(sorted(FACTOR_KINDS)),
                          min_size=3, max_size=4))
    W = FreeProduct([FACTOR_KINDS[k] for k in kinds])
    phi = Automorphism.identity(W)
    for _ in range(draw(st.integers(4, 12))):
        maps = [{e: ((i, e),) for e in f.nontrivial()}
                for i, f in enumerate(W.factors)]
        # partial conjugations are drawn twice as often as the other moves
        kind = draw(st.sampled_from(["conjugate", "conjugate", "factor", "swap"]))
        if kind == "conjugate":
            j = draw(st.integers(0, W.n - 1))
            x = draw(st.integers(1, W.factors[j].order - 1))
            others = [k for k in range(W.n) if k != j]
            for k in draw(st.lists(st.sampled_from(others), min_size=1,
                                   unique=True)):
                maps[k] = {e: W.conj(((k, e),), ((j, x),))
                           for e in W.factors[k].nontrivial()}
        elif kind == "factor":
            i = draw(st.integers(0, W.n - 1))
            m = draw(st.sampled_from(FACTOR_AUTOMORPHISMS[W.factors[i]]))
            maps[i] = {e: ((i, m[e]),) for e in W.factors[i].nontrivial()}
        else:
            i, k = draw(st.lists(st.integers(0, W.n - 1), min_size=2,
                                 max_size=2, unique=True))
            if W.factors[i] == W.factors[k]:
                maps[i], maps[k] = (
                    {e: ((k, e),) for e in W.factors[i].nontrivial()},
                    {e: ((i, e),) for e in W.factors[k].nontrivial()})
        phi = Automorphism.from_element_images(W, maps).compose(phi)
    return phi


@settings(max_examples=30, deadline=None)
@given(factor_moving_products())
def test_peak_reduction_inverts_factor_moving_products(phi):
    assert _mutually_inverse(phi, phi.inverse())


SEAM_FACTORS = [FiniteGroup.cyclic(2), FiniteGroup.cyclic(3),
                FiniteGroup.cyclic(4), FiniteGroup.symmetric(3)]


def conjugated_by_nf(W, word, j, x, x_inv, S):
    """The move's image of a word, by multiplying out x^-1 l x for every
    letter l of a factor in S."""
    return W.mul(*(((j, x_inv), l, (j, x)) if l[0] in S else (l,)
                   for l in word))


def shortening(word, j, x, x_inv, S):
    """How much shorter the normal form of ``word`` gets under the move
    ``(j, x, x^-1, S)``, by the seam rule of
    ``Automorphism._peak_reduced_inverse`` applied to one word at a time:
    the oracle for the library's one-scan ``_seam_gains``."""
    flags = [l[0] in S for l in word]
    padded = [False, *flags, False]
    gain = -padded[1] - padded[-2]
    for (f, e), left, mine, right in zip(word, padded, flags, padded[2:]):
        if mine:
            continue
        if f != j:
            gain -= left + right
        elif left != right and e == (x_inv if left else x):
            gain += 1
    return gain


def moves_of(W):
    """Every move ``(j, x, x^-1, S)``, in the library's candidate order."""
    return [(j, x, factor.inv(x), frozenset(S))
            for j, factor in enumerate(W.factors)
            for x in factor.nontrivial()
            for r in range(1, W.n)
            for S in itertools.combinations(
                [k for k in range(W.n) if k != j], r)]


@st.composite
def seam_cases(draw):
    """A normal-form word and a move on a product of two to four factors
    from Z2, Z3, Z4 and S3.  The seams the count treats apart are forced
    in half the time each: a j-letter at either end, a j-letter between
    two S-letters, j-letters equal to x or x^-1, and an x of order two."""
    W = FreeProduct(draw(st.lists(st.sampled_from(SEAM_FACTORS),
                                  min_size=2, max_size=4)))
    j = draw(st.integers(0, W.n - 1))
    S = frozenset(draw(st.lists(
        st.sampled_from([k for k in range(W.n) if k != j]),
        min_size=1, unique=True)))
    factor = W.factors[j]
    involutions = [x for x in factor.nontrivial() if factor.inv(x) == x]
    if involutions and draw(st.booleans()):
        x = draw(st.sampled_from(involutions))
    else:
        x = draw(st.integers(1, factor.order - 1))
    x_inv = factor.inv(x)
    seq = draw(st.lists(st.integers(0, W.n - 1), max_size=10))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(seq)))
        seq[at:at] = [draw(st.sampled_from(sorted(S))), j,
                      draw(st.sampled_from(sorted(S)))]
    if draw(st.booleans()):
        seq.insert(0, j)
    if draw(st.booleans()):
        seq.append(j)
    # collapsing runs of one factor keeps every forced pattern
    seq = [f for i, f in enumerate(seq) if i == 0 or f != seq[i - 1]]
    word = tuple(
        (f, draw(st.sampled_from([x, x_inv]) if f == j and draw(st.booleans())
                 else st.integers(1, W.factors[f].order - 1)))
        for f in seq)
    assert W.nf(word) == word
    return W, word, (j, x, x_inv, S)


@settings(max_examples=400, deadline=None)
@given(seam_cases())
def test_shortening_counts_the_normal_form_length(case):
    """The per-word rule counts the drawn move's shortening, and the
    indexed gains of the word equal the rule on every move of W."""
    W, word, move = case
    by_nf = len(word) - len(conjugated_by_nf(W, word, *move))
    assert shortening(word, *move) == by_nf
    index = W.move_index()
    gains = _seam_gains([word], index)
    assert gains[index.candidates.index(move)] == by_nf
    assert gains == [shortening(word, *m) for m in index.candidates]


@settings(max_examples=30, deadline=None)
@given(factor_moving_products())
def test_counted_gains_pick_the_moves_of_normal_form_gains(phi):
    """Round by round along the peak reduction of phi, the gains that
    ``_seam_gains`` counts equal the gains read off rebuilt images, so
    both pick the same first maximum."""
    W = phi.W
    moves = moves_of(W)
    assert list(W.move_index().candidates) == moves
    reduced = phi.images
    while any(len(fam[1]) > 1 for fam in reduced):
        by_nf = [sum(len(fam[1]) - len(conjugated_by_nf(W, fam[1], *move))
                     for fam in reduced) for move in moves]
        counted = _seam_gains([fam[1] for fam in reduced], W.move_index())
        assert counted == by_nf and max(by_nf) > 0
        move = moves[max(range(len(moves)), key=by_nf.__getitem__)]
        assert move == moves[counted.index(max(counted))]
        reduced = [[conjugated_by_nf(W, w, *move) for w in fam]
                   for fam in reduced]


def index_keys(W):
    """Every key of W's move index, each with the condition a move
    ``(j, x, x^-1, S)`` meets to be listed under it: the seam keys (f, a),
    a = -1 for a word end, and the letter keys (j, e, l, r) of every
    j-letter e with neighbours in factors l and r (-1 for a word end)."""
    keys = {}
    for f in range(W.n):
        for a in range(-1, W.n):
            if a != f:
                keys["seams", (f, a)] = (
                    lambda m, f=f, a=a: f in m[3] and a not in m[3]
                    and a != m[0])
    ends = range(-1, W.n)
    for j, e in W.letters():
        for l, r in itertools.product(ends, ends):
            if j not in (l, r):
                keys["letters", (j, e, l, r)] = (
                    lambda m, j=j, e=e, l=l, r=r: m[0] == j
                    and ((l in m[3] and r not in m[3] and m[2] == e)
                         or (r in m[3] and l not in m[3] and m[1] == e)))
    return keys


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(SEAM_FACTORS), min_size=2, max_size=5))
def test_move_index_agrees_with_brute_force(factors):
    """On products of two to five factors from Z2, Z3, Z4 and S3, the
    index lists the moves of ``moves_of`` in order, every listed id meets
    its key's condition, once, and no move meeting a key's condition is
    missing from its list; the index is built once per W."""
    W = FreeProduct(factors)
    index = W.move_index()
    assert W.move_index() is index
    moves = moves_of(W)
    assert list(index.candidates) == moves
    keys = index_keys(W)
    for table in ("seams", "letters"):
        assert set(getattr(index, table)) == {k for t, k in keys if t == table}
    for (table, key), condition in keys.items():
        listed = getattr(index, table)[key]
        assert len(set(listed)) == len(listed)
        assert all(condition(moves[m]) for m in listed), key
        assert set(listed) == {m for m, move in enumerate(moves)
                               if condition(move)}, key


def test_fresh_and_warm_products_give_the_same_inverses(corpus_automorphism):
    """An inverse does not depend on whether its product's move index was
    built before: every W3-W5 corpus case and 40 mixed products invert
    alike on a fresh copy of their product and on one already used."""
    phis = [corpus_automorphism(n, length, seed)
            for n, length, seeds in CORPUS_SIZES[:3] for seed in range(seeds)]
    phis += [mixed_case(seed)[1] for seed in range(40)]
    for phi in phis:
        fresh = FreeProduct(phi.W.factors, phi.W.names)
        cold = Automorphism(fresh, phi.images).inverse()
        phi.W.move_index()
        warm = Automorphism(phi.W, phi.images).inverse()
        assert fresh.move_index() is not phi.W.move_index()
        assert cold.images == warm.images


# the benchmark corpus: (n, L, number of seeds)
CORPUS_SIZES = ((3, 4, 20), (4, 6, 20), (5, 8, 10), (6, 10, 6), (8, 12, 4))


def test_seam_gains_are_the_per_word_sums(corpus_automorphism):
    """On every round of the peak reductions of the 60 corpus
    automorphisms and of 40 mixed products over S3, Z2, Z3 and Z4 (where
    x and x^-1 differ), the one-scan gains equal the sums of the per-word
    rule, move by move."""
    phis = [corpus_automorphism(n, length, seed)
            for n, length, seeds in CORPUS_SIZES for seed in range(seeds)]
    phis += [mixed_case(seed)[1] for seed in range(40)]
    rounds = 0
    for phi in phis:
        moves = moves_of(phi.W)
        index = phi.W.move_index()
        assert list(index.candidates) == moves
        words = [fam[1] for fam in phi.images]
        while any(len(w) > 1 for w in words):
            by_word = [sum(shortening(w, *move) for w in words)
                       for move in moves]
            assert _seam_gains(words, index) == by_word
            assert max(by_word) > 0
            move = moves[by_word.index(max(by_word))]
            words = [conjugated_by_nf(phi.W, w, *move) for w in words]
            rounds += 1
    assert rounds > len(phis)


def test_outer_conjugator_identifies_outer_class(phi_w4, w4):
    twisted = Automorphism.inner(w4, w4.parse_word("b a c")).compose(phi_w4)
    assert twisted.images != phi_w4.images
    assert twisted.outer_equal(phi_w4)
    w = phi_w4.outer_conjugator(twisted)
    assert w is not None
    assert Automorphism.inner(w4, w).compose(phi_w4) == twisted


def test_outer_class_when_factor_zero_moves(w3):
    # pi(0) = 2 here, so the normalising twists live in factor c
    phi = Automorphism.from_gen_images(
        w3, [w3.parse_word(t) for t in ("a b a", "c", "c a c")])
    twisted = Automorphism.inner(w3, w3.parse_word("a b c a b a")).compose(phi)
    assert phi.outer_equal(twisted)
    assert twisted.outer_equal(phi)


def test_outer_equal_after_random_inner_twists():
    rng = random.Random(1909)
    Z2 = FiniteGroup.cyclic(2)
    for n in (3, 4, 5):
        W = FreeProduct([Z2] * n)
        for _ in range(12):
            phi = Automorphism.from_gen_images(
                W, [(((k + 1) % n, 1),) for k in range(n)])
            for _ in range(rng.randint(0, 2 * n)):
                i, j = rng.sample(range(n), 2)
                images = [((k, 1),) for k in range(n)]
                images[i] = ((j, 1), (i, 1), (j, 1))
                phi = Automorphism.from_gen_images(W, images).compose(phi)
            w = random_word(W, rng, rng.randint(1, 6))
            twisted = Automorphism.inner(W, w).compose(phi)
            assert phi.outer_equal(twisted)
            assert twisted.outer_equal(phi)


def test_distinct_outer_classes_are_told_apart(phi_w4, w4):
    ident = Automorphism.identity(w4)
    assert not ident.outer_equal(phi_w4)
    assert phi_w4.outer_conjugator(ident) is None
    assert ident.outer_conjugator(ident) == ()


@settings(max_examples=30, deadline=None)
@given(factor_moving_products(), st.randoms(use_true_random=False))
def test_outer_conjugator_finds_inner_twists_on_mixed_factors(phi, rng):
    """Factor 0 may move, and the factors are S3, Z3 and Z2: the search
    over the factor pi(0) still finds a conjugator for every inner twist."""
    W = phi.W
    twisted = Automorphism.inner(W, random_word(W, rng, rng.randrange(0, 7))
                                 ).compose(phi)
    w = phi.outer_conjugator(twisted)
    assert w is not None
    assert Automorphism.inner(W, w).compose(phi) == twisted


def test_power_and_compose(phi_w4, w4):
    square = phi_w4.compose(phi_w4)
    assert phi_w4.power(2) == square
    assert square.apply(w4.parse_word("c")) == phi_w4.apply(
        phi_w4.apply(w4.parse_word("c"))
    )
    assert phi_w4.power(0).is_identity()
    assert phi_w4.power(-1) == phi_w4.inverse()


@pytest.mark.parametrize("k", [True, False, 1.5, 2.0, None, "2"])
def test_power_refuses_a_non_int_exponent(phi_w4, k):
    """``power(True)`` used to return phi and ``power(1.5)`` raised a bare
    ``TypeError``; an exponent must be an ``int``, as ``refined`` asks of
    its ``tol``."""
    with pytest.raises(ValueError, match="int exponent"):
        phi_w4.power(k)
