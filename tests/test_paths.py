"""Tightening, concatenation, turns, circuits, and the path text form.

The oracle here is a rule-based rewriter that applies reductions at random
positions; the module's stack tightener must agree with every order.
"""

import random

import pytest

from orbitrain.errors import BadPath, EndpointMismatch, NotAWalk
from orbitrain.groups import FiniteGroup, FreeProduct
from orbitrain.orbigraph import hedgehog, thistle
from orbitrain.paths import (
    Turn,
    _item_key,
    format_path,
    loop_of_word,
    parse_path,
    tighten,
    tighten_circuit,
)

# ---- oracles ----------------------------------------------------------------


def oracle_tighten(rng, graph, start, items):
    """Apply the reduction rules at random positions until none fires."""
    work = list(items)
    while True:
        spots = []
        for i in range(len(work) - 1):
            a, b = work[i], work[i + 1]
            if type(a) is not int and type(b) is not int:
                spots.append(("merge", i))
            elif type(a) is int and type(b) is int:
                j = graph.dst(a)
                if graph.is_cone(j):
                    spots.append(("insert", i))
                elif b == -a:
                    spots.append(("drop2", i))
            elif (type(a) is int and type(b) is not int
                  and b[1] == 0 and i + 2 < len(work)
                  and type(work[i + 2]) is int and work[i + 2] == -a):
                spots.append(("drop3", i))
        if not spots:
            break
        kind, i = rng.choice(spots)
        if kind == "merge":
            c, g = work[i + 1]
            c0, g0 = work[i]
            work[i:i + 2] = [(c, graph.group_at(c).mul(g0, g))]
        elif kind == "insert":
            work[i + 1:i + 1] = [(graph.dst(work[i]), 0)]
        elif kind == "drop2":
            del work[i:i + 2]
        else:
            del work[i:i + 3]
    while work and type(work[0]) is not int and work[0][1] == 0:
        work.pop(0)
    while work and type(work[-1]) is not int and work[-1][1] == 0:
        work.pop()
    return tuple(work)


def random_raw_walk(rng, graph, length):
    cur = rng.randrange(graph.n_cells)
    start = cur
    items = []
    for _ in range(length):
        if graph.is_cone(cur) and rng.random() < 0.45:
            items.append((cur, rng.randrange(graph.group_at(cur).order)))
        else:
            options = graph.edges_at(cur)
            if not options:
                break
            d = rng.choice(options)
            items.append(d)
            cur = graph.dst(d)
    return start, items


def oracle_circuit(rng, graph, items):
    """Cyclic reduction that re-tightens the whole walk after every step,
    then the least of the rotations that start at an edge."""
    work = list(items)
    while any(type(it) is int for it in work):
        k = next(i for i, it in enumerate(work) if type(it) is int)
        work = list(oracle_tighten(rng, graph, graph.src(work[k]),
                                   work[k:] + work[:k]))
        if work and type(work[0]) is not int:
            work = work[1:] + work[:1]
        elif len(work) >= 2 and work[-1] == -work[0]:
            work = work[1:-1]
        else:
            break
    if not any(type(it) is int for it in work):
        return tuple(work)
    if type(work[-1]) is int and graph.is_cone(graph.dst(work[-1])):
        work.append((graph.dst(work[-1]), 0))
    starts = [i for i, it in enumerate(work) if type(it) is int]
    return min((tuple(work[i:] + work[:i]) for i in starts),
               key=lambda r: tuple(_item_key(it) for it in r))


def random_closed_walk(rng, graph, base, length):
    """A raw walk from ``base`` closed up along the geodesic back."""
    cur, items = base, []
    for _ in range(length):
        if graph.is_cone(cur) and rng.random() < 0.4:
            items.append((cur, rng.randrange(graph.group_at(cur).order)))
        else:
            d = rng.choice(graph.edges_at(cur))
            items.append(d)
            cur = graph.dst(d)
    return items + list(graph.geodesic(cur, base))


def random_graph(rng):
    n = rng.randint(1, 4)
    W = FreeProduct([FiniteGroup.cyclic(rng.randint(2, 4)) for _ in range(n)])
    if n >= 2 and rng.random() < 0.5:
        return hedgehog(W, apex=rng.randrange(n))
    return thistle(W)


# ---- fixtures over the standard models ---------------------------------------


def w3():
    return FreeProduct([FiniteGroup.cyclic(2) for _ in range(3)],
                       names=["a", "b", "c"])


@pytest.fixture(scope="module")
def h3():
    return hedgehog(w3())


@pytest.fixture(scope="module")
def t3():
    return thistle(w3())


# ---- frozen examples ----------------------------------------------------------


def test_hat_square_tightens_to_a_point(h3):
    p = parse_path(h3, "X^ X^")
    assert p.is_trivial
    assert p.start == p.end == h3.src(1)


def test_blocked_hat_square_is_already_tight(h3):
    p = parse_path(h3, "X^ .b X^")
    assert not p.is_trivial
    assert len(p.items) == 7
    assert p.items == (1, (0, 1), -1, (1, 1), 1, (0, 1), -1)


def test_plain_backtrack_cancels(t3):
    assert parse_path(t3, "B ~B").is_trivial
    assert tighten(t3, 0, [-2, 2]).is_trivial


def test_concat_partial_cancellation(t3):
    # the images of b under the two sample maps on the thistle; gluing the
    # second to the inverse of the first cancels through the cone letter at
    # b and stops, leaving ten edges
    p1 = parse_path(t3, "B ~C^ ~B^")
    p2 = parse_path(t3, "B ~A^ ~C^ ~A^ ~B^")
    q = p2 * ~p1
    assert q.n_edges == 10
    assert q == parse_path(t3, "B ~A^ ~C^ ~A^ ~C^ ~B")


def test_concat_requires_matching_endpoints(t3):
    p1 = parse_path(t3, "B ~C^ ~B^")
    p2 = parse_path(t3, "B ~A^ ~C^ ~A^ ~B^")
    with pytest.raises(EndpointMismatch):
        p1.concat(p2)


def test_inverse_of_apex_hat_is_itself_over_order_two(h3):
    p = parse_path(h3, "X^")
    assert ~p == p


def test_inverse_letter_really_inverts():
    W = FreeProduct([FiniteGroup.cyclic(3), FiniteGroup.cyclic(2)],
                    names=["a", "b"])
    g = hedgehog(W)
    p = parse_path(g, "X^")
    assert p.items[1] == (0, 1)
    assert (~p).items[1] == (0, 2)


def test_turns_of_apex_hat(h3):
    p = parse_path(h3, "X^")
    assert p.turns() == (Turn(first=-1, letter=1, second=-1, base=0),)
    assert not p.turns()[0].degenerate


def test_turn_degeneracy_rule():
    assert Turn(3, 0, 3, 0).degenerate
    assert Turn(3, None, 3, 5).degenerate
    assert not Turn(3, 1, 3, 0).degenerate
    assert not Turn(3, 0, -3, 0).degenerate
    assert not Turn(3, None, 2, 5).degenerate


def test_single_edge_has_no_turns(t3):
    assert parse_path(t3, "B").turns() == ()


def test_letters_at_vertices_are_rejected(t3):
    with pytest.raises(NotAWalk):
        tighten(t3, 0, [(0, 1)])
    with pytest.raises(NotAWalk):
        tighten(t3, 0, [2])
    with pytest.raises(NotAWalk):
        tighten(t3, 1, [1, (1, 1)])


@pytest.mark.parametrize("item", ["ab", (0,), 1.0, None, (1, 0, 0), True,
                                  (1.0, 1), (1, None)])
def test_malformed_items_are_not_walks(t3, item):
    """An edge item is exactly an int and a letter a pair of ints; edge 1
    starts at cell 1, so ``True`` would pass for it if bools were edges."""
    with pytest.raises(NotAWalk):
        tighten(t3, 1, [item])
    with pytest.raises(NotAWalk):
        tighten_circuit(t3, [item])


def test_boundary_trivial_letters_are_stripped(t3):
    p = tighten(t3, 1, [(1, 0), 1, -1, (1, 0)])
    assert p.is_trivial
    q = tighten(t3, 1, [(1, 1)])
    assert q.items == ((1, 1),)


def test_path_text_round_trip(t3, h3):
    for graph, text in [
        (t3, "B ~A^ ~C^ ~A^ ~B^"),
        (t3, "~B .b B"),
        (h3, "X .a ~Y .c Y .a ~X .b X"),
        (h3, "X^ .b X^"),
    ]:
        p = parse_path(graph, text)
        assert parse_path(graph, format_path(p), p.start) == p


def test_format_suppresses_trivial_letters(h3):
    p = tighten(h3, 1, [1, (0, 0), -2])
    assert p.items == (1, (0, 0), -2)
    assert format_path(p) == "X ~Y"
    assert parse_path(h3, "X ~Y") == p


# ---- property suites ----------------------------------------------------------


def test_tighten_matches_random_order_oracle():
    rng = random.Random(20260816)
    for trial in range(400):
        graph = random_graph(rng)
        start, items = random_raw_walk(rng, graph, rng.randint(0, 24))
        got = tighten(graph, start, items)
        for _ in range(3):
            assert oracle_tighten(rng, graph, start, items) == got.items
        assert tighten(graph, start, got.items).items == got.items


def test_concat_is_associative_on_loops():
    rng = random.Random(99)
    for trial in range(200):
        graph = random_graph(rng)
        base = rng.randrange(graph.n_cells)
        loops = []
        for _ in range(3):
            w = graph.W.random_word(rng, rng.randint(0, 4))
            loops.append(loop_of_word(graph, base, w))
        p, q, r = loops
        assert (p * q) * r == p * (q * r)


def test_inverse_is_involutive_and_kills_products():
    rng = random.Random(4242)
    for trial in range(200):
        graph = random_graph(rng)
        start, items = random_raw_walk(rng, graph, rng.randint(0, 20))
        p = tighten(graph, start, items)
        assert ~~p == p
        assert (p * ~p).is_trivial
        assert not any(t.degenerate for t in p.turns())


def test_word_reading_of_realized_loops():
    rng = random.Random(8)
    for trial in range(300):
        graph = random_graph(rng)
        base = rng.randrange(graph.n_cells)
        w = graph.W.random_word(rng, rng.randint(0, 5))
        assert loop_of_word(graph, base, w).word() == w


def test_closed_thistle_paths_biject_with_short_words(t3):
    W = t3.W
    words = [()]
    for length in range(1, 4):
        grown = []
        for w in words:
            if len(w) != length - 1:
                continue
            for i in range(3):
                if w and w[-1][0] == i:
                    continue
                grown.append(w + ((i, 1),))
        words.extend(grown)
    seen = {}
    for w in words:
        p = loop_of_word(t3, 0, W.nf(w))
        assert p.word() == W.nf(w)
        assert p not in seen
        seen[p] = w


# ---- circuits -----------------------------------------------------------------


def test_cyclic_backtrack_is_trivial(t3):
    assert tighten_circuit(t3, [3, -3]).is_trivial
    assert tighten_circuit(t3, []).is_trivial


def test_circuit_canonical_rotation(h3):
    a = tighten_circuit(h3, [1, (0, 1), -1, (1, 1)])
    b = tighten_circuit(h3, [-1, (1, 1), 1, (0, 1)])
    assert a == b
    assert a.n_edges == 2


def test_conjugate_loops_give_equal_circuits():
    rng = random.Random(606)
    for trial in range(150):
        graph = random_graph(rng)
        base = rng.randrange(graph.n_cells)
        w = graph.W.random_word(rng, rng.randint(1, 4))
        u = graph.W.random_word(rng, rng.randint(0, 3))
        p = loop_of_word(graph, base, w)
        q = loop_of_word(graph, base, u)
        direct = tighten_circuit(graph, p.items)
        conj = tighten_circuit(graph, (~q * p * q).items)
        assert direct == conj
        if not direct.is_trivial:
            assert direct.word_class() == graph.W.conjugacy_normal_form(w)


def test_wrap_cancels_at_vertex_and_cone(t3):
    # B-loop^-1 . A-loop . B-loop at the center: -2/2 cancel at the vertex,
    # then 2 .b(trivial after merging) -2 across the cone of b
    items = [-2, (2, 1), 2, -1, (1, 1), 1, -2, (2, 1), 2]
    c = tighten_circuit(t3, items)
    assert c.items == ((1, 1),)
    assert c == tighten_circuit(t3, [-1, (1, 1), 1])


def test_circuit_matches_retightening_oracle():
    rng = random.Random(1980)
    for trial in range(400):
        graph = random_graph(rng)
        base = rng.randrange(graph.n_cells)
        kind = trial % 3
        if kind == 0:
            items = random_closed_walk(rng, graph, base, rng.randint(0, 24))
        elif kind == 1:
            # u . v . u^-1, cut anywhere: cancels across the wrap
            u = tighten(graph, base, random_closed_walk(
                rng, graph, base, rng.randint(1, 10)))
            v = random_closed_walk(rng, graph, base, rng.randint(0, 10))
            items = list(u.items) + v + list((~u).items)
            k = rng.randrange(len(items) + 1)
            items = items[k:] + items[:k]
        else:
            w = graph.W.random_word(rng, rng.randint(1, 4))
            items = list(loop_of_word(graph, base, w).items) * rng.randint(1, 5)
        if not any(type(it) is int for it in items):
            continue
        got = tighten_circuit(graph, items)
        assert got.items == oracle_circuit(rng, graph, items)


def test_circuit_is_the_same_from_every_edge():
    rng = random.Random(1981)
    for trial in range(150):
        graph = random_graph(rng)
        base = rng.randrange(graph.n_cells)
        items = random_closed_walk(rng, graph, base, rng.randint(1, 20))
        c = tighten_circuit(graph, items)
        for k, it in enumerate(items):
            if type(it) is int:
                assert tighten_circuit(graph, items[k:] + items[:k]) == c


def test_circuit_of_a_long_loop_power():
    W = FreeProduct([FiniteGroup.cyclic(2), FiniteGroup.cyclic(3),
                     FiniteGroup.symmetric(3), FiniteGroup.cyclic(2)])
    graph = thistle(W)
    w = ((0, 1), (1, 2), (2, 3), (3, 1))
    p = loop_of_word(graph, 0, w)
    q = loop_of_word(graph, 0, ((2, 1), (1, 1)))
    items = list((~q).items) + list(p.items) * 20 + list(q.items)
    c = tighten_circuit(graph, items)
    assert c.items == tighten_circuit(graph, p.items).items * 20
    assert c.word_class() == W.conjugacy_normal_form(W.power(w, 20))


def test_circuit_turns_include_the_wrap(h3):
    c = tighten_circuit(h3, [1, (0, 1), -1, (1, 1)])
    turns = c.turns()
    assert len(turns) == c.n_edges
    assert all(not t.degenerate for t in turns)


def test_letter_only_circuit(h3):
    c = tighten_circuit(h3, [(0, 1)])
    assert not c.is_trivial
    assert c.n_edges == 0
    assert c.word_class() == ((0, 1),)
    assert tighten_circuit(h3, [(0, 1), (0, 1)]).is_trivial


# ---- parsing errors -----------------------------------------------------------


def test_parse_rejects_garbage(t3, h3):
    with pytest.raises(BadPath):
        parse_path(t3, ".b")
    with pytest.raises(BadPath):
        parse_path(t3, "B^")
    with pytest.raises(BadPath):
        parse_path(h3, "X^oops")
    p = parse_path(t3, "1", start=0)
    assert p.is_trivial and p.start == 0
