"""The descent over every factor kind, kept as a ratchet.

Three seeded sets of automorphisms run through
``train_track_algorithm(thistle_rep(phi))``:

- the census: the benchmark corpus recipe on W3 with L = 3..6, W4 with
  L = 5..7 and W5 with L = 7..9, seeds 100-124 each (250 cases);
- the factor-kind census: the same recipe with every factor Z3, S3 or Z4,
  on (n, L) in (3, 4), (3, 6), (4, 6), (5, 8), seeds 0-39 (480 cases);
- 400 mixed-factor products: seed s draws 3-5 factors from S3, Z2, Z3
  and Z4 and a product of 4-12 partial conjugations, factor automorphisms
  and swaps of isomorphic factors.

A fourth set, the sweep past five factors, runs the same recipe on six
to eight factors (160 cases, pinned in ``sweep_expected.json``) under the
same rule and the same answer and witness checks; its event streams are
not pinned.

Every answer must induce the input's outer class, every ``Reducible``
witness must be an invariant subgraph with a component holding two or
more cone points whose partition of the factors the input's Kurosh
permutation maps onto itself, and every case's outcome kind or error
class must be the one pinned in ``census_expected.json``, and the
cases' descent event streams must hash to the pinned digest.  A pinned
error is not an accepted answer: when a change turns one into a
verified answer, the table is updated; an answer that turns into an
error fails here.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from orbitrain.errors import OrbitrainError
from orbitrain.groups import Automorphism, FiniteGroup, FreeProduct, is_iso
from orbitrain.toprep import thistle_rep
from orbitrain.traintrack import (Reducible, record_events,
                                  train_track_algorithm)

EXPECTED = Path(__file__).with_name("census_expected.json")

KINDS = {"S3": FiniteGroup.symmetric(3), "Z2": FiniteGroup.cyclic(2),
         "Z3": FiniteGroup.cyclic(3), "Z4": FiniteGroup.cyclic(4)}
# every automorphism of each factor kind, as element mappings
KIND_AUTOMORPHISMS = {
    group: [m for m in itertools.permutations(group.elements())
            if is_iso(group, group, m)]
    for group in KINDS.values()}


def rotation(W):
    """Every element of factor k to the same element of factor k + 1."""
    return Automorphism.from_element_images(
        W, [{e: (((k + 1) % W.n, e),) for e in W.factors[k].nontrivial()}
            for k in range(W.n)])


def partial_conjugation(W, i, j, x):
    """Each element e of factor i to (j, x)^-1 (i, e) (j, x)."""
    maps = [{e: ((k, e),) for e in W.factors[k].nontrivial()}
            for k in range(W.n)]
    maps[i] = {e: W.conj(((i, e),), ((j, x),))
               for e in W.factors[i].nontrivial()}
    return Automorphism.from_element_images(W, maps)


def census_case(kind, n, L, seed):
    """The corpus recipe on n copies of ``kind``; for Z2 it is the
    benchmark's corpus recipe, seeded by the integer seed."""
    group = KINDS[kind]
    W = FreeProduct([group] * n)
    rng = random.Random(seed if kind == "Z2" else f"{kind}-{n}-{L}-{seed}")
    phi = rotation(W)
    for _ in range(L):
        i, j = rng.sample(range(n), 2)
        x = 1 if kind == "Z2" else rng.randrange(1, group.order)
        phi = partial_conjugation(W, i, j, x).compose(phi)
    return phi


def mixed_case(seed):
    """A product of 4-12 moves on 3-5 factors drawn from S3, Z2, Z3, Z4:
    partial conjugations, drawn twice as often as each other move, factor
    automorphisms and swaps of isomorphic factors."""
    rng = random.Random(seed)
    kinds = [rng.choice(sorted(KINDS)) for _ in range(rng.randint(3, 5))]
    W = FreeProduct([KINDS[k] for k in kinds])
    phi = Automorphism.identity(W)
    for _ in range(rng.randint(4, 12)):
        maps = [{e: ((i, e),) for e in f.nontrivial()}
                for i, f in enumerate(W.factors)]
        move = rng.choice(["conjugate", "conjugate", "factor", "swap"])
        if move == "conjugate":
            j = rng.randrange(W.n)
            x = rng.randrange(1, W.factors[j].order)
            others = [k for k in range(W.n) if k != j]
            for k in rng.sample(others, rng.randint(1, len(others))):
                maps[k] = {e: W.conj(((k, e),), ((j, x),))
                           for e in W.factors[k].nontrivial()}
        elif move == "factor":
            i = rng.randrange(W.n)
            m = rng.choice(KIND_AUTOMORPHISMS[W.factors[i]])
            maps[i] = {e: ((i, m[e]),) for e in W.factors[i].nontrivial()}
        else:
            i, k = rng.sample(range(W.n), 2)
            if W.factors[i] == W.factors[k]:
                maps[i], maps[k] = (
                    {e: ((k, e),) for e in W.factors[i].nontrivial()},
                    {e: ((i, e),) for e in W.factors[k].nontrivial()})
        phi = Automorphism.from_element_images(W, maps).compose(phi)
    return "".join(kinds), phi


def cases():
    """(case id, automorphism) for all 1 130 cases, in table order."""
    out = []
    for n, lengths in ((3, (3, 4, 5, 6)), (4, (5, 6, 7)), (5, (7, 8, 9))):
        for L in lengths:
            for seed in range(100, 125):
                out.append((f"W{n} L{L} s{seed}",
                            census_case("Z2", n, L, seed)))
    for kind in ("Z3", "S3", "Z4"):
        for n, L in ((3, 4), (3, 6), (4, 6), (5, 8)):
            for seed in range(40):
                out.append((f"{kind} n{n} L{L} s{seed}",
                            census_case(kind, n, L, seed)))
    for seed in range(400):
        kinds, phi = mixed_case(seed)
        out.append((f"mixed {kinds} s{seed}", phi))
    return out


# The sweep past five factors: (kind, n, L, seeds).
SWEEP = (("Z2", 6, 10, range(1000, 1040)), ("Z2", 7, 12, range(1000, 1040)),
         ("Z2", 8, 14, range(1000, 1030)), ("Z3", 6, 10, range(1000, 1030)),
         ("S3", 6, 10, range(1000, 1020)))
SWEEP_EXPECTED = Path(__file__).with_name("sweep_expected.json")


def sweep_cases():
    """(case id, automorphism) for the 160 sweep cases, in table order."""
    return [(f"{kind} n{n} L{L} s{seed}", census_case(kind, n, L, seed))
            for kind, n, L, seeds in SWEEP for seed in seeds]


def outcome(phi):
    """The descent's result, or the library error it raises."""
    try:
        return train_track_algorithm(thistle_rep(phi))
    except OrbitrainError as exc:
        return exc


def witness_roots(graph, witness):
    """Each cell's representative in the components of the subgraph of
    the ``witness`` edges; a cell that no witness edge touches is its own
    component."""
    parent = {c: c for c in graph.cells()}

    def root(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for e in witness:
        a, b = graph.ends[e - 1]
        parent[root(a)] = root(b)
    return {c: root(c) for c in graph.cells()}


def invariance_complaint(result):
    """Why a ``Reducible`` witness is not an invariant subgraph with a
    component of two or more cone points, or None."""
    f, witness = result.rep, result.witness
    g = f.graph
    if not all(f.edge_images[e].crossings().keys() <= witness
               for e in witness):
        return "a witness edge's image leaves the witness"
    roots = witness_roots(g, witness)
    cones = [roots[c] for c in g.cone_cells()]
    if all(cones.count(r) < 2 for r in cones):
        return "no witness component holds two cone points"
    return None


def kurosh_complaint(phi, result):
    """Why the Kurosh permutation of ``phi`` does not map the partition
    of the factors by witness components onto itself, or None.  This
    reads only ``phi.kurosh().pi`` and the witness, not the map, so it
    checks the descent from outside: an invariant subgraph carries an
    invariant free factor system, whose factors the permutation can only
    shuffle among themselves (possibly swapping whole components)."""
    g = result.rep.graph
    roots = witness_roots(g, result.witness)
    blocks = {}
    for i in range(g.W.n):
        blocks.setdefault(roots[g.cone_cell(i)], set()).add(i)
    blocks = {frozenset(block) for block in blocks.values()}
    pi = phi.kurosh().pi
    for block in blocks:
        if frozenset(pi[i] for i in block) not in blocks:
            return f"the permutation sends factors {sorted(block)} to no block"
    return None


@pytest.fixture(scope="module")
def runs():
    """Each case's id, input, outcome and descent event stream."""
    out = []
    for case_id, phi in cases():
        with record_events() as events:
            result = outcome(phi)
        out.append((case_id, phi, result, events))
    return out


@pytest.fixture(scope="module")
def results(runs):
    return [run[:3] for run in runs]


@pytest.fixture(scope="module")
def sweep_results():
    """Each sweep case's id, input and outcome."""
    return [(case_id, phi, outcome(phi)) for case_id, phi in sweep_cases()]


# The sha256 of the repr of every case's id and event stream, in table
# order, as recorded before turns and cone maps became named tuples.
EVENTS_SHA256 = (
    "2b520dd4232c12af56494e568e7fd5f0ebce41d35eb914d4e4305b6e028c28db")


def test_every_event_stream_is_the_pinned_one(runs):
    digest = hashlib.sha256()
    for case_id, _, _, events in runs:
        digest.update(repr((case_id, events)).encode())
    assert digest.hexdigest() == EVENTS_SHA256


def test_every_outcome_is_the_pinned_one(results):
    expected = json.loads(EXPECTED.read_text())
    got = {case_id: type(result).__name__ for case_id, _, result in results}
    assert len(got) == len(results) == len(expected) == 1130
    assert got == expected


def outer_misses(results):
    """The ids of the answers that do not induce their input's class."""
    return [case_id for case_id, phi, result in results
            if not isinstance(result, Exception)
            and not result.rep.induced_automorphism().outer_equal(phi)]


def test_every_answer_induces_the_outer_class(results):
    wrong = outer_misses(results)
    assert not wrong, wrong


def test_every_reducible_witness_is_invariant(results):
    reducible = [(case_id, invariance_complaint(result))
                 for case_id, _, result in results
                 if isinstance(result, Reducible)]
    assert reducible
    wrong = [(case_id, why) for case_id, why in reducible if why]
    assert not wrong, wrong


def test_every_reducible_witness_respects_the_kurosh_permutation(results):
    reducible = [(case_id, kurosh_complaint(phi, result))
                 for case_id, phi, result in results
                 if isinstance(result, Reducible)]
    assert reducible
    wrong = [(case_id, why) for case_id, why in reducible if why]
    assert not wrong, wrong


def test_every_sweep_outcome_is_the_pinned_one(sweep_results):
    """The sweep's table: 132 ``TrainTrack``, 16 ``LemmaViolated`` and 12
    ``NothingToFold``, under the census rule."""
    expected = json.loads(SWEEP_EXPECTED.read_text())
    got = {case_id: type(result).__name__
           for case_id, _, result in sweep_results}
    assert len(got) == len(sweep_results) == len(expected) == 160
    assert got == expected


def test_every_sweep_answer_induces_the_outer_class(sweep_results):
    wrong = outer_misses(sweep_results)
    assert not wrong, wrong


def test_every_sweep_reducible_witness_holds(sweep_results):
    """Both witness checks of the census, on the sweep's ``Reducible``
    answers.  The pinned table holds none yet, so this guards a change
    that makes one."""
    wrong = [(case_id, why) for case_id, phi, result in sweep_results
             if isinstance(result, Reducible)
             for why in (invariance_complaint(result),
                         kurosh_complaint(phi, result)) if why]
    assert not wrong, wrong
