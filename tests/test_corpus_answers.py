"""The benchmark's descent and growth answers as a tier-1 guard.

Each of the 63 ``descent`` cases (the seeded W3-W8 corpus and the three
fixtures) runs once through the benchmark's own ``run``, ``judge`` and
``verify``.  A case whose answer differs from the recorded one, or whose
answer the oracle rejects, fails the test; a recorded failure that now
fails differently or gives a verified answer does not.  The 60 ``growth``
cases run the same way, and every circuit they map is checked against
its canonical rotation.  The descent cases
check the descent's event stream by replaying it and against a pinned
digest, every lead read in place against its image path, the edge bound on
every pass, the forest search's shortcut for irreducible matrices
against its greedy loop, and that no transition matrix is split into
strongly connected components twice.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from orbitrain import moves, pf, toprep, traintrack
from orbitrain.errors import NothingToFold, OrbitrainError
from orbitrain.moves import (collapse_forest, fold, valence_one_homotopy,
                             valence_two_homotopy)
from orbitrain.orbigraph import VERTEX
from orbitrain.paths import tighten, tighten_circuit
from orbitrain.pf import is_irreducible, pf_compare, pf_data, scc_components
from orbitrain.toprep import thistle_rep
from orbitrain.traintrack import PASS_TOL, _rep_key, record_events

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from test_census import census_case, outcome  # noqa: E402


def test_descent_answers_match_the_recorded_corpus():
    expected = workloads.load_expected()["descent"]
    cases = workloads.cases("descent")
    assert len(cases) == 63
    wrong = []
    for case in cases:
        try:
            result = workloads.run("descent", case)
        except Exception as exc:  # a failing case is a recorded outcome
            result = exc
        verdict, note = workloads.judge("descent", case, result,
                                        expected[case.id])
        if verdict == workloads.CHANGED:
            wrong.append(f"{case.id}: {note}")
        elif not isinstance(result, Exception):
            complaint = workloads.verify("descent", case, result)
            if complaint:
                wrong.append(f"{case.id}: {complaint}")
    assert not wrong, wrong


def test_growth_answers_match_the_recorded_corpus(monkeypatch):
    """The 60 ``growth`` cases give their recorded answers, which the
    oracle accepts.  A circuit keeps the rotation its wrap left and
    computes its canonical one on first comparison, so at every step the
    circuit mapped and the one returned must each have the canonical
    rotation of its loop re-tightened, and mapping the canonical items
    must give the circuit that mapping the loop gives."""
    real = toprep.TopRep.apply_circuit
    bad, steps = [], []

    def spy(f, c):
        out = real(f, c)
        for d in (c, out):
            if d.items != tighten_circuit(f.graph, d.loop).items:
                bad.append(("rotation", d))
        if tighten_circuit(f.graph, f._splice(c.items)) != out:
            bad.append(("image", c))
        steps.append(c)
        return out

    monkeypatch.setattr(toprep.TopRep, "apply_circuit", spy)
    expected = workloads.load_expected()["growth"]
    cases = workloads.cases("growth")
    assert len(cases) == 60
    wrong = []
    for case in cases:
        result = workloads.run("growth", case)
        verdict, note = workloads.judge("growth", case, result,
                                        expected[case.id])
        complaint = workloads.verify("growth", case, result)
        if verdict != workloads.SAME or complaint:
            wrong.append(f"{case.id}: {note or complaint}")
    assert not wrong, wrong
    assert len(steps) == 287 and not bad, bad[:3]


MOVES = {"collapse_forest": collapse_forest, "fold": fold,
         "valence_one": valence_one_homotopy,
         "valence_two": valence_two_homotopy}


def test_the_event_stream_replays_every_descent():
    """Replaying a case's events move by move from its thistle
    representative rebuilds each pass: its graph size, a rate that
    ``pf_compare`` finds not above the previous pass's, its exact bracket
    as the descent certified it (of width ``PASS_TOL``, or narrowed by
    that comparison), and the answer's representative.  A case that
    raises ``NothingToFold`` ends with the turn it could not fold, and
    that fold fails again."""
    for case in workloads.cases("descent"):
        with record_events() as events:
            try:
                result = workloads.run("descent", case)
            except Exception as exc:  # a failing case is a recorded outcome
                result = exc
        f, rates = thistle_rep(case.automorphism()), []
        if isinstance(result, NothingToFold):
            *events, (name, turn) = events
            assert name == "fold", case.id
        for name, *args in events:
            if name != "pass":
                f = MOVES[name](f, *args)
                continue
            data = pf_data(f.transition_matrix(), PASS_TOL)
            assert not rates or pf_compare(data, rates[-1]) <= 0, case.id
            assert args == [len(rates), f.graph.n_cells, f.graph.n_edges,
                            data.lower, data.upper], case.id
            rates.append(data)
        if isinstance(result, NothingToFold):
            with pytest.raises(NothingToFold):
                fold(f, turn)
        elif not isinstance(result, Exception):
            assert _rep_key(f) == _rep_key(result.rep), case.id


def test_every_descent_pass_fits_the_edge_bound():
    """Every pass of the 63 cases holds a normalised tree on n factors,
    whose leaves are cone points and whose plain vertices have valence at
    least three, so its ``("pass", ...)`` event counts m <= 2n - 3 edges:
    the bound behind the descent's termination argument."""
    passes = 0
    for case in workloads.cases("descent"):
        with record_events() as events:
            try:
                workloads.run("descent", case)
            except OrbitrainError:
                pass
        for name, *args in events:
            if name == "pass":
                passes += 1
                assert args[2] <= 2 * case.W.n - 3, (case.id, args)
    assert passes > 300


def greedy_forest(f):
    """The forest grown greedily in edge order: each edge brings the
    closure of the edges its iterated images cross, and joins when the
    union stays a forest."""
    graph = f.graph
    crossed = {e: f.edge_images[e].crossings() for e in graph.edges()}
    chosen = set()
    for e in graph.edges():
        closure, queue = {e}, [e]
        while queue:
            for c in crossed[queue.pop()]:
                if c not in closure:
                    closure.add(c)
                    queue.append(c)
        if graph.is_forest(chosen | closure):
            chosen |= closure
    return frozenset(chosen)


def test_the_forest_shortcut_agrees_with_the_greedy_loop(monkeypatch):
    """On every forest search ``normalize`` makes over the 63 cases, the
    empty forest returned for an irreducible transition matrix is the
    forest the greedy loop grows."""
    searches = []

    def spy(f):
        forest = moves.maximal_invariant_forest(f)
        searches.append((is_irreducible(f.transition_matrix().entries),
                         forest, greedy_forest(f)))
        return forest

    monkeypatch.setattr(traintrack, "maximal_invariant_forest", spy)
    run_descent_cases()
    assert all(forest == grown for _, forest, grown in searches)
    shortcuts = [irreducible for irreducible, _, _ in searches]
    assert any(shortcuts) and not all(shortcuts)


def test_each_transition_matrix_is_split_once(monkeypatch):
    """Over the 63 cases every strongly connected split is of a matrix
    that a representative built, and none of those matrices is split
    twice: the filtration, the forest search's shortcut, the valence-two
    choice and ``pf_data``'s guard all read the split the matrix keeps."""
    built, splits = {}, []

    def matrix(entries):
        M = pf.TransitionMatrix(entries)
        built[id(entries)] = M
        return M

    def split(entries):
        splits.append(entries)
        return scc_components(entries)

    monkeypatch.setattr(toprep, "TransitionMatrix", matrix)
    monkeypatch.setattr(pf, "scc_components", split)
    run_descent_cases()
    split_ids = [id(entries) for entries in splits]
    assert splits and len(set(split_ids)) == len(split_ids)
    assert set(split_ids) <= set(built)


def run_descent_cases():
    """Run the 63 cases, a failing case being a recorded outcome."""
    for case in workloads.cases("descent"):
        try:
            workloads.run("descent", case)
        except OrbitrainError:
            pass


def lead_of_image(f, d):
    """The junction letter and first edge of ``f.image(d)``, read off the
    whole image path as the lead table was before it read in place."""
    p = f.image(d)
    letter = 0 if f.graph.is_cone(p.start) else None
    for item in p.items:
        if type(item) is int:
            return letter, item
        letter = item[1]
    return letter, None


def test_every_lead_is_the_lead_of_the_image(monkeypatch):
    """On every representative the 63 cases build, each direction's lead,
    read in place from the edge images, is the lead of its image path.
    Every letter of Z2 is its own inverse, so the census's first ten
    Z3, S3 and Z4 cases on three factors run too, for letters that a
    reversed lead must invert."""
    real, reps = toprep.TopRep._validate, []

    def spy(f):
        real(f)
        reps.append(f)

    monkeypatch.setattr(toprep.TopRep, "_validate", spy)
    run_descent_cases()
    for kind in ("Z3", "S3", "Z4"):
        for seed in range(10):
            outcome(census_case(kind, 3, 4, seed))
    wrong = [(f, d) for f in reps for e in f.graph.edges() for d in (e, -e)
             if f._lead(d) != lead_of_image(f, d)]
    assert len(reps) > 400 and not wrong, wrong[:3]


# The sha256 of the repr of every descent case's id and event stream, in
# corpus order, as recorded before turns and cone maps became named tuples.
DESCENT_EVENTS_SHA256 = (
    "6dfd0ab70078639a4766610ce938e61a18a8cbaafdcbdd450ccc23cd171ef394")


def test_the_event_stream_is_the_pinned_one():
    """The 63 cases fold, collapse and certify exactly as recorded: their
    event streams, printed, hash to the pinned digest."""
    digest = hashlib.sha256()
    for case in workloads.cases("descent"):
        with record_events() as events:
            try:
                workloads.run("descent", case)
            except OrbitrainError:
                pass
        digest.update(repr((case.id, events)).encode())
    assert digest.hexdigest() == DESCENT_EVENTS_SHA256


def test_every_descent_fold_intertwines_the_maps(monkeypatch):
    """On every fold the 63 cases make, the fold's transport tr carries
    the old map to the folded one: for the one-edge path p of every edge
    of the input f, out(tr(p)) and tr(f(p)) are the same tight path."""
    checks = []

    def spy(f, turn):
        out, tr = moves._quotient(f, **moves._fold_plan(f, turn))
        for e in f.graph.edges():
            p = tighten(f.graph, f.graph.src(e), (e,))
            checks.append(out.apply(tr.path(p)) == tr.path(f.apply(p)))
        return out

    monkeypatch.setattr(traintrack, "fold", spy)
    run_descent_cases()
    assert len(checks) > 1000 and all(checks)


def test_every_descent_fold_plan_merges_one_pair_of_cells(monkeypatch):
    """Every fold plan the 63 cases make is the five keywords of
    ``_quotient``, its classes partition the cut graph's cells, and
    exactly one class merges anything: two distinct cells, at most one
    of them a cone point."""
    plans = []

    def spy(f, turn):
        plan = moves._fold_plan(f, turn)
        kinds = moves._cut_graph(f.graph, plan["cuts"])[0]
        merged = [cls for cls in plan["classes"] if len(cls) > 1]
        cells = sorted(c for cls in plan["classes"] for c in cls)
        plans.append((tuple(sorted(plan)), cells == list(range(len(kinds))),
                      tuple(len(set(cls)) for cls in merged),
                      sum(kinds[c] != VERTEX for c in merged[0])))
        return moves._quotient(f, **plan)[0]

    monkeypatch.setattr(traintrack, "fold", spy)
    run_descent_cases()
    keys = tuple(sorted(["classes", "reach", "dead", "cuts", "letter_first"]))
    assert len(plans) > 250
    assert set(plans) == {(keys, True, (2,), 0), (keys, True, (2,), 1)}


def test_each_descent_fold_builds_one_graph_and_one_representative(
        monkeypatch):
    """Counting the ``Orbigraph`` and ``TopRep`` constructions that
    ``moves`` makes, every fold of the 63 cases that returns builds
    exactly one of each, and every fold that raises builds neither."""
    built = dict.fromkeys(("Orbigraph", "TopRep"), 0)

    def counted(name):
        real = getattr(moves, name)

        def construct(*args):
            built[name] += 1
            return real(*args)
        return construct

    for name in built:
        monkeypatch.setattr(moves, name, counted(name))
    per_fold = []

    def spy(f, turn):
        before = dict(built)
        try:
            return fold(f, turn)
        finally:
            per_fold.append(tuple(built[n] - before[n] for n in built))

    monkeypatch.setattr(traintrack, "fold", spy)
    with record_events() as events:
        run_descent_cases()
    folds = [args[0] for name, *args in events if name == "fold"]
    assert len(per_fold) == len(folds) > 0
    assert set(per_fold) <= {(1, 1), (0, 0)} and (1, 1) in per_fold
