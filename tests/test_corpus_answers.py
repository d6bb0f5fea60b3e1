"""The benchmark's descent answers as a tier-1 guard.

Each of the 63 ``descent`` cases (the seeded W3-W8 corpus and the three
fixtures) runs once through the benchmark's own ``run``, ``judge`` and
``verify``.  A case whose answer differs from the recorded one, or whose
answer the oracle rejects, fails the test; a recorded failure that now
fails differently or gives a verified answer does not.  The same cases
check the descent's event stream by replaying it, and the forest
search's shortcut for irreducible matrices against its greedy loop.
"""

import sys
from pathlib import Path

import pytest

from orbitrain import moves, traintrack
from orbitrain.errors import NothingToFold, OrbitrainError
from orbitrain.moves import (collapse_forest, fold, valence_one_homotopy,
                             valence_two_homotopy)
from orbitrain.pf import is_irreducible, pf_compare, pf_data
from orbitrain.toprep import thistle_rep
from orbitrain.traintrack import _rep_key, record_events

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


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


MOVES = {"collapse_forest": collapse_forest, "fold": fold,
         "valence_one": valence_one_homotopy,
         "valence_two": valence_two_homotopy}


def test_the_event_stream_replays_every_descent():
    """Replaying a case's events move by move from its thistle
    representative rebuilds each pass: its graph size and exact bracket,
    a rate that ``pf_compare`` finds not above the previous pass's, and
    the answer's representative.  A case that raises ``NothingToFold``
    ends with the turn it could not fold, and that fold fails again."""
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
            data = pf_data(f.transition_matrix().entries)
            assert args == [len(rates), f.graph.n_cells, f.graph.n_edges,
                            data.lower, data.upper], case.id
            assert not rates or pf_compare(data, rates[-1]) <= 0, case.id
            rates.append(data)
        if isinstance(result, NothingToFold):
            with pytest.raises(NothingToFold):
                fold(f, turn)
        elif not isinstance(result, Exception):
            assert _rep_key(f) == _rep_key(result.rep), case.id


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
    for case in workloads.cases("descent"):
        try:
            workloads.run("descent", case)
        except OrbitrainError:  # a failing case is a recorded outcome
            pass
    assert all(forest == grown for _, forest, grown in searches)
    shortcuts = [irreducible for irreducible, _, _ in searches]
    assert any(shortcuts) and not all(shortcuts)
