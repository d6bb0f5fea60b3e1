"""The three workloads: the cases, what one case runs, and its checks.

- ``descent``: ``train_track_algorithm(thistle_rep(phi), cap=100)`` on the
  60 corpus automorphisms and the three fixtures.  This is the library's
  purpose, and certified PF arithmetic dominates it.
- ``growth``: iterate ``thistle_rep(phi).apply_circuit`` on the circuit of
  a seeded four-syllable word until it has at least 200 edges or has
  taken 12 steps.  PF arithmetic is never called; tightening circuits
  (with its canonical-rotation step) dominates.
- ``invert``: ``Automorphism.inverse()`` on the W3-W5 corpus.  Word
  arithmetic in ``groups`` does nearly all of the work.

``run`` is the timed part of a case.  ``record`` turns its result into the
form kept in ``expected.json``, ``judge`` compares a result with the
recorded one, and ``verify`` checks an answer with an oracle.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from orbitrain.groups import Automorphism
from orbitrain.paths import loop_of_word, tighten_circuit
from orbitrain.pf import pf_data
from orbitrain.toprep import thistle_rep
from orbitrain.traintrack import train_track_algorithm

import corpus
import oracle

WORKLOADS = ("descent", "growth", "invert")
EXPECTED = Path(__file__).resolve().parent / "expected.json"

# Every solved corpus case folds at most 43 times.  The three inputs that
# cycle with period 3 would spend about a minute each on the library's
# default cap of 10 000 passes; at 100 they cost under half a second.
DESCENT_CAP = 100
GROWTH_EDGES = 200
GROWTH_STEPS = 12
INVERT_MAX_N = 5  # single W6 and W8 inversions take from 5 s to 37 s

# Outcomes of a judged case.
SAME = "same"          # the recorded answer or the recorded failure
IMPROVED = "improved"  # a recorded failure now gives a verified answer
REFAILED = "refailed"  # a recorded failure now fails differently
CHANGED = "changed"    # a wrong answer: fails the run


class Case:
    __slots__ = ("id", "W", "images", "word")

    def __init__(self, case_id, W, images, word=None):
        self.id = case_id
        self.W = W
        self.images = images
        self.word = word

    def automorphism(self):
        return Automorphism.from_gen_images(self.W, self.images)


def cases(workload):
    """The workload's cases in corpus order."""
    if workload == "descent":
        return ([Case(i, W, imgs) for i, W, imgs, _ in corpus.corpus()]
                + [Case(i, W, imgs) for i, W, imgs in corpus.fixtures()])
    if workload == "growth":
        return [Case(*c) for c in corpus.corpus()]
    if workload == "invert":
        return [Case(i, W, imgs)
                for i, W, imgs, _ in corpus.corpus(max_n=INVERT_MAX_N)]
    raise ValueError(f"unknown workload {workload!r}")


def load_expected():
    with open(EXPECTED) as fh:
        return json.load(fh)


def prepare(workload, seed):
    """Set-up of one run: the cases in the seed's order and the expected
    outcomes."""
    todo = cases(workload)
    random.Random(seed).shuffle(todo)
    return todo, load_expected()[workload]


# -- the timed part -----------------------------------------------------------


def run(workload, case):
    phi = case.automorphism()
    if workload == "descent":
        return train_track_algorithm(thistle_rep(phi), cap=DESCENT_CAP)
    if workload == "growth":
        f = thistle_rep(phi)
        c = tighten_circuit(f.graph, loop_of_word(f.graph, 0, case.word).items)
        steps = 0
        while c.n_edges < GROWTH_EDGES and steps < GROWTH_STEPS:
            c = f.apply_circuit(c)
            steps += 1
        return steps, c.n_edges, c.word_class()
    return phi.inverse()


# -- records and checks ---------------------------------------------------------


def _bracket(outcome):
    kind = type(outcome).__name__
    if kind == "FiniteOrder":
        return ["1", "1"]
    if kind == "TrainTrack":
        data = pf_data(outcome.rep.transition_matrix().entries)
        return [str(data.lower), str(data.upper)]
    return None


def record(workload, case, result):
    """The expected-file form of a result (an exception or an answer)."""
    if isinstance(result, Exception):
        return {"error": type(result).__name__}
    if workload == "descent":
        return {"kind": type(result).__name__,
                "edges": result.rep.graph.n_edges,
                "lambda": _bracket(result)}
    if workload == "growth":
        steps, edges, cls = result
        return {"steps": steps, "edges": edges,
                "class": case.W.format_word(cls)}
    return {"result": "inverse"}


def verify(workload, case, result):
    """The oracle's complaint about an answer, or None when it holds."""
    phi = case.automorphism()
    if workload == "descent":
        induced = result.rep.induced_automorphism()
        if oracle.outer_conjugator(induced, phi) is None:
            return "the result does not induce the input's outer class"
        return None
    if workload == "growth":
        steps, _, cls = result
        word = case.word
        for _ in range(steps):
            word = phi.apply(word)
        if cls != case.W.conjugacy_normal_form(word):
            return "the circuit's class is not the class of phi^k(w)"
        return None
    if not (result.compose(phi).is_identity()
            and phi.compose(result).is_identity()):
        return "the inverse does not compose to the identity"
    return None


def _disjoint(a, b):
    return (Fraction(a[1]) < Fraction(b[0])) or (Fraction(b[1]) < Fraction(a[0]))


def judge(workload, case, result, expected):
    """(outcome, message) for one result against its expected record.
    An answer must also pass ``verify``, which the caller runs."""
    got = record(workload, case, result)
    if "error" in got:
        if "error" not in expected:
            return CHANGED, f"now raises {got['error']}"
        if got["error"] != expected["error"]:
            return REFAILED, f"{expected['error']} became {got['error']}"
        return SAME, ""
    if "error" in expected:
        return IMPROVED, f"{expected['error']} became a verified answer"
    if workload == "descent":
        if got["kind"] != expected["kind"]:
            return CHANGED, f"{expected['kind']} became {got['kind']}"
        if (got["lambda"] and expected["lambda"]
                and _disjoint(got["lambda"], expected["lambda"])):
            return CHANGED, "the growth rate moved out of its bracket"
        return SAME, ""
    if workload == "growth":
        for key in ("class", "steps", "edges"):
            if got[key] != expected[key]:
                return CHANGED, f"{key} {expected[key]} became {got[key]}"
    return SAME, ""
