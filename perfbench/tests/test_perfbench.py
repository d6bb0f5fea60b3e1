"""Tests of the benchmark itself: corpus, oracle, checker and tracer.

    python3 -m pytest perfbench/tests
"""

from time import perf_counter

import pytest

import corpus
import oracle
import run
import workloads
from orbitrain import pf, traintrack
from orbitrain.groups import Automorphism
from tracer import Tracer


def test_corpus_is_deterministic():
    first = corpus.corpus()
    second = corpus.corpus()
    assert [c[2] for c in first] == [c[2] for c in second]
    assert [c[3] for c in first] == [c[3] for c in second]
    assert len(first) == 60 and len({c[0] for c in first}) == 60
    W = corpus.free_product(4)
    assert corpus.corpus_images(W, 6, 3) == corpus.corpus_images(W, 6, 3)
    assert corpus.corpus_images(W, 6, 3) != corpus.corpus_images(W, 6, 4)


def test_seed_orders_the_same_cases():
    a, _ = workloads.prepare("invert", 1)
    b, _ = workloads.prepare("invert", 1)
    c, _ = workloads.prepare("invert", 2)
    assert [x.id for x in a] == [x.id for x in b]
    assert [x.id for x in a] != [x.id for x in c]
    assert sorted(x.id for x in a) == sorted(x.id for x in c)


def test_workload_sizes_match_the_expected_file():
    expected = workloads.load_expected()
    for name, size in (("descent", 63), ("growth", 60), ("invert", 50)):
        ids = [c.id for c in workloads.cases(name)]
        assert len(ids) == size
        assert sorted(ids) == sorted(expected[name])


def _w3_example():
    W = corpus.free_product(3)
    phi = Automorphism.from_gen_images(
        W, [W.parse_word(t) for t in ("a b a", "c", "c a c")])
    return W, phi


def test_oracle_accepts_the_twisted_witness():
    W, phi = _w3_example()
    psi = Automorphism.inner(W, W.parse_word("a b c a b a")).compose(phi)
    w = oracle.outer_conjugator(phi, psi)
    assert w is not None
    assert Automorphism.inner(W, w).compose(phi) == psi


def test_oracle_rejects_a_different_outer_class():
    W, phi = _w3_example()
    # a -> b a b fixing b and c is a partial conjugation, not inner
    partial = Automorphism.from_gen_images(
        W, [W.parse_word(t) for t in ("b a b", "b", "c")])
    assert oracle.outer_conjugator(phi, partial.compose(phi)) is None
    assert oracle.outer_conjugator(phi, Automorphism.identity(W)) is None


def _case(workload, case_id):
    return next(c for c in workloads.cases(workload) if c.id == case_id)


def test_judge_flags_a_doctored_record():
    case = _case("descent", "alpha_w3")
    result = workloads.run("descent", case)
    good = workloads.load_expected()["descent"]["alpha_w3"]
    assert workloads.judge("descent", case, result, good)[0] == workloads.SAME
    assert workloads.verify("descent", case, result) is None
    for doctored in ({**good, "kind": "Reducible"},
                     {**good, "lambda": ["5", "6"]}):
        verdict, _ = workloads.judge("descent", case, result, doctored)
        assert verdict == workloads.CHANGED


def test_judge_lets_a_recorded_failure_improve():
    case = _case("invert", "W3-s0")
    result = workloads.run("invert", case)
    verdict, _ = workloads.judge("invert", case, result,
                                 {"error": "NotInvertible"})
    assert verdict == workloads.IMPROVED


def test_run_fails_on_a_doctored_expected_file(monkeypatch, capsys):
    subset = [c for c in workloads.cases("growth")
              if c.id in ("W3-s1", "W3-s2", "W4-s2")]
    expected = workloads.load_expected()["growth"]
    doctored = {**expected, "W4-s2": {**expected["W4-s2"], "class": "a b"}}
    monkeypatch.setattr(run, "setup_times",
                        lambda workload, seed: [(1.0, 1.0)])
    monkeypatch.setattr(workloads, "prepare",
                        lambda workload, seed: (subset, doctored))
    code = run.main(["--workload", "growth", "--seed", "0",
                     "--seconds", "1"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 1
    assert '"correct": false' in last


def test_traced_self_times_sum_to_the_traced_wall():
    tracer = Tracer()
    cases = [("descent", _case("descent", "W4-s1")),
             ("growth", _case("growth", "W3-s2")),
             ("invert", _case("invert", "W4-s0"))]
    tracer.install([workloads])
    try:
        wall = 0.0
        for workload, case in cases:
            tracer.begin_case()
            start = perf_counter()
            workloads.run(workload, case)
            wall += perf_counter() - start
            tracer.end_case()
        assert traintrack.pf_data is not pf.pf_data
    finally:
        tracer.uninstall()
    assert traintrack.pf_data is pf.pf_data
    summary = tracer.summary()
    total = sum(summary["layer_self"].values())
    assert total == pytest.approx(summary["wall"], rel=1e-9)
    # the root spans open just outside each case's own timer
    assert 0 <= summary["wall"] - wall <= 1e-3 * wall + 1e-4 * len(cases)
    assert summary["layer_spans"]["pf"] > 0
    assert tracer.spans_from("traintrack", "moves.fold") > 0
    assert summary["items"]["paths.tighten_circuit"] > 0


def test_untraced_calls_are_not_counted():
    tracer = Tracer()
    tracer.install([workloads])
    try:
        workloads.run("invert", _case("invert", "W3-s0"))
    finally:
        tracer.uninstall()
    assert tracer.summary()["calls"] == {}
    assert len(tracer.t0) == 0
