"""The benchmark's descent answers as a tier-1 guard.

Each of the 63 ``descent`` cases (the seeded W3-W8 corpus and the three
fixtures) runs once through the benchmark's own ``run``, ``judge`` and
``verify``.  A case whose answer differs from the recorded one, or whose
answer the oracle rejects, fails the test; a recorded failure that now
fails differently or gives a verified answer does not.
"""

import sys
from pathlib import Path

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
