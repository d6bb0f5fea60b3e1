"""Write perfbench/expected.json: one recorded outcome per case.

    python3 perfbench/make_expected.py

Run it only when an answer is meant to change; the benchmark fails a run
whose answers differ from this file.  Descent records also hold the
number of folds the descent issued (``passes``), counted by the tracer
just as the traced run counts ``traintrack.passes``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main():
    tracer = Tracer()
    out = {}
    tracer.install([workloads])
    try:
        for workload in workloads.WORKLOADS:
            table = out[workload] = {}
            for case in workloads.cases(workload):
                tracer.reset()
                tracer.begin_case()
                try:
                    result = workloads.run(workload, case)
                except Exception as exc:  # every failure is recorded by class
                    result = exc
                tracer.end_case()
                entry = workloads.record(workload, case, result)
                if "error" not in entry:
                    complaint = workloads.verify(workload, case, result)
                    if complaint:
                        raise SystemExit(f"{workload} {case.id}: {complaint}")
                if workload == "descent":
                    entry["passes"] = tracer.spans_from("traintrack",
                                                        "moves.fold")
                table[case.id] = entry
    finally:
        tracer.uninstall()
    with open(workloads.EXPECTED, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
