"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the library is imported from ``src/``.
The seed orders the fixed corpus.  The run repeats whole passes over the
workload until ``--seconds`` have gone by (at least one pass), checks
every answer against ``expected.json`` and, after the passes, checks the
answers of the first pass with the oracles.  It prints its metrics by
name with units.  The last line is one JSON object: the end-to-end
metrics with ``--trace 0``, and with ``--trace 1`` the per-layer metrics,
taken from traced passes that alternate with untraced ones.  A wrong
answer makes the exit code 1.

Timings are host-normalised.  The speed of a shared host drifts by tens
of percent within a minute, and that drift moves every timing of a run
together.  So a fixed reference loop is timed before every case and after
the last one, and each case's time is scaled by ``REFERENCE_S`` over the
mean of the reference times just before and just after it: a timing
reads as it would on a host where the loop takes exactly ``REFERENCE_S``.
The raw figures are printed as well.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 5
REFERENCE_S = 0.001
REFERENCE_LOOPS = 12_000  # about REFERENCE_S on an idle 3 GHz core


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("descent", "growth", "invert"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def reference_time():
    """Time a fixed interpreter loop that allocates no containers, so that
    it triggers no garbage collection of the library's objects."""
    start = perf_counter()
    x = 0
    for i in range(REFERENCE_LOOPS):
        x = (x * 31 + i) & 0xFFFF
    return perf_counter() - start


def host_scale(before, after):
    """The factor that turns a time measured between two reference times
    into the time on a host where the loop takes ``REFERENCE_S``."""
    return 2 * REFERENCE_S / (before + after)


def setup_times(workload, seed):
    """(raw, normalised) time from starting a fresh process to the end of
    its set-up for this run, one pair per probe."""
    out = []
    for _ in range(SETUP_PROBES):
        before = reference_time()
        start = perf_counter()
        probe = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                                workload, str(seed)], check=True,
                               timeout=120, capture_output=True, text=True)
        raw = float(probe.stdout.split()[-1]) - start
        out.append((raw, raw * host_scale(before, reference_time())))
    return out


class Pass:
    """One pass over the workload: per-case times, the reference times
    taken between the cases, and the judged outcomes."""

    def __init__(self):
        self.times = []
        self.refs = []
        self.solved = 0
        self.errors = {}    # exception class -> failing case ids
        self.verdicts = {}  # judged outcome -> count
        self.notes = []

    @property
    def wall(self):
        return sum(self.times)

    @property
    def scaled_times(self):
        return [t * host_scale(a, b)
                for t, a, b in zip(self.times, self.refs, self.refs[1:])]

    @property
    def scale(self):
        """Host-normalised over raw wall time of the pass."""
        return sum(self.scaled_times) / self.wall

    @property
    def failed(self):
        return sum(len(ids) for ids in self.errors.values())


def run_pass(workloads, workload, todo, expected, tracer=None, keep=None):
    """Run every case once; append (case, answer) to ``keep`` if given."""
    p = Pass()
    for case in todo:
        p.refs.append(reference_time())
        if tracer:
            tracer.begin_case()
        start = perf_counter()
        try:
            result = workloads.run(workload, case)
        except Exception as exc:  # a failing case is a measured outcome
            result = exc
        p.times.append(perf_counter() - start)
        if tracer:
            tracer.end_case()
        try:
            verdict, note = workloads.judge(workload, case, result,
                                            expected[case.id])
        except Exception as exc:  # an answer that cannot be read is wrong
            verdict, note = workloads.CHANGED, f"checking raised {exc!r}"
        p.verdicts[verdict] = p.verdicts.get(verdict, 0) + 1
        if isinstance(result, Exception):
            p.errors.setdefault(type(result).__name__, []).append(case.id)
        elif verdict != workloads.CHANGED:
            p.solved += 1
            if keep is not None:
                keep.append((case, result))
        if note:
            p.notes.append(f"{case.id}: {verdict}: {note}")
    p.refs.append(reference_time())
    return p


def percentile(values, q):
    """The q-th percentile, interpolating between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timings(plain, setups, normalised):
    """solved_per_s, case_ms.p50, case_ms.p80 and setup_s, raw or
    host-normalised."""
    per_pass = [p.scaled_times if normalised else p.times for p in plain]
    times_ms = [t * 1000 for times in per_pass for t in times]
    return {
        "solved_per_s": (statistics.median(
            p.solved / sum(times) for p, times in zip(plain, per_pass)),
            "cases/s"),
        "case_ms.p50": (percentile(times_ms, 50), "ms"),
        "case_ms.p80": (percentile(times_ms, 80), "ms"),
        "setup_s": (statistics.median(scaled if normalised else raw
                                      for raw, scaled in setups), "s"),
    }


def per_layer(plain, traced, misses):
    """Per-layer metrics from the traced passes: self times are medians
    over the passes, counts come from the last pass (they repeat)."""
    last, passes = traced[-1][1], traced[-1][2]

    def med(f):
        return statistics.median(f(p, s) for p, s, _ in traced)

    def calls(*names):
        return sum(last["calls"].get(n, 0) for n in names)

    out = {}
    for layer in ("groups", "orbigraph", "paths", "toprep", "moves", "pf",
                  "traintrack"):
        out[f"{layer}.self_s"] = (
            med(lambda p, s: s["layer_self"][layer] * p.scale), "s")
    for layer in ("groups", "orbigraph", "toprep"):
        out[f"{layer}.calls"] = (last["layer_spans"][layer], "count")
    out["paths.tighten_calls"] = (calls("paths.tighten"), "count")
    out["paths.tighten_items"] = (last["items"]["paths.tighten"], "count")
    out["paths.circuit_calls"] = (calls("paths.tighten_circuit"), "count")
    out["paths.circuit_items"] = (last["items"]["paths.tighten_circuit"],
                                  "count")
    out["moves.fold_calls"] = (calls("moves.fold"), "count")
    out["moves.collapse_calls"] = (calls("moves.collapse_forest"), "count")
    out["moves.valence_calls"] = (calls("moves.valence_one_homotopy",
                                        "moves.valence_two_homotopy"),
                                  "count")
    out["pf.share"] = (med(lambda p, s: s["layer_self"]["pf"] / s["wall"]),
                       "fraction")
    out["pf.data_calls"] = (calls("pf.pf_data"), "count")
    out["pf.compare_calls"] = (calls("pf.pf_compare"), "count")
    out["traintrack.passes"] = (passes, "count")
    out["trace.overhead"] = (
        med(lambda p, s: sum(p.scaled_times))
        / statistics.median(sum(p.scaled_times) for p in plain), "ratio")
    out["groups.outer_equal_misses"] = (misses, "count")
    return out


def print_metrics(metrics, width):
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}} {value:12.6g} {unit}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "orbitrain" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer

    setups = setup_times(args.workload, args.seed)
    todo, expected = workloads.prepare(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    plain, traced, answers = [], [], []
    start = perf_counter()
    while not plain or perf_counter() - start < args.seconds:
        plain.append(run_pass(workloads, args.workload, todo, expected,
                              keep=None if plain else answers))
        if tracer:
            tracer.install([workloads])
            try:
                p = run_pass(workloads, args.workload, todo, expected, tracer)
            finally:
                tracer.uninstall()
            traced.append((p, tracer.summary(),
                           tracer.spans_from("traintrack", "moves.fold")))

    # The oracles run after the passes, so that their memory is not taken
    # for the program's peak.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runs = plain + [p for p, _, _ in traced]
    attempted = sum(len(p.times) for p in runs)
    failed = sum(p.failed for p in runs)
    changed = sum(p.verdicts.get(workloads.CHANGED, 0) for p in runs)
    first = plain[0]
    for case, answer in answers:
        try:
            complaint = workloads.verify(args.workload, case, answer)
        except Exception as exc:  # an oracle that cannot run rejects
            complaint = f"the oracle raised {exc!r}"
        if complaint:
            changed += 1
            first.solved -= 1
            first.notes.append(f"{case.id}: {workloads.CHANGED}: {complaint}")

    metrics = timings(plain, setups, normalised=True)
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    metrics["solved_ratio"] = (sum(p.solved for p in plain)
                               / sum(len(p.times) for p in plain),
                               "solved/attempted")
    print(f"workload {args.workload}: {len(todo)} cases, seed {args.seed}, "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    print_metrics(metrics, 14)
    print("  raw, not host-normalised:")
    print_metrics(timings(plain, setups, normalised=False), 14)
    print("  pass walls (s, raw): "
          + " ".join(f"{p.wall:.3f}" for p in plain)
          + "; host scale: " + " ".join(f"{p.scale:.3f}" for p in plain))
    samples = len(plain) * len(todo)
    print(f"  case_ms over {samples} samples, "
          f"{samples - int(0.8 * samples)} above p80")
    print(f"  fail_ratio     {first.failed}/{len(todo)} = "
          f"{first.failed / len(todo):.4f} failed/attempted")
    for cls, ids in sorted(first.errors.items()):
        print(f"  failed {cls} x{len(ids)}: {' '.join(sorted(ids))}")
    print("  answers: " + ", ".join(f"{v} {k}" for k, v in
                                    sorted(first.verdicts.items())))
    for note in sorted(set(n for p in runs for n in p.notes)):
        print(f"  {note}")

    if traced:
        import corpus
        import oracle
        misses, oracle_misses = oracle.outer_equal_misses(corpus.outer_pairs())
        if oracle_misses:
            print(f"  the outer-class oracle missed {oracle_misses} pairs")
            changed += oracle_misses
        metrics = per_layer(plain, traced, misses)
        print_metrics(metrics, 26)
        if args.workload == "descent":
            recorded = sum(e.get("passes", 0) for e in expected.values())
            print(f"  expected.json records {recorded} passes")
        last = traced[-1][1]
        print(f"  traced wall {last['wall']:.4f} s, self times sum to "
              f"{sum(last['layer_self'].values()):.4f} s (raw)")
        top = sorted(last["name_self"].items(), key=lambda kv: -kv[1])[:15]
        for name, self_s in top:
            print(f"    {name:<44} {self_s:9.4f} s "
                  f"{last['calls'].get(name, 0):9d} calls")

    print(json.dumps({
        "correct": changed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if changed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
