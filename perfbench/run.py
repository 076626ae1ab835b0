"""Seeded benchmark of the carrays engine: four closed-loop workloads.

Run one workload in this process::

    python3 perfbench/run.py --workload straighten-deep --seed 0 --seconds 30 --trace 0

or every workload, each in a fresh process of its own::

    python3 perfbench/run.py --workload all --seed 0 --seconds 30

One caller runs the operations of a pass one after another; a pass is
the fixed, seeded work of the workload.  A warm-up pass comes first,
then passes repeat while another one fits in ``--seconds`` (counting
the warm-up).  Set-up (a fresh import of ``carrays`` plus building the
seeded inputs) is timed on its own, several times; the reference data
the checks need is derived after it, untimed.  The warm-up pass's
outputs are checked and digested; every later pass must reproduce them
exactly.  ``wall_s`` is the median wall of the passes after the
warm-up, and ``op_p50_ms``/``op_p90_ms`` are quantiles over the
operations of each one's median latency across those passes.  These
times and the set-up times are in reference seconds: a speed probe
samples the machine on a timer throughout the run, and each interval,
less the probe's own time, is scaled to a machine of fixed speed by
the samples around it (see ``speed.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
warm-up pass, then passes in which every operation runs untraced and
traced back to back, and prints the per-layer metrics, from spans kept
in memory around each call into a layer and written to
``perfbench/out/`` at the end.  The last line of standard output is
one JSON object; the exit code is 0 only when every output checked.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import layers
from spans import Tracer
from speed import REFERENCE_S, SpeedProbe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("straighten-deep", "certify", "enumerate-series", "identities")
# set-ups before the first pass; one more precedes every later pass
SETUP_REPEATS = 5
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
STRAIGHTEN_DEGREES = (8, 10, 12)
# per-layer figures besides <layer function>.calls/.s/.failed
EXTRA_LAYER_METRICS = {
    "straighten.straighten.terms_out": "count",
    "straighten.straighten.max_den": "count",
    **{f"straighten.straighten.s.deg{d}": "s" for d in STRAIGHTEN_DEGREES},
    "oracle.phi.monomials": "count",
    "carray.enumerate_normal.out": "count",
    "carray.enumerate_normal.base": "count",
    "carray.enumerate_normal.yield_ratio": "ratio",
    "grassmann.eval_array.nonzero_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}


class Raised:
    """Output of an operation that raised; always a failure."""

    def __init__(self):
        self.text = traceback.format_exc()


def per_layer_metric_units() -> dict:
    units = {}
    for name in layers.SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.failed": "count"})
    units.update(EXTRA_LAYER_METRICS)
    return units


def set_up(name: str, seed: int, probe):
    """Import carrays afresh and build the workload's inputs; returns the
    marks (see speed.py) at both ends and the workload."""
    for module in list(sys.modules):
        if module in ("workloads", "carrays") or module.startswith("carrays."):
            del sys.modules[module]
    begin = probe.mark()
    workloads = importlib.import_module("workloads")
    workload = workloads.build(name, seed)
    return (begin, probe.mark()), workload


def run_op(op, lib):
    """One operation's latency and output."""
    began = perf_counter()
    try:
        out = op.run(lib)
    except Exception:
        out = Raised()
    return perf_counter() - began, out


def run_pass(ops, lib, probe):
    """Run every operation once, in order; returns the marks (see
    speed.py) at both ends of the pass and of each operation, and the
    outputs."""
    start, intervals, outputs = probe.mark(), [], []
    for op in ops:
        begin = probe.mark()
        outputs.append(run_op(op, lib)[1])
        intervals.append((begin, probe.mark()))
    return (start, probe.mark()), intervals, outputs


def run_paired_pass(ops, plain, traced, tracer, flip: int):
    """Run every operation untraced and traced back to back, so that a
    slow spell of the machine falls on both sides.  The untraced run
    goes first for every other operation, and the choice flips from one
    pass to the next, because the first of two runs can be the slower
    (it may have to grow the heap) and one operation can outweigh all
    the others.  Returns the latencies and outputs of both sides,
    untraced first."""
    sides = {False: ([], []), True: ([], [])}
    for index, op in enumerate(ops):
        for side in ((False, True) if (index + flip) % 2 == 0 else (True, False)):
            if side:
                tracer.begin_op(index, op.tag)
            latency, out = run_op(op, traced if side else plain)
            if side:
                tracer.end_op(isinstance(out, Raised))
            sides[side][0].append(latency)
            sides[side][1].append(out)
    return sides[False], sides[True]


def check_outputs(ops, outputs, reference=None):
    """Failed operations as ``(index, reason)``, and the canonical text
    of each output.  Without a reference each output goes through its
    operation's check; with one it must reproduce the reference text."""
    failures, texts = [], []
    for index, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, Raised):
            failures.append((index, out.text))
            texts.append("!raised")
            continue
        try:
            text = op.canon(out)
            ok = op.check(out) if reference is None else text == reference[index]
        except Exception:
            failures.append((index, traceback.format_exc()))
            texts.append("!check raised")
            continue
        if not ok:
            failures.append((index, "output failed its check" if reference is None
                             else "output differs from the first pass"))
        texts.append(text)
    return failures, texts


def digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def _count_straighten(counts, args, result):
    counts["straighten.straighten.terms_out"] += len(result)
    den = max((c.denominator for c in result.values()), default=1)
    counts["straighten.straighten.max_den"] = max(counts["straighten.straighten.max_den"], den)


def _count_phi(counts, args, result):
    counts["oracle.phi.monomials"] += len(result.terms)


def _count_enumerate(counts, args, result):
    counts["carray.enumerate_normal.out"] += len(result)
    counts.setdefault("contents", []).append(tuple(args[0]))


TAGS = {"straighten.straighten": lambda args: f"deg{2 * len(args[0])}"}
COUNTERS = {
    "straighten.straighten": _count_straighten,
    "oracle.phi": _count_phi,
    "carray.enumerate_normal": _count_enumerate,
}


def layer_metrics(tracer, traced_passes, overhead, stats) -> dict:
    from carrays.carray import enumerate_carrays

    units = per_layer_metric_units()
    totals = tracer.totals()
    counts = tracer.counts
    values = {name: totals.get(name, 0.0) / traced_passes for name in units}
    for name in ("straighten.straighten.terms_out", "oracle.phi.monomials",
                 "carray.enumerate_normal.out"):
        values[name] = counts[name] / traced_passes
    values["straighten.straighten.max_den"] = counts["straighten.straighten.max_den"]
    # the base of the yield: every c-array of the same contents, which
    # the enumerator builds before filtering; counted untimed
    sizes: dict = {}
    for content in counts.get("contents", []):
        if content not in sizes:
            sizes[content] = len(enumerate_carrays(content))
    base = sum(sizes[content] for content in counts.get("contents", [])) / traced_passes
    values["carray.enumerate_normal.base"] = base
    values["carray.enumerate_normal.yield_ratio"] = (
        values["carray.enumerate_normal.out"] / base if base else 0.0
    )
    ratio = "grassmann.eval_array.nonzero_ratio"
    values[ratio] = stats.get(ratio, 0.0)
    values["trace.overhead_frac"] = overhead
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    # the untraced run times everything in reference seconds (see
    # speed.py); the traced run compares traced and untraced calls of
    # one pass directly and leaves the probe off
    probe = SpeedProbe()
    if not trace:
        probe.start()
    began = perf_counter()
    setups = []
    for _ in range(SETUP_REPEATS):
        interval, workload = set_up(name, seed, probe)
        setups.append(interval)
    workload.prepare()
    ops = workload.ops
    plain = layers.bind()
    tracer = Tracer(TAGS, COUNTERS) if trace else None
    traced_lib = layers.bind(tracer.wrap) if trace else None

    # the first pass is untraced, warms up and gives the reference
    # outputs; it is left out of the timings
    _, _, outputs = run_pass(ops, plain, probe)
    failures, reference = check_outputs(ops, outputs)
    stats = workload.stats(outputs)
    del outputs
    walls, per_pass, lengths = [], [], []
    attempted, timed = len(ops), perf_counter() - began
    # total latency of each side of the paired passes, untraced first
    paired, traced_passes = [0.0, 0.0], 0
    # a pass starts only if one of its usual length still fits in
    # ``seconds``; one always runs after the warm-up
    while not lengths or timed + statistics.median(lengths) <= seconds:
        # spread the set-ups over the run, as the passes are; the inputs
        # built here are discarded, the passes keep those built first
        setups.append(set_up(name, seed, probe)[0])
        began = perf_counter()
        if trace:
            sides = run_paired_pass(ops, plain, traced_lib, tracer, traced_passes)
            traced_passes += 1
            for side, (latencies, _) in enumerate(sides):
                paired[side] += sum(latencies)
        else:
            wall, intervals, outputs = run_pass(ops, plain, probe)
            # a sample now closes every interval of the pass, so the
            # latencies are kept as numbers, not as marks: the memory the
            # marks hold would grow with the number of passes
            probe.sample()
            walls.append(wall)
            per_pass.append([probe.reference(*interval) for interval in intervals])
            sides = [(intervals, outputs)]
        lengths.append(perf_counter() - began)
        timed += lengths[-1]
        for _, outputs in sides:
            attempted += len(ops)
            failures += check_outputs(ops, outputs, reference)[0]
        del sides, outputs

    for index, reason in failures[:5]:
        print(f"FAILED {name} op {index} ({ops[index].tag}): {reason}", file=sys.stderr)
    correct = not failures
    print(f"workload {name} seed {seed}: a warm-up pass, {len(walls)} untraced and "
          f"{traced_passes} paired passes of {len(ops)} operations")
    print(f"  failed_frac  {len(failures) / attempted:.6f}   ({len(failures)} of {attempted})")
    print(f"digest {name} seed {seed} sha256 {digest(reference)}")
    if trace:
        overhead = paired[1] / paired[0] - 1
        print(f"  trace overhead {overhead:+.4f} ({paired[1]:.3f} s traced against "
              f"{paired[0]:.3f} s untraced, operation by operation)")
        metrics = layer_metrics(tracer, traced_passes, overhead, stats)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(path)
        print(f"spans written to {path.relative_to(HERE.parent)}")
    else:
        probe.stop()
        ref = probe.reference
        # each operation's median latency over the passes
        ms = sorted(1000 * statistics.median(op) for op in zip(*per_pass))
        deciles = statistics.quantiles(ms, n=10)
        summary = {
            "setup_s": statistics.median(ref(*interval) for interval in setups),
            "wall_s": statistics.median(ref(*interval) for interval in walls),
            "op_p50_ms": statistics.median(ms),
            "op_p90_ms": deciles[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        probe_ms = 1000 * statistics.median(probe.times)
        print(f"  speed probe  {probe_ms:.4f} ms, median of {len(probe.times)} samples "
              f"(1 s measured = {REFERENCE_S * 1000 / probe_ms:.4f} reference s)")
        print(f"  setup_s      {summary['setup_s']:.4f} s   (median of {len(setups)} set-ups, "
              f"{statistics.median(probe.measured(*i) for i in setups):.4f} s measured)")
        print(f"  wall_s       {summary['wall_s']:.4f} s   (median of {len(walls)} passes, "
              f"{statistics.median(probe.measured(*i) for i in walls):.4f} s measured)")
        print(f"  op_p50_ms    {summary['op_p50_ms']:.4f} ms  ({len(ms)} operations, "
              f"each the median of {len(per_pass)} passes)")
        print(f"  op_p90_ms    {summary['op_p90_ms']:.4f} ms  ({len(ms)} operations, "
              f"{sum(1 for x in ms if x > deciles[8])} beyond)")
        print(f"  peak_rss_mb  {summary['peak_rss_mb']:.1f} MB")
        metrics = {key: {"value": summary[key], "unit": unit} for key, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "carrays" / "__init__.py").is_file():
        print(f"carrays sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
