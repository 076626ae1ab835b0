"""Planted faults: each corrupts one output of one layer and the
benchmark's own checks must count that operation as failed.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from carrays.series import SymPoly  # noqa: E402
from speed import SpeedProbe  # noqa: E402


def prepared_ops(name, keep):
    workload = workloads.build(name, 0)
    workload.prepare()
    return [op for op in workload.ops if keep(op.tag)]


def failed_ops(name, keep, function, corrupt):
    """Run the kept operations of one pass with ``function`` corrupted
    once by ``corrupt(args, output)`` (None leaves an output alone)."""
    ops = prepared_ops(name, keep)
    lib = layers.bind()
    clean = getattr(lib, function)
    planted = []

    def faulty(*args, **kwargs):
        out = clean(*args, **kwargs)
        if not planted:
            bad = corrupt(args, kwargs, out)
            if bad is not None:
                planted.append(bad)
                return bad
        return out

    setattr(lib, function, faulty)
    _, _, outputs = run.run_pass(ops, lib, SpeedProbe())
    failures, _ = run.check_outputs(ops, outputs)
    assert planted, "the fault never found an output to corrupt"
    return len(ops), failures


def flip_first_coefficient(args, kwargs, lincomb):
    if not lincomb:
        return None
    out = dict(lincomb)
    first = next(iter(out))
    out[first] = -out[first]
    return out


def drop_last_array(args, kwargs, arrays):
    return arrays[:-1] if arrays else None


def bump_a_coefficient(args, kwargs, series):
    expo = max(series.terms)
    terms = dict(series.terms)
    terms[expo] += 1
    return SymPoly(series.nvars, terms, maxdeg=series.maxdeg)


def c2_vanishes(args, kwargs, vanished):
    return True if args[0] == "c2" else None


@pytest.mark.parametrize(
    "name, keep, function, corrupt",
    [
        ("straighten-deep", lambda tag: tag == "deg8", "straighten", flip_first_coefficient),
        ("certify", lambda tag: tag.startswith("m"), "straighten", flip_first_coefficient),
        ("enumerate-series", lambda tag: tag.startswith("enum") and tag != "enum-14-0",
         "enumerate_normal", drop_last_array),
        ("enumerate-series", lambda tag: tag in ("hilbert6", "gamma", "krs"), "carini_drensky",
         bump_a_coefficient),
        ("identities", lambda tag: tag == "c2", "verify_weak_identity", c2_vanishes),
        ("identities", lambda tag: tag == "matrix4", "straighten", flip_first_coefficient),
    ],
    ids=["flipped-coefficient", "flipped-coefficient-certified", "dropped-normal-array",
         "wrong-hilbert-coefficient", "c2-vanishes", "flipped-coefficient-matrix-model"],
)
def test_planted_fault_is_counted(name, keep, function, corrupt):
    attempted, failures = failed_ops(name, keep, function, corrupt)
    assert attempted > 1
    assert len(failures) == 1, failures


def test_an_operation_that_raises_is_a_failure_and_the_pass_goes_on():
    ops = prepared_ops("straighten-deep", lambda tag: tag == "deg8")
    lib = layers.bind()
    clean, calls = lib.straighten, []

    def straighten(s):
        calls.append(s)
        if len(calls) == 1:
            raise ArithmeticError("planted")
        return clean(s)

    lib.straighten = straighten
    _, _, outputs = run.run_pass(ops, lib, SpeedProbe())
    failures, _ = run.check_outputs(ops, outputs)
    assert len(calls) == len(ops) > 1
    assert len(failures) == 1 and "planted" in failures[0][1]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_pass_runs_at_least_100_operations(name):
    assert len(prepared_ops(name, lambda tag: True)) >= 100


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_metric_units()


def test_soundness_sizes_count_the_6a_set():
    from collections import Counter
    from itertools import product

    assert workloads.SOUNDNESS_SIZES == tuple(
        sum(1 for word in product(range(1, 7), repeat=2 * m)
            if max(Counter(word).values(), default=0) <= 2)
        for m in range(len(workloads.SOUNDNESS_SIZES))
    )


def test_same_seed_same_inputs():
    for name in run.WORKLOADS:
        first, second = workloads.build(name, 3).ops, workloads.build(name, 3).ops
        assert [getattr(op.run, "args", None) for op in first] == [
            getattr(op.run, "args", None) for op in second
        ]


def test_relabelled_generators_commute_with_the_matrix_model():
    import random

    from carrays.grassmann import eval_array, random_w

    rng = random.Random(1)
    s = workloads.increasing_bottom(3)
    generators = list(range(1, workloads.MATRIX_GENS + 1))
    rng.shuffle(generators)
    perm = dict(zip(range(1, workloads.MATRIX_GENS + 1), generators))
    assignment = {v: random_w(workloads.MATRIX_GENS, rng) for v in range(1, 7)}
    moved = {v: workloads.relabel_generators(w, perm) for v, w in assignment.items()}
    value = eval_array(s, assignment)
    assert value and eval_array(s, moved) == workloads.relabel_generators(value, perm)


def test_speed_probe_samples_inside_a_long_interval_and_excludes_itself():
    from time import perf_counter

    from speed import EVERY_S

    probe = SpeedProbe()
    probe.start()
    try:
        begin = probe.mark()
        until = perf_counter() + 4 * EVERY_S
        while perf_counter() < until:
            pass
        end = probe.mark()
    finally:
        probe.stop()
    inside = probe.times[begin[0]:end[0]]
    elapsed = end[2] - begin[2]
    assert len(inside) >= 2
    # the samples' time, bookkeeping included, is taken out of the interval
    assert elapsed / 2 < probe.measured(begin, end) <= elapsed - sum(inside)
    assert probe.reference(begin, end) > 0
