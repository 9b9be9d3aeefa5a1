"""Tests of the benchmark itself: a tiny run of each workload, and for each
correctness check a planted wrong answer that the check must reject.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
import srcpath  # noqa: E402

srcpath.use_checkout_src()

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

import cityguard.placement as placement  # noqa: E402
import cityguard.verify as verify  # noqa: E402
from cityguard.geom import Point, PolygonSet  # noqa: E402
from cityguard.instances import GeneratorParams, gen_random, gen_random_city  # noqa: E402
from cityguard.model import Solution  # noqa: E402
from cityguard.oracle import candidate_set, optimal_guard_count  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=BENCH.parent):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 7
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(copy / "run.py"), "--workload", "place",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_same_seed_same_inputs():
    a = workloads.verify_docs(5, 1)
    b = workloads.verify_docs(5, 1)
    assert a["docs"] == b["docs"]
    assert sum(not d["full"] for d in a["docs"]) == 3


def test_tail_percentile():
    from run import tail_percentile
    assert tail_percentile(40) == 75
    assert tail_percentile(48) == 79
    assert tail_percentile(12) == 100


# -- planted wrong answers -------------------------------------------------------


def _scene_and_partition(k=5, seed=11):
    city = gen_random_city(GeneratorParams(k=k, seed=seed, grid=100))
    guards = [r.anchor_guard for r in placement.partition_2k1(city.scene)]
    return city, guards


def test_covered_verdict_on_a_set_with_a_guard_removed_is_rejected():
    """The probes are a sample, so a thin residual can slip past them; on
    these planted sets they must still catch nine in ten."""
    planted_sets = rejected = 0
    for seed in (11, 12, 13):
        city, guards = _scene_and_partition(seed=seed)
        for i in range(len(guards)):
            fewer = guards[:i] + guards[i + 1:]
            truth = verify.certify(city.scene, fewer)
            if truth.covered:
                continue
            planted = dataclasses.replace(truth, covered=True, residual=PolygonSet(),
                                          witness=None)
            msg = checks.check_certificate(city, fewer, planted, random.Random(i),
                                           full=False, city_op=False)
            planted_sets += 1
            rejected += msg is not None and "no guard sees" in msg
    assert planted_sets >= 20
    assert rejected >= 0.9 * planted_sets


def test_placement_output_must_be_covered():
    city, guards = _scene_and_partition()
    truth = verify.certify(city.scene, guards)
    assert checks.check_certificate(city, guards, truth, random.Random(0),
                                    full=True, city_op=False) is None
    planted = dataclasses.replace(truth, covered=False)
    assert checks.check_certificate(city, guards, planted, random.Random(0),
                                    full=True, city_op=False) is not None


def test_uncovered_witness_that_a_guard_sees_is_rejected():
    city, guards = _scene_and_partition()
    fewer = guards[1:]
    truth = verify.certify(city.scene, fewer)
    assert not truth.covered
    assert checks.check_uncovered(city.scene, fewer, truth) is None
    # plant a residual around a point just in front of the first guard
    g = fewer[0]
    v = g.position(city.scene)
    fx, fy = g.facing
    seen = next(p for side in (1, -1)
                for p in [Point(v.x + Fraction(fx, 4) - side * Fraction(fy, 8),
                                v.y + Fraction(fy, 4) + side * Fraction(fx, 8))]
                if checks.in_free_space(city.scene, p))
    assert checks.seen_by_any(city.scene, fewer, seen)
    d = Fraction(1, 64)
    cell = (Point(seen.x - d, seen.y - d), Point(seen.x + d, seen.y - d),
            Point(seen.x + d, seen.y + d), Point(seen.x - d, seen.y + d))
    planted = dataclasses.replace(truth, residual=PolygonSet((cell,)), witness=seen)
    msg = checks.check_uncovered(city.scene, fewer, planted)
    assert msg is not None and "seen by a guard" in msg


def test_roof_flags_are_recomputed():
    city, guards = _scene_and_partition()
    truth = verify.certify_city(city, Solution(algorithm="walls-2k1", guards=tuple(guards)))
    assert truth.covered
    flags = list(truth.roof_flags)
    flags[0] = not flags[0]
    planted = dataclasses.replace(truth, roof_flags=tuple(flags))
    assert checks.check_certificate(city, guards, planted, random.Random(0),
                                    full=True, city_op=True) is not None


def test_oracle_count_one_below_the_truth_is_rejected():
    for k in (1, 2):
        scene = gen_random(GeneratorParams(k=k, seed=3, grid=100))
        cands = candidate_set(scene, include_p_corners=True)
        res = optimal_guard_count(scene, cands, 2 * k + 1)
        rng = random.Random(0)
        assert workloads._check_random(scene, rng, (cands, res)) is None
        low = dataclasses.replace(res, count=res.count - 1)
        assert workloads._check_random(scene, rng, (cands, low)) is not None
        short = dataclasses.replace(low, solution=Solution(
            algorithm="oracle", guards=res.solution.guards[1:]))
        assert workloads._check_random(scene, rng, (cands, short)) is not None


def test_rotated_family_minimum_below_four_is_rejected():
    ops = [op for op in workloads.oracle_ops(0, 1) if op.label == "rot3k1-1"]
    out = ops[0].run()
    assert ops[0].check(out) is None
    cands, res = out
    low = dataclasses.replace(res, count=3, solution=Solution(
        algorithm="oracle", guards=res.solution.guards[:3]))
    assert ops[0].check((cands, low)) is not None


def test_roof_minimum_below_k_is_rejected():
    op = next(op for op in workloads.oracle_ops(0, 3) if op.label == "roof-3")
    assert op.check(op.run()) is None
    assert op.check(2) is not None


def test_bench_row_bounds_are_recomputed():
    op = workloads.place_ops(0, 1)[0]
    row = op.run()
    assert op.check(row) is None
    k = row.k
    too_many = dict(row.counts, walls_main=2 * k + k // 4 + 5)
    assert op.check(dataclasses.replace(row, counts=too_many)) is not None
    assert op.check(dataclasses.replace(row, counts=dict(row.counts, roof=k + 1))) is not None
    assert op.check(dataclasses.replace(row, certified=False)) is not None


# -- tracing -----------------------------------------------------------------------


def test_traced_place_op_counts_ten_passes_and_restores_functions():
    original = placement.covers
    tracer = Tracer()
    tracer.install()
    try:
        op = workloads.place_ops(1, 1)[0]
        tracer.begin_op(0)
        row = tracer.wrap(op.run, "op")()
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert placement.covers is original
    assert op.check(row) is None
    layers = tracer.layer_metrics(1, 0.0)
    fixes = layers["placement.roof_fixes"]
    assert layers["verify.passes"] == 10 + fixes
    assert layers["verify.redundant_passes"] >= 8 - fixes
    assert layers["placement.guards"] == sum(row.counts.values())
    assert sum(layers[f"placement.case{c}"] for c in range(4)) >= 1
    roots = [s for s in tracer.spans if s[1] == "op"]
    assert len(roots) == 1 and roots[0][4] is None
