"""The benchmark's three workloads: inputs, ops and the check of each op.

A run is a fixed number of rounds.  A round is a bulk of ops at one
instance size followed by one slot of a sweep over the other sizes, so
that a run's median and tail both fall inside the bulk, where many ops
share one size, while the sweep still spans the size range.  The seed
picks the instances; it never changes which ops run.  Every op calls
cityguard's public functions through their module attribute, so that a
traced run sees the calls at each module boundary.

* ``place``: one ``bench.bench_instance`` row per op on a fresh random
  city (grid 1000).  Bulk: six cities at k = 6.  Sweep: k = 4, 5, 7, 8,
  10, 12, 16.
* ``verify``: the ``cityguard verify`` path per op: parse a scene and a
  solution document, then ``certify`` (or ``certify_city`` for city
  ops).  Bulk: six cities at k = 16.  Sweep: k = 17, 18, 20, 22, 25, 28,
  16.  Op i is a city op when i % 4 >= 2, and its guard set is the 2k+1
  placement (i even) or that set with one seeded guard removed (i odd).
  The documents are made in a separate process (make_inputs.py), so every
  region is computed cold.
* ``oracle``: exact minima on small instances.  Bulk: six random k = 1
  scenes (``optimal_guard_count`` with P corners) and the rotated 3k+1
  family at k = 2 (INFEASIBLE_WITHIN(6), then the size-7 witness).  Sweep:
  the 3k+1 family at k = 1 (minimum 4), ``min_roof_guards`` on the
  roof-necessity family at k = 2..5, one random k = 2 scene and a fifth
  k = 1 scene.  The family instances are translated by a distinct integer
  offset per op, so no op meets a scene seen before.  The exhaustive
  cross-check rebuilds the whole face arrangement, so it runs on the first
  k = 1 scene of each round and on the sweep's, not on every one.
"""

from __future__ import annotations

import random
import time
from typing import Callable, NamedTuple

import cityguard.bench as bench
import cityguard.instances as instances
import cityguard.io as cgio
import cityguard.oracle as oracle
import cityguard.placement as placement
import cityguard.verify as verify
from cityguard.geom import AxisRect, make_axis_rect, make_convex_quad
from cityguard.model import City, Scene, Solution, validate_scene

import checks

WORKLOADS = ("place", "verify", "oracle")
GRID = 1000
ROUND_SECONDS = 4.3  # --seconds 30 gives 7 rounds, a whole sweep

PLACE_BULK, PLACE_SWEEP = (6,) * 6, (4, 5, 7, 8, 10, 12, 16)
VERIFY_BULK, VERIFY_SWEEP = (16,) * 6, (17, 18, 20, 22, 25, 28, 16)
ORACLE_BULK = ("rand-1",) * 6 + ("rot3k1-2-within6", "rot3k1-2-within7")
ORACLE_SWEEP = ("rot3k1-1", "roof-2", "roof-3", "roof-4", "roof-5", "rand-2", "rand-1")


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], object]  # output -> None, or a failure message


def rounds_for(seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS))


def op_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def _round_slots(bulk, sweep, rounds):
    for r in range(rounds):
        yield from bulk
        yield sweep[r % len(sweep)]


# -- place -----------------------------------------------------------------------


def place_ops(seed: int, rounds: int):
    ops = []
    for i, k in enumerate(_round_slots(PLACE_BULK, PLACE_SWEEP, rounds)):
        params = instances.GeneratorParams(k=k, seed=op_seed(seed, i), grid=GRID)
        city = instances.gen_random_city(params)
        name = f"rand-{k:02d}-{op_seed(seed, i)}"
        ops.append(Op(f"k{k}",
                      lambda name=name, city=city: bench.bench_instance(name, city),
                      lambda row, k=k: checks.check_bench_row(row, k)))
    return ops


# -- verify ----------------------------------------------------------------------


def verify_docs(seed: int, rounds: int):
    """Scene and solution documents of every verify op, with the time
    spent generating the cities (ms)."""
    docs = []
    gen_s = 0.0
    for i, k in enumerate(_round_slots(VERIFY_BULK, VERIFY_SWEEP, rounds)):
        s = op_seed(seed, i)
        t0 = time.perf_counter()
        city = instances.gen_random_city(instances.GeneratorParams(k=k, seed=s, grid=GRID))
        gen_s += time.perf_counter() - t0
        guards = [region.anchor_guard for region in placement.partition_2k1(city.scene)]
        full = i % 2 == 0
        if not full:
            del guards[random.Random(s).randrange(len(guards))]
        docs.append({"k": k, "city": i % 4 >= 2, "full": full,
                     "scene": cgio.city_doc(city),
                     "solution": cgio.solution_doc(Solution(algorithm="walls-2k1",
                                                            guards=tuple(guards)))})
    return {"seed": seed, "rounds": rounds, "gen_ms": gen_s * 1000, "docs": docs}


def _verify_op(doc):
    city = cgio.parse_city(doc["scene"])
    solution = cgio.parse_solution(doc["solution"])
    if doc["city"]:
        cert = verify.certify_city(city, solution)
    else:
        cert = verify.certify(city.scene, solution.guards)
    return city, solution, cert


def _check_verify(doc, rng, out):
    city, solution, cert = out
    if city.scene.k != doc["k"]:
        return f"parsed k={city.scene.k}, document has k={doc['k']}"
    return checks.check_certificate(city, solution.guards, cert, rng,
                                    full=doc["full"], city_op=doc["city"])


def verify_ops(bundle):
    ops = []
    for i, doc in enumerate(bundle["docs"]):
        rng = random.Random(op_seed(bundle["seed"], i))
        kind = ("city" if doc["city"] else "scene") + ("" if doc["full"] else "-1")
        ops.append(Op(f"k{doc['k']}-{kind}",
                      lambda doc=doc: _verify_op(doc),
                      lambda out, doc=doc, rng=rng: _check_verify(doc, rng, out)))
    return ops


# -- oracle ----------------------------------------------------------------------


def translated(scene: Scene, dx: int, dy: int) -> Scene:
    b = scene.bounds
    holes = tuple(
        AxisRect(h.x0 + dx, h.y0 + dy, h.x1 + dx, h.y1 + dy) if isinstance(h, AxisRect)
        else make_convex_quad([(p.x + dx, p.y + dy) for p in h.corners()])
        for h in scene.holes)
    return validate_scene(Scene(bounds=make_axis_rect(b.x0 + dx, b.y0 + dy,
                                                      b.x1 + dx, b.y1 + dy),
                                holes=holes))


def _min_over(scene, include_p_corners, max_count):
    candidates = oracle.candidate_set(scene, include_p_corners=include_p_corners)
    return candidates, oracle.optimal_guard_count(scene, candidates, max_count)


def _check_witness(scene, res, count, rng):
    if res.status != oracle.OPTIMAL:
        return f"status {res.status}, expected OPTIMAL"
    if res.count != count or len(res.solution.guards) != count:
        return f"minimum {res.count} with {len(res.solution.guards)} guards, expected {count}"
    return checks.check_covered(scene, res.solution.guards, rng)


def _check_random(scene, rng, out, exhaustive=True):
    candidates, res = out
    k = scene.k
    if res.status != oracle.OPTIMAL:
        return f"status {res.status} on a random k={k} scene"
    if len(res.solution.guards) != res.count:
        return f"minimum {res.count}, witness has {len(res.solution.guards)} guards"
    placed = [placement.guards_2k1(scene).count]
    if k >= 1:
        placed.append(placement.guards_main(scene).count)
    if res.count > min(placed):
        return f"minimum {res.count} above a placement count {placed}"
    if exhaustive and k <= 1:
        least = oracle.exhaustive_min_cover(scene, candidates, 2 * k + 1)
        if least != res.count:
            return f"minimum {res.count}, exhaustive search says {least}"
    return checks.check_covered(scene, res.solution.guards, rng)


def _check_3k1(scene, max_count, rng, out):
    _, res = out
    if max_count == 6:
        if res.status != oracle.INFEASIBLE_WITHIN:
            return f"k=2 within 6: status {res.status}, expected INFEASIBLE_WITHIN"
        return None
    return _check_witness(scene, res, 4 if scene.k == 1 else 7, rng)


def _check_roof(k, out):
    return None if out == k else f"min_roof_guards = {out}, expected k = {k}"


def oracle_ops(seed: int, rounds: int):
    rot = {k: instances.gen_3k1_necessity(k) for k in (1, 2)}
    roof = {k: instances.gen_roof_necessity(k) for k in (2, 3, 4, 5)}
    ops = []
    for i, slot in enumerate(_round_slots(ORACLE_BULK, ORACLE_SWEEP, rounds)):
        s = op_seed(seed, i)
        rng = random.Random(s)
        dx, dy = i + 1, seed % 997  # distinct per op: every scene is new
        family, _, rest = slot.partition("-")
        if family == "rand":
            k = int(rest)
            scene = instances.gen_random(instances.GeneratorParams(k=k, seed=s, grid=GRID))
            exhaustive = i % (len(ORACLE_BULK) + 1) in (0, len(ORACLE_BULK))
            ops.append(Op(slot,
                          lambda scene=scene, k=k: _min_over(scene, True, 2 * k + 1),
                          lambda out, scene=scene, rng=rng, exhaustive=exhaustive:
                              _check_random(scene, rng, out, exhaustive)))
        elif family == "rot3k1":
            k = int(rest[0])
            max_count = 6 if rest.endswith("within6") else (7 if k == 2 else 4)
            scene = translated(rot[k], dx, dy)
            ops.append(Op(slot,
                          lambda scene=scene, m=max_count: _min_over(scene, False, m),
                          lambda out, scene=scene, m=max_count, rng=rng:
                              _check_3k1(scene, m, rng, out)))
        else:
            k = int(rest)
            base = roof[k]
            city = City(scene=translated(base.scene, dx, dy), heights=base.heights)
            ops.append(Op(slot,
                          lambda city=city, k=k: oracle.min_roof_guards(city, k),
                          lambda out, k=k: _check_roof(k, out)))
    return ops


def make_ops(workload: str, seed: int, rounds: int, verify_bundle=None):
    if workload == "place":
        return place_ops(seed, rounds)
    if workload == "verify":
        return verify_ops(verify_bundle)
    if workload == "oracle":
        return oracle_ops(seed, rounds)
    raise ValueError(f"unknown workload {workload!r}")
