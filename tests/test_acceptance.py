"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

The random corpus is 200 seeded axis-aligned scenes with k in [0, 20];
all tolerances are exact (rational arithmetic end to end).
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

from cityguard.errors import PlacementIncompleteError
from cityguard.geom import Point
from cityguard.instances import (
    GeneratorParams, check_3k1_properties, gen_3k1_necessity, gen_random,
    gen_roof_necessity,
)
from cityguard.io import parse_city
from cityguard.model import City, Scene
from cityguard.oracle import (
    INFEASIBLE_WITHIN, OPTIMAL, candidate_set, exhaustive_min_cover,
    min_roof_guards, optimal_guard_count,
)
from cityguard.placement import (
    ALLOW_P_CORNER, BUILDINGS_ONLY, city_guarding, guards_2k1, guards_main,
    partition_2k1, roof_guarding,
)
from cityguard.verify import certify, certify_city, free_space
from cityguard.visibility import sees, visibility_region
from counterexample_3k1 import rot3k1_counterexample
from references import boundary, is_xy_monotone, orient, region_contains

CORPUS_SIZE = 200
K_RANGE = 21  # k in [0, 20]


def _report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def corpus():
    scenes = []
    for i in range(CORPUS_SIZE):
        k = i % K_RANGE
        scenes.append(gen_random(GeneratorParams(k=k, seed=1000 + i, grid=1000)))
    return tuple(scenes)


@lru_cache(maxsize=None)
def corpus_cities():
    rng = random.Random(99)
    return tuple(City(scene=sc, heights=tuple(rng.randint(1, 50) for _ in range(sc.k)))
                 for sc in corpus())


def test_criterion_1_sufficiency_2k1():
    t0 = time.monotonic()
    for sc in corpus():
        k = sc.k
        sol = guards_2k1(sc)
        assert sol.count <= 2 * k + 1, (k, sol.count)
        assert sol.p_corner_count() <= 1
        cert = certify(sc, sol.guards)
        assert cert.covered and cert.residual.area() == 0
    elapsed = time.monotonic() - t0
    _report("1 (2k+1 sufficiency)", elapsed < 120,
            f"{CORPUS_SIZE} scenes in {elapsed:.1f}s")


def test_criterion_2_partition_count():
    for sc in corpus():
        regions = partition_2k1(sc)
        assert len(regions) == 2 * sc.k + 1, sc.k

        # exact disjointness/union check on the scene's cut-line grid:
        # every region piece must be a single grid cell, no cell may occur
        # twice, and together they must be exactly the non-hole cells
        b = sc.bounds
        xs = sorted({b.x0, b.x1} | {h.x0 for h in sc.holes} | {h.x1 for h in sc.holes})
        ys = sorted({b.y0, b.y1} | {h.y0 for h in sc.holes} | {h.y1 for h in sc.holes})
        xi = {v: i for i, v in enumerate(xs)}
        yi = {v: i for i, v in enumerate(ys)}
        free_cells = set()
        for i in range(len(xs) - 1):
            for j in range(len(ys) - 1):
                inside_hole = any(h.x0 <= xs[i] and xs[i + 1] <= h.x1
                                  and h.y0 <= ys[j] and ys[j + 1] <= h.y1
                                  for h in sc.holes)
                if not inside_hole:
                    free_cells.add((i, j))
        seen = set()
        for r in regions:
            assert is_xy_monotone(r)
            for rect in r.rects:
                i, j = xi[rect.x0], yi[rect.y0]
                assert xs[i + 1] == rect.x1 and ys[j + 1] == rect.y1
                assert (i, j) not in seen, "regions overlap"
                seen.add((i, j))
        assert seen == free_cells, "union is not exactly the free space"

        # full geometric cross-check at small k
        if sc.k <= 2:
            parts = [boundary(r) for r in regions]
            for i, a in enumerate(parts):
                for b in parts[i + 1:]:
                    assert a.difference(b).area() == a.area(), "regions overlap"
            free = free_space(sc)
            assert sum(a.area() for a in parts) == free.area()
            rest = free
            for a in parts:
                rest = rest.difference(a)
            assert rest.is_empty()
    _report("2 (2k+1 partition)", True, f"{CORPUS_SIZE} scenes")


def test_criterion_3_sufficiency_main():
    bad = []
    checked = 0
    for sc in corpus():
        if sc.k < 1:
            continue
        checked += 1
        try:
            sol = guards_main(sc)
        except PlacementIncompleteError as e:
            bad.append((sc.k, str(e)))
            continue
        assert sol.count <= 2 * sc.k + sc.k // 4 + 4
        assert all(g.on_hole() for g in sol.guards)
        assert certify(sc, sol.guards).covered

    # constructed Case-2 instance: <= 2k+2 guards, exactly 4 on the shared building
    sc2 = parse_city({"bounds": [0, 0, 100, 100],
                      "buildings": [{"base": b, "height": 1} for b in [
                          [2, 5, 4, 16], [5, 1, 8, 4], [10, 10, 20, 20],
                          [12, 30, 18, 55], [40, 12, 60, 17], [80, 40, 90, 50]]]}).scene
    sol2 = guards_main(sc2)
    assert sol2.trace[0][0] == "case2"
    shared = sol2.trace[0][1]
    assert sol2.count <= 2 * sc2.k + 2
    assert sum(1 for g in sol2.guards if g.anchor[1] == shared) == 4
    assert certify(sc2, sol2.guards).covered

    _report("3 (2k+floor(k/4)+4 sufficiency)", not bad,
            f"{checked} scenes + case-2 spot check; incomplete: {bad if bad else 'never'}")


def test_criterion_4_roof_guarding():
    t0 = time.monotonic()
    for city in corpus_cities()[:40]:
        sol = roof_guarding(city)
        assert sol.count == city.scene.k
    for k in range(2, 9):
        city = gen_roof_necessity(k)
        sol = roof_guarding(city)
        assert sol.count == k
        assert min_roof_guards(city, k - 1) is None, f"k-1 guards suffice at k={k}"
        assert min_roof_guards(city, k) == k
    _report("4 (roof guarding, k necessary)", True,
            f"necessity at k=2..8 in {time.monotonic() - t0:.1f}s")


def test_criterion_5_city_guarding():
    for city in corpus_cities():
        k = city.scene.k
        if k >= 1:
            sol_b = city_guarding(city, BUILDINGS_ONLY)
            cert_b = certify_city(city, sol_b)
            assert cert_b.covered and all(cert_b.roof_flags)
            assert sol_b.count <= 2 * k + k // 4 + 4
        sol_p = city_guarding(city, ALLOW_P_CORNER)
        cert_p = certify_city(city, sol_p)
        assert cert_p.covered and all(cert_p.roof_flags or ())
        assert sol_p.count <= 2 * k + 1
    _report("5 (city guarding)", True, f"{CORPUS_SIZE} cities, both modes")


def test_criterion_6_necessity_3k1():
    t0 = time.monotonic()
    # k = 3 is the fixed counterexample the generator refuses: it passes
    # the properties but is covered by 3k guards
    for sc in (gen_3k1_necessity(1), gen_3k1_necessity(2), rot3k1_counterexample()):
        report = check_3k1_properties(sc)
        assert all(ok for _, ok, _ in report), [n for n, ok, _ in report if not ok]

    sc1 = gen_3k1_necessity(1)
    res1 = optimal_guard_count(sc1, candidate_set(sc1), 4)
    assert res1.status == OPTIMAL and res1.count == 4

    sc2 = gen_3k1_necessity(2)
    cands2 = candidate_set(sc2)
    res_low = optimal_guard_count(sc2, cands2, 6)
    assert res_low.status == INFEASIBLE_WITHIN
    res_hi = optimal_guard_count(sc2, cands2, 7)
    assert res_hi.status == OPTIMAL and res_hi.count == 7
    assert len(res_hi.solution.guards) == 7
    _report("6 (3k+1 necessity)", True,
            f"min=4 at k=1, INFEASIBLE_WITHIN(6) and witness of 7 at k=2, "
            f"properties hold at the refused k=3 counterexample; "
            f"{time.monotonic() - t0:.1f}s")


def _on_whisker(scene, g, p):
    pos = g.position(scene)
    fx, fy = g.facing
    if (p.x - pos.x) * fx + (p.y - pos.y) * fy == 0:
        return True
    return any(orient(pos, c, p) == 0
               for h in scene.holes for c in h.corners() if c != pos)


def test_criterion_7_visibility_soundness():
    rng = random.Random(2024)
    pairs = 0
    whiskers = 0
    for i in range(20):
        sc = gen_random(GeneratorParams(k=2 + i % 6, seed=7000 + i, grid=200))
        g_all = candidate_set(sc, include_p_corners=True)
        guards = [g_all[rng.randrange(len(g_all))] for _ in range(5)]
        per_guard = 10_000 // (20 * len(guards))
        for g in guards:
            vr = visibility_region(sc, g)
            for _ in range(per_guard):
                p = Point(Fraction(rng.randint(0, 200 * 9973), 9973),
                          Fraction(rng.randint(0, 200 * 9967), 9967))
                pairs += 1
                inr, sv = region_contains(vr.region, p), sees(sc, g, p)
                if inr != sv:
                    # a zero-area grazing whisker: visible but not part of
                    # the regularized 2D region
                    assert sv and not inr and _on_whisker(sc, g, p), (g, p)
                    whiskers += 1
            # boundary points included on both sides
            for cell in vr.region.cells[:10]:
                for v in cell:
                    assert region_contains(vr.region, v) and sees(sc, g, v)

    # star-shapedness and monotonicity suites
    from cityguard.model import Guard
    sc = gen_random(GeneratorParams(k=4, seed=4242, grid=100))
    for g in candidate_set(sc)[::9]:
        vr = visibility_region(sc, g)
        pos = g.position(sc)
        pts = [p for cell in vr.region.cells for p in cell][:100]
        for p in pts:
            for t10 in range(1, 10):
                t = Fraction(t10, 10)
                q = Point(pos.x + t * (p.x - pos.x), pos.y + t * (p.y - pos.y))
                assert region_contains(vr.region, q)
        # removing a hole (not the anchor) never shrinks the region
        hid = g.anchor[1]
        drop = sc.k - 1 if hid != sc.k - 1 else 0
        fewer = Scene(bounds=sc.bounds,
                      holes=tuple(h for i, h in enumerate(sc.holes) if i != drop))
        g2 = Guard(anchor=("hole", hid - 1 if drop < hid else hid, g.anchor[2]),
                   facing=g.facing)
        assert vr.region.difference(visibility_region(fewer, g2).region).is_empty()

    _report("7 (visibility soundness)", pairs >= 10_000 - 100,
            f"{pairs} sampled pairs, {whiskers} grazing whiskers, "
            "star-shapedness and monotonicity ok")


def test_criterion_8_oracle_vs_algorithms():
    t0 = time.monotonic()
    exact_checked = oracle_checked = 0
    for sc in corpus():
        if sc.k > 6:
            continue
        sol_main = guards_main(sc) if sc.k >= 1 else None
        sol_2k1 = guards_2k1(sc)
        cands_hole = candidate_set(sc)
        cands_full = candidate_set(sc, include_p_corners=True)
        if sol_main is not None:
            res = optimal_guard_count(sc, cands_hole, sol_main.count)
            assert res.status == OPTIMAL and res.count <= sol_main.count
        res_full = optimal_guard_count(sc, cands_full, sol_2k1.count)
        assert res_full.status == OPTIMAL and res_full.count <= sol_2k1.count
        assert certify(sc, res_full.solution.guards).covered
        oracle_checked += 1
        if sc.k <= 1:
            assert res_full.count == exhaustive_min_cover(sc, cands_full,
                                                          sol_2k1.count)
            exact_checked += 1
    _report("8 (oracle vs algorithms)", exact_checked > 0,
            f"{oracle_checked} exact minima at k<=6, "
            f"{exact_checked} exhaustive cross-checks at k<=1; "
            f"{time.monotonic() - t0:.1f}s")


def test_criterion_9_determinism(tmp_path):
    from cityguard.bench import csv_lines, random_corpus, run_bench
    from cityguard.io import canonical_json, city_doc, solution_doc
    from cityguard.svg import render_svg

    sc = gen_random(GeneratorParams(k=5, seed=31415, grid=100))
    sc_again = gen_random(GeneratorParams(k=5, seed=31415, grid=100))
    city = City(scene=sc, heights=tuple(range(1, 6)))
    assert canonical_json(city_doc(city)) == canonical_json(
        city_doc(City(scene=sc_again, heights=tuple(range(1, 6)))))

    s1, s2 = guards_main(sc), guards_main(sc)
    assert canonical_json(solution_doc(s1)) == canonical_json(solution_doc(s2))

    cert = certify(sc, s1.guards)
    assert render_svg(sc, s1, cert) == render_svg(sc, s2, certify(sc, s2.guards))

    rows1 = run_bench(random_corpus(4, 1, 2, seed=5, grid=40))
    rows2 = run_bench(random_corpus(4, 1, 2, seed=5, grid=40))
    strip = lambda rows: ["," .join(line.split(",")[:-1]) for line in csv_lines(rows)]
    assert strip(rows1) == strip(rows2)  # all but the wall-clock column
    _report("9 (determinism)", True, "scene, solution, SVG and CSV byte-stable")
