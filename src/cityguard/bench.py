"""Benchmark harness: algorithm counts vs the paper's formula bounds.

One CSV row per instance; every emitted row is certified; the run fails
(nonzero outcome) if any certificate or bound is violated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from cityguard.instances import GeneratorParams, gen_random_city
from cityguard.model import City
from cityguard.oracle import candidate_set, optimal_guard_count, OPTIMAL
from cityguard.placement import (
    ALLOW_P_CORNER, BUILDINGS_ONLY, city_guarding, guards_2k1, guards_main,
    roof_guarding,
)
from cityguard.verify import certify, certify_city

CSV_COLUMNS = ("instance", "k", "roof", "walls_2k1", "walls_main", "city_bonly",
               "city_pcorner", "bound_k", "bound_2k1", "bound_main", "bound_2k2",
               "oracle", "certified", "ms")


@dataclass(frozen=True)
class BenchRow:
    instance: str
    k: int
    counts: dict
    bounds: dict
    oracle_count: Optional[int]
    certified: bool
    ms: int

    def csv(self) -> str:
        c = self.counts
        b = self.bounds
        return ",".join(str(v) for v in (
            self.instance, self.k, c.get("roof", ""), c.get("walls_2k1", ""),
            c.get("walls_main", ""), c.get("city_bonly", ""), c.get("city_pcorner", ""),
            b["k"], b["2k1"], b["main"], b["2k2"],
            self.oracle_count if self.oracle_count is not None else "",
            int(self.certified), self.ms))


class BoundViolation(Exception):
    pass


def bench_instance(name: str, city: City, with_oracle: bool = False) -> BenchRow:
    """One row: each placement is built once, the city placements on the
    row's own 2k+1 and Cases 0-4 placements."""
    scene = city.scene
    k = scene.k
    t0 = time.monotonic()
    counts = {}
    certified = True

    roof = roof_guarding(city)
    counts["roof"] = roof.count

    w1 = guards_2k1(scene)
    counts["walls_2k1"] = w1.count
    certified &= certify(scene, w1.guards).covered

    if k >= 1:
        wm = guards_main(scene)
        counts["walls_main"] = wm.count
        certified &= certify(scene, wm.guards).covered
        cb = city_guarding(city, BUILDINGS_ONLY, base=wm)
        counts["city_bonly"] = cb.count
        certified &= certify_city(city, cb).covered
    cp = city_guarding(city, ALLOW_P_CORNER, base=w1)
    counts["city_pcorner"] = cp.count
    certified &= certify_city(city, cp).covered

    bounds = {"k": k, "2k1": 2 * k + 1, "main": 2 * k + k // 4 + 4, "2k2": 2 * k + 2}
    oracle_count = None
    if with_oracle:
        res = optimal_guard_count(scene, candidate_set(scene, include_p_corners=True),
                                  bounds["2k1"])
        if res.status == OPTIMAL:
            oracle_count = res.count

    row = BenchRow(instance=name, k=k, counts=counts, bounds=bounds,
                   oracle_count=oracle_count, certified=certified,
                   ms=int((time.monotonic() - t0) * 1000))
    _check_row(row)
    return row


def _check_row(row: BenchRow):
    if not row.certified:
        raise BoundViolation(f"{row.instance}: certificate failed")
    c, b = row.counts, row.bounds
    if c["roof"] != row.k:
        raise BoundViolation(f"{row.instance}: roof count {c['roof']} != k")
    if c["walls_2k1"] > b["2k1"]:
        raise BoundViolation(f"{row.instance}: 2k+1 bound violated")
    if "walls_main" in c and c["walls_main"] > b["main"]:
        raise BoundViolation(f"{row.instance}: main bound violated")
    if "city_bonly" in c and c["city_bonly"] > b["main"]:
        raise BoundViolation(f"{row.instance}: city bound violated")
    if c["city_pcorner"] > b["2k1"]:
        raise BoundViolation(f"{row.instance}: city 2k+1 bound violated")
    if row.oracle_count is not None:
        if "walls_main" in c and row.oracle_count > c["walls_main"]:
            raise BoundViolation(f"{row.instance}: oracle above walls_main")
        if row.oracle_count > c["walls_2k1"]:
            raise BoundViolation(f"{row.instance}: oracle above walls_2k1")


def run_bench(cities, with_oracle: bool = False):
    """cities: iterable of (name, City); returns rows sorted by instance id.

    A city outside the placements' domain raises ValueError naming it."""
    rows = []
    for name, city in cities:
        try:
            rows.append(bench_instance(name, city, with_oracle))
        except ValueError as e:
            raise ValueError(f"{name}: {e}") from e
    rows.sort(key=lambda r: r.instance)
    return rows


def random_corpus(count: int, k_min: int, k_max: int, seed: int, grid: int = 64):
    """count random cities, k cycling through k_min..k_max."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if not 0 <= k_min <= k_max:
        raise ValueError(f"need 0 <= k_min <= k_max, got k_min={k_min}, k_max={k_max}")
    out = []
    for i in range(count):
        k = k_min + (i % (k_max - k_min + 1))
        params = GeneratorParams(k=k, seed=seed + i, grid=grid)
        out.append((f"rand-{k:02d}-{seed + i:05d}", gen_random_city(params)))
    return out


def csv_lines(rows):
    yield ",".join(CSV_COLUMNS)
    for row in rows:
        yield row.csv()
