import hashlib

import pytest

from cityguard.errors import GenerationFailedError
from cityguard.geom import Point, make_axis_rect, make_convex_quad
from cityguard.instances import (
    GeneratorParams, check_3k1_properties, check_roof_necessity,
    gen_3k1_necessity, gen_random, gen_random_city, gen_roof_necessity,
    hole_within_span,
)
from cityguard.io import parse_city
from cityguard.model import Scene, require_general_position, validate_scene
from cityguard.oracle import (
    INFEASIBLE_WITHIN, OPTIMAL, candidate_set, optimal_guard_count,
)
from cityguard.verify import certify
from cityguard.visibility import visibility_region
from counterexample_3k1 import MINIMUM, rot3k1_counterexample
from references import min_cover_of_region, space_between


def rot3k1_scene(k):
    """The family's member, or at k = 3 the fixed counterexample."""
    return rot3k1_counterexample() if k == 3 else gen_3k1_necessity(k)


class TestGenRandom:
    def test_k0(self):
        assert gen_random(GeneratorParams(k=0, seed=1)).k == 0

    def test_valid_and_general_position(self):
        sc = gen_random(GeneratorParams(k=5, seed=1, grid=1000))
        assert sc.k == 5
        assert validate_scene(sc) == sc
        require_general_position(sc)

    def test_deterministic(self):
        p = GeneratorParams(k=6, seed=42, grid=200)
        assert gen_random(p) == gen_random(p)
        assert gen_random_city(p) == gen_random_city(p)

    def test_negative_k_refused(self):
        with pytest.raises(ValueError):
            GeneratorParams(k=-1)

    @pytest.mark.parametrize("k,grid", [(1, 1), (1, 2), (3, 2)])
    def test_grid_without_room_for_a_building_refused(self, k, grid):
        with pytest.raises(ValueError, match=f"grid {grid} "):
            GeneratorParams(k=k, grid=grid)

    def test_smallest_grids(self):
        assert gen_random(GeneratorParams(k=0, grid=1)).k == 0
        assert gen_random(GeneratorParams(k=1, seed=4, grid=3)).holes == (
            make_axis_rect(1, 1, 2, 2),)

    def test_generation_failure(self):
        with pytest.raises(GenerationFailedError):
            gen_random(GeneratorParams(k=40, seed=0, grid=6))

    # SHA-256 of repr(holes) at grid 40 k, made by the generator that tested
    # each candidate against every hole placed before it
    PINNED = {
        (16, 0): "3252ab9e5c1727f96bc5a1d9dfe798a5106bce3c1e0fd41f386bd58f6a951797",
        (16, 1): "ef860a49e2e34c50b38109c9a772bb12e7d11d73d1d80546bcaf0988ef2514d5",
        (16, 2): "9306537699a0647df3fb1adc60ce850f03cb36c2bd289f6e0907ba4877c367d3",
        (16, 3): "e7cd6b0ae3ed659a70501a2f6838ad80cbcf92d9ee1bcbd8eef58a2b28fadf8e",
        (512, 0): "004392067e6b198686f436bf6fbf0464ebfd859bd7bff847a4cdb98e95926c96",
        (512, 1): "ebb7161cbe05402eabdaa5bc4cc8670d60b28722146eba260da985b860da7bd7",
        (512, 2): "6d6dec81f18fb27ada5dc111fb75d7d8fb91aa8f475896b5064664519e6e6eea",
        (512, 3): "e5f0fa3fc5c1ad0938df3ad602ae6a9bdf43134bbabf231575a58e38d7e229cf",
    }

    @pytest.mark.parametrize("k,seed", sorted(PINNED))
    def test_holes_are_pinned(self, k, seed):
        """The overlap test reads only the holes whose x-ranges can meet
        the candidate's; the draws and the holes are the same."""
        holes = gen_random(GeneratorParams(k=k, seed=seed, grid=40 * k)).holes
        assert hashlib.sha256(repr(holes).encode()).hexdigest() == self.PINNED[k, seed]


class TestRoofNecessity:
    def test_k1(self):
        assert gen_roof_necessity(1).scene.k == 1

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_properties_hold(self, k):
        city = gen_roof_necessity(k)
        assert check_roof_necessity(city) == []
        hts = city.heights
        assert all(hts[i] > hts[i + 1] for i in range(k - 1))

    def test_checker_catches_violations(self):
        # two distant same-height-ish buildings with nothing blocking
        sc = parse_city({"bounds": [0, 0, 100, 20], "buildings": [
            {"base": [10, 5, 12, 8], "height": 10},
            {"base": [40, 4, 42, 9], "height": 8},
            {"base": [70, 3, 72, 10], "height": 6}]}).scene
        from cityguard.model import City
        city = City(scene=sc, heights=(10, 8, 6))
        failures = check_roof_necessity(city)
        assert ("property2", (0, 2)) in failures


class Test3k1:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_properties_pass(self, k):
        sc = rot3k1_scene(k)
        assert sc.kind == "GENERAL"
        report = check_3k1_properties(sc)
        assert all(ok for _, ok, _ in report)

    def test_k4_reports_failing_property(self):
        with pytest.raises(GenerationFailedError) as e:
            gen_3k1_necessity(4)
        assert e.value.failed_property == "property2"

    def test_k3_refused_naming_its_minimum(self):
        with pytest.raises(GenerationFailedError) as e:
            gen_3k1_necessity(3)
        assert e.value.failed_property == "minimum"
        assert f"minimum is {MINIMUM}" in str(e.value)

    def test_every_member_needs_3k_plus_1(self):
        members = []
        for k in range(1, 6):
            try:
                members.append(gen_3k1_necessity(k))
            except GenerationFailedError:
                pass
        assert [sc.k for sc in members] == [1, 2]
        for sc in members:
            res = optimal_guard_count(sc, candidate_set(sc), 3 * sc.k)
            assert res.status == INFEASIBLE_WITHIN, sc.k

    def test_counterexample_has_a_certified_3k_cover(self):
        sc = rot3k1_counterexample()
        res = optimal_guard_count(sc, candidate_set(sc), 3 * sc.k + 1)
        assert res.status == OPTIMAL and res.count == MINIMUM == 3 * sc.k
        assert certify(sc, res.solution.guards).covered

    def test_deterministic(self):
        assert gen_3k1_necessity(2) == gen_3k1_necessity(2)

    def test_property2_fails_when_far_pair_sees_each_other(self):
        # the middle hole sits high, leaving the far pair mutually visible
        sc = Scene(bounds=make_axis_rect(0, 0, 100, 30),
                   holes=(make_convex_quad([(10, 5), (14, 5), (14, 9), (10, 9)]),
                          make_convex_quad([(40, 20), (44, 20), (44, 24), (40, 24)]),
                          make_convex_quad([(70, 3), (74, 3), (74, 7), (70, 7)])))
        report = {name: ok for name, ok, _ in check_3k1_properties(sc)}
        assert not report["property2"]

    def test_property3_fails_where_a_position_sees_two_edges(self):
        """A guard at the SW corner (13, 10) of B_0, facing N or W, sees two
        edges of B_1."""
        sc = gen_random(GeneratorParams(k=2, seed=6, grid=16))
        report = {name: fails for name, _, fails in check_3k1_properties(sc)}
        assert report["property3"] == [(0, Point(13, 10), (0, 1), 2),
                                       (0, Point(13, 10), (-1, 0), 2)]

    def test_property4_fails_where_a_position_serves_both_gaps(self):
        """A guard on the S wall of B_1 facing S sees an edge of B_0 and
        one of B_2."""
        sc = gen_random(GeneratorParams(k=3, seed=0, grid=16))
        report = {name: fails for name, _, fails in check_3k1_properties(sc)}
        assert report["property4"] == [(1, Point(9, 12), (0, -1)),
                                       (1, Point(10, 12), (0, -1))]

    def test_span_nesting(self):
        sc = rot3k1_counterexample()
        for i in range(1, 3):
            for j in range(i):
                assert hole_within_span(sc.hole_cells[i], sc.hole_cells[j])

    def test_gap_pockets(self):
        sc = rot3k1_counterexample()
        cands = candidate_set(sc)
        for i in (0, 1):
            gap = space_between(sc, i)
            assert gap.area() > 0
            # only positions on the two adjacent holes see any area of the gap
            for g in cands:
                if g.anchor[1] in (i, i + 1):
                    continue
                region = visibility_region(sc, g).region
                assert gap.difference(region).area() == gap.area()
            # and at least two of the adjacent positions are needed
            pair = [g for g in cands if g.anchor[1] in (i, i + 1)]
            m = min_cover_of_region(sc, pair, gap, 6)
            assert m is not None and m >= 2
