import random

import pytest

from cityguard.errors import DegeneratePositionError, EmptyStaircaseError
from cityguard.geom import AxisRect, PolygonSet, make_axis_rect
from cityguard.instances import GeneratorParams, gen_random
from cityguard.io import parse_city
from cityguard.model import Scene, rotate_scene_ccw
from cityguard.staircase import (
    FS, KINDS, RFS, RRS, RS, _pareto, staircase, staircase_guards, staircase_sharing,
)
from cityguard.visibility import visibility_region
from references import pareto, staircase_region


def city_a():
    return parse_city({"bounds": [0, 0, 10, 10],
                       "buildings": [{"base": [4, 4, 6, 6], "height": 3}]}).scene


def city_b():
    return parse_city({"bounds": [0, 0, 100, 100], "buildings": [
        {"base": [10, 60, 30, 80], "height": 1},
        {"base": [60, 65, 85, 90], "height": 1},
        {"base": [15, 15, 40, 35], "height": 1},
        {"base": [55, 10, 90, 40], "height": 1}]}).scene


def _scene(bounds, bases):
    return parse_city({"bounds": bounds,
                       "buildings": [{"base": b, "height": 1} for b in bases]}).scene


CASE2 = [[2, 5, 4, 16], [5, 1, 8, 4], [10, 10, 20, 20],
         [12, 30, 18, 55], [40, 12, 60, 17], [80, 40, 90, 50]]
# wide middle building: everything above it sits in its vertical span
CASE3 = [[100, 500, 900, 520],
         [200, 600, 220, 620], [400, 700, 420, 720], [600, 800, 620, 820],
         [50, 200, 70, 220], [300, 100, 320, 120], [700, 300, 720, 320],
         [850, 50, 880, 80], [920, 250, 950, 270]]


class TestBuild:
    def test_k0_no_stairs(self):
        sc = Scene(bounds=make_axis_rect(0, 0, 10, 10), holes=())
        for kind in KINDS:
            st = staircase(sc, kind)
            assert st.stairs == 0 and st.buildings == frozenset()
            assert staircase_region(sc, st).area() == 100

    def test_city_a_every_kind_one_stair(self):
        sc = city_a()
        for kind in KINDS:
            st = staircase(sc, kind)
            assert st.stairs == 1
            assert st.buildings == frozenset({0})

    def test_city_b_rs_buildings(self):
        st = staircase(city_b(), RS)
        assert st.buildings == frozenset({0, 1})

    def test_reflex_vertices_are_hole_vertices(self):
        sc = city_b()
        for kind in KINDS:
            st = staircase(sc, kind)
            assert len(st.reflex_vertices) == len(st.buildings)
            for (pt, hid) in st.reflex_vertices:
                assert pt in sc.holes[hid].corners()

    def test_region_contains_no_hole_interior(self):
        sc = city_b()
        holes = PolygonSet(tuple(h.corners() for h in sc.holes))
        for kind in KINDS:
            st = staircase(sc, kind)
            region = staircase_region(sc, st)
            assert region.difference(holes).area() == region.area()

    def test_pareto_matches_pairwise_reference(self):
        """The sorted scan keeps the stairs that comparing every pair of
        apexes keeps, in the same order: on random scenes, and on scenes of
        small grid rectangles whose edges share lines."""
        scenes = [gen_random(GeneratorParams(k=k, seed=seed, grid=40 * k + 40))
                  for k in range(30) for seed in range(4)]
        rng = random.Random(6)
        for _ in range(300):
            holes = []
            for _ in range(rng.randint(1, 12)):
                x, y = rng.randint(1, 8), rng.randint(1, 8)
                r = AxisRect(x, y, x + rng.randint(1, 3), y + rng.randint(1, 3))
                if all(r.x1 <= o.x0 or o.x1 <= r.x0 or r.y1 <= o.y0 or o.y1 <= r.y0
                       for o in holes):
                    holes.append(r)
            scenes.append(Scene(bounds=make_axis_rect(0, 0, 12, 12), holes=tuple(holes)))
        for sc in scenes:
            for kind in KINDS:
                assert _pareto(sc, kind) == pareto(sc, kind)

    def test_degenerate_rejected(self):
        sc = parse_city({"bounds": [0, 0, 10, 10],
                         "buildings": [{"base": [1, 1, 3, 3], "height": 1},
                                       {"base": [3, 5, 7, 7], "height": 1}]}).scene
        with pytest.raises(DegeneratePositionError, match=r"\(0, 1\)"):
            staircase_sharing(sc)


def _as_rrs(sc, kind):
    """The scene turned by quarter turns CCW until its `kind` staircase is
    its RRS staircase, and that staircase."""
    t = next(t for t in range(4) if _turned(_TURN_KIND, kind, t) == RRS)
    turned = rotate_scene_ccw(sc, t)
    return turned, staircase(turned, RRS)


class TestGuards:
    def test_city_a_rrs_two_guards(self):
        sc = city_a()
        st = staircase(sc, RRS)
        assert len(staircase_guards(st)) == 2

    def test_count_is_stairs_plus_one(self):
        sc = city_b()
        for kind in KINDS:
            _, st = _as_rrs(sc, kind)
            assert st.buildings == staircase(sc, kind).buildings
            assert len(staircase_guards(st)) == st.stairs + 1

    def test_pattern_three_stairs(self):
        sc = parse_city({"bounds": [0, 0, 100, 100], "buildings": [
            {"base": [10, 5, 20, 15], "height": 1},
            {"base": [30, 22, 40, 32], "height": 1},
            {"base": [50, 41, 60, 51], "height": 1}]}).scene
        st = staircase(sc, RRS)
        assert st.stairs == 3
        guards = staircase_guards(st)
        assert len(guards) == 4
        assert sum(1 for g in guards if g.facing == (1, 0)) == 3
        assert sum(1 for g in guards if g.facing == (0, -1)) == 1

    def test_guards_cover_staircase_exactly(self):
        # each kind through the quarter turn that makes it the RRS
        for kind in KINDS:
            turned, st = _as_rrs(city_b(), kind)
            rest = staircase_region(turned, st)
            for g in staircase_guards(st):
                rest = rest.difference(visibility_region(turned, g).region)
            assert rest.is_empty(), kind

    def test_empty_staircase_errors(self):
        sc = Scene(bounds=make_axis_rect(0, 0, 10, 10), holes=())
        st = staircase(sc, RRS)
        with pytest.raises(EmptyStaircaseError):
            staircase_guards(st)


class TestSharing:
    def test_city_a_case0(self):
        rep = staircase_sharing(city_a())
        assert rep.case == 0
        assert set(rep.extremal.values()) == {0}

    def test_interior_shared_building_case3(self):
        rep = staircase_sharing(_scene([0, 0, 1000, 1000], CASE3))
        assert rep.case == 3
        entries = {e[1]: (e[2], e[3]) for e in rep.adjacent_internal}
        assert entries[0] == (3, 5)  # alpha buildings above, beta below

    def test_case2_opposite_sharing(self):
        rep = staircase_sharing(_scene([0, 0, 100, 100], CASE2))
        assert rep.case == 2
        assert rep.opposite_shared[0][1] == 2

    def test_city_b_case(self):
        rep = staircase_sharing(city_b())
        assert rep.case in (0, 1, 2, 3, 4)
        assert rep.extremal["L"] == 0
        assert rep.extremal["T"] == 1
        assert rep.extremal["R"] in (1, 3)
        assert rep.extremal["B"] == 3


# One counter-clockwise quarter turn: the staircase kind and the extremal
# side that each one of the scene becomes in the turned scene.
_TURN_KIND = {RS: RFS, FS: RS, RRS: FS, RFS: RRS}
_TURN_SIDE = {"L": "B", "T": "L", "R": "T", "B": "R"}


def _turned(table, key, t):
    for _ in range(t):
        key = table[key]
    return key


def _sharing_scenes():
    scenes = [city_a(), city_b(), _scene([0, 0, 100, 100], CASE2),
              _scene([0, 0, 1000, 1000], CASE3),
              _scene([0, 0, 1000, 1000], CASE3 + [[925, 505, 945, 515]])]
    scenes += [gen_random(GeneratorParams(k=k, seed=31 * k + s, grid=1000))
               for k in range(1, 13) for s in range(3)]
    scenes.append(gen_random(GeneratorParams(k=5, seed=74, grid=1000)))  # Case 4
    return scenes


class TestSharingUnderQuarterTurns:
    """A quarter turn keeps hole ids and permutes the staircase kinds and
    extremal sides; the placement dispatch reads the rotated frame's
    buildings from the unrotated scene's report on this ground."""

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_report_is_permuted(self, t):
        for sc in _sharing_scenes():
            rep = staircase_sharing(sc)
            rrep = staircase_sharing(rotate_scene_ccw(sc, t))
            assert rrep.case == rep.case
            for kind in KINDS:
                assert (rrep.staircases[_turned(_TURN_KIND, kind, t)].buildings
                        == rep.staircases[kind].buildings)
            for side, hid in rep.extremal.items():
                assert rrep.extremal[_turned(_TURN_SIDE, side, t)] == hid
            turned = {(frozenset(_turned(_TURN_KIND, kind, t) for kind in e[0]),) + e[1:]
                      for e in rep.adjacent_internal}
            assert turned == {(frozenset(e[0]),) + e[1:] for e in rrep.adjacent_internal}

    def test_scenes_cover_every_dispatch_case(self):
        assert {staircase_sharing(sc).case for sc in _sharing_scenes()} == {0, 1, 2, 3, 4}
