import json
import random
import weakref
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import atan2, ceil

import pytest

import cityguard.geom as geom
import cityguard.oracle as oracle
import cityguard.visibility as visibility

from cityguard.cli import main
from cityguard.errors import MalformedPolygonError
from cityguard.geom import (
    Point, PolygonSet, _h_line, _h_meet, _h_normalized, h_cell, h_mean, h_point,
    h_to_point, make_axis_rect,
)
from cityguard.instances import GeneratorParams, gen_3k1_necessity, gen_random
from cityguard.io import parse_city
from cityguard.model import E, N, S, Guard, Scene, W, hole_guard, p_corner_guard
from cityguard.oracle import INFEASIBLE_WITHIN, OPTIMAL, candidate_set, optimal_guard_count
from cityguard.visibility import AnchorFans, _angular_cmp, sees, visibility_region
from counterexample_3k1 import rot3k1_counterexample
from references import (
    h_cells_contain, in_open_hole, orient, region_contains, reset_region_cache,
    scaled_and_shifted, sweep,
)


def city_a():
    return parse_city({"bounds": [0, 0, 10, 10],
                       "buildings": [{"base": [4, 4, 6, 6], "height": 3}]}).scene


def on_whisker(scene, g, p):
    """Visible-but-zero-area points: on the half-plane boundary line or
    collinear with the guard and a hole corner other than p (grazing sight
    lines)."""
    pos = g.position(scene)
    fx, fy = g.facing
    if (p.x - pos.x) * fx + (p.y - pos.y) * fy == 0:
        return True
    for h in scene.holes:
        for c in h.corners():
            if c not in (pos, p) and orient(pos, c, p) == 0:
                return True
    return False


def adversarial_points(scene, pos):
    """Every hole and P vertex, every edge midpoint, the four points 1/64
    off each hole corner diagonally, a point just past each vertex on the
    line from pos through it, and the grazing points of the scene whose
    two corners are not pos."""
    polygons = [h.corners() for h in scene.holes] + [scene.bounds.corners()]
    pts = []
    for corners in polygons:
        for a, b in zip(corners, corners[1:] + corners[:1]):
            pts += [a, Point(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))]
            if a != pos:
                pts.append(_past(pos, a))
    for h in scene.holes:
        for c in h.corners():
            pts += [Point(c.x + sx * _EPS, c.y + sy * _EPS) for sx in (-1, 1) for sy in (-1, 1)]
    return pts + [p for a, b, p in grazing_points(scene) if pos not in (a, b)]


_EPS = Fraction(1, 64)


def _past(a, b):
    """The point just past b on the line from a, 1/64 further along the
    larger coordinate."""
    dx, dy = b.x - a.x, b.y - a.y
    step = _EPS / max(abs(dx), abs(dy))
    return Point(b.x + step * dx, b.y + step * dy)


@lru_cache(maxsize=1)
def grazing_points(scene):
    """(a, b, p) for each ordered pair of hole corners a != b, p just past
    b on the line from a through it, kept when p lies in free space: a
    point in a hole or outside the bounds is seen by no guard and lies in
    no region."""
    corners = [c for h in scene.holes for c in h.corners()]
    out = []
    for a in corners:
        for b in corners:
            if a != b:
                p = _past(a, b)
                if scene.bounds.contains_closed(p) and \
                        not any(in_open_hole(h, p) for h in scene.holes):
                    out.append((a, b, p))
    return out


class TestSees:
    def test_spec_examples(self):
        sc = city_a()
        g = hole_guard(0, 2, W)  # (6,6) facing West
        assert sees(sc, g, Point(5, 8))
        assert not sees(sc, g, Point(1, 1))   # diagonal crosses the hole
        assert not sees(sc, g, Point(7, 7))   # behind the half-plane

    def test_wall_points_visible(self):
        sc = city_a()
        g = hole_guard(0, 1, E)  # (6,4) facing East
        assert sees(sc, g, Point(6, 5))       # own wall
        assert not sees(sc, g, Point(5, 5))   # open hole interior

    def test_outside_bounds(self):
        sc = city_a()
        assert not sees(sc, hole_guard(0, 1, E), Point(11, 4))


class TestRegion:
    def test_empty_scene_corner(self):
        sc = Scene(bounds=make_axis_rect(0, 0, 10, 10), holes=())
        vr = visibility_region(sc, p_corner_guard(1, W))
        assert vr.region.area() == 100

    def test_east_halfplane(self):
        vr = visibility_region(city_a(), hole_guard(0, 1, E))
        assert vr.region.area() == 40  # [6,10] x [0,10]
        assert region_contains(vr.region, Point(6, 10)) and region_contains(vr.region, Point(10, 0))

    def test_west_from_ne_corner(self):
        # (6,6) facing West sees exactly the top band [0,6] x [6,10]
        vr = visibility_region(city_a(), hole_guard(0, 2, W))
        assert vr.region.area() == 24
        assert region_contains(vr.region, Point(0, 6))
        assert not region_contains(vr.region, Point(3, 5))

    def test_guard_on_region_boundary(self):
        sc = city_a()
        g = hole_guard(0, 2, W)
        vr = visibility_region(sc, g)
        assert region_contains(vr.region, g.position(sc))
        assert vr.region.difference(
            PolygonSet.from_rect(0, 0, 10, 10)).is_empty()


class TestOracleAgreement:
    def test_random_scenes(self):
        rng = random.Random(7)
        for seed in range(6):
            sc = gen_random(GeneratorParams(k=3, seed=seed, grid=50))
            for g in candidate_set(sc, include_p_corners=True)[::7]:
                vr = visibility_region(sc, g)
                for _ in range(120):
                    p = Point(Fraction(rng.randint(0, 50 * 97), 97),
                              Fraction(rng.randint(0, 50 * 89), 89))
                    inr, sv = region_contains(vr.region, p), sees(sc, g, p)
                    if inr != sv:
                        assert sv and not inr and on_whisker(sc, g, p)

    def test_adversarial_points(self):
        scenes = [gen_random(GeneratorParams(k=k, seed=k, grid=grid))
                  for k in range(1, 7) for grid in (40, 200)]
        scenes += [gen_3k1_necessity(1), gen_3k1_necessity(2), rot3k1_counterexample()]
        for sc in scenes:
            for g in candidate_set(sc, include_p_corners=True):
                region = visibility_region(sc, g).region
                for p in adversarial_points(sc, g.position(sc)):
                    inr, sv = region_contains(region, p), sees(sc, g, p)
                    if inr != sv:
                        assert sv and not inr and on_whisker(sc, g, p), (g, p)

    def test_region_subset_of_visible(self):
        # every region vertex must itself be seen
        sc = gen_random(GeneratorParams(k=4, seed=11, grid=60))
        for g in candidate_set(sc)[::5]:
            vr = visibility_region(sc, g)
            for cell in vr.region.cells:
                for v in cell:
                    assert sees(sc, g, v)


class TestProperties:
    def test_monotone_under_hole_removal(self):
        sc = gen_random(GeneratorParams(k=4, seed=3, grid=60))
        g = hole_guard(0, 2, N)
        with_hole = visibility_region(sc, g).region
        fewer = Scene(bounds=sc.bounds, holes=sc.holes[:-1])
        without = visibility_region(fewer, g).region
        assert with_hole.difference(without).is_empty()

    def test_halfplane_clipping(self):
        sc = city_a()
        for corner in range(4):
            for facing in (N, E, S, W):
                g = hole_guard(0, corner, facing)
                vr = visibility_region(sc, g)
                pos = g.position(sc)
                fx, fy = g.facing
                for cell in vr.region.cells:
                    for v in cell:
                        assert (v.x - pos.x) * fx + (v.y - pos.y) * fy >= 0

    def test_region_vertices_in_front_of_guard(self):
        for seed in (1, 2, 3):
            sc = gen_random(GeneratorParams(k=3, seed=seed, grid=40))
            for g in candidate_set(sc, include_p_corners=True):
                pos = g.position(sc)
                fx, fy = g.facing
                for cell in visibility_region(sc, g).region.cells:
                    for v in cell:
                        assert (v.x - pos.x) * fx + (v.y - pos.y) * fy >= 0

    def test_star_shaped(self):
        rng = random.Random(5)
        sc = gen_random(GeneratorParams(k=3, seed=9, grid=40))
        g = candidate_set(sc)[10]
        vr = visibility_region(sc, g)
        pos = g.position(sc)
        pts = [p for cell in vr.region.cells for p in cell][:100]
        for p in pts:
            for i in range(1, 10):
                t = Fraction(i, 10)
                q = Point(pos.x + t * (p.x - pos.x), pos.y + t * (p.y - pos.y))
                assert region_contains(vr.region, q), (g, p, q)

    def test_schedule_independence(self):
        sc = gen_random(GeneratorParams(k=5, seed=2, grid=80))
        g = hole_guard(2, 1, W)
        r1 = visibility_region(sc, g).region
        r2 = visibility_region(sc, g).region
        assert r1.cells == r2.cells


class TestSweepCells:
    def test_cells_are_reduced_ccw_triangles_of_seen_points(self):
        # total region area over every candidate with P corners, computed by
        # the sweep that built Fraction ray hits and normalized Point triangles
        areas = [
            (gen_random(GeneratorParams(k=3, seed=1, grid=40)),
             Fraction(11303592112691, 334639305)),
            (gen_random(GeneratorParams(k=3, seed=2, grid=40)),
             Fraction(3639046111925207, 104640255720)),
            (gen_3k1_necessity(2), Fraction(1092556157872, 337365)),
        ]
        for sc, total in areas:
            got = 0
            for g in candidate_set(sc, include_p_corners=True):
                vr = visibility_region(sc, g)
                pos = h_point(g.position(sc))
                for hc in vr.cells:
                    assert hc.pts[0] == pos and len(hc.pts) == 3
                    assert _h_normalized(hc.pts) == hc.pts
                    for i, (A, B, C) in enumerate(hc.lines):  # the sweep's lines
                        sides = [A * X + B * Y + C * W for X, Y, W in hc.pts]
                        assert sides[i] == sides[(i + 1) % 3] == 0 < sides[i - 1]
                    for v in hc.pts:
                        assert h_point(h_to_point(v)) == v  # reduced, W > 0
                for cell in vr.region.cells:
                    for v in cell:
                        assert sees(sc, g, v)
                got += vr.region.area()
            assert got == total


_FAN_FACINGS = (N, E, S, W, (1, 1), (2, -1), (-1, 3))


def _fan_scenes():
    """Random scenes at k = 0..8 on grids 100 and 1000, and at k = 0..4 on
    grid 12 (the generator places no more there at seed k); k = 16 and 28
    on grid 1000; the rotated 3k+1 family at k = 1, 2 and its
    counterexample.  Also the k = 8 scene and the family at k = 2 scaled by
    1/3 and shifted by 1/7, shifted by 10^17, and scaled by 10^-400, where
    the fan's integer lines and the sweep's Fraction hits differ most."""
    cases = [pytest.param(lambda k=k, grid=grid: gen_random(
                              GeneratorParams(k=k, seed=k, grid=grid)),
                          id=f"random-k{k}-grid{grid}")
             for grid in (12, 100, 1000) for k in range(5 if grid == 12 else 9)]
    cases += [pytest.param(lambda k=k: gen_random(GeneratorParams(k=k, seed=0, grid=1000)),
                           id=f"random-k{k}-grid1000") for k in (16, 28)]
    cases += [pytest.param(lambda k=k: gen_3k1_necessity(k), id=f"rot3k1-k{k}")
              for k in (1, 2)]
    cases += [pytest.param(lambda make=make, image=image: scaled_and_shifted(make(), *image),
                           id=f"{name}-{label}")
              for name, make in (("random-k8", lambda: gen_random(GeneratorParams(k=8, seed=8))),
                                 ("rot3k1-k2", lambda: gen_3k1_necessity(2)))
              for label, image in (("thirds", (Fraction(1, 3), Fraction(1, 7), Fraction(1, 7))),
                                   ("1e17", (1, 10**17, 10**17)),
                                   ("1e-400", (Fraction(1, 10**400), 0, 0)))]
    return cases + [pytest.param(rot3k1_counterexample, id="rot3k1-k3")]


class TestFanAgainstSweep:
    """Differential: every region read from an anchor's fan equals the
    reference sweep (which puts the facing's edge directions among its
    critical directions and tests every wedge) cell for cell, vertices,
    edge lines and order, at every anchor, P corners included, for the
    wall-aligned facings and three askew ones, read one at a time
    (`visibility_region`) and through the kept fans (`AnchorFans`)."""

    @pytest.mark.parametrize("make", _fan_scenes())
    def test_every_anchor_and_facing(self, monkeypatch, make):
        sc = make()
        anchors = sorted({g.anchor for g in candidate_set(sc, include_p_corners=True)})
        guards = [Guard(anchor, f) for anchor in anchors for f in _FAN_FACINGS]
        expected = {g: [(c.pts, c.lines) for c in sweep(sc, g).cells] for g in guards}
        # anchor by anchor the fan slot is hit; shuffled it is mostly missed
        for order in (guards, random.Random(sc.k).sample(guards, len(guards))):
            reset_region_cache(monkeypatch)
            for g in order:
                got = [(c.pts, c.lines) for c in visibility_region(sc, g).cells]
                assert got == expected[g], g
        # the oracle's route: one fan kept per anchor, each region walked
        # from it on first read
        reset_region_cache(monkeypatch)
        fans = AnchorFans(sc, guards)
        for i, g in enumerate(guards):
            assert [(c.pts, c.lines) for c in fans[i].cells] == expected[g], g
        assert any(expected.values())


def _membership_scenes():
    """Random scenes at k = 1..3 on grids 20, 30 and 40, where grazing and
    collinear lines are common, the rotated 3k+1 family at k = 1, 2, and
    a random scene scaled by 1/3 and one shifted by 10^17."""
    cases = [pytest.param(lambda k=k, grid=grid: gen_random(
                              GeneratorParams(k=k, seed=grid + k, grid=grid)),
                          id=f"random-k{k}-grid{grid}")
             for grid in (20, 30, 40) for k in (1, 2, 3)]
    cases += [pytest.param(lambda k=k: gen_3k1_necessity(k), id=f"rot3k1-k{k}")
              for k in (1, 2)]
    return cases + [pytest.param(lambda s=s, d=d: scaled_and_shifted(gen_random(
                                     GeneratorParams(k=3, seed=43, grid=40)), s, d, d),
                                 id=name)
                    for name, s, d in (("thirds", Fraction(1, 3), 0), ("1e17", 1, 10 ** 17))]


def _h_mid(a, b):
    return (a[0] * b[2] + b[0] * a[2], a[1] * b[2] + b[1] * a[2], 2 * a[2] * b[2])


def _probe_points(sc, vr):
    """Each cell's vertices, edge midpoints and vertex mean; the apex;
    points on each run's start and end rays before, at and beyond the
    blocking edge (or at two distances, without a blocker); and points at
    half steps on the guard's half-plane boundary line, across the
    bounds."""
    apex = h_point(vr.guard.position(sc))
    ax, ay, aw = apex
    pts = {apex}
    for cell in vr.cells:
        pts.add(h_mean(cell))
        for a, b in zip(cell.pts, cell.pts[1:] + cell.pts[:1]):
            pts |= {a, _h_mid(a, b)}
    for d1, line, d2 in vr.runs:
        for d in (d1, d2):
            if line is None:
                hit = (ax + d[0] * aw, ay + d[1] * aw, aw)
            else:
                hit = _h_meet(_h_line(apex, d + (0,)), line)
            beyond = (2 * hit[0] * aw - ax * hit[2], 2 * hit[1] * aw - ay * hit[2],
                      aw * hit[2])
            pts |= {_h_mid(apex, hit), hit, beyond}
    fx, fy = vr.guard.facing
    span = ceil(2 * max(sc.bounds.x1 - sc.bounds.x0, sc.bounds.y1 - sc.bounds.y0))
    pts |= {(2 * ax + t * fy * aw, 2 * ay - t * fx * aw, 2 * aw) for t in range(-span, span + 1)}
    return pts


def _ray_points(sc, g):
    """The apex, and the points on the rays from g's anchor through every
    vertex of the scene and along both edge directions of its half-plane
    (e1 and e2), at 1/3, 1/2, 3/2 and 2 of the vertex's distance or of
    the bounds' larger side."""
    pos = g.position(sc)
    fx, fy = g.facing
    span = max(sc.bounds.x1 - sc.bounds.x0, sc.bounds.y1 - sc.bounds.y0)
    ends = [c for h in sc.holes for c in h.corners()] + list(sc.bounds.corners())
    ends += [Point(pos.x + fy * span, pos.y - fx * span), Point(pos.x - fy * span, pos.y + fx * span)]
    pts = {h_point(pos)}
    for t in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 2), 2):
        pts |= {h_point(Point(pos.x + t * (q.x - pos.x), pos.y + t * (q.y - pos.y)))
                for q in ends if q != pos}
    return pts


class TestMembership:
    """Differential: the fans' masks (`AnchorFans.mask`), one search per
    anchor, equal the closed test over each region's cells,
    `h_cells_contain(visibility_region(sc, g).cells, hp)`, bit by bit for
    every candidate with P corners, at the points where a closed test can
    slip (`_probe_points`, `_ray_points`) and at the witnesses of one
    oracle call."""

    @pytest.mark.parametrize("make", _membership_scenes())
    def test_equals_the_cells_test(self, make):
        sc = make()
        cands = candidate_set(sc, include_p_corners=True)
        fans = AnchorFans(sc, cands)
        regions = [visibility_region(sc, g) for g in cands]
        at = {}
        for i, g in enumerate(cands):
            at.setdefault(g.anchor, []).append(i)
        for group in at.values():
            pts = set()
            for i in group:
                pts |= _probe_points(sc, regions[i]) | _ray_points(sc, cands[i])
            for hp in pts:
                mask = fans.mask(hp)
                for i in group:
                    assert bool(mask >> i & 1) == h_cells_contain(regions[i].cells, hp), \
                        (cands[i], hp)
            apex = h_point(cands[group[0]].position(sc))
            assert [fans.mask(apex) >> i & 1 for i in group] == \
                [bool(regions[i].cells) for i in group]
        res = optimal_guard_count(sc, cands, 3 * sc.k + 1)
        assert res.status == OPTIMAL
        for p, mask in res.faces:
            hp = h_point(p)
            assert mask == fans.mask(hp) == \
                sum(1 << i for i, vr in enumerate(regions) if h_cells_contain(vr.cells, hp))

    def test_masks_walk_no_region(self, monkeypatch):
        """The masks read the fans' blockers: at the witnesses of one
        oracle call, fresh fans answer with no `_triangle` call and no
        region walk (`_Fan.region`).  A call walks only the regions of
        candidates that some round chose, each once; a call that ends
        INFEASIBLE_WITHIN subtracts, and so walks, every region."""
        reset_region_cache(monkeypatch)
        triangles, walks, chosen = [], [], set()
        triangle, walk, search = visibility._triangle, visibility._Fan.region, \
            oracle.min_hitting_set
        monkeypatch.setattr(visibility, "_triangle",
                            lambda *a: triangles.append(a) or triangle(*a))
        monkeypatch.setattr(visibility._Fan, "region",
                            lambda fan, g: walks.append(g) or walk(fan, g))

        def recorded(*args):
            best = search(*args)
            chosen.update(best or ())
            return best

        monkeypatch.setattr(oracle, "min_hitting_set", recorded)
        sc = gen_random(GeneratorParams(k=2, seed=32, grid=30))
        cands = candidate_set(sc, include_p_corners=True)
        res = optimal_guard_count(sc, cands, 3 * sc.k + 1)
        assert res.status == OPTIMAL
        assert walks and len(walks) == len(set(walks))
        assert set(walks) <= {cands[i] for i in chosen} < set(cands)
        reset_region_cache(monkeypatch)
        triangles.clear(), walks.clear()
        fans = AnchorFans(sc, cands)
        assert [fans.mask(h_point(p)) for p, _ in res.faces] == [m for _, m in res.faces]
        assert not triangles and not walks
        sc = gen_3k1_necessity(2)
        cands = candidate_set(sc)
        reset_region_cache(monkeypatch)
        walks.clear()
        assert optimal_guard_count(sc, cands, 6).status == INFEASIBLE_WITHIN
        assert sorted(walks) == sorted(cands)

    def test_run_without_area_raises(self, monkeypatch):
        """A run with a line always has area (`_triangle`); a triangle
        that does not turn strictly CCW raises instead of being skipped,
        which would leave the masks holding points that no cell holds."""
        monkeypatch.setattr(visibility, "_h_orient", lambda *a: 0)
        reset_region_cache(monkeypatch)
        sc = gen_random(GeneratorParams(k=2, seed=32, grid=30))
        vr = visibility_region(sc, candidate_set(sc)[0])
        assert any(line is not None for _, line, _ in vr.runs)
        with pytest.raises(MalformedPolygonError, match="has no area"):
            vr.cells


class TestOneExactForm:
    """The fan and `sees` read each building's exact form from
    `scene.hole_cells`: neither builds a line or converts a corner of a
    building."""

    def test_fan_builds_no_edge_line(self, monkeypatch):
        """Every candidate's region of a random k = 8 scene, P corners
        included, is swept with no `_h_line` call; reading the cells then
        makes the rays' lines."""
        sc = gen_random(GeneratorParams(k=8, seed=8, grid=320))
        cands = candidate_set(sc, include_p_corners=True)
        reset_region_cache(monkeypatch)
        calls = []
        real = visibility._h_line
        monkeypatch.setattr(visibility, "_h_line", lambda *a: calls.append(a) or real(*a))
        regions = [visibility_region(sc, g) for g in cands]
        assert not calls
        assert not any("cells" in vars(vr) for vr in regions)
        assert any(vr.cells for vr in regions) and calls

    def test_sees_converts_two_points(self, monkeypatch):
        """On a random k = 16 scene, from every candidate to every corner
        and vertex mean of a building, `sees` converts at most the guard's
        position and the point, however many building bboxes the segment
        crosses."""
        sc = gen_random(GeneratorParams(k=16, seed=16, grid=640))
        cands = candidate_set(sc, include_p_corners=True)
        points = [c for h in sc.holes for c in h.corners()]
        points += [h_to_point(h_mean(h_cell(h.corners()))) for h in sc.holes]
        calls = []
        for module in (geom, visibility):
            monkeypatch.setattr(module, "h_point",
                                lambda p, real=module.h_point: calls.append(p) or real(p))
        crossed = []
        for g in cands:
            pos = g.position(sc)
            for p in points:
                calls.clear()
                sees(sc, g, p)
                assert len(calls) <= 2
                if calls:
                    x0, x1 = sorted((pos.x, p.x))
                    y0, y1 = sorted((pos.y, p.y))
                    crossed.append(sum(x0 < h.x1 and h.x0 < x1 and y0 < h.y1 and h.y0 < y1
                                       for h in sc.holes))
        assert len(crossed) > 1000 and max(crossed) >= 4


class TestDirectionOrder:
    """A fan orders its directions by float angle and checks each adjacent
    pair exactly; where the floats tie or misorder, it falls back to the
    exact sort."""

    # (10^9, 10^9 - 1), (10^9 + 1, 10^9), (10^9 + 2, 10^9 + 1): each pair's
    # cross product is 1, so their angles differ by about 10^-18, below the
    # float spacing near pi/4
    NEAR = ((10**9, 10**9 - 1), (10**9 + 1, 10**9), (10**9 + 2, 10**9 + 1))

    def test_float_ties_are_sorted_exactly(self):
        u, v, w = self.NEAR
        assert _angular_cmp(u, v) < 0 and _angular_cmp(v, w) < 0
        assert len({atan2(d[1], d[0]) for d in self.NEAR}) < 3
        for order in permutations(self.NEAR):
            assert visibility._sorted_directions(order + ((1, 0), (0, -1))) == \
                [(1, 0), u, v, w, (0, -1)]

    def test_regions_match_the_exact_sort(self, monkeypatch):
        """A guard at the origin sees building corners in the three near
        directions (at 2u, v and 3w); the fallback runs, and every region
        of the scene equals the one swept with the exact sort alone."""
        u, v, w = self.NEAR
        big = 10**9
        sc = Scene(bounds=make_axis_rect(0, 0, 4 * big, 4 * big), holes=(
            make_axis_rect(2 * u[0], 2 * u[1], 2 * u[0] + 10, 2 * u[1] + 10),
            make_axis_rect(v[0], v[1], v[0] + 10, v[1] + 10),
            make_axis_rect(3 * w[0], 3 * w[1], 3 * w[0] + 10, 3 * w[1] + 10)))
        guards = candidate_set(sc, include_p_corners=True)
        fallbacks = []
        exact = visibility.cmp_to_key
        monkeypatch.setattr(visibility, "cmp_to_key",
                            lambda cmp: fallbacks.append(cmp) or exact(cmp))
        fast = [visibility._Fan(sc, g).region(g).cells for g in guards]
        assert fallbacks and fallbacks.count(_angular_cmp) == len(fallbacks)
        monkeypatch.setattr(visibility, "_sorted_directions",
                            lambda dirs: sorted(dirs, key=exact(_angular_cmp)))
        for g, cells in zip(guards, fast):
            assert [(c.pts, c.lines) for c in cells] == \
                [(c.pts, c.lines) for c in visibility._Fan(sc, g).region(g).cells]
        assert any(cells for cells in fast)


class TestRegionCache:
    def test_equal_scene_shares_regions(self):
        g = hole_guard(0, 1, E)
        vr = visibility_region(city_a(), g)
        assert visibility_region(city_a(), g) is vr

    def test_new_scene_drops_the_old_regions(self):
        scene_a = gen_random(GeneratorParams(k=3, seed=21, grid=40))
        scene_b = gen_random(GeneratorParams(k=3, seed=22, grid=40))
        guards_a = candidate_set(scene_a)[:3]
        vr = visibility_region(scene_a, guards_a[0])
        others = [visibility_region(scene_a, g) for g in guards_a[1:]]
        for g in candidate_set(scene_b)[:3]:
            visibility_region(scene_b, g)
        ref = weakref.ref(vr)
        del vr
        assert ref() is None
        assert visibility_region(scene_a, guards_a[1]) is not others[0]

    def test_one_fan_is_kept(self, monkeypatch):
        """The cache holds one fan, the last anchor's: a region at another
        anchor replaces it, and another scene's region drops it with the
        scene's regions."""
        reset_region_cache(monkeypatch)
        sc = gen_random(GeneratorParams(k=3, seed=21, grid=40))
        visibility_region(sc, hole_guard(0, 1, N))
        fan = visibility._cache[3][0]
        assert fan.anchor == ("hole", 0, 1)
        visibility_region(sc, hole_guard(0, 1, E))
        assert visibility._cache[3][0] is fan
        ref = weakref.ref(fan)
        del fan
        visibility_region(sc, hole_guard(2, 3, S))
        assert ref() is None and visibility._cache[3][0].anchor == ("hole", 2, 3)
        ref = weakref.ref(visibility._cache[3][0])
        visibility_region(gen_random(GeneratorParams(k=3, seed=22, grid=40)),
                          hole_guard(2, 3, S))
        assert ref() is None

    def test_invalid_anchor_builds_no_fan(self, monkeypatch, tmp_path):
        """A guard on no corner of the scene raises ValueError before a
        fan is built, keeping the last one; the CLI exits 2 on it."""
        reset_region_cache(monkeypatch)
        sc = city_a()
        visibility_region(sc, hole_guard(0, 1, E))
        fan = visibility._cache[3][0]
        for g in (hole_guard(1, 0, E), hole_guard(0, 4, E), p_corner_guard(4, N)):
            with pytest.raises(ValueError, match="names no corner"):
                visibility_region(sc, g)
            assert visibility._cache[3][0] is fan and g not in visibility._cache[1]
        scene, sol = tmp_path / "s.json", tmp_path / "g.json"
        scene.write_text(json.dumps({"bounds": [0, 0, 10, 10],
                                     "buildings": [{"base": [4, 4, 6, 6], "height": 3}]}))
        sol.write_text(json.dumps({"algorithm": "x", "guards": [
            {"anchor": {"building": 1, "corner": 0}, "facing": [1, 0]}]}))
        assert main(["verify", "--scene", str(scene), "--solution", str(sol)]) == 2
