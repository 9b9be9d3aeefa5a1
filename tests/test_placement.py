import hashlib
from fractions import Fraction

import pytest

from cityguard.errors import PlacementIncompleteError
from cityguard.geom import AxisRect, Point, make_axis_rect
from cityguard.instances import GeneratorParams, gen_random, gen_random_city
from cityguard.io import parse_city
from cityguard.model import (
    City, Guard, Scene, Solution, W, hole_guard, p_corner_guard, rotate_scene_ccw,
)
import cityguard.placement as placement
from cityguard.placement import (
    ALLOW_P_CORNER, BUILDINGS_ONLY, _anchor_guards, city_guarding, guards_2k1,
    guards_main, partition_2k1, roof_guarding,
)
from cityguard.staircase import staircase_sharing
from cityguard.verify import certify, certify_city, free_space
from references import (
    _orthogonal_partition, _partition_walls, boundary, is_xy_monotone, mirror_scene,
    roof_covered_by,
)


def city_a():
    return parse_city({"bounds": [0, 0, 10, 10],
                       "buildings": [{"base": [4, 4, 6, 6], "height": 3}]}).scene


def city_b():
    return parse_city({"bounds": [0, 0, 100, 100], "buildings": [
        {"base": [10, 60, 30, 80], "height": 1},
        {"base": [60, 65, 85, 90], "height": 1},
        {"base": [15, 15, 40, 35], "height": 1},
        {"base": [55, 10, 90, 40], "height": 1}]}).scene


CASE2_BASES = [[2, 5, 4, 16], [5, 1, 8, 4], [10, 10, 20, 20],
               [12, 30, 18, 55], [40, 12, 60, 17], [80, 40, 90, 50]]
CASE3_BASES = [[100, 500, 900, 520],
               [200, 600, 220, 620], [400, 700, 420, 720], [600, 800, 620, 820],
               [50, 200, 70, 220], [300, 100, 320, 120], [700, 300, 720, 320],
               [850, 50, 880, 80], [920, 250, 950, 270]]


def _bases_scene(bounds, bases):
    return parse_city({"bounds": bounds,
                       "buildings": [{"base": b, "height": 1} for b in bases]}).scene


class TestPartition:
    def test_k0_single_region(self):
        sc = Scene(bounds=make_axis_rect(0, 0, 10, 10), holes=())
        regions = partition_2k1(sc)
        assert len(regions) == 1
        assert boundary(regions[0]).area() == 100

    def test_city_a_exact_regions(self):
        regions = partition_2k1(city_a())
        assert len(regions) == 3
        areas = sorted(boundary(r).area() for r in regions)
        assert areas == [8, 24, 64]  # [0,4]x[4,6], [0,6]x[6,10], the L-shape

    def test_city_b_count(self):
        assert len(partition_2k1(city_b())) == 9

    def test_disjoint_union_monotone(self):
        for sc in (city_a(), city_b(), gen_random(GeneratorParams(k=7, seed=5, grid=80))):
            regions = partition_2k1(sc)
            total = sum(boundary(r).area() for r in regions)
            assert total == free_space(sc).area()
            for i, r in enumerate(regions):
                for other in regions[i + 1:]:
                    part = boundary(r)
                    assert part.difference(boundary(other)).area() == part.area()
                assert is_xy_monotone(r)

    def test_anchor_covers_own_region(self):
        from cityguard.visibility import visibility_region
        for r in partition_2k1(city_b()):
            region = visibility_region(city_b(), r.anchor_guard).region
            assert boundary(r).difference(region).is_empty()


def _case_scenes():
    """Scenes that dispatch to each of Cases 0-4."""
    return [city_a(), city_b(), _bases_scene([0, 0, 100, 100], CASE2_BASES),
            _bases_scene([0, 0, 1000, 1000], CASE3_BASES),
            _bases_scene([0, 0, 1000, 1000], CASE3_BASES + [[925, 505, 945, 515]]),
            gen_random(GeneratorParams(k=5, seed=155, grid=1000)),  # Case 1
            gen_random(GeneratorParams(k=5, seed=74, grid=1000))]  # Case 4


def _check_partition_definition(sc):
    """The partition read off its definition: the grid of all hole lines
    splits P into cells, and two free cells that share a side are in one
    region iff no extension wall covers that side.  Each region's anchor
    is its SE corner, facing W."""
    b = sc.bounds
    xs = sorted({b.x0, b.x1} | {h.x0 for h in sc.holes} | {h.x1 for h in sc.holes})
    ys = sorted({b.y0, b.y1} | {h.y0 for h in sc.holes} | {h.y1 for h in sc.holes})
    free = set()
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            mid = Point(Fraction(xs[i] + xs[i + 1], 2), Fraction(ys[j] + ys[j + 1], 2))
            if not any(h.contains_open(mid) for h in sc.holes):
                free.add((i, j))
    region_of = {}
    for n, r in enumerate(partition_2k1(sc)):
        for rect in r.rects:
            cell = (xs.index(rect.x0), ys.index(rect.y0))
            assert (xs[cell[0] + 1], ys[cell[1] + 1]) == (rect.x1, rect.y1)
            assert cell not in region_of
            region_of[cell] = n
        x_right = max(rect.x1 for rect in r.rects)
        se = Point(x_right, min(rect.y0 for rect in r.rects if rect.x1 == x_right))
        assert r.anchor_guard.position(sc) == se
        assert r.anchor_guard.facing == W
    assert set(region_of) == free
    v_walls, h_walls = _partition_walls(sc)
    for (i, j) in free:
        if (i + 1, j) in free:
            walled = any(x == xs[i + 1] and lo <= ys[j] and ys[j + 1] <= hi
                         for (x, lo, hi) in v_walls)
            assert (region_of[i, j] == region_of[i + 1, j]) != walled
        if (i, j + 1) in free:
            walled = any(y == ys[j + 1] and lo <= xs[i] and xs[i + 1] <= hi
                         for (y, lo, hi) in h_walls)
            assert (region_of[i, j] == region_of[i, j + 1]) != walled


class TestPartitionDefinition:
    @pytest.mark.parametrize("t", range(4))
    def test_case_scenes(self, t):
        for sc in _case_scenes():
            _check_partition_definition(rotate_scene_ccw(sc, t))

    def test_case_scenes_cover_every_dispatch_case(self):
        assert {staircase_sharing(sc).case for sc in _case_scenes()} == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("t", range(4))
    def test_random_scenes(self, t):
        for k in range(13):
            for seed in (3, 8):
                sc = gen_random(GeneratorParams(k=k, seed=100 * k + seed, grid=1000))
                _check_partition_definition(rotate_scene_ccw(sc, t))


def _grid_regions(frame):
    """The grid partition's faces as (the guard at the face's SE corner
    facing W, the face's sorted rects), sorted; a corner is named by the
    first building corner on it, else by P's corner."""
    names = {}
    for i, h in enumerate(frame.holes):
        for c, p in enumerate(h.corners()):
            names.setdefault(p, ("hole", i, c))
    for c, p in enumerate(frame.bounds.corners()):
        names.setdefault(p, ("p", c))
    regions = []
    for rects in _orthogonal_partition(frame):
        x_right = max(r.x1 for r in rects)
        se = Point(x_right, min(r.y0 for r in rects if r.x1 == x_right))
        regions.append((Guard(anchor=names[se], facing=W), tuple(sorted(rects))))
    return sorted(regions)


def _check_anchor_rule(frame):
    anchors = _anchor_guards(frame)
    assert list(anchors.values()) == [g for g, _ in _grid_regions(frame)]
    assert all(g.position(frame) == p for p, g in anchors.items())
    # `_hole_vertex_partition_guards` appends a frame's stand-ins for P's
    # corner: at most one anchor is off a building, P's SE corner, and it is last
    guards = list(anchors.values())
    off = [g for g in guards if not g.on_hole()]
    assert off in ([], [Guard(anchor=("p", 1), facing=W)])
    assert guards[len(guards) - len(off):] == off


class TestPartitionAgainstGrid:
    """`partition_2k1`'s walk East gives the faces of the reference grid
    partition (`references._orthogonal_partition`), rect for rect."""

    @staticmethod
    def _check(sc):
        assert [(r.anchor_guard, r.rects) for r in partition_2k1(sc)] == _grid_regions(sc)

    def test_random_scenes(self):
        for k in range(25):
            for seed in (2, 7):
                self._check(gen_random(GeneratorParams(k=k, seed=100 * k + seed, grid=1000)))

    def test_case_scenes_on_eight_symmetries(self):
        for sc in _case_scenes():
            for image in (sc, mirror_scene(sc)):
                for t in range(4):
                    self._check(rotate_scene_ccw(image, t))


def _snapped_frames(sc):
    """Frames of `sc` with one building moved onto one or two sides of P,
    kept where it stays apart from every other building."""
    b = sc.bounds
    for i, h in enumerate(sc.holes):
        for sides in ("W", "N", "E", "S", "ES", "EN", "WS", "WN", "WE", "NS"):
            snapped = AxisRect(b.x0 if "W" in sides else h.x0, b.y0 if "S" in sides else h.y0,
                               b.x1 if "E" in sides else h.x1, b.y1 if "N" in sides else h.y1)
            others = sc.holes[:i] + sc.holes[i + 1:]
            if all(o.x1 < snapped.x0 or snapped.x1 < o.x0 or o.y1 < snapped.y0
                   or snapped.y1 < o.y0 for o in others):
                yield Scene(bounds=b, holes=sc.holes[:i] + (snapped,) + sc.holes[i + 1:])


class TestAnchorRule:
    """The anchors read off the buildings are those of the grid partition."""

    def test_random_scenes(self):
        for k in range(24):
            for seed in (1, 6):
                _check_anchor_rule(gen_random(GeneratorParams(k=k, seed=100 * k + seed,
                                                              grid=1000)))

    def test_frames_of_cases_0_to_4(self, monkeypatch):
        frames = []
        inner = placement._hole_vertex_partition_guards

        def recording(scene, replace_with):
            frames.append(scene)
            return inner(scene, replace_with)

        monkeypatch.setattr(placement, "_hole_vertex_partition_guards", recording)
        scenes = _case_scenes() + [_case3ii_city(t).scene for t in range(4)]
        for sc in scenes:
            guards_main(sc)
        on_a_side = [f for f in frames if any(
            h.x0 == f.bounds.x0 or h.y0 == f.bounds.y0 or h.x1 == f.bounds.x1
            or h.y1 == f.bounds.y1 for h in f.holes)]
        assert len(frames) >= len(scenes) and on_a_side
        for frame in scenes + frames:
            _check_anchor_rule(frame)

    def test_buildings_on_sides_of_p(self):
        frames = [Scene(bounds=make_axis_rect(0, 0, 100, 100),
                        holes=(make_axis_rect(10, 50, 30, 70), make_axis_rect(60, 0, 100, 30)))]
        for k in range(1, 7):
            for seed in range(4):
                frames.extend(_snapped_frames(
                    gen_random(GeneratorParams(k=k, seed=10 * k + seed, grid=1000))))
        on_se = [f for f in frames if any(
            (h.x1, h.y0) == (f.bounds.x1, f.bounds.y0) for h in f.holes)]
        assert len(on_se) >= 10
        for frame in frames:
            _check_anchor_rule(frame)

    def test_partition_checks_the_rule(self, monkeypatch):
        sc = city_b()

        def moved(scene):
            # building 0's NE anchor moved to its NW corner
            anchors = _anchor_guards(scene)
            del anchors[scene.holes[0].corners()[2]]
            anchors[scene.holes[0].corners()[3]] = hole_guard(0, 3, W)
            return anchors

        monkeypatch.setattr(placement, "_anchor_guards", moved)
        with pytest.raises(PlacementIncompleteError, match="not an anchor"):
            partition_2k1(sc)

    def test_guards_2k1_are_the_partition_anchors_on_eight_symmetries(self):
        for sc in (city_b(), gen_random(GeneratorParams(k=9, seed=21, grid=1000))):
            for image in (sc, mirror_scene(sc)):
                for t in range(4):
                    s = rotate_scene_ccw(image, t)
                    assert guards_2k1(s).guards == \
                        tuple(r.anchor_guard for r in partition_2k1(s))


class TestGuards2k1:
    def test_k0(self):
        sc = Scene(bounds=make_axis_rect(0, 0, 10, 10), holes=())
        sol = guards_2k1(sc)
        assert sol.count == 1
        assert sol.guards[0] == p_corner_guard(1, W)

    def test_city_a_exact(self):
        sol = guards_2k1(city_a())
        assert set(sol.guards) == {hole_guard(0, 2, W), hole_guard(0, 0, W),
                                   p_corner_guard(1, W)}
        assert certify(city_a(), sol.guards).covered

    def test_city_b(self):
        sol = guards_2k1(city_b())
        assert sol.count <= 9 and sol.p_corner_count() <= 1
        assert certify(city_b(), sol.guards).covered

    def test_random_certified(self):
        for seed in range(4):
            for k in (1, 4, 7):
                sc = gen_random(GeneratorParams(k=k, seed=seed, grid=64))
                sol = guards_2k1(sc)
                assert sol.count <= 2 * k + 1
                assert sol.p_corner_count() <= 1
                assert certify(sc, sol.guards).covered


class TestGuardsMain:
    def test_city_a_case0(self):
        sol = guards_main(city_a())
        assert sol.count == 4  # 2k + 2
        assert all(g.on_hole() for g in sol.guards)
        assert certify(city_a(), sol.guards).covered
        assert sol.trace[0][0] == "case0"

    def test_case2_four_on_shared(self):
        sc = _bases_scene([0, 0, 100, 100], CASE2_BASES)
        sol = guards_main(sc)
        assert sol.trace[0][0] == "case2"
        shared = sol.trace[0][1]
        assert sol.count <= 2 * sc.k + 2
        assert sum(1 for g in sol.guards if g.anchor[1] == shared) == 4
        assert certify(sc, sol.guards).covered

    def test_case3_both_subcases(self):
        sc = _bases_scene([0, 0, 1000, 1000], CASE3_BASES)
        sol = guards_main(sc)
        assert sol.trace[0][0] == "case3i"
        assert sol.count <= 2 * sc.k + sc.k // 4 + 4
        assert certify(sc, sol.guards).covered

        sc2 = _bases_scene([0, 0, 1000, 1000], CASE3_BASES + [[925, 505, 945, 515]])
        sol2 = guards_main(sc2)
        assert sol2.trace[0][0] == "case3ii"
        assert sol2.count <= 2 * sc2.k + sc2.k // 4 + 4
        assert certify(sc2, sol2.guards).covered

    def test_random_certified_and_bounded(self):
        for seed in range(4):
            for k in (1, 3, 6, 9):
                sc = gen_random(GeneratorParams(k=k, seed=seed + 50, grid=100))
                sol = guards_main(sc)
                assert sol.count <= 2 * k + k // 4 + 4
                assert all(g.on_hole() for g in sol.guards)
                assert certify(sc, sol.guards).covered

    def test_each_dispatch_analyses_its_scene_once(self, monkeypatch):
        import cityguard.placement as placement
        analysed = []

        def counting(scene):
            analysed.append(scene)
            return staircase_sharing(scene)

        monkeypatch.setattr(placement, "staircase_sharing", counting)
        case2 = _bases_scene([0, 0, 100, 100], CASE2_BASES)
        scenes = [city_a(), city_b()] + [rotate_scene_ccw(case2, t) for t in range(4)]
        scenes += [gen_random(GeneratorParams(k=k, seed=74, grid=1000)) for k in (5, 7)]
        for sc in scenes:
            analysed.clear()
            sol = guards_main(sc)
            assert analysed[0] == sc
            assert len(analysed) == len(sol.trace)  # one case label per dispatch

    def test_k0_rejected(self):
        sc = Scene(bounds=make_axis_rect(0, 0, 10, 10), holes=())
        with pytest.raises(ValueError):
            guards_main(sc)

    def test_deterministic(self):
        sc = gen_random(GeneratorParams(k=6, seed=77, grid=90))
        assert guards_main(sc) == guards_main(sc)
        assert guards_2k1(sc) == guards_2k1(sc)


class TestRoofGuarding:
    def test_k1(self):
        city = City(scene=city_a(), heights=(3,))
        sol = roof_guarding(city)
        assert sol.count == 1

    def test_k0(self):
        city = City(scene=Scene(bounds=make_axis_rect(0, 0, 5, 5), holes=()),
                    heights=())
        assert roof_guarding(city).count == 0

    def test_k3_and_quads(self):
        sc = parse_city({"bounds": [0, 0, 40, 40], "buildings": [
            {"base": [2, 2, 6, 6], "height": 9},
            {"quad": [[20, 10], [24, 14], [20, 18], [16, 14]], "height": 5},
            {"base": [30, 30, 34, 33], "height": 2}]}).scene
        city = City(scene=sc, heights=(9, 5, 2))
        sol = roof_guarding(city)
        assert sol.count == 3
        for i in range(3):
            assert any(roof_covered_by(sc, i, g) for g in sol.guards)


def _case3ii_city(t):
    sc = rotate_scene_ccw(
        _bases_scene([0, 0, 1000, 1000], CASE3_BASES + [[925, 505, 945, 515]]), t)
    return City(scene=sc, heights=tuple(range(1, sc.k + 1)))


class TestCityGuarding:
    def test_city_a_buildings_only(self):
        city = City(scene=city_a(), heights=(3,))
        sol = city_guarding(city, BUILDINGS_ONLY)
        assert sol.count == 4
        cert = certify_city(city, sol)
        assert cert.covered and cert.roof_flags == (True,)

    def test_city_a_allow_p_corner(self):
        city = City(scene=city_a(), heights=(3,))
        sol = city_guarding(city, ALLOW_P_CORNER)
        assert sol.count == 3
        assert certify_city(city, sol).covered

    def test_k0_modes(self):
        city = City(scene=Scene(bounds=make_axis_rect(0, 0, 10, 10), holes=()),
                    heights=())
        sol = city_guarding(city, ALLOW_P_CORNER)
        assert sol.count == 1
        assert certify_city(city, sol).covered
        with pytest.raises(ValueError):
            city_guarding(city, BUILDINGS_ONLY)

    @pytest.mark.parametrize("t", range(4))
    def test_case3ii_roof_repair(self, t):
        # guards_main leaves building 0's roof (the long slab) uncovered in
        # every quarter turn; city_guarding turns one of its guards
        city = _case3ii_city(t)
        sc = city.scene
        base = guards_main(sc)
        assert not any(roof_covered_by(sc, 0, g) for g in base.guards)
        sol = city_guarding(city, BUILDINGS_ONLY)
        fixes = [e for e in sol.trace if e[0] == "roof-fix"]
        assert [e[1] for e in fixes] == [0]
        assert sol.count == base.count
        assert certify_city(city, sol).covered

    def test_random_both_modes(self):
        for seed in (3, 14):
            for k in (2, 5, 8):
                city = gen_random_city(GeneratorParams(k=k, seed=seed, grid=80))
                cb = city_guarding(city, BUILDINGS_ONLY)
                assert cb.count <= 2 * k + k // 4 + 4
                assert certify_city(city, cb).covered
                cp = city_guarding(city, ALLOW_P_CORNER)
                assert cp.count <= 2 * k + 1
                assert certify_city(city, cp).covered


class TestCityGuardingBase:
    """city_guarding on a base placement the caller has built."""

    @pytest.mark.parametrize("mode,build", [(BUILDINGS_ONLY, guards_main),
                                            (ALLOW_P_CORNER, guards_2k1)])
    def test_base_gives_the_same_solution(self, mode, build):
        for k in range(1, 13):
            city = gen_random_city(GeneratorParams(k=k, seed=100 + k, grid=200))
            assert city_guarding(city, mode, base=build(city.scene)) == \
                city_guarding(city, mode)

    @pytest.mark.parametrize("t", range(4))
    def test_case3ii_roof_repair_on_a_base(self, t):
        city = _case3ii_city(t)
        sol = city_guarding(city, BUILDINGS_ONLY, base=guards_main(city.scene))
        assert sol == city_guarding(city, BUILDINGS_ONLY)
        assert [e[1] for e in sol.trace if e[0] == "roof-fix"] == [0]

    def test_base_of_the_other_mode_is_refused(self):
        city = gen_random_city(GeneratorParams(k=5, seed=4, grid=200))
        with pytest.raises(ValueError, match="walls-main"):
            city_guarding(city, BUILDINGS_ONLY, base=guards_2k1(city.scene))
        with pytest.raises(ValueError, match="walls-2k1"):
            city_guarding(city, ALLOW_P_CORNER, base=guards_main(city.scene))

    def test_base_that_leaves_a_residual_is_refused(self):
        city = gen_random_city(GeneratorParams(k=6, seed=0, grid=200))
        full = guards_main(city.scene)
        mid = full.count // 2
        short = Solution(algorithm=full.algorithm, trace=full.trace,
                         guards=full.guards[:mid] + full.guards[mid + 1:])
        assert not certify(city.scene, short.guards).covered
        with pytest.raises(ValueError, match="does not cover"):
            city_guarding(city, BUILDINGS_ONLY, base=short)


def _pinned_cities():
    """Random cities, k = 1..16, seeds 0 and 1, grid 40k, in four quarter
    turns; then the Case 2, Case 3i and Case 3ii scenes in their eight
    symmetries (the random ones dispatch only Cases 0, 1, 2 and the Case 3
    fallback)."""
    for k in range(1, 17):
        for seed in range(2):
            city = gen_random_city(GeneratorParams(k=k, seed=seed, grid=40 * k))
            for t in range(4):
                yield City(scene=rotate_scene_ccw(city.scene, t), heights=city.heights)
    for bounds, bases in (([0, 0, 100, 100], CASE2_BASES), ([0, 0, 1000, 1000], CASE3_BASES),
                          ([0, 0, 1000, 1000], CASE3_BASES + [[925, 505, 945, 515]])):
        sc = _bases_scene(bounds, bases)
        for image in (sc, mirror_scene(sc)):
            for t in range(4):
                yield City(scene=rotate_scene_ccw(image, t), heights=tuple(range(1, sc.k + 1)))


class TestPlacementOutputsPinned:
    """The guards and trace of every placement, or the error it raises, on
    a fixed corpus hash to one SHA-256 digest; a refactor of the frames,
    their quarter turns or the staircase pattern must leave it unchanged."""

    DIGEST = "f0f9c4683c734a00a92ef1b64a9fc9d668583f1eb7e7d14045444d22910c6d41"

    def test_outputs_match_the_pin(self):
        digest = hashlib.sha256()
        for city in _pinned_cities():
            for place in (guards_main, guards_2k1, lambda sc: city_guarding(city, BUILDINGS_ONLY),
                          lambda sc: city_guarding(city, ALLOW_P_CORNER)):
                try:
                    sol = place(city.scene)
                    out = repr((sol.guards, sol.trace))
                except Exception as e:  # noqa: BLE001 - the error is part of the output
                    out = repr((type(e).__name__, str(e)))
                digest.update(out.encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST
