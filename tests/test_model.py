import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cityguard import model
from cityguard.errors import DegeneratePositionError, SceneValidationError
from cityguard.geom import (
    AxisRect, ConvexQuad, Point, h_cell, h_to_point, make_axis_rect, make_convex_quad,
)
from cityguard.instances import (
    GeneratorParams, gen_3k1_necessity, gen_random, gen_random_city, gen_roof_necessity,
)
from cityguard.io import parse_city
from cityguard.model import (
    City, E, Guard, N, S, Scene, Solution, W, _holes_disjoint, hole_guard,
    p_corner_guard, rotate_guards, rotate_point_ccw,
    rotate_scene_ccw, validate_scene, check_general_position,
    require_general_position, roof_flags, wall_aligned_facings,
)
from cityguard.placement import guards_2k1
from cityguard.verify import certify
from cityguard.visibility import sees, visibility_region
from counterexample_3k1 import rot3k1_counterexample
from references import (
    anchor_point, reset_region_cache, roof_covered_by, rotate_guards_by_position,
    scaled_and_shifted,
)


def city_a():
    return parse_city({"bounds": [0, 0, 10, 10],
                       "buildings": [{"base": [4, 4, 6, 6], "height": 3}]}).scene


class TestValidation:
    def test_single_interior_hole(self):
        sc = city_a()
        assert sc.k == 1 and sc.kind == "AXIS_ALIGNED"

    def test_overlap(self):
        with pytest.raises(SceneValidationError) as e:
            parse_city({"bounds": [0, 0, 10, 10],
                        "buildings": [{"base": [4, 4, 6, 6], "height": 1},
                                      {"base": [5, 5, 7, 7], "height": 1}]})
        assert ("OVERLAPPING_HOLES", (0, 1)) in e.value.violations

    def test_touching_counts_as_overlap(self):
        with pytest.raises(SceneValidationError) as e:
            parse_city({"bounds": [0, 0, 10, 10],
                        "buildings": [{"base": [1, 1, 3, 3], "height": 1},
                                      {"base": [3, 1, 5, 3], "height": 1}]})
        assert any(v[0] == "OVERLAPPING_HOLES" for v in e.value.violations)

    def test_boundary_contact(self):
        with pytest.raises(SceneValidationError) as e:
            parse_city({"bounds": [0, 0, 10, 10],
                        "buildings": [{"base": [0, 4, 2, 6], "height": 1}]})
        assert ("HOLE_TOUCHES_BOUNDARY", (0,)) in e.value.violations

    def test_coordinates_past_the_float_range(self):
        """Bounds within +-10^300 pass; a bound past it is refused, since
        the kernel's float prefilters could not hold it."""
        top = 10 ** 300
        validate_scene(Scene(bounds=AxisRect(-top, -top, top, top),
                             holes=(AxisRect(-1, -1, 1, 1),)))
        for bounds in (AxisRect(0, 0, top + 1, 10), AxisRect(-10 ** 309, 0, 10, 10),
                       AxisRect(0, Fraction(-2 * top - 1, 2), 10, 10)):
            with pytest.raises(SceneValidationError) as e:
                validate_scene(Scene(bounds=bounds, holes=()))
            assert e.value.violations == [("COORDINATE_OUT_OF_RANGE", ("bounds",))]

    @pytest.mark.parametrize("bounds", [AxisRect(5, 0, 0, 5), AxisRect(0, 0, 0, 0),
                                        AxisRect(0, 0, 10, 0)], ids=str)
    def test_bounds_without_area(self, bounds):
        """Bounds turned inside out, a point or a segment, with no
        buildings, are refused by validation and so by placement, not
        placed and certified."""
        sc = Scene(bounds=bounds, holes=())
        for check in (validate_scene, guards_2k1):
            with pytest.raises(SceneValidationError) as e:
                check(sc)
            assert e.value.violations == [("EMPTY_BOUNDS", ("bounds",))]

    def test_not_a_rectangle(self):
        with pytest.raises(SceneValidationError) as e:
            parse_city({"bounds": [0, 0, 10, 10],
                        "buildings": [{"quad": [[2, 2], [6, 2], [7, 5], [3, 5]],
                                       "height": 1}]})
        assert ("NOT_A_RECTANGLE", (0,)) in e.value.violations

    def test_degenerate_position(self):
        sc = parse_city({"bounds": [0, 0, 10, 10],
                         "buildings": [{"base": [1, 1, 3, 3], "height": 1},
                                       {"base": [5, 5, 7, 7], "height": 1}]}).scene
        assert check_general_position(sc) == []
        sc2 = parse_city({"bounds": [0, 0, 10, 10],
                          "buildings": [{"base": [1, 1, 3, 3], "height": 1},
                                        {"base": [3, 5, 7, 7], "height": 1}]}).scene
        assert check_general_position(sc2) == [("DEGENERATE_POSITION", (0, 1))]
        with pytest.raises(DegeneratePositionError):
            require_general_position(sc2)

    @given(st.lists(st.tuples(*[st.integers(0, 6)] * 4), max_size=12))
    def test_degenerate_pairs_in_pair_order(self, spans):
        """Every pair of holes that share an axis line, once, in the order
        of a loop over all pairs (i, j), i < j."""
        holes = tuple(AxisRect(min(a, c), min(b, d), max(a, c) + 1, max(b, d) + 1)
                      for a, b, c, d in spans)
        sc = Scene(bounds=make_axis_rect(-1, -1, 8, 8), holes=holes)
        lines = [({h.x0, h.x1}, {h.y0, h.y1}) for h in holes]
        assert check_general_position(sc) == [
            ("DEGENERATE_POSITION", (i, j)) for i in range(sc.k) for j in range(i + 1, sc.k)
            if lines[i][0] & lines[j][0] or lines[i][1] & lines[j][1]]

    @given(st.lists(st.tuples(*[st.integers(0, 6)] * 4, st.booleans()), max_size=12))
    def test_overlapping_pairs_in_pair_order(self, spans):
        """The sweep finds every pair of holes that are not disjoint,
        once, in the order of a loop over all pairs (i, j), i < j; some
        holes are rectangles given as quads."""
        holes = tuple(_as_quad(r) if quad else r for r, quad in (
            (AxisRect(min(a, c), min(b, d), max(a, c) + 1, max(b, d) + 1), quad)
            for a, b, c, d, quad in spans))
        expected = [("OVERLAPPING_HOLES", (i, j)) for i in range(len(holes))
                    for j in range(i + 1, len(holes)) if not _holes_disjoint(holes[i], holes[j])]
        sc = Scene(bounds=make_axis_rect(-1, -1, 8, 8), holes=holes)
        if expected:
            with pytest.raises(SceneValidationError) as e:
                validate_scene(sc)
            assert e.value.violations == expected
        else:
            assert validate_scene(sc) is sc

    def test_sweep_tests_only_pairs_whose_x_ranges_meet(self, monkeypatch):
        """Three holes in a row along x, the middle one touching neither
        neighbour's x-range, and one above the first two: only the pairs
        whose closed x-ranges meet are tested."""
        pairs = _spy(monkeypatch, "_holes_disjoint")
        holes = (AxisRect(1, 1, 3, 3), AxisRect(4, 1, 6, 3), AxisRect(7, 1, 9, 3),
                 AxisRect(2, 5, 5, 7))
        validate_scene(Scene(bounds=AxisRect(0, 0, 10, 10), holes=holes))
        assert sorted((holes.index(a), holes.index(b)) for a, b in pairs) == [(0, 3), (1, 3)]

    def test_idempotent(self):
        sc = city_a()
        assert validate_scene(sc) == sc


def _spy(monkeypatch, name):
    """Count the calls of a model function that the checks look up."""
    calls = []
    original = getattr(model, name)

    def spy(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(model, name, spy)
    return calls


def _two_rect_scene(second):
    return Scene(bounds=AxisRect(0, 0, 10, 10), holes=(AxisRect(1, 1, 3, 3), second))


class TestValidationOnce:
    """Each check keeps the last scene object it accepted: checking that
    object again makes no pair test, and a scene that fails is never kept."""

    def test_accepted_scene_is_not_checked_again(self, monkeypatch):
        # x-ranges [1, 3] and [2, 4] meet, so the pair is tested
        sc = _two_rect_scene(AxisRect(2, 5, 4, 7))
        assert validate_scene(sc) is sc
        require_general_position(sc)
        pairs = _spy(monkeypatch, "_holes_disjoint")
        lines = _spy(monkeypatch, "check_general_position")
        for _ in range(3):
            assert validate_scene(sc) is sc
            require_general_position(sc)
        assert pairs == [] and lines == []
        copy = _two_rect_scene(AxisRect(2, 5, 4, 7))  # equal, not the same object
        assert validate_scene(copy) is copy
        require_general_position(copy)
        assert len(pairs) == 1 and len(lines) == 1

    def test_failing_scenes_raise_on_every_call(self):
        good = _two_rect_scene(AxisRect(5, 5, 7, 7))
        overlapping = _two_rect_scene(AxisRect(2, 2, 4, 4))
        degenerate = _two_rect_scene(AxisRect(3, 5, 7, 7))
        assert validate_scene(degenerate) is degenerate
        for _ in range(2):
            for _ in range(2):
                with pytest.raises(SceneValidationError):
                    validate_scene(overlapping)
                with pytest.raises(DegeneratePositionError):
                    require_general_position(degenerate)
            validate_scene(good)
            require_general_position(good)

    def test_list_holes_come_back_as_a_copy_and_are_not_kept(self, monkeypatch):
        pairs = _spy(monkeypatch, "_holes_disjoint")
        sc = Scene(bounds=AxisRect(0, 0, 10, 10),
                   holes=[AxisRect(1, 1, 3, 3), AxisRect(2, 5, 4, 7)])
        for _ in range(2):
            out = validate_scene(sc)
            assert out is not sc and out == Scene(sc.bounds, tuple(sc.holes))
            assert isinstance(out.holes, tuple)
        assert len(pairs) == 2


@st.composite
def small_rects(draw):
    x0, x1 = sorted(draw(st.lists(st.integers(0, 6), min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(st.integers(0, 6), min_size=2, max_size=2, unique=True)))
    return AxisRect(x0, y0, x1, y1)


def _as_quad(r: AxisRect):
    return make_convex_quad(r.corners())


class TestHolesDisjoint:
    """Two rectangles compare intervals; the separating-edge route that
    general quads take must agree on the same rectangles as quads."""

    @given(small_rects(), small_rects())
    @example(AxisRect(0, 0, 2, 2), AxisRect(2, 0, 4, 2))  # shared edge
    @example(AxisRect(0, 0, 2, 2), AxisRect(2, 2, 4, 4))  # shared corner
    @example(AxisRect(0, 0, 6, 6), AxisRect(2, 2, 3, 3))  # containment
    @example(AxisRect(0, 0, 3, 3), AxisRect(2, 1, 5, 2))  # overlap
    @example(AxisRect(0, 0, 2, 2), AxisRect(3, 0, 5, 2))  # apart
    def test_rect_branch_matches_separating_edges(self, a, b):
        disjoint = _holes_disjoint(a, b)
        assert disjoint == _holes_disjoint(b, a)
        assert disjoint == _holes_disjoint(_as_quad(a), _as_quad(b))
        assert disjoint == _holes_disjoint(a, _as_quad(b))

    def test_closed_sets(self):
        a = AxisRect(0, 0, 2, 2)
        assert not _holes_disjoint(a, AxisRect(2, 0, 4, 2))
        assert not _holes_disjoint(a, AxisRect(2, 2, 4, 4))
        assert _holes_disjoint(a, AxisRect(3, 0, 5, 2))


class TestHoleCells:
    """`Scene.hole_cells` is each hole's ring as `h_cell` normalizes it:
    the same vertices, edge lines and bbox, in hole order, built once."""

    @pytest.mark.parametrize("make", [
        lambda: gen_random(GeneratorParams(k=8, seed=3, grid=60)),
        lambda: scaled_and_shifted(gen_random(GeneratorParams(k=8, seed=3, grid=60)),
                                   Fraction(1, 3), 0, 0),
        lambda: gen_3k1_necessity(2),
        lambda: scaled_and_shifted(rot3k1_counterexample(), Fraction(1, 3), 0, 0),
    ], ids=["axis", "axis-thirds", "rotated", "rotated-thirds"])
    def test_equal_to_the_rings_cells(self, make):
        sc = make()
        expected = [h_cell(h.corners()) for h in sc.holes]
        assert [(c.pts, c.lines, c.bbox) for c in sc.hole_cells] == \
            [(c.pts, c.lines, c.bbox) for c in expected]
        assert sc.hole_cells is sc.hole_cells


class TestCity:
    """A City refuses what no building can be, when it is built."""

    @pytest.mark.parametrize("height", [-3, 0, Fraction(-1, 2)])
    def test_height_must_be_positive(self, height):
        with pytest.raises(ValueError, match="building 0: height must be positive"):
            City(scene=city_a(), heights=(height,))

    def test_base_must_be_a_rectangle(self):
        slanted = make_convex_quad([(2, 2), (6, 2), (7, 5), (3, 5)])
        sc = Scene(bounds=make_axis_rect(0, 0, 10, 10), holes=(slanted,))
        with pytest.raises(ValueError, match="building 0: base is not a rectangle"):
            City(scene=sc, heights=(1,))

    @pytest.mark.parametrize("base", [ConvexQuad(5), ConvexQuad((1, 2, 3, 4))],
                             ids=["int", "ints"])
    def test_base_it_cannot_read(self, base):
        """A quad base that is not four Points is refused by the City,
        naming the building, before any test reads its corners."""
        sc = Scene(bounds=AxisRect(0, 0, 10, 10), holes=(base,))
        with pytest.raises(ValueError, match="building 0: base is not a ConvexQuad of four Points"):
            City(scene=sc, heights=(1,))

    def test_one_height_per_building(self):
        with pytest.raises(ValueError, match="one height per building"):
            City(scene=city_a(), heights=(1, 2))
        assert City(scene=city_a(), heights=(Fraction(1, 3),)).heights == (Fraction(1, 3),)


def _rotated_city(scene):
    return City(scene=scene, heights=tuple(range(1, scene.k + 1)))


class TestRoofFlags:
    """`roof_flags` reads each building's corners once and skips the
    guards of a building already flagged: its flags are those of the
    per-guard reference `roof_covered_by`."""

    @pytest.mark.parametrize("make", [
        lambda: gen_random_city(GeneratorParams(k=6, seed=3, grid=60)),
        lambda: gen_random_city(GeneratorParams(k=12, seed=8, grid=1000)),
        lambda: gen_roof_necessity(5),
        lambda: _rotated_city(gen_3k1_necessity(2)),
        lambda: _rotated_city(rot3k1_counterexample()),
    ], ids=["random-6", "random-12", "roof-necessity-5", "3k1-2", "counterexample"])
    def test_flags_match_each_guard(self, make):
        """Random sets of guards at any corner, building or P, facing along
        a wall or along an axis: both verdicts occur."""
        sc = make().scene
        guards = [hole_guard(i, c, f) for i, h in enumerate(sc.holes) for c in range(4)
                  for f in {*wall_aligned_facings(h), N, E, S, W}]
        guards += [p_corner_guard(c, f) for c in range(4) for f in (N, E, S, W)]
        rng = random.Random(sc.k)
        seen = set()
        for size in (0, 1, 3, sc.k, 2 * sc.k + 1, 4 * sc.k, len(guards)):
            for _ in range(4):
                gs = rng.sample(guards, size)
                flags = roof_flags(sc, gs)
                assert flags == tuple(any(roof_covered_by(sc, i, g) for g in gs)
                                      for i in range(sc.k))
                seen.update(flags)
        assert seen == {True, False}

    @pytest.mark.parametrize("bad", [hole_guard(0, 4, E), hole_guard(0, -1, E),
                                     hole_guard(1, 0, E), hole_guard(-1, 0, E)], ids=repr)
    def test_bad_anchor_raises_after_its_building_is_flagged(self, bad):
        """A guard naming no corner raises ValueError, also when a guard
        before it has flagged the building it names."""
        sc = city_a()
        assert roof_flags(sc, [hole_guard(0, 3, E)]) == (True,)
        with pytest.raises(ValueError, match=re.escape(repr(bad.anchor))):
            roof_flags(sc, [hole_guard(0, 3, E), bad])


class TestRoofCoveredBy:
    def test_nw_facing_east(self):
        sc = city_a()
        assert roof_covered_by(sc, 0, hole_guard(0, 3, E))

    def test_nw_facing_west(self):
        sc = city_a()
        assert not roof_covered_by(sc, 0, hole_guard(0, 3, W))

    def test_other_building(self):
        sc = parse_city({"bounds": [0, 0, 20, 20],
                         "buildings": [{"base": [1, 1, 3, 3], "height": 1},
                                       {"base": [5, 5, 7, 8], "height": 2}]}).scene
        assert not roof_covered_by(sc, 0, hole_guard(1, 3, E))


class TestGuards:
    def test_facing_normalized(self):
        g = hole_guard(0, 0, (4, 0))
        assert g.facing == (1, 0)

    def test_solution_drops_repeated_guards_in_order(self):
        a, b, c = hole_guard(0, 0, N), hole_guard(0, 2, W), p_corner_guard(1, W)
        sol = Solution(algorithm="x", guards=(b, a, hole_guard(0, 2, (-3, 0)), c, a, b))
        assert sol.guards == (b, a, c)
        assert sol.count == 3

    def test_positions(self):
        sc = city_a()
        assert hole_guard(0, 2, W).position(sc) == Point(6, 6)
        assert p_corner_guard(1, W).position(sc) == Point(10, 0)

    def test_wall_alignment_check(self):
        sc = city_a()
        assert hole_guard(0, 0, N).facing in wall_aligned_facings(sc.holes[0])
        assert hole_guard(0, 0, (1, 1)).facing not in wall_aligned_facings(sc.holes[0])
        q = parse_city({"bounds": [0, 0, 20, 20],
                        "buildings": [{"quad": [[10, 4], [14, 8], [10, 12], [6, 8]],
                                       "height": 1}]}).scene
        assert hole_guard(0, 0, (1, 1)).facing in wall_aligned_facings(q.holes[0])
        assert hole_guard(0, 0, E).facing not in wall_aligned_facings(q.holes[0])


def _two_buildings():
    return parse_city({"bounds": [0, 0, 20, 20],
                       "buildings": [{"base": [2, 2, 6, 6], "height": 1},
                                     {"base": [10, 10, 14, 16], "height": 2}]}).scene


# Anchors that name no corner of a two-building scene: too few or too many
# indices, an unknown kind, an index that is no int (True equals 1, and
# ("hole", 1, 0) is a corner), an index out of range.
_NO_CORNER = [("hole", 0), ("p",), ("hole", "0", 1), ("hole", True, 0), ("hole", 0, 1, 2),
              ("q", 1), ("hole", 0, 4), ("hole", 2, 0), ("p", 4)]

_ENTRY_POINTS = {
    "position": lambda sc, g: g.position(sc),
    "certify": lambda sc, g: certify(sc, [g]),
    "roof_flags": lambda sc, g: roof_flags(sc, [g]),
    "rotate_guards": lambda sc, g: rotate_guards([g], sc, 1),
    "sees": lambda sc, g: sees(sc, g, Point(8, 8)),
    "visibility_region": lambda sc, g: visibility_region(sc, g),
}


class TestCornerDecoder:
    """`Scene.corner` is the one decoder of an anchor: every entry point
    that reads a guard's corner refuses an anchor naming none with the
    same ValueError, and `Guard.position` is the corner the hole's or the
    bounds' `corners()` name."""

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    @pytest.mark.parametrize("anchor", _NO_CORNER, ids=repr)
    def test_no_corner_raises_value_error(self, anchor, entry, monkeypatch):
        reset_region_cache(monkeypatch)
        sc = _two_buildings()
        with pytest.raises(ValueError, match=re.escape(repr(anchor))):
            _ENTRY_POINTS[entry](sc, Guard(anchor=anchor, facing=N))

    def test_message(self):
        sc = _two_buildings()
        with pytest.raises(ValueError) as e:
            sc.corner(("hole", 2, 0))
        assert str(e.value) == ("anchor ('hole', 2, 0) on building 2 names no corner "
                                "of a scene with 2 buildings")
        with pytest.raises(ValueError) as e:
            sc.corner(("p", 4))
        assert str(e.value) == "anchor ('p', 4) names no corner of a scene with 2 buildings"

    @pytest.mark.parametrize("make", [
        lambda: gen_random(GeneratorParams(k=6, seed=2, grid=240)),
        lambda: scaled_and_shifted(gen_random(GeneratorParams(k=5, seed=1, grid=200)),
                                   Fraction(1, 3), Fraction(2, 3), Fraction(-5, 3)),
        lambda: gen_3k1_necessity(2),
        lambda: rot3k1_counterexample(),
        lambda: scaled_and_shifted(rot3k1_counterexample(), Fraction(1, 3), 1, Fraction(1, 7)),
    ], ids=["axis", "thirds", "3k1-2", "counterexample", "counterexample-thirds"])
    def test_position_is_the_named_corner(self, make):
        sc = make()
        anchors = [("hole", i, c) for i in range(sc.k) for c in range(4)]
        anchors += [("p", c) for c in range(4)]
        for a in anchors:
            pos = Guard(anchor=a, facing=N).position(sc)
            assert pos == anchor_point(sc, a)
            cell, j = sc.corner(a)
            assert cell is sc.cells[a[1] if a[0] == "hole" else -1]
            assert h_to_point(cell.pts[j]) == pos


# Anchors of no anchor's shape, refused when the Guard is made: not a
# tuple, an unknown kind, the wrong number of indices, an index that is no
# int or is a bool.
_BAD_SHAPE = [["hole", 0, 0], "p0", None, ("q", 1), ("x", 0), ("hole", 0), ("p",),
              ("p", 0, 1), ("hole", 0, 1, 2), (), ("hole", "0", 1), ("hole", 0, 1.0),
              ("hole", True, 0), ("hole", 1, False), ("p", True), ("p", Fraction(1))]


class TestAnchorShape:
    """`Guard` refuses an anchor of no anchor's shape with a ValueError
    naming it, before any cache is read; the range against a scene stays
    with `Scene.corner`."""

    @pytest.mark.parametrize("anchor", _BAD_SHAPE, ids=repr)
    def test_refused_when_made(self, anchor):
        with pytest.raises(ValueError, match=re.escape(repr(anchor))):
            Guard(anchor=anchor, facing=N)

    def test_helpers_refuse_bool_indices(self):
        for make in (lambda: hole_guard(True, 0, N), lambda: hole_guard(0, False, N),
                     lambda: p_corner_guard(True, N)):
            with pytest.raises(ValueError, match="names no corner"):
                make()

    @pytest.mark.parametrize("cached_first", [True, False], ids=["cached-first", "bool-first"])
    def test_bool_index_raises_in_either_order(self, monkeypatch, cached_first):
        """("hole", True, 0) == ("hole", 1, 0), so a cache keyed by guards
        would answer for it once the int anchor's entry is there."""
        reset_region_cache(monkeypatch)
        sc = _two_buildings()
        good = hole_guard(1, 0, N)
        if cached_first:
            visibility_region(sc, good)
            certify(sc, [good])
        with pytest.raises(ValueError, match=re.escape(repr(("hole", True, 0)))):
            visibility_region(sc, Guard(anchor=("hole", True, 0), facing=N))
        with pytest.raises(ValueError, match=re.escape(repr(("hole", True, 0)))):
            certify(sc, [Guard(anchor=("hole", True, 0), facing=N)])
        assert visibility_region(sc, good).guard == good
        assert certify(sc, [good]).guards == (good,)

    def test_range_stays_with_the_scene(self):
        sc = _two_buildings()
        for anchor in (("hole", 2, 0), ("hole", -1, 0), ("hole", 0, 4), ("p", 4), ("p", -1)):
            g = Guard(anchor=anchor, facing=N)
            with pytest.raises(ValueError, match=re.escape(repr(anchor))):
                g.position(sc)


class TestRotation:
    def test_scene_round_trip(self):
        sc = parse_city({"bounds": [0, 0, 10, 6],
                         "buildings": [{"base": [1, 1, 3, 2], "height": 1}]}).scene
        r = rotate_scene_ccw(sc, 1)
        assert r.bounds == make_axis_rect(-6, 0, 0, 10)
        back = rotate_scene_ccw(r, 3)
        assert back == sc

    def test_guard_round_trip(self):
        sc = city_a()
        for corner in range(4):
            for facing in (N, E, S, W):
                g = hole_guard(0, corner, facing)
                for t in range(4):
                    [rg] = rotate_guards([g], sc, t)
                    rsc = rotate_scene_ccw(sc, t)
                    assert rg.position(rsc) == rotate_point_ccw(g.position(sc), t)
                    assert rotate_guards([rg], rsc, -t) == [g]

    def test_unrotate_guards_matches_each_guard(self):
        sc = parse_city({"bounds": [0, 0, 10, 6], "buildings": [
            {"base": [1, 1, 3, 2], "height": 1}, {"base": [5, 3, 8, 5], "height": 1}]}).scene
        guards = [hole_guard(i, c, f) for i in range(2) for c in range(4)
                  for f in (N, E)] + [p_corner_guard(c, W) for c in range(4)]
        for t in range(-4, 8):
            rsc = rotate_scene_ccw(sc, t)
            rotated = rotate_guards(guards, sc, t)
            assert rotated == [rotate_guards([g], sc, t)[0] for g in guards]
            assert rotate_guards(rotated, rsc, -t) == guards


def _rotation_scenes():
    scenes = [gen_random(GeneratorParams(k=k, seed=seed, grid=40 * k))
              for k in (1, 4, 9) for seed in range(2)]
    thirds = parse_city({"bounds": [0, 0, 10, 10], "buildings": [
        {"base": ["1/3", "2/3", "7/3", "8/3"], "height": 1}]}).scene
    return scenes + [thirds, gen_3k1_necessity(1), gen_3k1_necessity(2),
                     rot3k1_counterexample()]


class TestRotateGuardsByCornerIndex:
    """`rotate_guards` maps anchors by corner index; the reference finds
    each turned anchor point among the turned scene's corners."""

    @pytest.mark.parametrize("t", range(-5, 6))
    def test_agrees_with_the_position_reference(self, t):
        for sc in _rotation_scenes():
            guards = [hole_guard(i, c, f) for i, h in enumerate(sc.holes) for c in range(4)
                      for f in wall_aligned_facings(h)[:2] + ((1, 2),)]
            guards += [p_corner_guard(c, f) for c in range(4) for f in (N, W, (-3, 1))]
            assert rotate_guards(guards, sc, t) == rotate_guards_by_position(guards, sc, t)

    @pytest.mark.parametrize("t", range(-5, 6))
    def test_no_corner_raises_at_every_turn(self, t):
        sc = rot3k1_counterexample()
        good = hole_guard(0, 0, N)
        for bad in (hole_guard(sc.k, 0, N), hole_guard(-1, 0, N), hole_guard(0, 4, N),
                    hole_guard(0, -1, N), p_corner_guard(4, N), p_corner_guard(-1, N)):
            with pytest.raises(ValueError, match="names no corner"):
                rotate_guards([good, bad], sc, t)
        with pytest.raises(ValueError, match="names no corner"):
            rotate_guards([good, Guard(anchor=("x", 0), facing=N)], sc, t)
