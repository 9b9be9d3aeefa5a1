from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cityguard.geom import (
    CCW, COLLINEAR, CW, AxisRect, Point, PolygonSet, Segment, half_plane_contains,
    make_axis_rect, make_convex_quad, is_rectangle, orient, primitive_direction,
    rational, rational_str, segment_blocked_by_rect,
)


def P(x, y):
    return Point(x, y)


class TestOrient:
    def test_unit_left_turn(self):
        assert orient(P(0, 0), P(1, 0), P(0, 1)) == CCW

    def test_same_line(self):
        assert orient(P(0, 0), P(1, 1), P(2, 2)) == COLLINEAR

    def test_mirror(self):
        assert orient(P(0, 0), P(0, 1), P(1, 0)) == CW

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
           st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_antisymmetry(self, ax, ay, bx, by, cx, cy):
        a, b, c = P(ax, ay), P(bx, by), P(cx, cy)
        assert orient(a, b, c) == -orient(a, c, b)


class TestSegmentBlocked:
    R = make_axis_rect(4, 4, 6, 6)

    def test_diagonal_through_center(self):
        assert segment_blocked_by_rect(Segment(P(0, 0), P(10, 10)), self.R)

    def test_run_along_boundary(self):
        assert not segment_blocked_by_rect(Segment(P(0, 4), P(10, 4)), self.R)

    def test_near_miss(self):
        # exact rational check: the segment passes below-left of the corner
        assert not segment_blocked_by_rect(Segment(P(0, 0), P(3, 9)), self.R)

    def test_corner_graze(self):
        assert not segment_blocked_by_rect(Segment(P(2, 6), P(6, 2)), self.R)

    def test_endpoint_inside(self):
        assert segment_blocked_by_rect(Segment(P(5, 5), P(20, 20)), self.R)

    def test_quad_hole(self):
        q = make_convex_quad([(5, 0), (10, 5), (5, 10), (0, 5)])
        assert segment_blocked_by_rect(Segment(P(0, 0), P(10, 10)), q)
        assert not segment_blocked_by_rect(Segment(P(0, 10), P(10, 10)), q)

    @given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=200)
    def test_dense_sample_agreement(self, ax, ay, bx, by):
        # any strictly interior sample point implies blocked
        if (ax, ay) == (bx, by):
            return
        seg = Segment(P(ax, ay), P(bx, by))
        blocked = segment_blocked_by_rect(seg, self.R)
        hit = False
        for i in range(1, 1000):
            t = Fraction(i, 1000)
            x = ax + t * (bx - ax)
            y = ay + t * (by - ay)
            if self.R.contains_open(Point(x, y)):
                hit = True
                break
        if hit:
            assert blocked
        # exactness: scaling all operands leaves the answer unchanged
        s = Fraction(7, 3)
        seg2 = Segment(P(ax * s, ay * s), P(bx * s, by * s))
        r2 = AxisRect(self.R.x0 * s, self.R.y0 * s, self.R.x1 * s, self.R.y1 * s)
        assert segment_blocked_by_rect(seg2, r2) == blocked


class TestHalfPlane:
    def test_boundary_included(self):
        assert half_plane_contains(P(5, 5), (1, 0), P(5, 9))

    def test_strictly_behind(self):
        assert not half_plane_contains(P(5, 5), (1, 0), P(4, 5))

    def test_in_front(self):
        assert half_plane_contains(P(5, 5), (-1, 0), P(4, 5))


class TestPolygonSet:
    def test_difference_area(self):
        a = PolygonSet.from_rect(0, 0, 10, 10)
        b = PolygonSet.from_rect(4, 4, 6, 6)
        assert a.difference(b).area() == 96

    def test_union_identity(self):
        b = PolygonSet.from_rect(1, 1, 3, 3)
        u = PolygonSet.empty().union(b)
        assert u.area() == b.area() == 4

    def test_intersection(self):
        a = PolygonSet.from_rect(0, 0, 2, 2)
        b = PolygonSet.from_rect(1, 1, 3, 3)
        r = a.intersection(b)
        assert r.area() == 1
        assert r.contains(P(1, 1)) and r.contains(P(2, 2))
        assert not r.contains(P(Fraction(1, 2), 1))

    @staticmethod
    def operand(x, y, w, h, diamond):
        """An axis rectangle, or an integer square rotated by 45 degrees (its
        edges cut another such square's at half-integer vertices)."""
        if not diamond:
            return PolygonSet.from_rect(x, y, x + w, y + h)
        return PolygonSet.from_cells([[(x, y), (x + w, y + w), (x, y + 2 * w),
                                       (x - w, y + w)]])

    @given(st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(1, 8),
                     st.integers(1, 8), st.booleans()),
           st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(1, 8),
                     st.integers(1, 8), st.booleans()))
    @settings(max_examples=150)
    def test_inclusion_exclusion(self, ra, rb):
        a = self.operand(*ra)
        b = self.operand(*rb)
        union = a.union(b)
        inter = a.intersection(b)
        assert union.area() + inter.area() == a.area() + b.area()
        assert a.difference(b).area() == a.area() - inter.area()

    def test_rotated_squares_meet_at_fraction_vertices(self):
        a = self.operand(0, 0, 2, 2, True)
        b = self.operand(1, 0, 2, 2, True)
        inter = a.intersection(b)
        assert inter.area() == Fraction(9, 2)
        assert P(Fraction(1, 2), Fraction(7, 2)) in {p for c in inter.cells for p in c}
        assert a.difference(b).area() == 8 - Fraction(9, 2)
        assert a.union(b).area() == 16 - Fraction(9, 2)
        assert inter.contains(P(Fraction(1, 2), Fraction(3, 2)))
        assert not inter.contains(P(Fraction(-3, 2), 2))


class TestRationals:
    def test_parse_forms(self):
        assert rational(5) == 5
        assert rational("7") == 7
        assert rational("3/6") == Fraction(1, 2)
        with pytest.raises(ValueError):
            rational("1/0")
        with pytest.raises(ValueError):
            rational("1/-2")

    def test_canonical_str(self):
        assert rational_str(Fraction(4, 2)) == 2
        assert rational_str(Fraction(-3, 6)) == "-1/2"

    def test_primitive_direction(self):
        assert primitive_direction(4, -6) == (2, -3)
        assert primitive_direction(Fraction(1, 3), Fraction(1, 2)) == (2, 3)


class TestQuads:
    def test_rectangle_predicate(self):
        assert is_rectangle(make_convex_quad([(0, 0), (3, 0), (3, 2), (0, 2)]))
        assert is_rectangle(make_convex_quad([(5, 0), (10, 5), (5, 10), (0, 5)]))
        assert not is_rectangle(make_convex_quad([(0, 0), (4, 0), (5, 3), (1, 3)]))

    def test_convexity_enforced(self):
        with pytest.raises(ValueError):
            make_convex_quad([(0, 0), (4, 0), (1, 1), (0, 4)])
