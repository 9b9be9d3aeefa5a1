from fractions import Fraction
from math import atan2, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cityguard import geom
from cityguard.errors import MalformedPolygonError
from cityguard.geom import (
    AxisRect, HCell, Point, PolygonSet, _h_disjoint,
    _h_normalized, _h_split, h_cell, h_divide, h_in_front, h_point, h_subtract,
    interior_run,
    make_axis_rect, make_convex_quad, is_rectangle, primitive_direction,
    rational, rational_str,
)
from cityguard.instances import GeneratorParams, gen_random
from cityguard.oracle import build_faces, candidate_set
from cityguard.placement import guards_2k1
from cityguard.verify import free_space
from cityguard.visibility import visibility_region
from references import (
    CCW, COLLINEAR, CW, h_point_by_fraction, in_open_hole, orient, region_contains,
)


def P(x, y):
    return Point(x, y)


def closed_clip(a, b, cell):
    """Reference Cyrus-Beck clip of segment a->b to a closed convex CCW cell,
    in Fractions: the parameter range (t0, t1) of the clipped piece, or
    None if the segment meets the cell in at most one point."""
    t0, t1 = Fraction(0), Fraction(1)
    n = len(cell)
    for i in range(n):
        p, q = cell[i], cell[(i + 1) % n]
        # inside is the left side of p->q
        ex, ey = q.x - p.x, q.y - p.y
        fa = ex * (a.y - p.y) - ey * (a.x - p.x)
        fb = ex * (b.y - p.y) - ey * (b.x - p.x)
        if fa < 0 and fb < 0:
            return None
        if fa >= 0 and fb >= 0:
            continue
        t = Fraction(fa, fa - fb)
        if fa < 0:
            t0 = max(t0, t)
        else:
            t1 = min(t1, t)
        if t0 >= t1:
            return None
    return t0, t1


def point_run(a, b, hole):
    """`interior_run` of the segment between Points a and b through the
    hole, with the ends converted by `h_point` and the hole by `h_cell`."""
    return interior_run(h_point(a), h_point(b), h_cell(hole.corners()))


def ref_interior_run(a, b, hole):
    """The closed clip, kept iff its midpoint is in the hole's open
    interior (the hole is convex, so then the whole open clip is)."""
    clip = closed_clip(a, b, hole.corners())
    if clip is None:
        return None
    tm = (clip[0] + clip[1]) / 2
    mid = Point(a.x + tm * (b.x - a.x), a.y + tm * (b.y - a.y))
    return clip if in_open_hole(hole, mid) else None


def scaled(hole, s):
    """The hole with every coordinate multiplied by s > 0, of the same kind."""
    if isinstance(hole, AxisRect):
        return AxisRect(*(c * s for c in hole))
    return make_convex_quad([(p.x * s, p.y * s) for p in hole.corners()])


# integer, thirds and 64ths, over [0, 20]
_coord = st.one_of(st.integers(0, 20),
                   st.builds(Fraction, st.integers(0, 60), st.just(3)),
                   st.builds(Fraction, st.integers(0, 1280), st.just(64)))


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
    QUAD = make_convex_quad([(5, 0), (10, 5), (5, 10), (0, 5)])

    def test_diagonal_through_center(self):
        assert point_run(P(0, 0), P(10, 10), self.R) is not None

    def test_run_along_boundary(self):
        assert point_run(P(0, 4), P(10, 4), self.R) is None

    def test_near_miss(self):
        # exact rational check: the segment passes below-left of the corner
        assert point_run(P(0, 0), P(3, 9), self.R) is None

    def test_corner_graze(self):
        assert point_run(P(2, 6), P(6, 2), self.R) is None

    def test_endpoint_inside(self):
        assert point_run(P(5, 5), P(20, 20), self.R) is not None

    def test_quad_hole(self):
        assert point_run(P(0, 0), P(10, 10), self.QUAD) is not None
        assert point_run(P(0, 10), P(10, 10), self.QUAD) is None

    @given(_coord, _coord, _coord, _coord, st.booleans())
    @settings(max_examples=300)
    def test_dense_sample_agreement(self, ax, ay, bx, by, quad):
        # integer and Fraction endpoints, against the rectangle or the quad
        if (ax, ay) == (bx, by):
            return
        hole = self.QUAD if quad else self.R
        a, b = P(ax, ay), P(bx, by)
        run = point_run(a, b, hole)
        assert run == ref_interior_run(a, b, hole)
        # any strictly interior sample point implies blocked; the samples
        # t = i/1000 are integer points once everything is scaled by
        # 1000 * 192 (192 is a multiple of every coordinate's denominator)
        big = scaled(hole, 1000 * 192)
        A = [int(c * 192) for c in (ax, ay, bx, by)]
        for i in range(1, 1000):
            if in_open_hole(big, Point((1000 - i) * A[0] + i * A[2], (1000 - i) * A[1] + i * A[3])):
                assert run is not None
                break
        # exactness: scaling all operands leaves the answer unchanged
        s = Fraction(7, 3)
        assert point_run(P(ax * s, ay * s), P(bx * s, by * s), scaled(hole, s)) == run

    @given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
    @settings(max_examples=200)
    def test_clip_is_the_closed_cell_piece(self, ax, ay, bx, by):
        a, b = P(ax, ay), P(bx, by)
        clip = closed_clip(a, b, self.R.corners())
        run = point_run(a, b, self.R)
        r = self.R
        hits = []
        for i in range(101):
            t = Fraction(i, 100)
            x, y = ax + t * (bx - ax), ay + t * (by - ay)
            inside = r.x0 <= x <= r.x1 and r.y0 <= y <= r.y1
            if clip is None:
                hits += [t] if inside else []
            else:
                assert inside == (clip[0] <= t <= clip[1])
            # the run is the open piece: on the open segment, strictly
            # inside exactly on (t0, t1)
            if 0 < t < 1:
                assert r.contains_open(Point(x, y)) == (run is not None and run[0] < t < run[1])
        assert len(hits) <= 1  # a miss may still touch the cell in one point


class TestHalfPlane:
    """`h_in_front` on homogeneous points: (p - apex) . facing >= 0."""

    def test_boundary_included(self):
        assert h_in_front(h_point(P(5, 5)), (1, 0), [h_point(P(5, 9))])

    def test_strictly_behind(self):
        assert not h_in_front(h_point(P(5, 5)), (1, 0), [h_point(P(4, 5))])

    def test_in_front(self):
        assert h_in_front(h_point(P(5, 5)), (-1, 0), [h_point(P(4, 5))])

    def test_fraction_points(self):
        third = h_point(P(Fraction(16, 3), Fraction(5, 3)))
        assert h_in_front(third, (1, 1), [h_point(P(Fraction(16, 3), Fraction(5, 3)))])
        assert h_in_front(third, (1, 1), [h_point(P(7, 0))])  # 7 = 21/3 = 16/3 + 5/3
        assert not h_in_front(third, (1, 1), [h_point(P(Fraction(20, 3), 0))])
        assert h_in_front(h_point(P(5, 5)), (0, -1), [h_point(P(9, Fraction(29, 6)))])
        assert not h_in_front(h_point(P(5, 5)), (0, -1), [h_point(P(9, Fraction(31, 6)))])

    def test_every_point(self):
        apex = h_point(P(Fraction(1, 2), 0))
        pts = [h_point(P(Fraction(1, 2), 4)), h_point(P(3, Fraction(-1, 7)))]
        assert h_in_front(apex, (1, 0), pts)
        assert not h_in_front(apex, (1, 0), pts + [h_point(P(Fraction(1, 3), 1))])


class TestPolygonSet:
    def test_difference_area(self):
        a = PolygonSet.from_rect(0, 0, 10, 10)
        b = PolygonSet.from_rect(4, 4, 6, 6)
        assert a.difference(b).area() == 96

    def test_union_identity(self):
        # subtracting nothing, or a disjoint region, keeps the whole area
        b = PolygonSet.from_rect(1, 1, 3, 3)
        assert b.difference(PolygonSet()).area() == b.area() == 4
        assert b.difference(PolygonSet.from_rect(3, 0, 5, 5)).area() == b.area()

    def test_intersection(self):
        a = PolygonSet.from_rect(0, 0, 2, 2)
        b = PolygonSet.from_rect(1, 1, 3, 3)
        assert a.area() - a.difference(b).area() == 1
        # the test is closed: the corners of the common square are in both
        for p in (P(1, 1), P(2, 2)):
            assert region_contains(a, p) and region_contains(b, p)
        edge = P(Fraction(1, 2), 1)
        assert region_contains(a, edge) and not region_contains(b, edge)

    @staticmethod
    def operand(x, y, w, h, diamond):
        """An axis rectangle, or an integer square rotated by 45 degrees (its
        edges cut another such square's at half-integer vertices)."""
        if not diamond:
            return PolygonSet.from_rect(x, y, x + w, y + h)
        return PolygonSet([[(x, y), (x + w, y + w), (x, y + 2 * w), (x - w, y + w)]])

    @given(st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(1, 8),
                     st.integers(1, 8), st.booleans()),
           st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(1, 8),
                     st.integers(1, 8), st.booleans()))
    @settings(max_examples=150)
    def test_inclusion_exclusion(self, ra, rb):
        a = self.operand(*ra)
        b = self.operand(*rb)
        common = a.area() - a.difference(b).area()
        assert common == b.area() - b.difference(a).area()
        assert common == clip_area(a.cells[0], b.cells[0])

    def test_rotated_squares_meet_at_fraction_vertices(self):
        a = self.operand(0, 0, 2, 2, True)
        b = self.operand(1, 0, 2, 2, True)
        rest = a.difference(b)
        assert rest.area() == 8 - Fraction(9, 2)
        assert a.area() - rest.area() == Fraction(9, 2)
        assert P(Fraction(1, 2), Fraction(7, 2)) in {p for c in rest.cells for p in c}
        assert a.area() + b.difference(a).area() == 16 - Fraction(9, 2)
        inside = P(Fraction(1, 2), Fraction(3, 2))
        assert region_contains(a, inside) and region_contains(b, inside)
        assert not region_contains(rest, inside)
        left = P(Fraction(-3, 2), 2)
        assert region_contains(a, left) and not region_contains(b, left)

    @pytest.mark.parametrize("ring", [
        (P(0, 0), P(0, 4), P(4, 4), P(4, 0)),  # clockwise square
        (P(0, 0), P(4, 2), P(0, 4), P(1, 2)),  # dart: reflex at (1, 2)
        (P(0, 0), P(2, 2), P(4, 4), P(1, 1)),  # flat
    ], ids=["clockwise", "dart", "flat"])
    def test_malformed_ring_is_refused(self, ring):
        with pytest.raises(MalformedPolygonError):
            h_cell(ring)
        if cell_area2(ring) == 0:
            # a ring with no area is dropped, so empty and zero area agree
            region = PolygonSet((ring,))
            assert region.is_empty() and region.area() == 0
        else:
            with pytest.raises(MalformedPolygonError):
                PolygonSet((ring,))


_COORDS = st.one_of(
    st.integers(-10 ** 18, 10 ** 18), st.booleans(),
    st.fractions(min_value=-10 ** 18, max_value=10 ** 18, max_denominator=10 ** 6),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 20)),
    st.floats(allow_nan=False, allow_infinity=False, width=64))


class TestHPoint:
    """`h_point` reads numerators and denominators in integers; it gives
    the Fraction route's components, types included, for ints, bools,
    Fractions, floats and mixed pairs."""

    @staticmethod
    def _agree(p):
        got, expected = h_point(p), h_point_by_fraction(p)
        assert got == expected and list(map(type, got)) == list(map(type, expected)), p

    @settings(max_examples=500, deadline=None)
    @given(_COORDS, _COORDS)
    def test_matches_fraction_route(self, x, y):
        self._agree((x, y))

    @pytest.mark.parametrize("p", [
        (0, 0), (True, False), (True, Fraction(1, 3)), (Fraction(-2, 4), 7),
        (10 ** 17 + 1, Fraction(10 ** 17, 3)), (Fraction(10 ** 17 + 1, 3), Fraction(-1, 10 ** 17)),
        (0.5, 3), (Fraction(1, 3), 0.1), (1e17, -2.5), (-0.0, Fraction(5, 7)),
        (Fraction(6, 4), Fraction(9, 6))], ids=repr)
    def test_fixed_points(self, p):
        self._agree(p)
        X, Y, W = h_point(p)
        assert W > 0 and Fraction(X, W) == Fraction(p[0]) and Fraction(Y, W) == Fraction(p[1])


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
        # integer input (negatives, axis directions, large coprime pairs)
        # gives what the Fraction route gives
        for dx, dy, expected in [
                (0, 5, (0, 1)), (0, -7, (0, -1)), (3, 0, (1, 0)), (-9, 0, (-1, 0)),
                (-4, -6, (-2, -3)), (6, -4, (3, -2)),
                (10**30, 10**30 + 1, (10**30, 10**30 + 1)),
                (-(2**89 - 1), 2**61 - 1, (-(2**89 - 1), 2**61 - 1)),
                (12 * (2**61 - 1), -12 * (2**31 - 1), (2**61 - 1, -(2**31 - 1)))]:
            assert primitive_direction(dx, dy) == expected
            assert primitive_direction(Fraction(dx), Fraction(dy)) == expected
        assert primitive_direction(2, Fraction(-1, 3)) == (6, -1)
        assert primitive_direction(Fraction(4, 6), 0) == (1, 0)
        for zero in ((0, 0), (Fraction(0), 0), (0, Fraction(0))):
            with pytest.raises(ValueError):
                primitive_direction(*zero)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    @settings(max_examples=300)
    def test_primitive_direction_ints_match_fraction_route(self, dx, dy):
        if dx == 0 and dy == 0:
            return
        d = primitive_direction(dx, dy)
        assert d == primitive_direction(Fraction(dx), Fraction(dy))
        assert all(isinstance(c, int) for c in d)


def clip_area(subject, clip):
    """Area of subject and clip in common (both convex and CCW): a plain
    Sutherland-Hodgman clip over Fraction points, apart from the kernel."""
    poly = [(Fraction(p[0]), Fraction(p[1])) for p in subject]
    m = len(clip)
    for i in range(m):
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % m]
        out = []
        for j in range(len(poly)):
            p, q = poly[j], poly[(j + 1) % len(poly)]
            sp = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
            sq = (bx - ax) * (q[1] - ay) - (by - ay) * (q[0] - ax)
            if sp >= 0:
                out.append(p)
            if sp * sq < 0:
                t = sp / (sp - sq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        poly = out
        if not poly:
            return 0
    n = len(poly)
    return sum(poly[i][0] * poly[(i + 1) % n][1] - poly[(i + 1) % n][0] * poly[i][1]
               for i in range(n)) / 2


def cell_area2(cell):
    """Twice the signed area of a ring of Points (positive for CCW)."""
    n = len(cell)
    return sum(cell[i].x * cell[(i + 1) % n].y - cell[(i + 1) % n].x * cell[i].y
               for i in range(n))


def area(cell):
    return Fraction(cell_area2(cell), 2)


def points(*hcells):
    """HCells as Point cells, through the PolygonSet exit."""
    return list(PolygonSet.of_hcells(hcells).cells)


FAN_APEX = (6, 6)
FAN_DIRS = sorted({primitive_direction(dx, dy) for dx in range(-3, 4)
                   for dy in range(-3, 4) if (dx, dy) != (0, 0)},
                  key=lambda d: atan2(d[1], d[0]))


def fan_triangle(i, step, t1, t2):
    """A thin triangle with its apex at FAN_APEX and its other two vertices
    at rational distances along two nearby critical directions, the shape of
    a visibility-region cell; such triangles share the apex and often a ray."""
    d1 = FAN_DIRS[i % len(FAN_DIRS)]
    d2 = FAN_DIRS[(i + step) % len(FAN_DIRS)]
    ax, ay = FAN_APEX
    return points(h_cell([Point(ax, ay),
                          Point(ax + t1 * d1[0], ay + t1 * d1[1]),
                          Point(ax + t2 * d2[0], ay + t2 * d2[1])]))[0]


split_operands = st.one_of(
    st.builds(lambda x, y, w, h: PolygonSet.from_rect(x, y, x + w, y + h).cells[0],
              st.integers(0, 12), st.integers(0, 12), st.integers(1, 8), st.integers(1, 8)),
    st.builds(lambda x, y, w: points(h_cell([Point(x, y), Point(x + w, y + w),
                                             Point(x, y + 2 * w), Point(x - w, y + w)]))[0],
              st.integers(0, 12), st.integers(0, 12), st.integers(1, 6)),
    st.builds(fan_triangle, st.integers(0, 100), st.integers(1, 4),
              st.fractions(1, 8, max_denominator=7), st.fractions(1, 8, max_denominator=7)),
)


def assert_edge_lines_fit(hc):
    """lines[i] runs through pts[i] and pts[i + 1] and has every other
    vertex strictly on its positive side (the cut halves inherit them)."""
    n = len(hc.pts)
    assert len(hc.lines) == n
    for i, (A, B, C) in enumerate(hc.lines):
        for j, (X, Y, W) in enumerate(hc.pts):
            side = A * X + B * Y + C * W
            if j == i or j == (i + 1) % n:
                assert side == 0
            else:
                assert side > 0


def divide(piece, cutter):
    """h_divide with one piece and one cutter: (the inside parts as
    HCells, the outside HCells)."""
    inside, outside = h_divide([piece], [cutter])
    return [HCell(*part) for part in inside], outside


class TestSplit:
    @given(split_operands, split_operands)
    @settings(max_examples=400, deadline=None)
    def test_split_matches_fraction_clipper(self, a, b):
        c1, c2 = h_cell(a), h_cell(b)
        inside, outside = divide(c1, c2)
        expected = clip_area(a, b)
        assert _h_disjoint(c1.pts, c1.lines, c2.pts, c2.lines) == (expected == 0)
        assert (not inside) == (expected == 0)
        assert len(inside) <= 1
        if not inside:
            assert outside == [c1]  # a cell its cutter does not meet is never cut
        pieces = points(*outside)
        for part in points(*inside):
            assert area(part) == expected == clip_area(part, b)
            pieces.append(part)
        assert sum(area(p) for p in pieces) == area(a)
        for p in pieces:
            assert clip_area(p, a) == area(p)
        for p in pieces[:len(outside)]:
            assert clip_area(p, b) == 0
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                assert clip_area(pieces[i], pieces[j]) == 0

    @given(split_operands, split_operands, split_operands)
    @settings(max_examples=300, deadline=None)
    def test_pieces_keep_the_cell_invariant(self, a, b, c):
        # pieces are not renormalized, so check them and the pieces of a
        # second cut: strictly convex, no duplicate or collinear vertex
        inside, outside = divide(h_cell(a), h_cell(b))
        pieces = outside + inside
        cutter = h_cell(c)
        for piece in list(pieces):
            inside2, outside2 = divide(piece, cutter)
            pieces += outside2 + inside2
        for piece in pieces:
            assert _h_normalized(piece.pts) == piece.pts
            assert area(points(piece)[0]) > 0
            assert_edge_lines_fit(piece)

    def test_cells_enter_the_kernel_normalized(self):
        ring = (Point(0, 0), Point(2, 0), Point(4, 0), Point(4, 4), Point(4, 4),
                Point(0, 4))
        assert h_cell(ring).pts == ((0, 0, 1), (4, 0, 1), (4, 4, 1), (0, 4, 1))
        assert PolygonSet((ring,)).cells == ((Point(0, 0), Point(4, 0), Point(4, 4),
                                              Point(0, 4)),)
        with pytest.raises(MalformedPolygonError):
            h_cell((Point(0, 0), Point(1, 1), Point(2, 2)))

    def test_cell_beyond_its_own_edge_line_is_not_cut(self):
        # the cutter's bbox overlaps the triangle, and only the triangle's
        # hypotenuse separates them: no line of the cutter does
        tri = h_cell((Point(0, 0), Point(4, 0), Point(0, 4)))
        square = h_cell((Point(2, 2), Point(5, 2), Point(5, 5), Point(2, 5)))
        assert _h_disjoint(tri.pts, tri.lines, square.pts, square.lines)
        inside, outside = h_divide([tri], [square])
        assert inside == [] and outside[0] is tri and len(outside) == 1

    def test_cell_inside_cutter_is_one_piece(self):
        small = h_cell((Point(1, 1), Point(2, 1), Point(2, 2), Point(1, 2)))
        big = h_cell((Point(0, 0), Point(3, 0), Point(3, 3), Point(0, 3)))
        assert h_divide([small], [big]) == ([(small.pts, small.lines)], [])


def fraction_mean(cell):
    """The vertex mean of an HCell, summed in Fractions."""
    n = len(cell.pts)
    return (sum(Fraction(X, W) for X, _, W in cell.pts) / n,
            sum(Fraction(Y, W) for _, Y, W in cell.pts) / n)


@st.composite
def triangles(draw):
    """A CCW triangle with area, vertices ints or Fractions."""
    coordinate = st.one_of(st.integers(-50, 50),
                           st.builds(Fraction, st.integers(-500, 500), st.integers(1, 12)))
    a, b, c = (Point(draw(coordinate), draw(coordinate)) for _ in range(3))
    side = orient(a, b, c)
    assume(side != COLLINEAR)
    return (a, b, c) if side == CCW else (a, c, b)


class TestIntegerCentroid:
    """h_mean sums the vertices over the lcm of their W in integers; it
    must be the Fraction mean, reduced, and h_centroid gives it as ints
    when it is integral."""

    def _check(self, cell):
        X, Y, W = geom.h_mean(cell)
        fx, fy = fraction_mean(cell)
        assert W > 0 and gcd(X, Y, W) == 1
        assert (Fraction(X, W), Fraction(Y, W)) == (fx, fy)
        c = geom.h_centroid(cell)
        assert c == Point(fx, fy)
        for got, want in zip(c, (fx, fy)):
            assert type(got) is (int if want.denominator == 1 else Fraction)

    @given(triangles())
    @settings(max_examples=300)
    def test_triangles(self, tri):
        self._check(h_cell(tri))

    def test_integer_and_fraction_means(self):
        integral = h_cell((P(0, 0), P(3, 0), P(0, 3)))
        assert geom.h_mean(integral) == (1, 1, 1)
        halves = geom.h_rect(0, 0, 1, 1)
        assert geom.h_mean(halves) == (1, 1, 2)
        mixed = h_cell((P(Fraction(1, 3), 0), P(2, Fraction(1, 2)), P(0, 2)))
        assert geom.h_mean(mixed) == (14, 15, 18)
        for cell in (integral, halves, mixed):
            self._check(cell)

    def test_cut_cells(self):
        # faces of an arrangement: vertices that are meets of region lines,
        # with different W on one cell
        sc = gen_random(GeneratorParams(k=2, seed=2, grid=40))
        faces = build_faces(sc, candidate_set(sc, include_p_corners=True))
        assert any(len({p[2] for p in cell.pts}) > 1 for cell, _ in faces)
        for cell, _ in faces:
            self._check(cell)


_BIG = 10 ** 300
_int_coordinates = st.one_of(st.integers(-1000, 1000), st.integers(-_BIG, _BIG),
                             st.sampled_from([-_BIG, _BIG, 0]))
_fraction_coordinates = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                                  st.integers(1, 10 ** 6))


def _corners(draw, coordinates):
    """Corners x0 < x1 and y0 < y1 drawn from the coordinates."""
    xs = draw(st.lists(coordinates, min_size=2, max_size=2, unique=True))
    ys = draw(st.lists(coordinates, min_size=2, max_size=2, unique=True))
    return min(xs), min(ys), max(xs), max(ys)


@st.composite
def rect_corners(draw):
    """Int corners, Fraction corners, or a mix of the two."""
    coordinates = draw(st.sampled_from([_int_coordinates, _fraction_coordinates,
                                        st.one_of(_int_coordinates, _fraction_coordinates)]))
    return _corners(draw, coordinates)


class TestRect:
    """h_rect writes an axis rectangle down; it must be the cell that h_cell
    makes of the rectangle's counter-clockwise ring."""

    @given(rect_corners())
    @settings(max_examples=300)
    def test_matches_the_ring_path(self, corners):
        x0, y0, x1, y1 = corners
        ring = (Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1))
        cell, ref = geom.h_rect(x0, y0, x1, y1), h_cell(ring)
        assert (cell.pts, cell.lines, cell.bbox) == (ref.pts, ref.lines, ref.bbox)

    def test_lines_are_written_down(self):
        cell = geom.h_rect(1, 2, 4, 7)
        assert cell.pts == ((1, 2, 1), (4, 2, 1), (4, 7, 1), (1, 7, 1))
        assert cell.lines == ((0, 3, -6), (-5, 0, 20), (0, -3, 21), (5, 0, -5))

    def test_rectangle_without_area_is_refused(self):
        for corners in ((0, 0, 0, 1), (0, 0, 1, 0), (2, 0, 1, 1), (0, Fraction(1, 2), 1, 0)):
            with pytest.raises(MalformedPolygonError):
                geom.h_rect(*corners)


def ref_h_split(cell, line):
    """_h_split with the crossing formula it replaced: each crossing point
    made from the vertices as sp*q - sq*p, whose integers compound with
    every cut.  The same rational points, kept as a reference."""
    pts, lines = cell
    A, B, C = line
    sides = [A * p[0] + B * p[1] + C * p[2] for p in pts]
    if min(sides) >= 0:
        return cell, None
    if max(sides) <= 0:
        return None, cell
    flip = (-A, -B, -C)
    left, left_lines, right, right_lines = [], [], [], []
    n = len(pts)
    for i in range(n):
        p, sp, edge = pts[i], sides[i], lines[i]
        q, sq = pts[(i + 1) % n], sides[(i + 1) % n]
        if sp >= 0:
            left.append(p)
            left_lines.append(edge if sp > 0 or sq >= 0 else line)
        if sp <= 0:
            right.append(p)
            right_lines.append(edge if sp < 0 or sq <= 0 else flip)
        if (sp > 0 > sq) or (sp < 0 < sq):
            r = tuple(sp * b - sq * a for a, b in zip(p, q))
            if r[2] < 0:
                r = tuple(-c for c in r)
            left.append(r)
            right.append(r)
            left_lines.append(line if sp > 0 else edge)
            right_lines.append(edge if sp > 0 else flip)
    return (tuple(left), tuple(left_lines)), (tuple(right), tuple(right_lines))


def same_half(got, want):
    """Two halves as (pts, lines) hold the same rational points in the same
    order, with the same edge lines."""
    if got is None or want is None:
        return got is want
    if got[1] != want[1] or len(got[0]) != len(want[0]):
        return False
    return all(X * w == x * W and Y * w == y * W
               for (X, Y, W), (x, y, w) in zip(got[0], want[0]))


def near_collinear_cell(x, y, dx, dy, m, ex, ey):
    """A triangle whose third vertex lies a small rational step (ex, ey)
    off the line through the first two, ordered CCW; None if the step
    lands on that line."""
    a = Point(x, y)
    b = Point(x + dx, y + dy)
    c = Point(x + m * dx + ex, y + m * dy + ey)
    turn = orient(a, b, c)
    if turn == COLLINEAR:
        return None
    return (a, b, c) if turn == CCW else (a, c, b)


kernel_operands = st.one_of(
    split_operands,
    st.builds(near_collinear_cell, st.integers(-20, 20), st.integers(-20, 20),
              st.integers(1, 40), st.integers(-40, 40), st.integers(2, 9),
              st.fractions(-1, 1, max_denominator=97),
              st.fractions(-1, 1, max_denominator=97)).filter(bool),
)


def line_bound(cells):
    """2*M*M, with M the largest |coefficient| of the cells' edge lines."""
    m = max(abs(c) for cell in cells for line in cell.lines for c in line)
    return 2 * m * m


def assert_within(rings, bound):
    for pts in rings:
        for X, Y, W in pts:
            assert abs(X) <= bound and abs(Y) <= bound and 0 < W <= bound


@pytest.fixture
def cut_vertices(monkeypatch):
    """The vertex tuples of every half _h_split returns during the test."""
    seen = []

    def recording(cell, line):
        halves = _h_split(cell, line)
        seen.extend(h[0] for h in halves if h is not None)
        return halves

    monkeypatch.setattr(geom, "_h_split", recording)
    return seen


class TestCrossingPoints:
    """Each crossing point is the meet of the cut edge's line and the cut
    line, so every vertex the kernel makes is the meet of two input lines
    and its integers stay within 2*M*M, M the largest input coefficient."""

    @given(kernel_operands, st.lists(kernel_operands, min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_split_matches_vertex_formula(self, a, cutters):
        # both chains cut by the same lines, each its own halves
        start = h_cell(a)
        got = want = (start.pts, start.lines)
        for line in (ln for c in cutters for ln in h_cell(c).lines):
            got_left, got_right = _h_split(got, line)
            want_left, want_right = ref_h_split(want, line)
            assert same_half(got_left, want_left)
            assert same_half(got_right, want_right)
            if got_left is None:
                break
            got, want = got_left, want_left

    @given(kernel_operands, st.lists(kernel_operands, min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_split_chains_stay_bounded(self, a, cutters):
        cells = [h_cell(c) for c in [a] + cutters]
        bound = line_bound(cells)
        pieces = [cells[0]]
        for cutter in cells[1:]:
            nxt = []
            for piece in pieces:
                inside, outside = divide(piece, cutter)
                nxt += outside + inside
            pieces = nxt
            assert_within((p.pts for p in pieces), bound)

    @pytest.mark.parametrize("k, seed", [(16, 0), (22, 1), (28, 2)])
    def test_residual_pass_stays_bounded(self, cut_vertices, k, seed):
        sc = gen_random(GeneratorParams(k=k, seed=seed, grid=1000))
        guards = guards_2k1(sc).guards
        free = list(free_space(sc).pieces)
        for gs in (guards, guards[:k] + guards[k + 1:]):  # covered, one short
            regions = [c for g in gs for c in visibility_region(sc, g).cells]
            residual = h_subtract(free, regions)
            assert bool(residual) == (gs is not guards)
            assert len(cut_vertices) > 1000
            assert_within(cut_vertices + [c.pts for c in residual],
                          line_bound(free + regions))
            cut_vertices.clear()

    def test_face_arrangement_stays_bounded(self, cut_vertices):
        sc = gen_random(GeneratorParams(k=3, seed=5, grid=100))
        cands = candidate_set(sc, include_p_corners=True)
        faces = build_faces(sc, cands)
        inputs = list(free_space(sc).pieces)
        inputs += [c for g in cands for c in visibility_region(sc, g).cells]
        assert len(cut_vertices) > 100
        assert_within(cut_vertices + [f.pts for f, _ in faces], line_bound(inputs))


class TestQuads:
    def test_rectangle_predicate(self):
        assert is_rectangle(make_convex_quad([(0, 0), (3, 0), (3, 2), (0, 2)]))
        assert is_rectangle(make_convex_quad([(5, 0), (10, 5), (5, 10), (0, 5)]))
        assert not is_rectangle(make_convex_quad([(0, 0), (4, 0), (5, 3), (1, 3)]))

    def test_convexity_enforced(self):
        with pytest.raises(ValueError):
            make_convex_quad([(0, 0), (4, 0), (1, 1), (0, 4)])
