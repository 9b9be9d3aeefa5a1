"""The exact predicates on homogeneous integer points against their Point
route (tests/references.py): `strictly_convex_ccw`, `is_rectangle`,
`model._holes_disjoint` and `instances._on_segment` give the same verdict
on every ring and pair drawn here, malformed rings included.

Rings are drawn at random on a small grid, so that clockwise rings and
duplicate and collinear vertices are common, and built as
parallelograms and as rectangles turned by (3, 4, 5) and (5, 12, 13).
Pairs touch at a corner or along an edge, overlap, nest or lie 1/3
apart.  Every case is also checked on its copy scaled by 1/3 and on its
copy shifted by 10^17."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cityguard.geom import AxisRect, ConvexQuad, Point, h_point, is_rectangle, strictly_convex_ccw
from cityguard.instances import _on_segment
from cityguard.model import _holes_disjoint
from references import (
    holes_disjoint_by_points, is_rectangle_by_points, on_segment_by_points,
    strictly_convex_ccw_by_points,
)

SHIFT = 10 ** 17
# unit edge directions with integer lengths, so that a distance of 1/3
# along one is rational: axis, (3, 4, 5) and (5, 12, 13)
DIRECTIONS = ((1, 0, 1), (3, 4, 5), (4, 3, 5), (5, 12, 13), (12, 5, 13))

_small = st.integers(-4, 4)
_point = st.builds(Point, _small, _small)
_moves = st.sampled_from(((1, 0), (Fraction(1, 3), 0), (1, SHIFT), (Fraction(1, 3), SHIFT)))


def _moved(points, move):
    scale, shift = move
    return tuple(Point(p.x * scale + shift, p.y * scale + shift) for p in points)


@st.composite
def parallelograms(draw, rectangle=None):
    """(p, u, v, n): the ring p, p + u, p + u + v, p + v, CCW when u
    turns left to v.  A rectangle has u and v turned multiples of one
    direction and n = |u|; a parallelogram has n = None."""
    p = draw(_point)
    if draw(st.booleans()) if rectangle is None else rectangle:
        a, b, d = draw(st.sampled_from(DIRECTIONS))
        m, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        return p, (m * a, m * b), (-k * b, k * a), m * d
    u = (draw(st.integers(1, 4)), draw(st.integers(-3, 3)))
    v = (draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
    return p, u, v, None


def _ring(p, u, v):
    return (p, Point(p.x + u[0], p.y + u[1]),
            Point(p.x + u[0] + v[0], p.y + u[1] + v[1]), Point(p.x + v[0], p.y + v[1]))


@st.composite
def rings(draw):
    """Four Points: random, one point four times, or a parallelogram as
    it is, clockwise, with a duplicate vertex or with a vertex on an
    edge."""
    kind = draw(st.sampled_from(("random", "point", "ccw", "cw", "duplicate", "collinear")))
    if kind == "random":
        return tuple(draw(st.lists(_point, min_size=4, max_size=4)))
    if kind == "point":
        return (draw(_point),) * 4
    ring = _ring(*draw(parallelograms())[:3])
    if kind == "cw":
        return ring[::-1]
    if kind == "duplicate":
        return (ring[0], ring[0], ring[1], ring[2])
    if kind == "collinear":
        a, b = ring[0], ring[1]
        return (a, Point(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2)), b, ring[2])
    return ring


@st.composite
def pairs(draw):
    """Two rings: both random, or a parallelogram and its copy moved so
    that they meet at a corner, along all or part of an edge, overlap or
    nest, or a rectangle and its copy 1/3 apart."""
    how = draw(st.sampled_from(("random", "corner", "edge", "half-edge", "overlap",
                                "nest", "apart")))
    if how == "random":
        return draw(rings()), draw(rings())
    p, u, v, n = draw(parallelograms(rectangle=True if how == "apart" else None))
    a = _ring(p, u, v)
    ux, uy = u
    if how == "corner":
        q = (p.x + ux + v[0], p.y + uy + v[1])
    elif how == "edge":
        q = (p.x + ux, p.y + uy)
    elif how == "half-edge":
        q = (p.x + ux + Fraction(v[0], 2), p.y + uy + Fraction(v[1], 2))
    elif how == "overlap":
        q = (p.x + Fraction(ux, 2), p.y + Fraction(uy, 2))
    elif how == "nest":
        q = (p.x + Fraction(ux + v[0], 4), p.y + Fraction(uy + v[1], 4))
        return a, _ring(Point(*q), (Fraction(ux, 2), Fraction(uy, 2)),
                        (Fraction(v[0], 2), Fraction(v[1], 2)))
    else:
        t = 1 + Fraction(1, 3 * n)  # the copy starts 1/3 past the far edge
        q = (p.x + ux * t, p.y + uy * t)
    return a, _ring(Point(*q), u, v)


def _hole(ring, as_rect):
    """An AxisRect when asked for and the ring is one, else a ConvexQuad."""
    xs, ys = [p.x for p in ring], [p.y for p in ring]
    if as_rect and ring == (Point(min(xs), min(ys)), Point(max(xs), min(ys)),
                            Point(max(xs), max(ys)), Point(min(xs), max(ys))):
        return AxisRect(min(xs), min(ys), max(xs), max(ys))
    return ConvexQuad(ring)


class TestRings:
    @given(rings(), _moves)
    @settings(max_examples=400)
    @example(_ring(Point(0, 0), (3, 4), (-4, 3)), (1, 0))
    @example(_ring(Point(0, 0), (5, 12), (-12, 5))[::-1], (Fraction(1, 3), SHIFT))
    def test_strictly_convex_ccw(self, ring, move):
        ring = _moved(ring, move)
        assert strictly_convex_ccw(ring) == strictly_convex_ccw_by_points(ring)

    @given(rings(), _moves)
    @settings(max_examples=400)
    @example(_ring(Point(0, 0), (3, 4), (-8, 6)), (Fraction(1, 3), 0))
    @example(_ring(Point(1, 1), (2, 1), (1, 3)), (1, SHIFT))
    @example((Point(0, 0), Point(0, 0), Point(2, 2), Point(2, 2)), (1, 0))
    def test_is_rectangle(self, ring, move):
        quad = ConvexQuad(_moved(ring, move))
        assert is_rectangle(quad) == is_rectangle_by_points(quad)


class TestPairs:
    @given(pairs(), _moves, st.booleans())
    @settings(max_examples=600)
    @example((_ring(Point(0, 0), (3, 4), (-4, 3)), _ring(Point(-1, 7), (3, 4), (-4, 3))),
             (1, 0), False)
    @example(((Point(0, 0),) * 4, (Point(3, 3),) * 4), (1, 0), False)
    def test_holes_disjoint(self, pair, move, as_rect):
        """The second example is apart only by the bbox test: two rings
        of one point each have no edge line."""
        a, b = (_hole(_moved(r, move), as_rect) for r in pair)
        expected = holes_disjoint_by_points(a, b)
        assert _holes_disjoint(a, b) == expected
        assert _holes_disjoint(b, a) == expected


@st.composite
def segments(draw):
    """(a, b, p): p random, an end, or a + t (b - a) for t in [-1/2, 3/2]
    in steps of 1/4; a and b may coincide."""
    a, b = draw(_point), draw(_point)
    how = draw(st.sampled_from(("random", "end", "line")))
    if how == "random":
        p = draw(_point)
    elif how == "end":
        p = draw(st.sampled_from((a, b)))
    else:
        t = Fraction(draw(st.integers(-2, 6)), 4)
        p = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    return a, b, p


class TestOnSegment:
    @given(segments(), _moves, st.integers(1, 3))
    @settings(max_examples=600)
    def test_on_segment(self, case, move, weight):
        """On the points' `h_point`s, and on those with every component
        times a positive weight."""
        a, b, p = _moved(case, move)
        ha, hb, hp = (tuple(weight * c for c in h_point(q)) for q in (a, b, p))
        assert _on_segment(ha, hb, hp) == on_segment_by_points(a, b, p)
