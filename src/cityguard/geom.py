"""Exact 2D primitives over rational coordinates.

Coordinates are Python ints or fractions.Fraction; mixing the two is fine
and integer inputs stay integers through the fast predicate paths.  A
region (PolygonSet) is a union of convex cells with pairwise disjoint
interiors, which makes differences, exact areas and emptiness tests
straightforward: area(set) is simply the sum of cell areas.  A
PolygonSet holds its cells as homogeneous integer cells (HCell, below),
the form the clipping kernel cuts; Point rings are made only where a
region leaves the library, by its `cells`.  Every exact predicate, a
building's own checks included (`strictly_convex_ccw`, `is_rectangle`),
reads homogeneous integer points: there is no second kernel on Points.

The representation is regularized: cells are closed and zero-area pieces
are dropped, so a PolygonSet always equals the closure of its interior.
A PolygonSet carries no point test: closed membership of a point in
guards' regions is `visibility.AnchorFans.mask`, read off their fans.

Sight segments against buildings have one exact test, `interior_run`:
the run of a segment inside a building's open interior, found by one
pass over the lines of its HCell (`Scene.hole_cells`) after a float
bbox prefilter.  A segment is blocked in 2D iff the run exists
(`visibility.sees`), and the roof oracle's 3D prism test compares
heights on that run.  A guard's closed half-plane has one exact test,
`h_in_front`, on homogeneous points.
`h_clear` and `h_shadowed` share one split of a convex polygon's
edges, seen from a point, into a far and a near run (`_h_chains`, one
pass that finds the far run's start and length), and both skip the
buildings whose bbox misses the bbox of the point and the cell.
`h_clear` tests every segment from a guard to a cell at once: their
hull, the guard and the cell's far chain, meets no building by the
separating-axis loop on its lines; with the cell in the guard's closed
half-plane, the guard then sees all of it.  `h_shadowed` tests whether
a cell lies in the cone over one building's near chain.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Union

from cityguard.errors import MalformedPolygonError

Rational = Union[int, Fraction]

def rational(value) -> Rational:
    """Parse a rational literal: an int, a Fraction, or a string 'p/q' (q > 0).
    A bool is not a rational, though Python counts it as an int."""
    if isinstance(value, bool):
        raise TypeError(f"not a rational literal: {value!r}")
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        if "/" in value:
            num, den = value.split("/", 1)
            den_i = int(den)
            if den_i <= 0:
                raise ValueError(f"rational denominator must be positive: {value!r}")
            f = Fraction(int(num), den_i)
        else:
            f = Fraction(int(value))
        return int(f) if f.denominator == 1 else f
    raise TypeError(f"not a rational literal: {value!r}")


def rational_str(value: Rational) -> Union[int, str]:
    """Canonical JSON form: plain int when integral, else 'p/q' in lowest terms."""
    f = Fraction(value)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


class Point(NamedTuple):
    x: Rational
    y: Rational


def primitive_direction(dx: Rational, dy: Rational) -> tuple:
    """Reduce a nonzero direction to a canonical primitive integer vector."""
    if dx == 0 and dy == 0:
        raise ValueError("zero direction")
    X, Y, _ = h_point((dx, dy))
    g = gcd(X, Y)
    return (X // g, Y // g)


# ---------------------------------------------------------------------------
# Convex cells
# ---------------------------------------------------------------------------

Cell = tuple  # tuple of Points, CCW, convex


class PolygonSet:
    """A (possibly empty, possibly multi-face) region: disjoint convex cells,
    held as HCells.  Point rings are made only on the way out, by `cells`."""

    __slots__ = ("pieces",)

    def __init__(self, cells: Iterable[Cell] = ()):
        """The region of the given CCW convex rings of Points (or pairs).

        Each ring is normalized into an HCell once; a ring with no area is
        dropped, and one that is not strictly convex and CCW raises
        MalformedPolygonError."""
        self.pieces = tuple(hc for hc in map(_h_ring, cells) if hc is not None)

    @staticmethod
    def of_hcells(pieces: Iterable["HCell"]) -> "PolygonSet":
        """Wrap disjoint HCells, such as kernel output, as they are."""
        region = PolygonSet()
        region.pieces = tuple(pieces)
        return region

    @staticmethod
    def from_rect(x0, y0, x1, y1) -> "PolygonSet":
        return PolygonSet.of_hcells((h_rect(x0, y0, x1, y1),))

    @property
    def cells(self):
        """The cells as CCW tuples of Points, made on each access."""
        return tuple(h_cell_to_cell(c) for c in self.pieces)

    def is_empty(self) -> bool:
        return not self.pieces

    def area(self) -> Fraction:
        return Fraction(sum(h_area2(c) for c in self.pieces)) / 2

    def difference(self, other: "PolygonSet") -> "PolygonSet":
        return PolygonSet.of_hcells(h_subtract(self.pieces, other.pieces))

    def __repr__(self):
        return f"PolygonSet({len(self.pieces)} cells, area={self.area()})"


# ---------------------------------------------------------------------------
# Axis rectangles and rotated rectangular quads
# ---------------------------------------------------------------------------


class AxisRect(NamedTuple):
    """Axis-aligned rectangle given by min-corner and max-corner."""

    x0: Rational
    y0: Rational
    x1: Rational
    y1: Rational

    def corners(self):
        """CCW from the min-corner: 0=SW, 1=SE, 2=NE, 3=NW."""
        return (Point(self.x0, self.y0), Point(self.x1, self.y0),
                Point(self.x1, self.y1), Point(self.x0, self.y1))

    def contains_open(self, p: Point) -> bool:
        return self.x0 < p.x < self.x1 and self.y0 < p.y < self.y1

    def contains_closed(self, p: Point) -> bool:
        return self.x0 <= p.x <= self.x1 and self.y0 <= p.y <= self.y1


def make_axis_rect(x0, y0, x1, y1) -> AxisRect:
    if not (x0 < x1 and y0 < y1):
        raise ValueError(f"AxisRect needs positive area, got [{x0},{y0};{x1},{y1}]")
    return AxisRect(x0, y0, x1, y1)


class ConvexQuad(NamedTuple):
    """Strictly convex quadrilateral, vertices in CCW order."""

    v: tuple

    def corners(self):
        return self.v


def make_convex_quad(points) -> ConvexQuad:
    pts = tuple(Point(p[0], p[1]) for p in points)
    if len(pts) != 4:
        raise ValueError("ConvexQuad needs exactly 4 vertices")
    if not strictly_convex_ccw(pts):
        raise ValueError("ConvexQuad vertices must be strictly convex in CCW order")
    return ConvexQuad(pts)


def strictly_convex_ccw(pts) -> bool:
    """Every vertex of the ring turns strictly left (`_h_orient` on the
    vertices' `h_point`s)."""
    hp = tuple(map(h_point, pts))
    n = len(hp)
    return all(_h_orient(hp[i - 1], hp[i], hp[(i + 1) % n]) == 1 for i in range(n))


def h_ring_lines(hp):
    """The lines of a closed ring of homogeneous points, line i through
    hp[i - 1] and hp[i] as `_h_line` directs it; any ring, malformed ones
    included."""
    return [_h_line(hp[i - 1], hp[i]) for i in range(len(hp))]


def is_rectangle(quad: ConvexQuad) -> bool:
    """Consecutive edge lines have perpendicular normals (A, B).  In a
    closed ring of four edges with four right angles, opposite edges are
    parallel and so, as the edges sum to zero, of equal length."""
    normals = [line[:2] for line in h_ring_lines(tuple(map(h_point, quad.v)))]
    return all(a * c + b * d == 0
               for (a, b), (c, d) in zip(normals, normals[1:] + normals[:1]))


Hole = Union[AxisRect, ConvexQuad]


# ---------------------------------------------------------------------------
# Homogeneous integer cells: the one clipping kernel.  Every cut of a cell
# by cells (PolygonSet.difference, the residual passes of the verifier and
# the oracle's rounds through h_subtract, and the oracle's face
# arrangement) runs through one loop, h_divide below.  Per cutter and
# piece it first asks a bbox prefilter and then _h_disjoint, the exact
# separating-axis loop on two cells' vertices and lines, whether their
# interiors meet at all; pairs that do not are never cut.  Pairs that do
# are cut by _h_cut, by each edge line of the cutter once, with _h_split
# returning both closed halves from one evaluation of the sides, so the
# part inside the cutter and the pieces outside come out of the same
# pass.  h_divide returns both halves; h_subtract keeps the outside one.
#
# A point is (X, Y, W) with integer components and W > 0, representing
# (X/W, Y/W).  Sides, orientations and clipping are pure integer
# arithmetic.  An HCell carries its vertices, the directed edge lines
# (left side is the interior) and a conservatively inflated float bounding
# box used purely as a prefilter; a hull that is only tested, never cut,
# stays bare (pts, lines).  A cut never makes a new line, and each
# crossing point is the meet of the cut edge's line and the cut line, so
# every vertex is the meet of two of the kernel's input lines: with M the
# largest input line coefficient, |X|, |Y| and W stay within 2*M*M
# however many cuts made the vertex.
#
# Every HCell is strictly convex and CCW: at least 3 vertices, no
# duplicate, no three consecutive collinear (_h_normalized(pts) == pts),
# positive area.  Cells entering the kernel are normalized once (h_cell
# and the PolygonSet constructor), or are made in that form: h_rect writes
# an axis rectangle's vertices and lines down, and the visibility sweep
# keeps only strictly CCW triangles.  A cut keeps
# the invariant without renormalizing: when a line has vertices strictly
# on both sides, its crossing points lie strictly inside their edges, it
# meets the boundary in exactly two points, and each half is a strictly
# convex polygon with one vertex off the line.
# ---------------------------------------------------------------------------

def h_point(p: Point):
    """(X, Y, W) over W, the lcm of the coordinates' denominators, read
    off their `numerator` and `denominator` in integers; an int pair is
    (x, y, 1).  A float, which has no denominator, converts exactly
    through `Fraction` first."""
    x, y = p
    if isinstance(x, int) and isinstance(y, int):
        return (x, y, 1)
    try:
        dx, dy = x.denominator, y.denominator
    except AttributeError:
        x, y = Fraction(x), Fraction(y)
        dx, dy = x.denominator, y.denominator
    w = dx * dy // gcd(dx, dy)
    return (x.numerator * (w // dx), y.numerator * (w // dy), w)


def h_to_point(h) -> Point:
    X, Y, W = h
    if W == 1:
        return Point(X, Y)
    fx, fy = Fraction(X, W), Fraction(Y, W)
    return Point(int(fx) if fx.denominator == 1 else fx,
                 int(fy) if fy.denominator == 1 else fy)


def _h_line(a, b):
    """Directed line a->b as (A, B, C); side(p) = A*X + B*Y + C*W, left > 0."""
    return (a[1] * b[2] - b[1] * a[2],
            b[0] * a[2] - a[0] * b[2],
            a[0] * b[1] - b[0] * a[1])


def _h_meet(l1, l2):
    """The point where two non-parallel lines meet, reduced, with W > 0."""
    x = l1[1] * l2[2] - l1[2] * l2[1]
    y = l1[2] * l2[0] - l1[0] * l2[2]
    w = l1[0] * l2[1] - l1[1] * l2[0]
    if w < 0:
        x, y, w = -x, -y, -w
    g = gcd(x, y, w)
    return (x // g, y // g, w // g)


def _h_orient(a, b, c) -> int:
    d = (a[0] * (b[1] * c[2] - c[1] * b[2])
         - a[1] * (b[0] * c[2] - c[0] * b[2])
         + a[2] * (b[0] * c[1] - c[0] * b[1]))
    return 1 if d > 0 else (-1 if d < 0 else 0)


class HCell:
    __slots__ = ("pts", "lines", "bbox")

    def __init__(self, pts, lines=None):
        """lines[i], when given, is a line through pts[i] and pts[i + 1]
        with the cell on its positive side, at any positive scale."""
        self.pts = pts
        n = len(pts)
        if lines is None:
            lines = tuple(_h_line(pts[i], pts[i + 1 if i + 1 < n else 0])
                          for i in range(n))
        self.lines = lines
        xs = [p[0] / p[2] for p in pts]
        ys = [p[1] / p[2] for p in pts]
        pad_x = (max(map(abs, xs)) + 1.0) * 1e-12
        pad_y = (max(map(abs, ys)) + 1.0) * 1e-12
        self.bbox = (min(xs) - pad_x, min(ys) - pad_y,
                     max(xs) + pad_x, max(ys) + pad_y)


def h_cell(cell: Cell) -> HCell:
    """A Point ring as an HCell, normalized to the kernel's invariant.
    Raises MalformedPolygonError unless it is strictly convex and CCW with
    positive area."""
    hc = _h_ring(cell)
    if hc is None:
        raise MalformedPolygonError(f"ring {tuple(cell)} has no area")
    return hc


def _h_ring(cell: Cell):
    """h_cell, but None for a ring with no area.  Once duplicate and
    collinear vertices are dropped, every vertex off an edge must lie
    strictly left of that edge's line: this refuses clockwise,
    non-convex and self-overlapping rings."""
    pts = _h_normalized(tuple(h_point(p) for p in cell))
    if pts is None:
        return None
    hc = HCell(pts)
    n = len(pts)
    for i, (A, B, C) in enumerate(hc.lines):
        for j in range(i + 2, i + n):
            X, Y, W = pts[j % n]
            if A * X + B * Y + C * W <= 0:
                raise MalformedPolygonError(
                    f"ring {tuple(cell)} is not strictly convex and counter-clockwise")
    return hc


def h_rect(x0, y0, x1, y1) -> HCell:
    """The HCell of the axis rectangle [x0, x1] x [y0, y1], vertices CCW
    from (x0, y0): the cell `h_cell` makes of that ring.  A rectangle with
    area already meets the kernel's invariant, so with int corners its
    vertices, the lines `_h_line` gives and the bbox padded as in `HCell`
    are written down; other corners go through `h_point`.  Raises
    MalformedPolygonError unless x0 < x1 and y0 < y1."""
    if not (x0 < x1 and y0 < y1):
        raise MalformedPolygonError(f"rectangle [{x0},{y0};{x1},{y1}] has no area")
    if not (isinstance(x0, int) and isinstance(y0, int)
            and isinstance(x1, int) and isinstance(y1, int)):
        return HCell(tuple(map(h_point, ((x0, y0), (x1, y0), (x1, y1), (x0, y1)))))
    dx, dy = x1 - x0, y1 - y0
    hc = HCell.__new__(HCell)
    hc.pts = ((x0, y0, 1), (x1, y0, 1), (x1, y1, 1), (x0, y1, 1))
    hc.lines = ((0, dx, -y0 * dx), (-dy, 0, x1 * dy), (0, -dx, y1 * dx), (dy, 0, -x0 * dy))
    fx0, fy0, fx1, fy1 = x0 / 1, y0 / 1, x1 / 1, y1 / 1
    pad_x = (max(abs(fx0), abs(fx1)) + 1.0) * 1e-12
    pad_y = (max(abs(fy0), abs(fy1)) + 1.0) * 1e-12
    hc.bbox = (fx0 - pad_x, fy0 - pad_y, fx1 + pad_x, fy1 + pad_y)
    return hc


def h_cell_to_cell(hc: HCell) -> Cell:
    """An HCell's vertices as Points, for PolygonSet's exits."""
    return tuple(h_to_point(p) for p in hc.pts)


def h_area2(hc: HCell) -> Rational:
    """Twice the area of an HCell, exactly."""
    s = 0
    a = hc.pts[-1]
    for b in hc.pts:
        t = a[0] * b[1] - b[0] * a[1]
        w = a[2] * b[2]
        s += t if w == 1 else Fraction(t, w)
        a = b
    return s


def h_mean(hc: HCell):
    """The mean of an HCell's vertices as a reduced homogeneous point, in
    integers: over the lcm L of the vertices' W, (sum X*L/W, sum Y*L/W,
    n*L) divided by the gcd of its three components."""
    pts = hc.pts
    L = lcm(*(p[2] for p in pts))
    X = Y = 0
    for x, y, w in pts:
        s = L // w
        X += x * s
        Y += y * s
    W = len(pts) * L
    g = gcd(X, Y, W)
    return (X // g, Y // g, W // g)


def h_centroid(hc: HCell) -> Point:
    """The mean of an HCell's vertices (`h_mean`) as a Point: an int
    coordinate when it is integral, a Fraction otherwise."""
    return h_to_point(h_mean(hc))


def _h_normalized(pts):
    """Drop duplicate/collinear vertices; None if fewer than 3 remain."""
    out = []
    n = len(pts)
    for i in range(n):
        a = pts[i - 1]
        b = pts[i]
        if a[0] * b[2] == b[0] * a[2] and a[1] * b[2] == b[1] * a[2]:
            continue
        out.append(b)
    m = len(out)
    if m < 3:
        return None
    keep = []
    for i in range(m):
        if _h_orient(out[i - 1], out[i], out[(i + 1) % m]) != 0:
            keep.append(out[i])
    if len(keep) < 3:
        return None
    return tuple(keep)


def _h_disjoint(pts1, lines1, pts2, lines2) -> bool:
    """True iff two convex cells, each given by its vertices and its edge
    lines, have disjoint interiors: the separating-axis test in integers.
    Two convex cells have disjoint interiors iff some edge line of one has
    the whole other cell on its closed right side; a line may repeat."""
    for lines, pts in ((lines2, pts1), (lines1, pts2)):
        for (A, B, C) in lines:
            for p in pts:
                if A * p[0] + B * p[1] + C * p[2] > 0:
                    break
            else:
                return True
    return False


def _h_split(cell, line):
    """Cut a convex cell, given as (pts, lines), by a directed line,
    evaluating each side once.

    Returns (left, right), the closed halves on either side as (pts, lines);
    a half is None when it has no area, and is the cell itself when the line
    misses the cell.  The halves of a strictly convex cell are strictly
    convex as built (see the invariant above), so they are not
    renormalized.  Each edge of a half keeps the line of the edge it lies
    on, or the cut line, and each crossing point is the meet of those two
    lines, so a half's vertices are meets of the kernel's input lines and
    their integers stay bounded by them (see above)."""
    pts, lines = cell
    A, B, C = line
    sides = [A * p[0] + B * p[1] + C * p[2] for p in pts]
    if min(sides) >= 0:
        return cell, None
    if max(sides) <= 0:
        return None, cell
    flip = (-A, -B, -C)
    left, left_lines, right, right_lines = [], [], [], []
    for p, sp, sq, edge in zip(pts, sides, sides[1:] + sides[:1], lines):
        # sq is the side of the next vertex; the edge leaving p in a half
        # runs along the cut line only when p is on the line and the next
        # vertex is on the other side
        if sp >= 0:
            left.append(p)
            left_lines.append(edge if sp > 0 or sq >= 0 else line)
        if sp <= 0:
            right.append(p)
            right_lines.append(edge if sp < 0 or sq <= 0 else flip)
        if (sp > 0 > sq) or (sp < 0 < sq):
            # the edge's ends lie strictly on opposite sides, so the lines meet
            r = _h_meet(edge, line)
            left.append(r)
            right.append(r)
            # the half being left continues along the cut line
            left_lines.append(line if sp > 0 else edge)
            right_lines.append(edge if sp > 0 else flip)
    return (tuple(left), tuple(left_lines)), (tuple(right), tuple(right_lines))


def _h_cut(c1: HCell, c2: HCell):
    """Cut c1, which meets c2, by each edge line of c2: the (pts, lines) of
    c1 and c2 in common, and c1 minus c2 as a list of HCells."""
    outside = []
    rest = (c1.pts, c1.lines)
    for line in c2.lines:
        rest, right = _h_split(rest, line)
        if right is not None:
            outside.append(HCell(*right))
    return rest, outside


def h_divide(pieces, cutters):
    """Cut a list of disjoint HCells by every cutter in turn, exactly:
    (the parts inside the cutters as (pts, lines), in cut order; the
    HCells outside them all).

    A piece whose interior does not meet the cutter's (a gap between the
    inflated float bboxes, then `_h_disjoint`) is kept as it is; any other
    piece is cut by `_h_cut`, and its part in common with the cutter has
    area.  A piece inside the cutter is its own inside part."""
    inside = []
    outside = _h_divide(pieces, cutters, inside)
    return inside, outside


def h_subtract(pieces, cutters):
    """Subtract every cutter from a list of disjoint HCells, exactly: the
    outside half of `h_divide`, whose inside parts are dropped as they are
    made."""
    return _h_divide(pieces, cutters, None)


def _h_divide(pieces, cutters, inside):
    """The loop of `h_divide`: returns the outside HCells and appends each
    inside part to `inside`, unless it is None."""
    for c2 in cutters:
        if not pieces:
            break
        x0, y0, x1, y1 = c2.bbox
        nxt = []
        for c1 in pieces:
            b = c1.bbox
            if (b[2] <= x0 or x1 <= b[0] or b[3] <= y0 or y1 <= b[1]
                    or _h_disjoint(c1.pts, c1.lines, c2.pts, c2.lines)):
                nxt.append(c1)
            else:
                rest, outside = _h_cut(c1, c2)
                if inside is not None:
                    inside.append(rest)
                nxt.extend(outside)
        pieces = nxt
    return pieces


def h_clear(apex, cell: HCell, blockers) -> bool:
    """True iff no blocker's open interior meets the hull of the
    homogeneous point `apex` and the cell, which the sight segments from
    the apex fill (`_h_hull`).  The apex must not lie strictly inside the
    cell, as it does not when the cell lies in the closed half-plane of a
    guard at the apex: then True means that guard sees all of the cell.
    Only the blockers whose inflated bbox meets the bbox of the apex and
    the cell (`_h_reach`) can meet the hull, and `_h_disjoint` tests the
    hull's lines against each of them, exactly."""
    x0, y0, x1, y1 = _h_reach(apex, cell)
    hull = None
    for b in blockers:
        bb = b.bbox
        if bb[2] <= x0 or x1 <= bb[0] or bb[3] <= y0 or y1 <= bb[1]:
            continue
        if hull is None:
            hull = _h_hull(apex, cell)
        if not _h_disjoint(*hull, b.pts, b.lines):
            return False
    return True


def h_shadowed(apex, cell: HCell, blockers) -> bool:
    """True iff the closed shadow of one blocker, seen from the
    homogeneous point `apex`, holds the cell; then no interior point of
    the cell is seen from the apex.  Only the blockers whose inflated bbox
    meets the bbox of the apex and the cell (`_h_reach`) can hide a point
    of the cell; the decision is exact (`_h_shadow`)."""
    x0, y0, x1, y1 = _h_reach(apex, cell)
    pts = cell.pts
    for b in blockers:
        bb = b.bbox
        if bb[2] <= x0 or x1 <= bb[0] or bb[3] <= y0 or y1 <= bb[1]:
            continue
        if all(A * X + B * Y + C * W >= 0 for A, B, C in _h_shadow(apex, b) for X, Y, W in pts):
            return True
    return False


def _h_reach(apex, cell: HCell):
    """The bbox of the apex, as floats, and the cell's inflated bbox."""
    ax, ay = apex[0] / apex[2], apex[1] / apex[2]
    x0, y0, x1, y1 = cell.bbox
    return min(x0, ax), min(y0, ay), max(x1, ax), max(y1, ay)


def _h_chains(apex, cell: HCell):
    """A convex cell's edges seen from an apex not strictly inside it, by
    one side test each: the far edges have the apex strictly on their
    left, the near ones on their closed right, and each kind is one run.
    Returns (i, m): the far chain is edges i .. i + m - 1, indices taken
    modulo the cell's n edges, and runs from vertex i to vertex i + m;
    the near chain is the other n - m edges, back to vertex i.  The far
    run starts where a near edge is followed by a far one, or at edge 0
    when no edge after it is such a start."""
    AX, AY, AW = apex
    i = m = 0
    was_far = True
    for j, (A, B, C) in enumerate(cell.lines):
        far = A * AX + B * AY + C * AW > 0
        if far:
            m += 1
            if not was_far:
                i = j
        was_far = far
    return i, m


def _h_run(seq, i, m):
    """seq[i], ..., seq[i + m - 1], indices modulo len(seq), as a tuple."""
    j = i + m - len(seq)
    return seq[i:i + m] if j <= 0 else seq[i:] + seq[:j]


def _h_hull(apex, cell: HCell):
    """The hull of a convex cell and an apex not strictly inside it, as
    (pts, lines): the apex, then the far chain with its own lines.  An
    open set meets its interior iff it meets the interior of some triangle
    (apex, a, b) over a far edge a->b.  With the apex on the cell's
    boundary the hull is the cell, and an apex inside an edge leaves that
    edge's line twice, which the separating-axis test allows."""
    i, m = _h_chains(apex, cell)
    chain = _h_run(cell.pts, i, m + 1)
    return ((apex, *chain),
            (_h_line(apex, chain[0]), *_h_run(cell.lines, i, m), _h_line(chain[-1], apex)))


def _h_shadow(apex, b: HCell):
    """The lines, each with the closed shadow on its closed left side, of
    the closed shadow of a convex blocker seen from an apex not inside it:
    the cone between the rays from the apex through the ends of the near
    chain, on the chain's inner sides.  Its interior points are those
    whose sight segment from the apex crosses the blocker's open interior.
    At a corner of the blocker it is the corner's cone."""
    i, m = _h_chains(apex, b)
    pts = b.pts
    n = len(pts)
    j = (i + m) % n
    return (_h_line(pts[j], apex), _h_line(apex, pts[i]), *_h_run(b.lines, j, n - m))


def h_in_front(apex, facing, pts) -> bool:
    """Every homogeneous point of `pts` lies in the closed half-plane of a
    guard at the homogeneous `apex` with this facing: (p - apex) . facing
    >= 0, both sides scaled by the two positive weights."""
    fx, fy = facing
    AX, AY, AW = apex
    k = fx * AX + fy * AY
    return all((fx * X + fy * Y) * AW >= k * W for X, Y, W in pts)


def interior_run(a, b, cell: HCell):
    """The parameter range (t0, t1) of the run of segment a->b, from
    homogeneous ends, through the cell's open interior, or None.

    One Cyrus-Beck pass over the cell's edge lines, in homogeneous
    integers: a point is in the open interior iff it is strictly left of
    every edge line, so a line with both ends on or right of it leaves no
    run, and the run is the part of the segment strictly left of them all.
    Each end's side is scaled by the other end's W, so both sides share
    one scale and a crossing lies at t = sa / (sa - sb).  The run's ends
    are kept as integer ratios and made Fractions only on return; grazing
    contact and runs along an edge leave no run.

    A segment with both ends, as floats, outside one side of the cell's
    inflated bbox misses the cell: a conservative prefilter only."""
    ax, ay, aw = a
    bx, by, bw = b
    x0, y0, x1, y1 = cell.bbox
    fax, fay, fbx, fby = ax / aw, ay / aw, bx / bw, by / bw
    if ((fax <= x0 and fbx <= x0) or (fax >= x1 and fbx >= x1)
            or (fay <= y0 and fby <= y0) or (fay >= y1 and fby >= y1)):
        return None
    n0, d0, n1, d1 = 0, 1, 1, 1  # the run so far: n0/d0 < t < n1/d1
    for A, B, C in cell.lines:
        sa = (A * ax + B * ay + C * aw) * bw
        sb = (A * bx + B * by + C * bw) * aw
        if sa > 0:
            if sb > 0:
                continue
            if sa * d1 < n1 * (sa - sb):  # leaves the left side earlier
                n1, d1 = sa, sa - sb
        elif sb <= 0:
            return None
        elif -sa * d0 > n0 * (sb - sa):  # enters the left side later
            n0, d0 = -sa, sb - sa
        if n0 * d1 >= n1 * d0:
            return None
    return Fraction(n0, d0), Fraction(n1, d1)
