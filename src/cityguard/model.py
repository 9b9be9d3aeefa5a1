"""Scene/City data model, validation, guards and quarter turns.

A Scene is the 2D universe every algorithm works on: an axis-aligned
bounding rectangle with k pairwise-disjoint rectangular holes, each also
held as an HCell (`hole_cells`).  A City adds a positive height per
building; its `scene` is the 2.5D city's vertical projection, which is
all the wall and ground placements read.
Guards record the corner identity of their anchor (not raw coordinates)
so solutions survive re-serialization of the scene.  `Scene.corner` is
the one decoder of an anchor: every layer reads a guard's corner as a
vertex of `Scene.cells`, in integers, and any anchor naming no corner
raises the same ValueError.  Validation reads a rotated building as the
kernel does, on its corners' homogeneous integer points: its convexity
(`strictly_convex_ccw`), its right angles (`is_rectangle`) and its
separating edge lines against another building (`_holes_disjoint`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf
from numbers import Real
from typing import Sequence

from cityguard.errors import SceneValidationError, DegeneratePositionError
from cityguard.geom import (
    AxisRect, ConvexQuad, Point, Hole, h_cell, h_in_front, h_point, h_rect, h_ring_lines,
    h_to_point, is_rectangle, make_convex_quad, primitive_direction, strictly_convex_ccw,
)

AXIS_ALIGNED = "AXIS_ALIGNED"
GENERAL = "GENERAL"

N = (0, 1)
E = (1, 0)
S = (0, -1)
W = (-1, 0)


@dataclass(frozen=True)
class Scene:
    bounds: AxisRect
    holes: tuple

    @property
    def k(self) -> int:
        return len(self.holes)

    @cached_property
    def hole_cells(self) -> tuple:
        """The holes' HCells, corners in corner order, built on first read:
        the one exact form of a building that every exact test reads."""
        return tuple(h_rect(*h) if isinstance(h, AxisRect) else h_cell(h.v)
                     for h in self.holes)

    @cached_property
    def cells(self) -> tuple:
        """`hole_cells`, then P's rectangle: every cell a guard stands on."""
        return self.hole_cells + (h_rect(*self.bounds),)

    def corner(self, anchor: tuple):
        """(cell, j), the anchor's cell of `cells` and its corner there,
        cell.pts[j]: the one decoder of an anchor.  ValueError unless it is
        ("hole", i, j), 0 <= i < k, or ("p", j), j in 0..3, each index an
        int and no bool."""
        n = len(anchor) if isinstance(anchor, tuple) else 0
        if n == 3 and anchor[0] == "hole":
            i, j = anchor[1], anchor[2]
            if type(i) is int and type(j) is int and 0 <= i < len(self.holes) and 0 <= j < 4:
                return self.cells[i], j
        elif n == 2 and anchor[0] == "p":
            j = anchor[1]
            if type(j) is int and 0 <= j < 4:
                return self.cells[-1], j
        on = f" on building {anchor[1]!r}" if n > 1 and anchor[0] == "hole" else ""
        raise ValueError(f"anchor {anchor!r}{on} names no corner of a scene "
                         f"with {self.k} buildings")

    @property
    def kind(self) -> str:
        return AXIS_ALIGNED if all(isinstance(h, AxisRect) for h in self.holes) else GENERAL


@dataclass(frozen=True)
class City:
    scene: Scene
    heights: tuple

    def __post_init__(self):
        if len(self.heights) != self.scene.k:
            raise ValueError("need exactly one height per building")
        for i, (base, height) in enumerate(zip(self.scene.holes, self.heights)):
            if height <= 0:
                raise ValueError(f"building {i}: height must be positive")
            if isinstance(base, ConvexQuad):
                if not _readable(base):
                    raise ValueError(f"building {i}: base is not a ConvexQuad of four Points")
                if not is_rectangle(base):
                    raise ValueError(f"building {i}: base is not a rectangle")


# Anchors: ("hole", building_id, corner_idx) or ("p", corner_idx).
# Corner indices run CCW; for axis rectangles 0=SW, 1=SE, 2=NE, 3=NW.


@dataclass(frozen=True, order=True)
class Guard:
    anchor: tuple
    facing: tuple

    def __post_init__(self):
        """Refuse an anchor of no anchor's shape, ("hole", i, j) or
        ("p", j), each index an int and no bool, and a facing of no two
        finite numbers.  The region and certificate caches are keyed by
        guard equality and True == 1, so a bool index would get its int's
        cached answer.  The range against a scene is `Scene.corner`'s."""
        a, f = self.anchor, self.facing
        if not (isinstance(a, tuple) and len(a) == (3 if a[:1] == ("hole",) else 2)
                and a[0] in ("hole", "p") and all(type(i) is int for i in a[1:])):
            raise ValueError(f"anchor {a!r} names no corner: it is not ('hole', i, j) "
                             f"or ('p', j) with int indices")
        if not (isinstance(f, (tuple, list)) and len(f) == 2 and (type(f[0]) is type(f[1]) is int
                or all(isinstance(c, Real) and abs(c) < inf for c in f))):
            raise ValueError(f"facing {f!r} is not two finite numbers")
        object.__setattr__(self, "facing", primitive_direction(*f))

    def position(self, scene: Scene) -> Point:
        """The anchor corner (`Scene.corner`) as a Point; ValueError if the
        scene has no such corner."""
        cell, j = scene.corner(self.anchor)
        return h_to_point(cell.pts[j])

    def on_hole(self) -> bool:
        return self.anchor[0] == "hole"


def hole_guard(building: int, corner: int, facing) -> Guard:
    return Guard(anchor=("hole", building, corner), facing=tuple(facing))


def p_corner_guard(corner: int, facing) -> Guard:
    return Guard(anchor=("p", corner), facing=tuple(facing))


@dataclass(frozen=True)
class Solution:
    algorithm: str
    guards: tuple
    trace: tuple = ()

    def __post_init__(self):
        # drop repeated guards, keeping first occurrences in order
        object.__setattr__(self, "guards", tuple(dict.fromkeys(self.guards)))

    @property
    def count(self) -> int:
        return len(self.guards)

    def p_corner_count(self) -> int:
        return sum(1 for g in self.guards if not g.on_hole())


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _holes_disjoint(a: Hole, b: Hole) -> bool:
    """Closed-set disjointness of two convex holes: touching is not
    disjoint.  Two rectangles compare intervals.  Otherwise their exact
    bboxes apart decide, and then an edge line of one with the other
    strictly on its right, on the corners' `h_point`s.  The bbox test
    comes first because the edge test reads a ring that is not convex
    and CCW wrongly, and validation checks overlaps on such rings too."""
    if isinstance(a, AxisRect) and isinstance(b, AxisRect):
        return a.x1 < b.x0 or b.x1 < a.x0 or a.y1 < b.y0 or b.y1 < a.y0
    ca, cb = a.corners(), b.corners()
    (ax, ay), (bx, by) = zip(*ca), zip(*cb)
    if (max(ax) < min(bx) or max(bx) < min(ax)
            or max(ay) < min(by) or max(by) < min(ay)):
        return True
    ha, hb = tuple(map(h_point, ca)), tuple(map(h_point, cb))
    return any(all(A * X + B * Y + C * W < 0 for X, Y, W in other)
               for ring, other in ((ha, hb), (hb, ha)) for A, B, C in h_ring_lines(ring))


def _overlapping_pairs(holes: dict):
    """The pairs (i, j), i < j, of holes, given by index, that are not
    disjoint, in that order.  A sweep over the holes by the left ends of
    their x-ranges tests only the pairs whose closed x-ranges meet
    (`_holes_disjoint`); two holes whose x-ranges are apart are disjoint."""
    spans = []
    for i, h in holes.items():
        if isinstance(h, AxisRect):
            spans.append((h.x0, h.x1, i))
        else:
            xs = [p.x for p in h.v]
            spans.append((min(xs), max(xs), i))
    spans.sort()
    pairs = []
    active = []  # (x1, i) of the holes swept so far
    for x0, x1, i in spans:
        active = [(end, j) for end, j in active if x0 <= end]
        for _, j in active:
            a, b = (i, j) if i < j else (j, i)
            if not _holes_disjoint(holes[a], holes[b]):
                pairs.append((a, b))
        active.append((x1, i))
    pairs.sort()
    return pairs


def _readable(hole) -> bool:
    """An AxisRect, or a ConvexQuad of four Points: a hole the checks can
    read."""
    return isinstance(hole, AxisRect) or (
        isinstance(hole, ConvexQuad) and isinstance(hole.v, tuple) and len(hole.v) == 4
        and all(isinstance(p, Point) for p in hole.v))


def _is_cell(hole: Hole) -> bool:
    """A readable hole with area, strictly convex and CCW, as the parser
    requires."""
    if isinstance(hole, AxisRect):
        return hole.x0 < hole.x1 and hole.y0 < hole.y1
    return _readable(hole) and strictly_convex_ccw(hole.v)


def _strictly_inside(hole: Hole, bounds: AxisRect) -> bool:
    return all(bounds.contains_open(c) for c in hole.corners())


def _axis_lines(hole: Hole):
    """Supporting x-lines and y-lines for axis-aligned holes."""
    if isinstance(hole, AxisRect):
        return {hole.x0, hole.x1}, {hole.y0, hole.y1}
    xs, ys = set(), set()
    cs = hole.corners()
    for i in range(4):
        p, q = cs[i], cs[(i + 1) % 4]
        if p.x == q.x:
            xs.add(p.x)
        if p.y == q.y:
            ys.add(p.y)
    return xs, ys


def check_general_position(scene: Scene):
    """No two holes share an edge-supporting axis line; violations as list,
    one per pair (i, j), i < j, in that order.  Holes are grouped by line,
    so only the pairs that share one are visited."""
    on_line = {}
    for i, h in enumerate(scene.holes):
        xs, ys = _axis_lines(h)
        for line in [("x", x) for x in xs] + [("y", y) for y in ys]:
            on_line.setdefault(line, []).append(i)
    pairs = {(i, j) for ids in on_line.values() for n, i in enumerate(ids) for j in ids[n + 1:]}
    return [("DEGENERATE_POSITION", pair) for pair in sorted(pairs)]


# The kernel is exact, but its prefilters read coordinates, and differences
# of two, as floats; within this bound every such value fits a float.
MAX_COORDINATE = 10 ** 300


# The last scene object each check accepted.  A Scene is frozen and holds
# tuples of NamedTuples, so an accepted object cannot change, and a second
# check of it returns at once; a scene that fails is never kept.
_validated = None
_general = None


def validate_scene(scene: Scene) -> Scene:
    """Check a Scene: its bounds lie within +-MAX_COORDINATE and have area,
    and its holes are cells (`_is_cell`), rectangles strictly inside the
    bounds and pairwise disjoint.  A hole that is neither an AxisRect nor
    a ConvexQuad of four Points is MALFORMED_HOLE, and the inside and
    overlap checks, which cannot read it, skip it.  A scene document is
    parsed by io.parse_city.

    Returns the scene itself when its holes are a tuple, and a copy with
    tuple holes otherwise.  The last scene object returned as itself is
    kept, and checking it again returns at once.

    Raises SceneValidationError carrying every violation found.
    """
    global _validated
    if scene is _validated:
        return scene
    if not isinstance(scene, Scene):
        raise TypeError(f"validate_scene takes a Scene, got {type(scene).__name__}")
    bounds, holes = scene.bounds, scene.holes
    violations = []
    if any(abs(c) > MAX_COORDINATE for c in bounds):
        violations.append(("COORDINATE_OUT_OF_RANGE", ("bounds",)))
    if not (bounds.x0 < bounds.x1 and bounds.y0 < bounds.y1):
        violations.append(("EMPTY_BOUNDS", ("bounds",)))
    for i, h in enumerate(holes):
        if not _is_cell(h):
            violations.append(("MALFORMED_HOLE", (i,)))
        elif isinstance(h, ConvexQuad) and not is_rectangle(h):
            violations.append(("NOT_A_RECTANGLE", (i,)))
    readable = {i: h for i, h in enumerate(holes) if _readable(h)}
    for i, h in readable.items():
        if not _strictly_inside(h, bounds):
            violations.append(("HOLE_TOUCHES_BOUNDARY", (i,)))
    violations += [("OVERLAPPING_HOLES", pair) for pair in _overlapping_pairs(readable)]
    if violations:
        raise SceneValidationError(violations)
    if not isinstance(holes, tuple):
        return Scene(bounds=bounds, holes=tuple(holes))
    _validated = scene
    return scene


def require_general_position(scene: Scene):
    """Raise DegeneratePositionError unless `check_general_position` finds
    nothing.  The last scene object accepted is kept, and requiring it
    again returns at once."""
    global _general
    if scene is _general:
        return
    bad = check_general_position(scene)
    if bad:
        raise DegeneratePositionError(str(bad))
    _general = scene


# ---------------------------------------------------------------------------
# Roofs
# ---------------------------------------------------------------------------


def roof_flags(scene: Scene, guards) -> tuple:
    """Per building i, whether some guard covers roof i, from one pass
    over the guards: only a guard on building i can, and it does iff its
    closed half-plane holds the roof's corners (`h_in_front`).  A guard on
    a flagged building is not tested, but every anchor is decoded
    (`Scene.corner`), so one naming no corner raises ValueError."""
    flags = [False] * scene.k
    for g in guards:
        cell, j = scene.corner(g.anchor)
        if g.on_hole() and not flags[g.anchor[1]]:
            flags[g.anchor[1]] = h_in_front(cell.pts[j], g.facing, cell.pts)
    return tuple(flags)


def wall_aligned_facings(hole: Hole):
    """The four facings whose boundary plane is parallel to a wall."""
    if isinstance(hole, AxisRect):
        return (N, E, S, W)
    cs = hole.corners()
    d0 = primitive_direction(cs[1].x - cs[0].x, cs[1].y - cs[0].y)
    d1 = primitive_direction(cs[2].x - cs[1].x, cs[2].y - cs[1].y)
    return (d0, (-d0[0], -d0[1]), d1, (-d1[0], -d1[1]))


# ---------------------------------------------------------------------------
# Quarter-turn rotations (exact), used to canonicalize placement frames
# ---------------------------------------------------------------------------


def rotate_point_ccw(p: Point, times: int) -> Point:
    t = times % 4
    x, y = p
    for _ in range(t):
        x, y = -y, x
    return Point(x, y)


def rotate_scene_ccw(scene: Scene, times: int) -> Scene:
    t = times % 4
    if t == 0:
        return scene
    def rot_rect(r: AxisRect) -> AxisRect:
        cs = [rotate_point_ccw(c, t) for c in ((r.x0, r.y0), (r.x1, r.y1))]
        xs = sorted(c.x for c in cs)
        ys = sorted(c.y for c in cs)
        return AxisRect(xs[0], ys[0], xs[1], ys[1])
    holes = []
    for h in scene.holes:
        if isinstance(h, AxisRect):
            holes.append(rot_rect(h))
        else:
            holes.append(make_convex_quad([rotate_point_ccw(c, t) for c in h.corners()]))
    return Scene(bounds=rot_rect(scene.bounds), holes=tuple(holes))


def rotate_guards(guards: Sequence[Guard], scene: Scene, times: int) -> list:
    """The guards of `scene`, re-anchored on `scene` turned `times` quarter
    turns CCW; a negative `times` maps guards of a turned frame back.  A
    quarter turn CCW takes corner c of an axis rectangle, P included, to
    corner c + 1 and keeps a quad's corner order.  A guard naming no corner
    of the scene raises ValueError (`Scene.corner`)."""
    t = times % 4
    out = []
    for g in guards:
        a = g.anchor
        _, j = scene.corner(a)
        if a[0] == "hole":
            turn = t if isinstance(scene.holes[a[1]], AxisRect) else 0
            anchor = ("hole", a[1], (j + turn) % 4)
        else:
            anchor = ("p", (j + t) % 4)
        out.append(Guard(anchor=anchor, facing=rotate_point_ccw(g.facing, t)))
    return out
