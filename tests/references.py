"""Test-only references: regions the placements and generators never
build, computed here with exact polygon cuts so that the tests can check
the library's placements, staircases and 3k+1 pockets against them; the
stairs of a staircase by comparing every pair of apexes; the oracle's
certify-and-refine loop with every round from scratch, and its minimum
over such a region; the residual pass as a plain cut by
every region in turn; free space's strip pieces cut from Point rings,
and its strips' free intervals by a scan of every hole per strip;
the building levels across those pieces; a
cell's holders and front guards by a side table
of every guard against every vertex; a roof covered by one guard;
the guard-sees-all-of-a-cell
predicate as a half-plane test and then the hull test, and the hull
and shadow tests' first form, a scan of every building and a split of
rotated copies of a cell's vertices and lines; a polygon's closed
shadow by segment tests; the mirror image of a scene and its guards, and
its image under a scale and a shift; a guard's
region swept from scratch, with the facing's edge directions among the
critical directions, every wedge tested and the anchor's cone taken from
its corner's Point edge vectors; a fan's blockers walked by every edge,
back edges included, and an HCell's bbox by its two-pass formula; and
the 2k+1 partition's
faces read off its extension walls by a union-find over the grid
cells, which also takes frames with buildings on P's sides.  Also the
closed point test over HCells that `VisibilityRegion.contains` must
match bit for bit, and through it a region's closed membership; a
point's homogeneous form by Fractions; a hole's open interior; guards
re-anchored on a quarter-turned scene by their positions; and a reset of
the region cache.  Last, the Point route of the exact predicates the
library now decides on homogeneous integer points: `orient` and the
ring, rectangle, hole-disjointness and on-segment tests built on it."""

from collections import namedtuple
from fractions import Fraction
from functools import cmp_to_key
from itertools import groupby
from math import gcd

from cityguard import visibility
from cityguard.geom import (
    AxisRect, HCell, Point, PolygonSet, _h_disjoint, _h_line, _h_meet, _h_orient,
    h_area2, h_cell, h_centroid, h_clear, h_point, h_subtract, h_to_point, make_convex_quad,
    primitive_direction,
)
from cityguard.model import Guard, Scene, rotate_point_ccw, rotate_scene_ccw
from cityguard.oracle import (
    INFEASIBLE_WITHIN, OPTIMAL, UNCOVERABLE, _certify_and_refine, min_hitting_set,
)
from cityguard.staircase import _QUADRANT
from cityguard.verify import free_space, interior_points
from cityguard.visibility import _angular_cmp, _sorted_directions, sees, visibility_region

# a region swept here: the guard and its cells, as `VisibilityRegion` reads them
SweptRegion = namedtuple("SweptRegion", "guard cells")

CCW = 1
COLLINEAR = 0
CW = -1


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the exact cross product (b-a) x (c-a)."""
    v = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    if v > 0:
        return CCW
    if v < 0:
        return CW
    return COLLINEAR


def strictly_convex_ccw_by_points(pts) -> bool:
    """`geom.strictly_convex_ccw` on Points: every vertex turns strictly
    left by `orient`."""
    n = len(pts)
    return all(orient(pts[i - 1], pts[i], pts[(i + 1) % n]) == CCW for i in range(n))


def is_rectangle_by_points(quad) -> bool:
    """`geom.is_rectangle` on Points: adjacent edge vectors perpendicular
    and opposite edges of equal length."""
    v = quad.v
    e = [(v[(i + 1) % 4].x - v[i].x, v[(i + 1) % 4].y - v[i].y) for i in range(4)]
    for (ax, ay), (bx, by) in zip(e, e[1:] + e[:1]):
        if ax * bx + ay * by != 0:
            return False
    return (e[0][0] ** 2 + e[0][1] ** 2 == e[2][0] ** 2 + e[2][1] ** 2
            and e[1][0] ** 2 + e[1][1] ** 2 == e[3][0] ** 2 + e[3][1] ** 2)


def cell_bbox(cell):
    """The exact bbox of a ring of Points: (min x, min y, max x, max y)."""
    xs = [p.x for p in cell]
    ys = [p.y for p in cell]
    return (min(xs), min(ys), max(xs), max(ys))


def holes_disjoint_by_points(a, b) -> bool:
    """`model._holes_disjoint` on Points: closed sets, so touching is not
    disjoint.  Exact bboxes apart, or an edge p->q of one with the other
    strictly on its right by the Point cross product."""
    ca, cb = a.corners(), b.corners()
    ba, bb = cell_bbox(ca), cell_bbox(cb)
    if ba[2] < bb[0] or bb[2] < ba[0] or ba[3] < bb[1] or bb[3] < ba[1]:
        return True
    for cell, other in ((ca, cb), (cb, ca)):
        n = len(cell)
        for i in range(n):
            p, q = cell[i], cell[(i + 1) % n]
            dx, dy = q.x - p.x, q.y - p.y
            if all((r.x - p.x) * dy - (r.y - p.y) * dx > 0 for r in other):
                return True
    return False


def on_segment_by_points(a: Point, b: Point, p: Point) -> bool:
    """`instances._on_segment` on Points: collinear by `orient` and
    between the ends."""
    return orient(a, b, p) == 0 and (p.x - a.x) * (p.x - b.x) + (p.y - a.y) * (p.y - b.y) <= 0


def h_cells_contain(cells, hp) -> bool:
    """Closed test: the homogeneous point hp = (X, Y, W) is on or left of
    every edge line of some cell.  The padded float bbox is only a
    prefilter: a point outside it is outside the closed cell."""
    X, Y, W = hp
    x, y = X / W, Y / W
    for c in cells:
        x0, y0, x1, y1 = c.bbox
        if (x0 <= x <= x1 and y0 <= y <= y1
                and all(A * X + B * Y + C * W >= 0 for (A, B, C) in c.lines)):
            return True
    return False


def h_point_by_fraction(p: Point):
    """`geom.h_point`'s first form: each coordinate made a Fraction, W the
    lcm of their denominators and X, Y the products with W cut to ints;
    an int pair (bools included) is (x, y, 1) as it is."""
    x, y = p
    if isinstance(x, int) and isinstance(y, int):
        return (x, y, 1)
    fx, fy = Fraction(x), Fraction(y)
    w = fx.denominator * fy.denominator // gcd(fx.denominator, fy.denominator)
    return (int(fx * w), int(fy * w), w)


def region_contains(region: PolygonSet, p: Point) -> bool:
    """Closed test: p lies in some cell of the region."""
    return h_cells_contain(region.pieces, h_point(p))


def in_open_hole(hole, p: Point) -> bool:
    """p lies in the hole's open interior: strictly left of each CCW edge
    (for an axis rectangle, strictly between its sides)."""
    if isinstance(hole, AxisRect):
        return hole.contains_open(p)
    cs = hole.corners()
    return all(orient(cs[i - 1], cs[i], p) == CCW for i in range(len(cs)))


def reset_region_cache(monkeypatch):
    """Start the test from an empty region cache, holding no scene."""
    monkeypatch.setattr(visibility, "_cache", (None, {}, {}, [None]))


def anchor_point(scene: Scene, anchor) -> Point:
    """The Point corner an anchor names, read off the hole's or the
    bounds' `corners()`: the route `Guard.position` took before it read
    `Scene.corner`."""
    if anchor[0] == "hole":
        return scene.holes[anchor[1]].corners()[anchor[2]]
    return scene.bounds.corners()[anchor[1]]


def rotate_guards_by_position(guards, scene: Scene, times: int) -> list:
    """The guards of `scene`, re-anchored on `scene` turned `times` quarter
    turns CCW, by finding each turned anchor point among the turned
    scene's corners."""
    t = times % 4
    if t == 0:
        return list(guards)
    rotated = rotate_scene_ccw(scene, t)
    out = []
    for g in guards:
        pos = rotate_point_ccw(g.position(scene), t)
        facing = rotate_point_ccw(Point(*g.facing), t)
        if g.anchor[0] == "hole":
            b = g.anchor[1]
            anchor = ("hole", b, rotated.holes[b].corners().index(pos))
        else:
            anchor = ("p", rotated.bounds.corners().index(pos))
        out.append(Guard(anchor=anchor, facing=(facing.x, facing.y)))
    return out


def boundary(region) -> PolygonSet:
    """A partition region as one cell per grid rectangle."""
    return PolygonSet(tuple(r.corners() for r in region.rects))


def is_xy_monotone(region) -> bool:
    """Every vertical and horizontal line meets the region in an interval."""
    for axis in (0, 1):
        spans = {}
        for r in region.rects:
            key = (r.x0, r.x1) if axis == 0 else (r.y0, r.y1)
            val = (r.y0, r.y1) if axis == 0 else (r.x0, r.x1)
            spans.setdefault(key, []).append(val)
        for intervals in spans.values():
            intervals.sort()
            for (a, b), (c, d) in zip(intervals, intervals[1:]):
                if c > b:
                    return False
    return True


def staircase_region(scene, st) -> PolygonSet:
    """The staircase region: P minus the open quadrant of every stair."""
    b = scene.bounds
    _, sx, sy = _QUADRANT[st.kind]
    region = PolygonSet.from_rect(b.x0, b.y0, b.x1, b.y1)
    for a, _ in st.reflex_vertices:
        qx0 = a.x if sx > 0 else b.x0
        qx1 = b.x1 if sx > 0 else a.x
        qy0 = a.y if sy > 0 else b.y0
        qy1 = b.y1 if sy > 0 else a.y
        if qx0 < qx1 and qy0 < qy1:
            region = region.difference(PolygonSet.from_rect(qx0, qy0, qx1, qy1))
    return region


def pareto(scene, kind: str):
    """The stairs of a staircase kind by comparing every pair of apexes:
    (hole id, apex) of each apex that no other apex at a different point
    dominates, that is, whose quadrant no other quadrant holds; in
    increasing x, ties in hole order."""
    corner, sx, sy = _QUADRANT[kind]
    apexes = [(i, h.corners()[corner]) for i, h in enumerate(scene.holes)]
    keep = [(i, a) for i, a in apexes
            if not any(j != i and b != a and sx * (b.x - a.x) <= 0 and sy * (b.y - a.y) <= 0
                       for j, b in apexes)]
    return sorted(keep, key=lambda t: t[1].x)


def space_between(scene, i: int) -> PolygonSet:
    """The pocket between consecutive holes i and i+1: the convex hull of
    the two holes minus the holes themselves."""
    pts = list(scene.holes[i].corners()) + list(scene.holes[i + 1].corners())
    region = PolygonSet((_convex_hull(pts),))
    both = PolygonSet(tuple(h.corners() for h in (scene.holes[i], scene.holes[i + 1])))
    return region.difference(both)


def _convex_hull(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and \
                    (out[-1].x - out[-2].x) * (p.y - out[-2].y) - \
                    (out[-1].y - out[-2].y) * (p.x - out[-2].x) <= 0:
                out.pop()
            out.append(p)
        return out
    lower = half(pts)
    upper = half(pts[::-1])
    return lower[:-1] + upper[:-1]


def certify_and_refine_from_scratch(scene, candidates, base, max_count: int):
    """The oracle's certify-and-refine loop as it was before rounds kept
    their work: each round tests every witness against every candidate
    region, searches from no bound and subtracts every chosen region
    from the base.  (status, chosen indices or None, witness Point or
    None, witnesses as (Point, mask)), as `oracle._certify_and_refine`."""
    if max_count < 0:
        raise ValueError(f"max_count must be >= 0, got {max_count}")
    regions = [visibility_region(scene, c).cells for c in candidates]
    witnesses = []
    fresh = base
    while True:
        for cell in fresh:
            p = h_centroid(cell)
            hp = h_point(p)
            mask = 0
            for i, cells in enumerate(regions):
                if h_cells_contain(cells, hp):
                    mask |= 1 << i
            witnesses.append((p, mask))
            if not mask:
                break
        best = min_hitting_set([m for _, m in witnesses], max_count)
        if best is None:
            rest = h_subtract(base, [c for cells in regions for c in cells])
            if not rest:
                return INFEASIBLE_WITHIN, None, None, tuple(witnesses)
            witness = next(p for p in interior_points(max(rest, key=h_area2))
                           if not any(sees(scene, g, p) for g in candidates))
            return UNCOVERABLE, None, witness, tuple(witnesses)
        fresh = h_subtract(base, [c for i in sorted(best) for c in regions[i]])
        if not fresh:
            return OPTIMAL, best, None, tuple(witnesses)


def min_cover_of_region(scene, candidates, region, max_count: int):
    """Exact minimum number of candidates whose regions cover the region,
    by the oracle's certify-and-refine loop; None above `max_count` or when
    the candidates cannot cover it."""
    status, best, _, _ = _certify_and_refine(scene, candidates, region.pieces, max_count)
    return len(best) if status == OPTIMAL else None


def residual_pass(scene, guards, strips=None):
    """The strips, free space's pieces by default, minus each guard's
    region in turn, every piece cut by h_subtract: the residual cells
    `certify` must return, in order, when it runs on those strips."""
    residual = free_space(scene).pieces if strips is None else strips
    for g in guards:
        if not residual:
            break
        residual = h_subtract(residual, visibility_region(scene, g).cells)
    return residual


def axis_free_cells(bounds, holes, rows=False):
    """Free space of an axis-aligned scene as one cell per free interval
    of each strip, each made by h_cell from its CCW Point ring: the cells
    `verify._strip_cells` must give of `verify._strips`, in order.  The
    strips are the columns between consecutive x-lines, or with `rows` the
    rows between consecutive y-lines; a strip is cut at the ends of the
    holes that span it, and a part is free iff its midpoint lies in none
    of them."""
    def across(r):
        return (r.y0, r.y1) if rows else (r.x0, r.x1)

    def along(r):
        return (r.x0, r.x1) if rows else (r.y0, r.y1)

    lines = sorted({c for r in (bounds, *holes) for c in across(r)})
    cells = []
    for a, b in zip(lines, lines[1:]):
        spanning = [along(h) for h in holes if across(h)[0] <= a and b <= across(h)[1]]
        cuts = sorted({*along(bounds), *(c for span in spanning for c in span)})
        for p, q in zip(cuts, cuts[1:]):
            if any(lo < Fraction(p + q) / 2 < hi for lo, hi in spanning):
                continue
            ring = (((p, a), (q, a), (q, b), (p, b)) if rows else
                    ((a, p), (b, p), (b, q), (a, q)))
            cells.append(h_cell(tuple(Point(x, y) for x, y in ring)))
    return cells


def strips_by_scan(b, holes, rows=False):
    """`verify._strips`' first form: per strip, every hole tested for
    spanning it and the spans of those that do sorted, O(k) per strip.
    The same `us` and per-strip (los, his) free-interval ends that the
    sweep must give, in order."""
    def uv(r):
        return (r.y0, r.x0, r.y1, r.x1) if rows else r
    u0, v0, u1, v1 = uv(b)
    spans = [uv(h) for h in holes]
    us = sorted({u0, u1} | {s[0] for s in spans} | {s[2] for s in spans})
    strips = []
    for ul, ur in zip(us, us[1:]):
        blocked = sorted((s[1], s[3]) for s in spans if s[0] <= ul and ur <= s[2])
        los, his = [], []
        v = v0
        for (lo, hi) in blocked + [(v1, v1)]:
            if v < lo:
                los.append(v)
                his.append(lo)
            v = max(v, hi)
        strips.append((los, his))
    return us, strips


def witness_by_fractions(cell, sights):
    """`verify._witness`'s first form: the first of the cell's
    `interior_points` off every guard's boundary line, each point tested
    on its Point coordinates, a[2] * (fx * x + fy * y) == k multiplied out
    in Fractions, for `verify._sights` entries (apex a, facing, k)."""
    return next(p for p in interior_points(cell)
                if not any(a[2] * (fx * p.x + fy * p.y) == k for a, (fx, fy), k in sights))


def located_by_scan(scene, guards, pieces):
    """Per axis-aligned piece, whether a guard stands on it and proves it,
    by the Point route: the guard's position (`anchor_point`) lies in the
    piece's closed rectangle, and (c - v) . facing >= 0 at each of its
    corners c.  The pieces `verify._on_strips` must locate."""
    spots = [(anchor_point(scene, g.anchor), g.facing) for g in guards]
    out = []
    for piece in pieces:
        corners = [h_to_point(p) for p in piece.pts]
        xs, ys = [c.x for c in corners], [c.y for c in corners]
        out.append(any(min(xs) <= v.x <= max(xs) and min(ys) <= v.y <= max(ys)
                       and all((c.x - v.x) * fx + (c.y - v.y) * fy >= 0 for c in corners)
                       for v, (fx, fy) in spots))
    return out


def building_levels(scene, rows=False):
    """The distinct y of the buildings' corners, or with `rows` their
    distinct x, in increasing order: the lines across a strip's pieces."""
    axis = 0 if rows else 1
    return sorted({p[axis] for h in scene.holes for p in h.corners()})


def roof_covered_by(scene: Scene, i: int, g: Guard) -> bool:
    """A guard on roof i covers it iff the roof's Point corners are in its
    closed half-plane, (c - v) . facing >= 0 with v its position; a guard
    anywhere else does not.  A guard naming no corner of the scene raises
    ValueError.  `model.roof_flags` decides every building at once."""
    v = g.position(scene)  # raises ValueError: no such corner
    if g.anchor[0] != "hole" or g.anchor[1] != i:
        return False
    fx, fy = g.facing
    return all((c.x - v.x) * fx + (c.y - v.y) * fy >= 0 for c in scene.holes[i].corners())


def side_table(sights, cell):
    """The indices of the sights whose closed half-plane holds every
    vertex of the cell, and of those with a vertex strictly in front, in
    guard order.  Each vertex's side of each guard's boundary line is
    scaled by W * AW > 0, the sign expression of `h_sees_all`."""
    sides = [[a[2] * (fx * X + fy * Y) - k * W for X, Y, W in cell.pts]
             for a, (fx, fy), k in sights]
    return ([i for i, side in enumerate(sides) if min(side) >= 0],
            [i for i, side in enumerate(sides) if max(side) > 0])


def h_sees_all(apex, facing, cell: HCell, blockers) -> bool:
    """True iff a guard at the homogeneous point `apex` with this facing
    sees all of the cell: the cell is in its closed half-plane, and no
    blocker's open interior meets the hull of the apex and the cell
    (`geom.h_clear`).  The certificate's holders have passed the
    half-plane test already, so the library runs the hull test alone."""
    AX, AY, AW = apex
    fx, fy = facing
    if any((X * AW - AX * W) * fx + (Y * AW - AY * W) * fy < 0 for X, Y, W in cell.pts):
        return False
    return h_clear(apex, cell, blockers)


def near_by_scan(apex, cell: HCell, blockers):
    """The blockers whose inflated bbox meets the bbox of the apex and the
    cell, generated by one scan: the hull and shadow tests' first
    prefilter."""
    ax, ay = apex[0] / apex[2], apex[1] / apex[2]
    x0, y0, x1, y1 = cell.bbox
    x0, y0, x1, y1 = min(x0, ax), min(y0, ay), max(x1, ax), max(y1, ay)
    for b in blockers:
        bb = b.bbox
        if not (bb[2] <= x0 or x1 <= bb[0] or bb[3] <= y0 or y1 <= bb[1]):
            yield b


def chains_by_rotation(apex, cell: HCell):
    """A convex cell's far and near chains seen from an apex not strictly
    inside it, from copies of its vertices and lines rotated to the first
    far edge after a near one: the far chain's vertices and lines and the
    near chain's lines."""
    AX, AY, AW = apex
    far = [A * AX + B * AY + C * AW > 0 for A, B, C in cell.lines]
    i = next(i for i in range(len(far)) if far[i] and not far[i - 1])
    m = (far[i:] + far[:i]).index(False)  # the far run is edges i .. i + m - 1
    pts, lines = cell.pts[i:] + cell.pts[:i], cell.lines[i:] + cell.lines[:i]
    return pts[:m + 1], lines[:m], lines[m:]


def hull_by_rotation(apex, cell: HCell):
    """The hull of the apex and the cell, (pts, lines), from
    `chains_by_rotation`: the apex, then the far chain."""
    chain, far, _ = chains_by_rotation(apex, cell)
    return (apex, *chain), (_h_line(apex, chain[0]), *far, _h_line(chain[-1], apex))


def shadow_by_rotation(apex, b: HCell):
    """The closed shadow's lines of a convex blocker seen from the apex,
    from `chains_by_rotation`: the two rays, then the near chain."""
    chain, _, near = chains_by_rotation(apex, b)
    return (_h_line(chain[-1], apex), _h_line(apex, chain[0]), *near)


def sees_all_by_scan(apex, facing, cell: HCell, blockers) -> bool:
    """`h_sees_all` as it first ran: the half-plane test, then the hull of
    `hull_by_rotation` against each blocker `near_by_scan` finds."""
    AX, AY, AW = apex
    fx, fy = facing
    if any((X * AW - AX * W) * fx + (Y * AW - AY * W) * fy < 0 for X, Y, W in cell.pts):
        return False
    return all(_h_disjoint(*hull_by_rotation(apex, cell), b.pts, b.lines)
               for b in near_by_scan(apex, cell, blockers))


def shadowed_by_scan(apex, cell: HCell, blockers) -> bool:
    """`h_shadowed` as it first ran: the shadow of `shadow_by_rotation` of
    each blocker `near_by_scan` finds, against every vertex of the cell."""
    return any(all(A * X + B * Y + C * W >= 0
                   for A, B, C in shadow_by_rotation(apex, b) for X, Y, W in cell.pts)
               for b in near_by_scan(apex, cell, blockers))


def in_closed_shadow(apex: Point, corners, p: Point) -> bool:
    """Is p in the closed shadow of the convex CCW polygon `corners`, seen
    from `apex`?  At a corner of the polygon the shadow is that corner's
    closed cone.  From outside it, p is in the shadow iff the closed
    segment apex-p meets the closed polygon, by orientation tests alone."""
    n = len(corners)
    if apex in corners:
        i = corners.index(apex)
        return (orient(corners[i - 1], apex, p) >= 0
                and orient(apex, corners[(i + 1) % n], p) >= 0)
    if all(orient(corners[i - 1], corners[i], p) >= 0 for i in range(n)):
        return True
    return any(_segments_meet(apex, p, corners[i - 1], corners[i]) for i in range(n))


def _segments_meet(a, b, c, d) -> bool:
    """Do the closed segments ab and cd share a point?"""
    o1, o2, o3, o4 = orient(a, b, c), orient(a, b, d), orient(c, d, a), orient(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True

    def within(p, q, r):  # r, collinear with pq, lies on the closed segment pq
        return min(p.x, q.x) <= r.x <= max(p.x, q.x) and min(p.y, q.y) <= r.y <= max(p.y, q.y)

    return ((o1 == 0 and within(a, b, c)) or (o2 == 0 and within(a, b, d))
            or (o3 == 0 and within(c, d, a)) or (o4 == 0 and within(c, d, b)))


def mirror_scene(scene) -> Scene:
    """The scene under (x, y) -> (-x, y); a quad's corners are reversed to
    stay counter-clockwise."""
    def image(h):
        if isinstance(h, AxisRect):
            return AxisRect(-h.x1, h.y0, -h.x0, h.y1)
        return make_convex_quad([Point(-c.x, c.y) for c in reversed(h.corners())])
    return Scene(bounds=image(scene.bounds), holes=tuple(image(h) for h in scene.holes))


def mirror_guards(guards, scene) -> list:
    """The guards of `scene`, re-anchored on `mirror_scene(scene)`."""
    mirrored = mirror_scene(scene)
    out = []
    for g in guards:
        p = g.position(scene)
        pos = Point(-p.x, p.y)
        if g.on_hole():
            b = g.anchor[1]
            anchor = ("hole", b, mirrored.holes[b].corners().index(pos))
        else:
            anchor = ("p", mirrored.bounds.corners().index(pos))
        out.append(Guard(anchor=anchor, facing=(-g.facing[0], g.facing[1])))
    return out


def scaled_and_shifted(scene, s, dx, dy):
    """The scene under p -> s*p + (dx, dy), rotated buildings included;
    corner indices, and so the guards' anchors and facings, are
    unchanged."""
    def image(r):
        if isinstance(r, AxisRect):
            return AxisRect(s * r.x0 + dx, s * r.y0 + dy, s * r.x1 + dx, s * r.y1 + dy)
        return make_convex_quad([(s * p.x + dx, s * p.y + dy) for p in r.corners()])
    return Scene(bounds=image(scene.bounds), holes=tuple(image(h) for h in scene.holes))


def _corner_cone(corners, idx):
    """Incident edge vectors (next, prev) at corner idx of a CCW cell."""
    n = len(corners)
    c = corners[idx]
    e_next = (corners[(idx + 1) % n].x - c.x, corners[(idx + 1) % n].y - c.y)
    e_prev = (corners[(idx - 1) % n].x - c.x, corners[(idx - 1) % n].y - c.y)
    return e_next, e_prev


def _strictly_in_cone(e_next, e_prev, m):
    return (e_next[0] * m[1] - e_next[1] * m[0] > 0
            and m[0] * e_prev[1] - m[1] * e_prev[0] > 0)


def fan_blockers_every_edge(scene: Scene, g: Guard):
    """(dirs, half, blockers) of the fan at g's anchor, as `_Fan` built
    them when every edge walked the wedges it spans: every line of every
    cell that misses the anchor, a hole's back edges included, directed
    CCW about the anchor, is compared in each wedge it spans with the
    nearest edge so far.  The directions are sorted by `_angular_cmp`
    alone."""
    anchor_cell, j = scene.corner(g.anchor)
    px, py, pw = anchor_cell.pts[j]
    rays = []
    for cell in scene.cells:
        row = []
        for X, Y, W in cell.pts:
            dx, dy = X * pw - px * W, Y * pw - py * W
            row.append(primitive_direction(dx, dy) if dx or dy else None)
        rays.append(row)
    dirs = sorted({r for row in rays for r in row if r}, key=cmp_to_key(_angular_cmp))
    nd = len(dirs)
    half = next((i for i, (x, y) in enumerate(dirs) if y < 0 or y == 0 and x < 0), nd)
    index = {d: i for i, d in enumerate(dirs)}
    (a1, b1), (a2, b2) = anchor_cell.lines[j - 1][:2], anchor_cell.lines[j][:2]
    mids = []
    for (x1, y1), (x2, y2) in zip(dirs, dirs[1:] + dirs[:1]):
        mx, my = x1 + x2, y1 + y2
        kept = (a1 * mx + b1 * my > 0 and a2 * mx + b2 * my > 0) != g.on_hole()
        mids.append((mx, my) if kept else None)
    best, blockers = [None] * nd, [None] * nd
    for cell, row in zip(scene.cells, rays):
        for e, line in enumerate(cell.lines):
            v = line[0] * px + line[1] * py + line[2] * pw
            if v == 0:
                continue
            ends = row[e], row[(e + 1) % len(row)]
            if v < 0:
                line, v, ends = tuple(-c for c in line), -v, ends[::-1]
            ia, ib = index[ends[0]], index[ends[1]]
            for i in range(ia, ib if ia < ib else ib + nd):
                i %= nd
                den = mids[i] and -(line[0] * mids[i][0] + line[1] * mids[i][1])
                if den and den > 0 and (best[i] is None or Fraction(v, den) < best[i]):
                    best[i], blockers[i] = Fraction(v, den), line
    return dirs, half, blockers


def hcell_bbox_two_pass(pts):
    """An HCell's float bbox by the formula it was first written with: the
    lists of x and y, each padded by 1e-12 of (its largest |value| + 1)."""
    xs = [X / W for X, _, W in pts]
    ys = [Y / W for _, Y, W in pts]
    pad_x = (max(map(abs, xs)) + 1.0) * 1e-12
    pad_y = (max(map(abs, ys)) + 1.0) * 1e-12
    return (min(xs) - pad_x, min(ys) - pad_y, max(xs) + pad_x, max(ys) + pad_y)


def sweep(scene: Scene, g: Guard) -> SweptRegion:
    """The region of g by one sweep of its own: the critical directions
    are the corner directions and the two edge directions of g's
    half-plane, each wedge's nearest edge is found along its middle ray,
    and the runs are taken from the first change of blocker."""
    pos = g.position(scene)
    fx, fy = g.facing
    on_hole = g.on_hole()

    polygons = [h.corners() for h in scene.holes] + [scene.bounds.corners()]
    cone = _corner_cone(polygons[g.anchor[1] if on_hole else -1], g.anchor[-1])
    ray = {c: primitive_direction(c.x - pos.x, c.y - pos.y)
           for corners in polygons for c in corners if c != pos}
    dirs = _sorted_directions(set(ray.values()) | {primitive_direction(fy, -fx),
                                                   primitive_direction(-fy, fx)})
    nd = len(dirs)
    dir_index = {d: i for i, d in enumerate(dirs)}

    wedge_edges = [[] for _ in range(nd)]
    for corners in polygons:
        for p, q in zip(corners, corners[1:] + corners[:1]):
            if p == pos or q == pos:
                continue
            ra, rb = ray[p], ray[q]
            c = ra[0] * rb[1] - ra[1] * rb[0]
            if c == 0:
                continue
            if c < 0:
                ra, rb, p, q = rb, ra, q, p
            ex, ey = q.x - p.x, q.y - p.y
            entry = (p, q, ex, ey, (p.x - pos.x) * ey - (p.y - pos.y) * ex)
            i, ib = dir_index[ra], dir_index[rb]
            while i != ib:
                wedge_edges[i].append(entry)
                i = (i + 1) % nd

    blockers = []
    for i, d1 in enumerate(dirs):
        d2 = dirs[(i + 1) % nd]
        m = (d1[0] + d2[0], d1[1] + d2[1])
        best = None
        if m[0] * fx + m[1] * fy >= 0 and _strictly_in_cone(*cone, m) != on_hole:
            for (p, q, ex, ey, t_num) in wedge_edges[i]:
                den = m[0] * ey - m[1] * ex
                if den == 0:
                    continue
                tn, td = (t_num, den) if den > 0 else (-t_num, -den)
                if tn > 0 and (best is None or tn * best[1] < best[0] * td):
                    best = (tn, td, p, q)
        blockers.append(best and best[2:])

    start = next((i for i in range(nd) if blockers[i] != blockers[i - 1]), 0)
    hpos = h_point(pos)
    cells = []
    for blk, run in groupby(range(start, start + nd), key=lambda i: blockers[i % nd]):
        run = list(run)
        if blk is None:
            continue
        edge = _h_line(h_point(blk[0]), h_point(blk[1]))
        ray1 = _h_line(hpos, dirs[run[0] % nd] + (0,))
        ray2 = _h_line(hpos, dirs[(run[-1] + 1) % nd] + (0,))
        r1 = _h_meet(ray1, edge)
        r2 = _h_meet(ray2, edge)
        if _h_orient(hpos, r1, r2) > 0:
            back = (-ray2[0], -ray2[1], -ray2[2])
            cells.append(HCell((hpos, r1, r2), (ray1, edge, back)))

    return SweptRegion(guard=g, cells=tuple(cells))


def _partition_walls(scene: Scene):
    """North extensions of right edges, then West extensions of the
    horizontal edges; returns (vertical walls, horizontal walls)."""
    b = scene.bounds
    holes = scene.holes
    v_walls = [(b.x0, b.y0, b.y1), (b.x1, b.y0, b.y1)]
    right_walls = []
    for h in holes:
        stops = [o.y0 for o in holes if o.x0 < h.x1 < o.x1 and o.y0 > h.y1]
        nstop = min(stops) if stops else b.y1
        right_walls.append((h.x1, h.y0, nstop))
    v_walls.extend(right_walls)
    v_walls.extend((h.x0, h.y0, h.y1) for h in holes)  # left edges block too

    def wstop(y, x_right):
        stops = [w[0] for w in right_walls if w[0] < x_right and w[1] < y < w[2]]
        return max(stops) if stops else b.x0

    h_walls = [(b.y0, b.x0, b.x1), (b.y1, b.x0, b.x1)]
    for h in holes:
        h_walls.append((h.y1, wstop(h.y1, h.x0), h.x1))  # top edge, extended West
        h_walls.append((h.y0, wstop(h.y0, h.x0), h.x1))  # bottom edge, extended West
    return v_walls, h_walls


def _orthogonal_partition(scene: Scene):
    """Faces of the extension subdivision as lists of grid rectangles.

    Works on grid indices: hole cells are marked from each hole's index
    range and every wall becomes the set of cell sides it blocks, so the
    union-find over adjacent free cells costs O(k^2)."""
    b = scene.bounds
    holes = scene.holes
    v_walls, h_walls = _partition_walls(scene)
    xs = sorted({b.x0, b.x1} | {h.x0 for h in holes} | {h.x1 for h in holes})
    ys = sorted({b.y0, b.y1} | {h.y0 for h in holes} | {h.y1 for h in holes})
    xi = {x: i for i, x in enumerate(xs)}
    yi = {y: j for j, y in enumerate(ys)}
    nx, ny = len(xs) - 1, len(ys) - 1

    # cell (i, j) is [xs[i], xs[i+1]] x [ys[j], ys[j+1]], flat index i * ny + j
    free = [True] * (nx * ny)
    for h in holes:
        j0, j1 = yi[h.y0], yi[h.y1]
        for i in range(xi[h.x0], xi[h.x1]):
            free[i * ny + j0:i * ny + j1] = [False] * (j1 - j0)
    # the vertical line xs[i] blocks the sides (i, j) for j in its y range;
    # the horizontal line ys[j] blocks the sides (j, i) for i in its x range
    v_blocked = {(xi[x], j) for (x, lo, hi) in v_walls for j in range(yi[lo], yi[hi])}
    h_blocked = {(yi[y], i) for (y, lo, hi) in h_walls for i in range(xi[lo], xi[hi])}

    parent = list(range(nx * ny))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for i in range(nx):
        for j in range(ny):
            c = i * ny + j
            if not free[c]:
                continue
            if i + 1 < nx and free[c + ny] and (i + 1, j) not in v_blocked:
                union(c, c + ny)
            if j + 1 < ny and free[c + 1] and (j + 1, i) not in h_blocked:
                union(c, c + 1)

    groups = {}
    for c in range(nx * ny):
        if free[c]:
            i, j = divmod(c, ny)
            groups.setdefault(find(c), []).append(
                AxisRect(xs[i], ys[j], xs[i + 1], ys[j + 1]))
    return list(groups.values())
