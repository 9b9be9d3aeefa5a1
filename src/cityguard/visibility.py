"""Exact 180-degree visibility in a rectangle-with-holes scene.

Two independent routes to the same predicate:

* sees(scene, g, p): direct point test (half-plane + `clear_sight`, the
  per-hole segment blocking test also used by the 3k+1 property checks).
  This is the oracle the region computation is checked against.
* visibility_region(scene, g): angular sweep.  Critical directions are
  the directions from the guard to every hole/boundary vertex (plus the
  axis directions, which cap every angular gap below 180 degrees).
  Within one open wedge between consecutive critical directions no edge
  endpoint occurs, edges never cross (holes are disjoint and inside P),
  so a single nearest edge blocks the whole wedge and the visible piece
  is the triangle guard/ray1-hit/ray2-hit.  Both edge directions of the
  guard's half-plane are critical, so every wedge lies wholly in front
  of the guard or wholly behind it; the union of the triangles of the
  wedges in front is the region.

The triangles are built as homogeneous integer cells (HCell, see
geom.py): each ray hit is the reduced integer meet of the ray's line and
the blocking edge's line, and a triangle is kept iff it turns strictly
CCW, so the cells enter the clipping kernel as they are.

The region is regularized (a union of closed 2D cells).  Sight lines
that are visible only along a 1D segment collinear with the guard's
half-plane boundary carry no area and are deliberately not represented;
coverage certificates compare areas, so this loses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

from cityguard.geom import (
    HCell, Point, PolygonSet, Segment, _h_line, _h_meet, _h_orient, h_point,
    half_plane_contains, primitive_direction, segment_blocked_by_rect,
)
from cityguard.model import Guard, Scene


def sees(scene: Scene, g: Guard, p: Point) -> bool:
    """True iff p is in the bounds and the guard's closed half-plane, and
    the sight segment is clear (`clear_sight`)."""
    if not scene.bounds.contains_closed(p):
        return False
    for h in scene.holes:
        if h.contains_open(p):
            return False
    pos = g.position(scene)
    return half_plane_contains(pos, g.facing, p) and clear_sight(scene, pos, p)


def clear_sight(scene: Scene, a: Point, b: Point) -> bool:
    """No hole's open interior meets the segment a-b (true when a == b)."""
    seg = Segment(a, b)
    return a == b or not any(segment_blocked_by_rect(seg, h) for h in scene.holes)


@dataclass(frozen=True)
class VisibilityRegion:
    """A guard's region as disjoint HCells (triangles fanned at the guard)."""

    guard: Guard
    cells: tuple

    @property
    def region(self) -> PolygonSet:
        """The region as a PolygonSet over the same HCells, not converted."""
        return PolygonSet.of_hcells(self.cells)


def _angular_cmp(d1, d2):
    """CCW order starting at direction (1, 0)."""
    h1 = 0 if (d1[1] > 0 or (d1[1] == 0 and d1[0] > 0)) else 1
    h2 = 0 if (d2[1] > 0 or (d2[1] == 0 and d2[0] > 0)) else 1
    if h1 != h2:
        return -1 if h1 < h2 else 1
    c = d1[0] * d2[1] - d1[1] * d2[0]
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


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


# (scene, {guard: region}) for the last scene asked about.  Scenes and
# guards are immutable values, so regions are shared freely (placement
# certifies, then the caller re-certifies); a different scene drops them,
# which bounds the cache by one scene's regions.  The pair is replaced as
# one value, so a region is never filed under another scene.
_cache = (None, {})


def visibility_region(scene: Scene, g: Guard) -> VisibilityRegion:
    """The region seen by g, cached for the last scene asked about.

    An equal copy of that scene (a re-parsed or validated one) shares its
    regions; any other scene replaces them."""
    global _cache
    cached_scene, regions = _cache
    if scene is not cached_scene and scene != cached_scene:
        regions = {}
        _cache = (scene, regions)
    vr = regions.get(g)
    if vr is None:
        vr = regions[g] = _sweep(scene, g)
    return vr


def _sweep(scene: Scene, g: Guard) -> VisibilityRegion:
    pos = g.position(scene)
    fx, fy = g.facing

    obstacles = [h.corners() for h in scene.holes]
    p_cell = scene.bounds.corners()

    dirs = set()
    for corners in obstacles:
        for c in corners:
            if c != pos:
                dirs.add(primitive_direction(c.x - pos.x, c.y - pos.y))
    for c in p_cell:
        if c != pos:
            dirs.add(primitive_direction(c.x - pos.x, c.y - pos.y))
    dirs.update([(1, 0), (0, 1), (-1, 0), (0, -1)])
    dirs.add(primitive_direction(fy, -fx))
    dirs.add(primitive_direction(-fy, fx))
    sorted_dirs = sorted(dirs, key=cmp_to_key(_angular_cmp))
    nd = len(sorted_dirs)
    dir_index = {d: i for i, d in enumerate(sorted_dirs)}

    # Edges that can block: every hole edge plus the bounds, minus edges
    # incident to the guard (sight leaves the anchor corner unobstructed).
    edges = []
    for corners in obstacles:
        n = len(corners)
        for i in range(n):
            p, q = corners[i], corners[(i + 1) % n]
            if p != pos and q != pos:
                edges.append((p, q))
    for i in range(4):
        p, q = p_cell[i], p_cell[(i + 1) % 4]
        if p != pos and q != pos:
            edges.append((p, q))

    # Assign each edge to the cyclic wedge-index range it spans.
    wedge_edges = [[] for _ in range(nd)]
    for (p, q) in edges:
        ra = primitive_direction(p.x - pos.x, p.y - pos.y)
        rb = primitive_direction(q.x - pos.x, q.y - pos.y)
        c = ra[0] * rb[1] - ra[1] * rb[0]
        if c == 0:
            continue  # collinear with the guard: grazing, never blocks
        if c < 0:
            ra, rb = rb, ra
            p, q = q, p
        ia, ib = dir_index[ra], dir_index[rb]
        ex, ey = q.x - p.x, q.y - p.y
        relx, rely = p.x - pos.x, p.y - pos.y
        t_num = relx * ey - rely * ex  # cross(p-pos, q-p), sign of den below
        entry = (p, q, ex, ey, relx, rely, t_num)
        i = ia
        while i != ib:
            wedge_edges[i].append(entry)
            i = (i + 1) % nd

    skip_cone = None
    keep_cone = None
    if g.anchor[0] == "hole":
        corners = obstacles[g.anchor[1]]
        skip_cone = _corner_cone(corners, g.anchor[2])
    else:
        keep_cone = _corner_cone(p_cell, g.anchor[1])

    # nearest blocker per wedge; consecutive wedges stopped by the same edge
    # merge into one triangle (the intermediate ray hits are collinear on it)
    blockers = []
    for i in range(nd):
        d1 = sorted_dirs[i]
        d2 = sorted_dirs[(i + 1) % nd]
        m = (d1[0] + d2[0], d1[1] + d2[1])
        if m[0] * fx + m[1] * fy < 0:
            blockers.append(None)  # the wedge lies behind the guard
            continue
        if skip_cone is not None and _strictly_in_cone(*skip_cone, m):
            blockers.append(None)
            continue
        if keep_cone is not None and not _strictly_in_cone(*keep_cone, m):
            blockers.append(None)
            continue
        best = None  # (t_num, t_den, p, q)
        for (p, q, ex, ey, relx, rely, t_num) in wedge_edges[i]:
            den = m[0] * ey - m[1] * ex
            if den == 0:
                continue
            tn, td = (t_num, den) if den > 0 else (-t_num, -den)
            if tn <= 0:
                continue
            if best is None or tn * best[1] < best[0] * td:
                best = (tn, td, p, q)
        blockers.append(None if best is None else (best[2], best[3]))

    start = 0
    while start < nd and blockers[start] is not None \
            and blockers[start] == blockers[start - 1]:
        start += 1
    if start == nd:
        start = 0  # single blocker all around (cannot happen with a convex P)

    hpos = h_point(pos)
    cells = []
    i = start
    seen = 0
    while seen < nd:
        blk = blockers[i]
        j = i
        run = 0
        while run < nd and blockers[j] == blk:
            j = (j + 1) % nd
            run += 1
            if blk is None:
                break
        seen += run
        if blk is not None:
            # the lines of the rays and the edge (the triangle on their
            # positive sides) are small; the hits are their meets
            edge = _h_line(h_point(blk[0]), h_point(blk[1]))
            ray1 = _h_line(hpos, sorted_dirs[i] + (0,))
            ray2 = _h_line(hpos, sorted_dirs[j] + (0,))
            r1 = _h_meet(ray1, edge)
            r2 = _h_meet(ray2, edge)
            if _h_orient(hpos, r1, r2) > 0:
                back = (-ray2[0], -ray2[1], -ray2[2])
                cells.append(HCell((hpos, r1, r2), (ray1, edge, back)))
        i = j

    return VisibilityRegion(guard=g, cells=tuple(cells))
