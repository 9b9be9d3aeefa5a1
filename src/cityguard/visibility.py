"""Exact 180-degree visibility in a rectangle-with-holes scene.

Two independent routes to the same predicate:

* sees(scene, g, p): direct point test (half-plane, then one exact
  integer pass of the sight segment against each hole's open interior).
  This is the oracle the region computation is checked against, and the
  check of every reported witness.
* visibility_region(scene, g): angular sweep, one pass over P's boundary
  and the holes alike.  Critical directions are the directions from the
  guard to every corner of every polygon, P's included, and the two edge
  directions of the guard's half-plane.  Within one open wedge between
  consecutive critical directions no edge endpoint occurs and edges
  never cross (holes are disjoint and inside P), so a single nearest
  edge blocks the whole wedge and the visible piece is the triangle
  guard/ray1-hit/ray2-hit.  Every wedge lies wholly in front of the guard
  or wholly behind it, and wholly inside or outside the cone of the
  guard's anchor corner; one cone test serves both anchor kinds, keeping
  the wedges outside a hole corner's cone and inside a P corner's.
  P's corners keep every wedge of a guard inside P below 180 degrees; at
  a P corner the half-plane's edge directions leave at most one
  180-degree wedge, whose middle direction, the zero vector, no edge
  blocks and no cone holds.  The union of the kept triangles is the
  region.

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
from itertools import groupby
from math import atan2, tau

from cityguard.geom import (
    HCell, Point, PolygonSet, _h_line, _h_meet, _h_orient, h_point,
    half_plane_contains, interior_run, primitive_direction,
)
from cityguard.model import Guard, Scene


def sees(scene: Scene, g: Guard, p: Point) -> bool:
    """True iff p is in the bounds and the guard's closed half-plane, and
    no hole's open interior meets the sight segment (`interior_run`, one
    integer pass per hole; the guard sees its own corner).  A point
    strictly inside a hole needs no test of its own: the guard stands
    outside every hole's open interior, so the segment to such a point has
    a run inside that hole."""
    if not scene.bounds.contains_closed(p):
        return False
    pos = g.position(scene)
    return half_plane_contains(pos, g.facing, p) and (
        p == pos or all(interior_run(pos, p, h) is None for h in scene.holes))


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


def _sorted_directions(dirs):
    """Distinct directions in `_angular_cmp` order.  The float angle only
    proposes the order: every adjacent pair is checked exactly, and on a
    tie or a misorder the directions are sorted by `_angular_cmp` itself."""
    out = sorted(dirs, key=lambda d: atan2(d[1], d[0]) % tau)
    if all(_angular_cmp(d1, d2) < 0 for d1, d2 in zip(out, out[1:])):
        return out
    return sorted(dirs, key=cmp_to_key(_angular_cmp))


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


# (scene, {guard: region}, {guard tuple: certificate}) for the last scene
# asked about, the one cache of results in the package.  Scenes and guards
# are immutable values, so results are shared freely (a placement
# certifies, then its caller re-certifies); the triple is replaced as one
# value, so nothing is filed under another scene.
_cache = (None, {}, {})


def scene_cache(scene: Scene):
    """The regions and the certificates kept for the scene, as two dicts:
    an equal copy of the last scene asked about (a re-parsed or validated
    one) shares them, and any other scene replaces both, which bounds the
    cache by one scene's results."""
    global _cache
    if scene is not _cache[0] and scene != _cache[0]:
        _cache = (scene, {}, {})
    return _cache[1], _cache[2]


def visibility_region(scene: Scene, g: Guard) -> VisibilityRegion:
    """The region seen by g, kept in the scene's cache."""
    regions = scene_cache(scene)[0]
    vr = regions.get(g)
    if vr is None:
        vr = regions[g] = _sweep(scene, g)
    return vr


def _sweep(scene: Scene, g: Guard) -> VisibilityRegion:
    pos = g.position(scene)
    fx, fy = g.facing
    on_hole = g.on_hole()

    # P's boundary is the last polygon: its edges block like hole edges
    polygons = [h.corners() for h in scene.holes] + [scene.bounds.corners()]
    cone = _corner_cone(polygons[g.anchor[1] if on_hole else -1], g.anchor[-1])
    ray = {c: primitive_direction(c.x - pos.x, c.y - pos.y)
           for corners in polygons for c in corners if c != pos}
    dirs = _sorted_directions(set(ray.values()) | {primitive_direction(fy, -fx),
                                                   primitive_direction(-fy, fx)})
    nd = len(dirs)
    dir_index = {d: i for i, d in enumerate(dirs)}

    # Each edge not incident to the guard (sight leaves the anchor corner
    # unobstructed) goes to every wedge of the cyclic range it spans.
    wedge_edges = [[] for _ in range(nd)]
    for corners in polygons:
        for p, q in zip(corners, corners[1:] + corners[:1]):
            if p == pos or q == pos:
                continue
            ra, rb = ray[p], ray[q]
            c = ra[0] * rb[1] - ra[1] * rb[0]
            if c == 0:
                continue  # collinear with the guard: grazing, never blocks
            if c < 0:
                ra, rb, p, q = rb, ra, q, p
            ex, ey = q.x - p.x, q.y - p.y
            # the hit on a wedge's middle ray m is pos + m * t_num / cross(m, q - p)
            entry = (p, q, ex, ey, (p.x - pos.x) * ey - (p.y - pos.y) * ex)
            i, ib = dir_index[ra], dir_index[rb]
            while i != ib:
                wedge_edges[i].append(entry)
                i = (i + 1) % nd

    # The nearest blocker of each wedge in front of the guard and outside
    # its anchor hole (inside P's corner cone, for a P-corner guard).
    blockers = []
    for i, d1 in enumerate(dirs):
        d2 = dirs[(i + 1) % nd]
        m = (d1[0] + d2[0], d1[1] + d2[1])
        best = None  # (t_num, t_den, p, q)
        if m[0] * fx + m[1] * fy >= 0 and _strictly_in_cone(*cone, m) != on_hole:
            for (p, q, ex, ey, t_num) in wedge_edges[i]:
                den = m[0] * ey - m[1] * ex
                if den == 0:
                    continue
                tn, td = (t_num, den) if den > 0 else (-t_num, -den)
                if tn > 0 and (best is None or tn * best[1] < best[0] * td):
                    best = (tn, td, p, q)
        blockers.append(best and best[2:])

    # Each maximal run of wedges stopped by one edge is one triangle (the
    # intermediate ray hits are collinear on it); the runs are taken from
    # the first change of blocker so that none wraps past the end.
    start = next((i for i in range(nd) if blockers[i] != blockers[i - 1]), 0)
    hpos = h_point(pos)
    cells = []
    for blk, run in groupby(range(start, start + nd), key=lambda i: blockers[i % nd]):
        run = list(run)
        if blk is None:
            continue
        # the lines of the rays and the edge (the triangle on their
        # positive sides) are small; the hits are their meets
        edge = _h_line(h_point(blk[0]), h_point(blk[1]))
        ray1 = _h_line(hpos, dirs[run[0] % nd] + (0,))
        ray2 = _h_line(hpos, dirs[(run[-1] + 1) % nd] + (0,))
        r1 = _h_meet(ray1, edge)
        r2 = _h_meet(ray2, edge)
        if _h_orient(hpos, r1, r2) > 0:
            back = (-ray2[0], -ray2[1], -ray2[2])
            cells.append(HCell((hpos, r1, r2), (ray1, edge, back)))

    return VisibilityRegion(guard=g, cells=tuple(cells))
