"""Exact 180-degree visibility in a rectangle-with-holes scene.

Two independent routes to the same predicate:

* sees(scene, g, p): direct point test (the integer half-plane test
  `h_in_front`, then one exact integer pass of the sight segment against
  each of `scene.hole_cells`), from the corner `Scene.corner` decodes.
  This is the oracle the region computation is checked against, and the
  check of every reported witness.
* visibility_region(scene, g): an angular sweep around g's anchor
  corner (a fan), one pass over `scene.cells`, the holes and P's
  rectangle alike, read for g's facing.  The fan's critical directions are the
  corner directions, in integers, from the anchor to every vertex of
  every cell.  Within one open wedge between consecutive critical
  directions no edge endpoint occurs and edges never cross (holes are
  disjoint and inside P), so a single nearest edge blocks the whole
  wedge, and the wedge lies wholly inside or outside the cone of the
  anchor corner; neither depends on the facing.  One cone test serves
  both anchor kinds, keeping the wedges outside a hole corner's cone and
  inside a P corner's.  P's corners keep every wedge around a hole
  corner below 180 degrees; around a P corner the one wedge of 180
  degrees or more lies outside its cone.
  Every front edge, each of P's and each of a hole's that faces the
  anchor, is held as its cell's line, negated where needed to run CCW
  about the anchor, and walks the wedges it spans once, when the fan is
  built, comparing itself in each with the nearest edge so far.  A back
  edge of a hole is never the nearest (a ray across the convex hole
  meets a front edge first), and walks nothing.
  A facing places the two edge directions of its half-plane among the
  corner directions by one integer binary search (`_Fan._locate`, the
  same search that places a point for the membership test below).  An
  edge direction inside a wedge splits it into two parts with the
  wedge's nearest edge, every part then lies wholly in front of the
  guard or wholly behind it, and only the parts in front are walked.
  Each run of parts stopped by one edge, (d1, line, d2), gives the
  triangle guard/ray1-hit/ray2-hit, and two runs that meet at a
  direction share its ray's line; the union of the triangles is the
  region.  The scene cache keeps the last anchor's fan, so the facings
  of one corner, asked for in turn, share one sweep and the edges' lines.

A region keeps its runs and builds its cells from them on first read.
The oracle reads the regions of many guards at many points without
walking them (`AnchorFans`): it keeps one fan per anchor, and one
`_locate` search of its corner directions, at most two side tests on wedge
blocker lines and one sign test per facing give the closed membership
of a point in the regions of every guard at that anchor.  The triangles
are built as homogeneous integer cells (HCell, see geom.py): each ray
hit is the reduced integer meet of the ray's line and the edge's line,
and every run with a line turns strictly CCW (`_triangle`), so the cells
enter the clipping kernel as they are.

The region is regularized (a union of closed 2D cells).  Sight lines
that are visible only along a 1D segment collinear with the guard's
half-plane boundary carry no area and are deliberately not represented;
coverage certificates compare areas, so this loses nothing.
"""

from __future__ import annotations

from functools import cached_property, cmp_to_key
from math import atan2, gcd, tau

from cityguard.errors import MalformedPolygonError
from cityguard.geom import (
    HCell, Point, PolygonSet, _h_line, _h_meet, _h_orient, h_in_front, h_point,
    interior_run,
)
from cityguard.model import Guard, Scene


def sees(scene: Scene, g: Guard, p: Point) -> bool:
    """True iff p is in the bounds and the guard's closed half-plane
    (`h_in_front`), and no hole's open interior meets the sight segment
    (`interior_run` on each of `scene.hole_cells`, from the corner's
    homogeneous point and p converted once; the segment to the guard's
    own corner is a point, with no run).  A point strictly inside a hole
    needs no test of its own: the guard stands outside every hole's open
    interior, so the segment to such a point has a run inside that hole."""
    cell, j = scene.corner(g.anchor)
    if not scene.bounds.contains_closed(p):
        return False
    a, b = cell.pts[j], h_point(p)
    return h_in_front(a, g.facing, (b,)) and all(
        interior_run(a, b, c) is None for c in scene.hole_cells)


class VisibilityRegion:
    """A guard's region, read two ways.

    `runs` are the fan walk's (d1, line, d2) triples in arc order from the
    facing's e1 (`_Fan.region`), line the blocking edge's or None; they
    share the fan's line tuples.  `cells` are the disjoint HCells, one
    triangle per run that has a line, in CCW order from direction (1, 0),
    built from the runs on first read."""

    def __init__(self, guard: Guard, runs, first: int, hpos):
        self.guard, self.runs = guard, runs
        self._first = first  # runs[first:] start at or past (1, 0)
        self._hpos = hpos

    @cached_property
    def cells(self) -> tuple:
        return self._triangles()

    @property
    def region(self) -> PolygonSet:
        """The region as a PolygonSet over the same HCells, not converted."""
        return PolygonSet.of_hcells(self.cells)

    def _triangles(self):
        """One `_triangle` per run with a line, from the rays' lines: the
        ray at a direction where two such runs meet is made once."""
        hpos, cells, ray = self._hpos, [], None
        for d1, line, d2 in self.runs:
            if line is None:
                ray = None
                continue
            ray1, ray = ray or _h_line(hpos, d1 + (0,)), _h_line(hpos, d2 + (0,))
            cells.append(_triangle(hpos, ray1, line, ray))
        k = sum(line is not None for _, line, _ in self.runs[:self._first])
        return tuple(cells[k:] + cells[:k])


def _angular_cmp(d1, d2):
    """CCW order starting at direction (1, 0)."""
    u1, u2 = _upper(*d1), _upper(*d2)
    if u1 != u2:
        return -1 if u1 else 1
    c = d1[0] * d2[1] - d1[1] * d2[0]
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def _sorted_directions(dirs):
    """Distinct directions in `_angular_cmp` order.  The float angle only
    proposes the order, which is checked exactly in one pass: the upper
    half (`_upper`) comes first, and each direction turns strictly CCW
    from the one before it in its half.  On a tie or a misorder the
    directions are sorted by `_angular_cmp` itself."""
    out = sorted(dirs, key=lambda d: atan2(d[1], d[0]) % tau)
    x1, y1 = out[0]  # a fan's directions include P's corners
    up1 = y1 > 0 or y1 == 0 < x1
    for x2, y2 in out[1:]:
        up2 = y2 > 0 or y2 == 0 < x2
        if up2 > up1 or up2 == up1 and x1 * y2 <= y1 * x2:
            return sorted(dirs, key=cmp_to_key(_angular_cmp))
        x1, y1, up1 = x2, y2, up2
    return out


# (scene, {guard: region}, {guard tuple: certificate}, [fan]) for the last
# scene asked about, the one cache of results in the package.  Scenes and
# guards are immutable values, so results are shared freely (a placement
# certifies, then its caller re-certifies); the tuple is replaced as one
# value, so nothing is filed under another scene.  The one-element list
# holds the fan of the last anchor swept (`_Fan`): candidates come anchor
# by anchor, and a fan per anchor would outlive its use.
_cache = (None, {}, {}, [None])


def scene_cache(scene: Scene):
    """The regions and the certificates kept for the scene, as two dicts:
    an equal copy of the last scene asked about (a re-parsed or validated
    one) shares them, and any other scene replaces both, which bounds the
    cache by one scene's results and one fan."""
    global _cache
    if scene is not _cache[0] and scene != _cache[0]:
        _cache = (scene, {}, {}, [None])
    return _cache[1], _cache[2]


def visibility_region(scene: Scene, g: Guard) -> VisibilityRegion:
    """The region seen by g, kept in the scene's cache."""
    regions = scene_cache(scene)[0]
    vr = regions.get(g)
    if vr is None:
        slot = _cache[3]
        fan = slot[0]
        if fan is None or fan.anchor != g.anchor:
            fan = slot[0] = _Fan(scene, g)
        vr = regions[g] = fan.region(g)
    return vr


class AnchorFans:
    """The regions of a list of guards, read through one fan per anchor.

    `mask(hp)` is the int bitmask of the guards whose closed region holds
    the homogeneous point hp, from one search of each anchor's fan
    (`_Fan.mask`), with no region walked.  `self[i]` is guard i's region,
    walked from its anchor's fan on first read and filed in the scene
    cache, so that `visibility_region` returns the same object.  Every
    anchor's fan is kept at once: a fan holds its directions and one
    blocker line per wedge, and no edge list."""

    def __init__(self, scene: Scene, guards):
        self.scene, self.guards = scene, guards
        members = {}
        for i, g in enumerate(guards):
            members.setdefault(g.anchor, []).append((1 << i, g))
        self._fans, self._groups = {}, []
        for anchor, group in members.items():
            fan = self._fans[anchor] = _Fan(scene, group[0][1])
            self._groups.append((fan, group))

    def mask(self, hp) -> int:
        return sum(fan.mask(hp, group) for fan, group in self._groups)

    def __getitem__(self, i) -> VisibilityRegion:
        g = self.guards[i]
        regions = scene_cache(self.scene)[0]
        vr = regions.get(g)
        if vr is None:
            vr = regions[g] = self._fans[g.anchor].region(g)
        return vr


class _Fan:
    """The sweep around one anchor corner, shared by every facing there.

    Wedge i runs from dirs[i] to dirs[i + 1] (cyclically) between
    consecutive corner directions; its nearest edge and the side of the
    anchor's cone it lies on do not depend on the facing, so its blocker
    line (None where no edge blocks) is found once, when the fan is
    built.  `half` is the index of the first direction at or past
    (-1, 0), where the directions' lower half starts."""

    def __init__(self, scene: Scene, g: Guard):
        anchor_cell, j = scene.corner(g.anchor)  # ValueError: no such corner
        self.anchor = g.anchor
        on_hole = g.on_hole()
        cells = scene.cells  # P's boundary is the last cell: its edges block too
        self.hpos = px, py, pw = anchor_cell.pts[j]

        # per cell, the primitive direction to each vertex; None at the anchor
        rays = []
        for cell in cells:
            row = []
            for X, Y, W in cell.pts:
                dx, dy = X * pw - px * W, Y * pw - py * W
                d = gcd(dx, dy)
                row.append((dx // d, dy // d) if d else None)
            rays.append(row)
        self.dirs = dirs = _sorted_directions({r for row in rays for r in row if r})
        nd = len(dirs)
        dir_index = {d: i for i, d in enumerate(dirs)}
        self.half = next((i for i, d in enumerate(dirs) if not _upper(*d)), nd)

        # Each wedge's middle ray m = d1 + d2, held as -m; a wedge in the
        # anchor hole (outside P's corner cone, for a P-corner guard) holds
        # (0, 0) instead, so that no edge blocks it.  The cone is read on
        # the normals of the anchor's two incident lines.  A wedge of 180
        # degrees or more, whose m is no middle ray, occurs only outside a
        # P corner, and no edge spans it.
        (a1, b1), (a2, b2) = anchor_cell.lines[j - 1][:2], anchor_cell.lines[j][:2]
        mids = []
        for d1, d2 in zip(dirs, dirs[1:] + dirs[:1]):
            mx, my = d1[0] + d2[0], d1[1] + d2[1]
            kept = (a1 * mx + b1 * my > 0 and a2 * mx + b2 * my > 0) != on_hole
            mids.append((-mx, -my) if kept else (0, 0))

        # Each front edge walks the cyclic range of wedges it spans, its
        # line directed CCW about the anchor (of value v > 0 there): P's
        # lines all have v >= 0, and a hole's with v < 0 is negated.  A
        # hole's line with v > 0 is a back edge, skipped: a middle ray
        # across the convex hole meets a front edge first, and at the
        # anchor's own hole it spans only wedges that hold (0, 0).  A line
        # through the anchor (v = 0) is an incident or a collinear edge's,
        # and neither blocks.  On a middle ray pos + t*m the line takes
        # v - t * W * den, den = -(A*mx + B*my), W the anchor's weight: the
        # ray meets it ahead iff den > 0, at t proportional to v / den, and
        # the least ratio is the nearest edge, the first in cell and edge
        # order on a tie.  Per wedge, bv / bd is the least ratio so far, of
        # the edge whose line is blockers[i]; 1 / 0 is that of no edge.
        bv, bd = [1] * nd, [0] * nd
        self.blockers = blockers = [None] * nd
        for cell, row in zip(cells, rays):
            n, hole = len(row), cell is not cells[-1]
            for e, line in enumerate(cell.lines):
                A, B, C = line
                v = A * px + B * py + C * pw
                if v == 0 or v > 0 and hole:
                    continue
                ra, rb = row[e], row[(e + 1) % n]
                if v < 0:
                    A, B, C, v, ra, rb = -A, -B, -C, -v, rb, ra
                    line = (A, B, C)
                ia, ib = dir_index[ra], dir_index[rb]
                for i in range(ia, ib) if ia < ib else [*range(ia, nd), *range(ib)]:
                    nmx, nmy = mids[i]
                    den = A * nmx + B * nmy
                    if den > 0 and v * bd[i] < bv[i] * den:
                        bv[i], bd[i], blockers[i] = v, den, line

    def _locate(self, vx, vy):
        """(lo, on_ray): lo counts the directions at or before v = (vx, vy)
        in CCW order from (1, 0), found by one binary search within v's
        half of the circle, where cross(d, v) >= 0 holds for a prefix of
        the directions; on_ray is whether v lies on dirs[lo - 1].  So v's
        direction is in the half-open arc [dirs[w], dirs[w + 1]) of wedge
        w = lo - 1 (-1 wraps to the last wedge)."""
        dirs = self.dirs
        if _upper(vx, vy):
            start, hi = 0, self.half
        else:
            start, hi = self.half, len(dirs)
        lo = start
        while lo < hi:
            mid = (lo + hi) // 2
            dx, dy = dirs[mid]
            if dx * vy >= dy * vx:
                lo = mid + 1
            else:
                hi = mid
        return lo, lo > start and dirs[lo - 1][0] * vy == dirs[lo - 1][1] * vx

    def mask(self, hp, group) -> int:
        """The sum of the bits of the (bit, guard) pairs of `group`, guards
        at this anchor, whose closed region holds the homogeneous point hp.

        With v = hp - apex, `_locate` finds the wedge w whose half-open
        arc holds v's direction.  A wedge holds hp when it has a blocker
        and hp is on or inside its line.  A region is its wedges' parts in
        the closed front half-plane, so for a facing f, e1 = (fy, -fx):
        f.v < 0, hp is behind; f.v > 0, wedge w holds it, or on a ray
        wedge w - 1; f.v = 0 along e1, only w, the wedge CCW of v; f.v = 0
        along e2 = -e1, only the wedge CW of v, w - 1 on a ray and w
        otherwise.  So wedge w - 1 is read only on a ray.  The apex,
        v = 0, is a vertex of every cell: a region holds it iff it has a
        run with a line."""
        X, Y, W = hp
        px, py, pw = self.hpos
        vx, vy = pw * X - px * W, pw * Y - py * W
        if not (vx or vy):
            return sum(bit for bit, g in group
                       if any(line is not None for _, line, _ in self.region(g).runs))
        lo, on_ray = self._locate(vx, vy)
        blockers = self.blockers
        held = _inside(blockers[lo - 1], hp)
        held_cw = _inside(blockers[lo - 2], hp) if on_ray else held
        if not (held or held_cw):
            return 0
        out = 0
        for bit, g in group:
            fx, fy = g.facing
            s = fx * vx + fy * vy
            if s > 0 or s == 0 and (held if fy * vx > fx * vy else held_cw):
                out += bit
        return out

    def region(self, g: Guard) -> VisibilityRegion:
        """The region of g, a guard at this anchor.  Its front arc runs CCW
        from e1 = facing turned clockwise to e2 = -e1, both placed among
        the directions by `_locate`; an edge direction inside a wedge
        splits it into parts with the wedge's blocker, and the wedges
        behind block nothing."""
        fx, fy = g.facing
        e1, e2 = (fy, -fx), (-fy, fx)
        dirs, blockers = self.dirs, self.blockers
        nd = len(dirs)
        a, _ = self._locate(*e1)  # the wedge a - 1 holds e1
        b, on_e2 = self._locate(*e2)
        b -= on_e2  # the first index of a direction not before e2
        if not _upper(*e1):
            b += nd  # the arc passes (1, 0): index k >= nd is dirs[k - nd]

        # Each maximal run of wedge parts stopped by one edge is one
        # triangle (the intermediate ray hits are collinear on it);
        # `first` counts the runs that start before (1, 0).
        runs = []
        first = 1
        start, line = e1, blockers[a - 1]
        for k in range(a, b):
            i = k % nd
            nxt = blockers[i]
            if nxt is not line:
                runs.append((start, line, dirs[i]))
                start, line = dirs[i], nxt
                first += k < nd
        runs.append((start, line, e2))
        return VisibilityRegion(g, tuple(runs), first, self.hpos)


def _upper(x, y) -> bool:
    """The direction (x, y) lies in the half-open upper half of the
    circle, from (1, 0) up to but not including (-1, 0)."""
    return y > 0 or (y == 0 and x > 0)


def _inside(line, hp) -> bool:
    """hp is on or inside a wedge's blocker line; a wedge without one
    holds nothing."""
    return line is not None and line[0] * hp[0] + line[1] * hp[1] + line[2] * hp[2] >= 0


def _triangle(hpos, ray1, edge, ray2) -> HCell:
    """The cell seen from hpos between the rays along the lines ray1 and
    ray2 (through hpos, directed outward) up to the blocking edge's line.

    Such a run always has area.  The fan skips the edges incident to the
    anchor and those collinear with it, so the line misses the anchor.  A
    run lies inside its edge's own angular range, which spans less than
    180 degrees, so ray1 turns strictly CCW to ray2 and both rays meet the
    edge in front of the anchor.  A triangle that does not turn strictly
    CCW breaks that argument; it raises MalformedPolygonError, since
    skipping it would make `cells` and `_Fan.mask` disagree."""
    # the lines of the rays and the edge (the triangle on their positive
    # sides) are small; the hits are their meets
    r1 = _h_meet(ray1, edge)
    r2 = _h_meet(ray2, edge)
    if _h_orient(hpos, r1, r2) <= 0:
        raise MalformedPolygonError(
            f"the run between the rays {ray1} and {ray2} seen from {hpos} has no area")
    return HCell((hpos, r1, r2), (ray1, edge, (-ray2[0], -ray2[1], -ray2[2])))
