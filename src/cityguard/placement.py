"""Constructive guard placements: roof guarding, the 2k+1 partition
placement, the Cases 0-4 divide-and-conquer, and full city guarding.

Every placement is certified (exact zero-area residual) before it is
returned, by one certificate that decides the outcome and supplies the
witness; PLACEMENT_INCOMPLETE is a defect signal, never an accepted
outcome.  A Cases 0-4 frame keeps its partition anchors on buildings
and appends its stand-ins for P's SE corner.
"""

from __future__ import annotations

from dataclasses import dataclass

from cityguard.errors import PlacementIncompleteError
from cityguard.geom import AxisRect, Point, h_in_front
from cityguard.model import (
    AXIS_ALIGNED, City, E, Guard, N, S, Scene, Solution, W,
    hole_guard, require_general_position,
    roof_flags, rotate_guards, rotate_scene_ccw,
    validate_scene, wall_aligned_facings,
)
from cityguard.staircase import (
    FS, RFS, RRS, RS, SharingReport, staircase, staircase_guards,
    staircase_sharing,
)
from cityguard.verify import certify, covers

BUILDINGS_ONLY = "BUILDINGS_ONLY"
ALLOW_P_CORNER = "ALLOW_P_CORNER"


@dataclass(frozen=True)
class PartitionRegion:
    anchor_guard: Guard
    rects: tuple  # grid rectangles making up the region


# ---------------------------------------------------------------------------
# Roof guarding (k guards, one per building)
# ---------------------------------------------------------------------------


def roof_guarding(city: City) -> Solution:
    scene = city.scene
    guards = []
    for i, h in enumerate(scene.holes):
        cs = h.corners()
        facing = (cs[1].x - cs[0].x, cs[1].y - cs[0].y)  # along the first edge
        guards.append(hole_guard(i, 0, facing))
    sol = Solution(algorithm="roof", guards=tuple(guards))
    for i, covered in enumerate(roof_flags(scene, sol.guards)):
        if not covered:
            raise PlacementIncompleteError(f"roof {i} not covered by its own guard")
    return sol


# ---------------------------------------------------------------------------
# The 2k+1 orthogonal partition
# ---------------------------------------------------------------------------


def _anchor_guards(scene: Scene) -> dict:
    """The partition's anchors, read off the buildings: each region's SE
    corner mapped to the guard there facing West, in guard order.  They
    are the SW corner of every building off P's West side, the NE corner
    of every building below P's top, and P's SE corner unless a
    building's SE corner lies on it: a building on a side of P, as in
    the sub-scenes of Cases 0-4, leaves no region at its corner there.
    A point that is two corners is named by its building."""
    b = scene.bounds
    anchors = {}
    for i, h in enumerate(scene.holes):
        if h.x0 > b.x0:
            anchors.setdefault(Point(h.x0, h.y0), ("hole", i, 0))
        if h.y1 < b.y1:
            anchors.setdefault(Point(h.x1, h.y1), ("hole", i, 2))
    if not any(h.x1 == b.x1 and h.y0 == b.y0 for h in scene.holes):
        anchors.setdefault(Point(b.x1, b.y0), ("p", 1))
    return {p: Guard(anchor=a, facing=W)
            for p, a in sorted(anchors.items(), key=lambda item: item[1])}


def _checked_anchors(scene: Scene):
    """The validated scene and its 2k+1 anchors (`_anchor_guards`)."""
    scene = validate_scene(scene)
    require_general_position(scene)
    if scene.kind != AXIS_ALIGNED:
        raise ValueError("partition is defined for axis-aligned scenes")
    anchors = _anchor_guards(scene)
    if len(anchors) != 2 * scene.k + 1:
        raise PlacementIncompleteError(
            f"partition has {len(anchors)} anchors, expected {2 * scene.k + 1}")
    return scene, anchors


def partition_2k1(scene: Scene):
    """The 2k+1 monotone-staircase partition of free space, as the cells of
    the grid of hole lines, each region named by its anchor.

    Every free cell belongs to the region of the first vertical wall East
    of it.  There are 2k+1 such walls, each named by its lower end: P's
    East side (P's SE corner), each building's West side (its SW corner),
    and each building's East side extended North from its top corner to
    the first building above that spans that x-line, else to P's top (its
    NE corner).  The horizontal walls of the edge-extension partition are
    each building's S and N sides, extended West to the first vertical
    wall.  Proof that the faces are these regions:
    - A walk East crosses no horizontal wall, so it stays in its face
      until the first vertical wall.
    - Just West of each end of every vertical wall a horizontal wall runs
      West: the building's own S or N side, the S side of the building
      above, or a side of P.  So a vertical step inside a face never
      changes which wall the walk meets.
    - Each face therefore reaches down its wall to the wall's lower end,
      which is the face's SE corner.
    The lower ends must be the anchors read off the buildings
    (`_anchor_guards`).  One pass runs West over the columns and keeps, per
    row, the name of the last wall crossed (None inside a building)."""
    scene, anchors = _checked_anchors(scene)
    b, holes = scene.bounds, scene.holes
    xs = sorted({b.x0, b.x1} | {h.x0 for h in holes} | {h.x1 for h in holes})
    ys = sorted({b.y0, b.y1} | {h.y0 for h in holes} | {h.y1 for h in holes})
    yi = {y: j for j, y in enumerate(ys)}
    ny = len(ys) - 1
    # per x-line, the rows [lo, hi) a wall there starts naming, and the name
    walls = {b.x1: [(0, ny, Point(b.x1, b.y0))]}
    for h in holes:
        j0, j1 = yi[h.y0], yi[h.y1]
        stops = [o.y0 for o in holes if o.x0 < h.x1 < o.x1 and o.y0 > h.y1]
        walls[h.x0] = [(j0, j1, Point(h.x0, h.y0))]
        walls[h.x1] = [(j0, j1, None), (j1, yi[min(stops, default=b.y1)], Point(h.x1, h.y1))]
    cells = {p: [] for lines in walls.values() for _, _, p in lines if p is not None}
    for p in cells:
        if p not in anchors:
            raise PlacementIncompleteError(f"partition corner {p} is not an anchor")
    rows = list(zip(ys, ys[1:]))[::-1]
    names = [None] * ny
    for x0, x1 in reversed(list(zip(xs, xs[1:]))):
        for lo, hi, p in walls[x1]:
            names[lo:hi] = [p] * (hi - lo)
        for p, (y0, y1) in zip(reversed(names), rows):
            if p is not None:
                cells[p].append(AxisRect(x0, y0, x1, y1))
    # each region's cells came East to West and North to South
    return [PartitionRegion(anchor_guard=g, rects=tuple(reversed(cells[p])))
            for p, g in anchors.items()]


def guards_2k1(scene: Scene) -> Solution:
    """<= 2k+1 guards, each at a region's SE corner facing West; at most one
    guard sits on a corner of the bounding rectangle.  The corners are read
    off the buildings (`_anchor_guards`); no partition is built."""
    scene, anchors = _checked_anchors(scene)
    sol = Solution(algorithm="walls-2k1", guards=tuple(anchors.values()))
    if sol.p_corner_count() > 1:
        raise PlacementIncompleteError("more than one bounding-rectangle guard")
    cert = certify(scene, sol.guards)
    if not cert.covered:
        raise PlacementIncompleteError("2k+1 placement left a residual",
                                       witness=cert.witness)
    return sol


# ---------------------------------------------------------------------------
# Cases 0-4 (divide and conquer), all guards on hole vertices
# ---------------------------------------------------------------------------

# Each case rotates its scene so that the building it works on takes a fixed
# role.  A quarter turn keeps hole ids and only permutes the staircase kinds
# and extremal sides, so that building is read from the (sub)scene's one
# SharingReport; the rotated frame is never analysed again.
_C0_ROT = {("R", "B"): 0, ("B", "L"): 1, ("L", "T"): 2, ("T", "R"): 3}
_MIN_STAIR_ROT = {RRS: 0, RFS: 1, RS: 2, FS: 3}
_ADJ_PAIR_ROT = {(RS, FS): 0, (FS, RRS): 1, (RRS, RFS): 2, (RFS, RS): 3}


def _se_replacement_guards(scene: Scene, hid: int) -> list:
    """Two hole-vertex guards covering the L-region around P's SE corner
    when the hole is both rightmost and bottom-most; degenerate slabs
    (hole edge on the bounds) drop their guard."""
    h = scene.holes[hid]
    out = []
    if h.x1 < scene.bounds.x1:
        out.append(hole_guard(hid, 1, E))
    if h.y0 > scene.bounds.y0:
        out.append(hole_guard(hid, 1, S))
    if not out:
        raise PlacementIncompleteError("SE replacement degenerate on both sides")
    return out


def _hole_vertex_partition_guards(scene: Scene, extra: list) -> list:
    """The frame's anchor guards on building corners, then `extra`, the
    stand-ins for P's SE corner.  `_anchor_guards` names at most one
    corner of P, ("p", 1), which sorts after every ("hole", ...) anchor,
    so appending puts the stand-ins where that guard stood (or last, when
    a building on that corner leaves no anchor there)."""
    return [g for g in _anchor_guards(scene).values() if g.on_hole()] + extra


def _case0_guards(scene: Scene, rep: SharingReport, trace) -> list:
    rot = _C0_ROT[rep.case0_pair]
    rscene = rotate_scene_ccw(scene, rot)
    star = rep.extremal[rep.case0_pair[0]]  # the R and B building of rscene
    trace.append(("case0", rep.case0_pair, star))
    guards = _hole_vertex_partition_guards(rscene, _se_replacement_guards(rscene, star))
    return rotate_guards(guards, rscene, -rot)


def _case1_guards(scene: Scene, rep: SharingReport, trace, label="case1") -> list:
    min_kind = min((RRS, RS, FS, RFS), key=lambda k: (rep.staircases[k].stairs, k))
    rot = _MIN_STAIR_ROT[min_kind]
    rscene = rotate_scene_ccw(scene, rot)
    st = staircase(rscene, RRS)  # rep's analysis checked the scene
    trace.append((label, min_kind, st.stairs))
    guards = _hole_vertex_partition_guards(rscene, staircase_guards(st))
    return rotate_guards(guards, rscene, -rot)


def _case2_guards(scene: Scene, rep: SharingReport, trace) -> list:
    pair = rep.opposite_shared[0][0]
    rot = 0 if pair == (RS, RRS) else 1
    rscene = rotate_scene_ccw(scene, rot)
    bi = rep.opposite_shared[0][1]  # shared by RS and RRS of rscene
    h = rscene.holes[bi]
    trace.append(("case2", bi))
    guards = [hole_guard(bi, 3, E), hole_guard(bi, 1, E),
              hole_guard(bi, 3, W), hole_guard(bi, 1, W)]
    for i, o in enumerate(rscene.holes):
        if i == bi:
            continue
        in_city1 = o.y0 > h.y1 or (o.x0 > h.x1 and o.y0 > h.y0)
        facing = E if in_city1 else W
        guards.append(hole_guard(i, 3, facing))  # NW corner
        guards.append(hole_guard(i, 1, facing))  # SE corner
    return rotate_guards(guards, rscene, -rot)


def _subscene(bounds: AxisRect, scene: Scene, ids) -> tuple:
    holes = tuple(scene.holes[i] for i in ids)
    return Scene(bounds=bounds, holes=holes), list(ids)


def _remap(guards, id_map):
    out = []
    for g in guards:
        if g.on_hole():
            out.append(Guard(anchor=("hole", id_map[g.anchor[1]], g.anchor[2]),
                             facing=g.facing))
        else:
            raise PlacementIncompleteError("sub-city produced a bounding-rectangle guard")
    return out


def _case3_guards(scene: Scene, rep: SharingReport, trace, depth) -> list:
    qualifiers = [(abs(a - b), hid, pair, a, b)
                  for (pair, hid, a, b) in rep.adjacent_internal
                  if a >= 3 and b >= 3]
    if not qualifiers:
        return _case1_guards(scene, rep, trace, label="case3-fallback")
    _, bj, pair, alpha, beta = min(qualifiers)
    rot = _ADJ_PAIR_ROT[pair]
    rscene = rotate_scene_ccw(scene, rot)  # bj is shared by its RS and FS
    h = rscene.holes[bj]
    b = rscene.bounds
    above = [i for i, o in enumerate(rscene.holes) if o.y0 > h.y1]
    strip = [i for i, o in enumerate(rscene.holes)
             if i != bj and o.y0 < h.y1 and o.y1 > h.y0]
    guards = []
    if not strip:
        # city_1 = slab above the bottom edge, B_j included on its floor
        trace.append(("case3i", bj, alpha, beta))
        sub1, ids1 = _subscene(AxisRect(b.x0, h.y0, b.x1, b.y1), rscene, above + [bj])
        sub_guards = _hole_vertex_partition_guards(
            sub1, _se_replacement_guards(sub1, len(ids1) - 1))
        guards.extend(_remap(sub_guards, ids1))
        below = [i for i in range(rscene.k) if i != bj and i not in above]
        sub2, ids2 = _subscene(AxisRect(b.x0, b.y0, b.x1, h.y0), rscene, below)
        guards.extend(_remap(_guards_main_scene(sub2, trace, depth + 1), ids2))
    else:
        # city_1 = slab above the top edge; B_j goes with city_2
        trace.append(("case3ii", bj, alpha, beta))
        sub1, ids1 = _subscene(AxisRect(b.x0, h.y1, b.x1, b.y1), rscene, above)
        sub_guards = _hole_vertex_partition_guards(sub1, [])
        guards.extend(_remap(sub_guards, ids1))
        guards.append(hole_guard(bj, 2, N))  # NE corner, facing city_1
        below = [i for i in range(rscene.k) if i not in above]
        sub2, ids2 = _subscene(AxisRect(b.x0, b.y0, b.x1, h.y1), rscene, below)
        guards.extend(_remap(_guards_main_scene(sub2, trace, depth + 1), ids2))
    return rotate_guards(guards, rscene, -rot)


def _guards_main_scene(scene: Scene, trace, depth=0) -> list:
    if depth > scene.k + 8:
        raise PlacementIncompleteError("case-3 recursion failed to terminate")
    rep = staircase_sharing(scene)
    case = rep.case
    if case == 0:
        return _case0_guards(scene, rep, trace)
    if case in (2, 4):
        return _case2_guards(scene, rep, trace)
    if case == 3:
        return _case3_guards(scene, rep, trace, depth)
    return _case1_guards(scene, rep, trace)


def guards_main(scene: Scene) -> Solution:
    """<= 2k + floor(k/4) + 4 guards, all anchored on hole vertices."""
    scene = validate_scene(scene)
    require_general_position(scene)
    if scene.kind != AXIS_ALIGNED:
        raise ValueError("guards_main is defined for axis-aligned scenes")
    if scene.k < 1:
        raise ValueError("guards_main needs at least one hole")
    trace = []
    guards = _guards_main_scene(scene, trace)
    sol = Solution(algorithm="walls-main", guards=tuple(guards), trace=tuple(trace))
    if any(not g.on_hole() for g in sol.guards):
        raise PlacementIncompleteError("guards_main produced a non-hole anchor")
    bound = 2 * scene.k + scene.k // 4 + 4
    if sol.count > bound:
        raise PlacementIncompleteError(
            f"guards_main used {sol.count} guards, bound is {bound}")
    cert = certify(scene, sol.guards)
    if not cert.covered:
        raise PlacementIncompleteError("main placement left a residual",
                                       witness=cert.witness)
    return sol


# ---------------------------------------------------------------------------
# City guarding: walls + ground + roofs
# ---------------------------------------------------------------------------


def _roof_front_facings(scene: Scene, g: Guard):
    cell, j = scene.corner(g.anchor)
    return [f for f in wall_aligned_facings(scene.holes[g.anchor[1]])
            if h_in_front(cell.pts[j], f, cell.pts)]


def _repair_roofs(city: City, guards: list, flags, trace) -> list:
    """Re-orient single guards so every roof sees a same-building guard,
    keeping the free-space certificate intact and the count unchanged.
    A repair changes only its own building's guards, so the roof flags
    of `guards` (`Certificate.roofs`) are read once."""
    scene = city.scene
    for i, covered in enumerate(flags):
        if covered:
            continue
        tries = [(idx, g, f) for idx, g in enumerate(guards) if g.on_hole() and g.anchor[1] == i
                 for f in _roof_front_facings(scene, g)]
        for idx, g, f in tries:
            candidate = list(guards)
            candidate[idx] = Guard(anchor=g.anchor, facing=f)
            if covers(scene, candidate):
                guards = candidate
                trace.append(("roof-fix", i, g.anchor, f))
                break
        else:
            raise PlacementIncompleteError(f"roof of building {i} cannot be repaired")
    return guards


# The walls-and-ground placement that city guarding builds on, per mode.
_BASE_ALGORITHM = {BUILDINGS_ONLY: "walls-main", ALLOW_P_CORNER: "walls-2k1"}


def city_guarding(city: City, mode: str = BUILDINGS_ONLY,
                  base: Solution | None = None) -> Solution:
    """The mode's walls-and-ground placement (`guards_main` on building
    corners, or `guards_2k1` with at most one corner of P), with roofs
    repaired by single-guard re-orientation.  A caller that has built
    that placement passes it as `base`, and it is not built again; it is
    checked, not trusted: a base of another algorithm raises ValueError,
    and so does one that does not cover free space."""
    scene = validate_scene(city.scene)
    require_general_position(scene)
    if mode not in _BASE_ALGORITHM:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == BUILDINGS_ONLY and scene.k == 0:
        raise ValueError("no building vertices exist to place guards on")
    if base is None:
        base = guards_main(scene) if mode == BUILDINGS_ONLY else guards_2k1(scene)
    elif base.algorithm != _BASE_ALGORITHM[mode]:
        raise ValueError(f"{mode} city guarding builds on {_BASE_ALGORITHM[mode]}, "
                         f"not on {base.algorithm!r}")
    cert = certify(scene, base.guards)
    if not cert.covered:
        raise ValueError(f"the {base.algorithm} base does not cover free space")
    trace = list(base.trace) + [("mode", mode)]
    guards = _repair_roofs(city, list(base.guards), cert.roofs, trace)
    sol = Solution(algorithm="city", guards=tuple(guards), trace=tuple(trace))
    from cityguard.verify import certify_city
    cert = certify_city(city, sol)
    if not cert.covered:
        raise PlacementIncompleteError("city placement failed certification",
                                       witness=cert.witness)
    return sol
