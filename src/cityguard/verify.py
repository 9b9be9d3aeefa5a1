"""Exact coverage certification: residual region and witness extraction.

A certificate is a proof object: free space minus the union of all guard
visibility regions, computed exactly.  covered <=> the residual has zero
area.  For cities the certificate additionally records a per-building
roof flag (roof covered by a guard on that same building).

The pass takes free space a piece at a time.  The sight segments from a
guard to a convex piece fill the hull of the guard and the piece, so the
guard sees all of the piece iff the piece lies in the guard's closed
half-plane and no building's open interior meets that hull: one exact
test (`geom.h_sees_all`), True exactly when the guard's region holds the
piece.  Such a piece is dropped; any other piece is cut by every region
in turn, as a pass over the whole list would cut it.  The output is
identical to that pass, cell for cell and in order: a piece's
descendants depend only on that piece and the regions, and a piece that
any one region holds has none with area.  Float bboxes only choose which
guards are tried, and in which order.

Each (scene, guard tuple) runs one residual pass: certificates are
memoised for the last scene asked about, so a placement, its caller and
`certify_city` share one certificate.  An equal copy of that scene shares
its certificates; any other scene drops them, which bounds the memo by
one scene's certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from cityguard.geom import (
    AxisRect, HCell, Point, PolygonSet, h_area2, h_cell, h_centroid, h_point,
    h_sees_all, h_subtract,
)
from cityguard.model import AXIS_ALIGNED, City, Scene, Solution, roof_covered_by
from cityguard.visibility import visibility_region


@dataclass(frozen=True)
class Certificate:
    covered: bool
    residual: PolygonSet
    witness: Optional[Point]
    per_guard_regions: tuple
    roof_flags: Optional[tuple] = None


def free_space(scene: Scene) -> PolygonSet:
    """Bounds minus open hole interiors, as disjoint closed cells."""
    b = scene.bounds
    if scene.kind == AXIS_ALIGNED:
        return PolygonSet.of_hcells(_axis_free_cells(b, scene.holes))
    region = PolygonSet.from_rect(b.x0, b.y0, b.x1, b.y1)
    return region.difference(PolygonSet(tuple(h.as_cell() for h in scene.holes)))


def _axis_free_cells(b: AxisRect, holes):
    """One CCW rectangle HCell per free interval of each column between
    consecutive x-lines."""
    xs = sorted({b.x0, b.x1} | {h.x0 for h in holes} | {h.x1 for h in holes})
    cells = []
    for xl, xr in zip(xs, xs[1:]):
        blocked = sorted((h.y0, h.y1) for h in holes if h.x0 <= xl and xr <= h.x1)
        y = b.y0
        for (lo, hi) in blocked + [(b.y1, b.y1)]:
            if y < lo:
                ring = ((xl, y), (xr, y), (xr, lo), (xl, lo))
                cells.append(HCell(tuple(map(h_point, ring))))
            y = max(y, hi)
    return cells


def covers(scene: Scene, guards) -> bool:
    """Does the guard set cover free space?  Reads the same memoised
    certificate as `certify`."""
    return _certificate(scene, guards).covered


def certify(scene: Scene, guards) -> Certificate:
    return _certificate(scene, guards)


# (scene, {guard tuple: certificate}) for the last scene asked about,
# kept like visibility._cache: the pair is replaced as one value, an equal
# copy of the scene shares its certificates and any other scene drops them.
# `covers` and `certify` both read it directly, so a call through one
# public function is one call at the module boundary.
_memo = (None, {})


def _certificate(scene: Scene, guards) -> Certificate:
    global _memo
    memo_scene, certificates = _memo
    if scene is not memo_scene and scene != memo_scene:
        certificates = {}
        _memo = (scene, certificates)
    key = tuple(guards)
    cert = certificates.get(key)
    if cert is None:
        cert = certificates[key] = _compute(scene, key)
    return cert


def _compute(scene: Scene, guards: tuple) -> Certificate:
    """One residual pass: free space minus every guard's region, a piece
    at a time.  A piece that some guard sees all of (h_sees_all) leaves
    nothing; any other piece is cut by every region in turn."""
    regions = tuple(visibility_region(scene, g) for g in guards)
    cutters = [c for vr in regions for c in vr.cells]
    buildings = [h_cell(h.as_cell()) for h in scene.holes]
    sights = [(_fan_bbox(vr.cells), vr.guard.position(scene), vr.guard.facing)
              for vr in regions if vr.cells]
    residual = []
    for piece in free_space(scene).pieces:
        if not any(h_sees_all(apex, facing, piece, buildings)
                   for apex, facing in _holders(piece, sights)):
            residual.extend(h_subtract([piece], cutters))
    # the witness is the vertex centroid of the largest cell, first on ties
    witness = h_centroid(max(residual, key=h_area2)) if residual else None
    return Certificate(covered=not residual, residual=PolygonSet.of_hcells(residual),
                       witness=witness, per_guard_regions=regions)


def _fan_bbox(cells):
    return (min(c.bbox[0] for c in cells), min(c.bbox[1] for c in cells),
            max(c.bbox[2] for c in cells), max(c.bbox[3] for c in cells))


def _holders(piece: HCell, sights):
    """(apex, facing) of the guards whose region's bbox holds the piece's,
    nearest first.  The slack absorbs the cells' different bbox paddings;
    floats only order the exact proofs here and never decide one."""
    x0, y0, x1, y1 = piece.bbox
    slack = 1e-9 * (1.0 + max(abs(x0), abs(y0), abs(x1), abs(y1)))
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    near = [((float(p.x) - cx) ** 2 + (float(p.y) - cy) ** 2, i)
            for i, (b, p, _) in enumerate(sights)
            if b[0] <= x0 + slack and b[1] <= y0 + slack
            and x1 - slack <= b[2] and y1 - slack <= b[3]]
    return [(h_point(sights[i][1]), sights[i][2]) for _, i in sorted(near)]


def certify_city(city: City, solution: Solution) -> Certificate:
    scene = city.scene
    # The base certificate comes from the memo.  The roof flags are read
    # from the city's buildings, which the memo's scene key does not hold,
    # so they are computed on every call.  Only a guard on a building can
    # cover its roof, so each roof is tested against its own guards.
    base = certify(scene, solution.guards)
    own = {}
    for g in solution.guards:
        if g.on_hole():
            own.setdefault(g.anchor[1], []).append(g)
    flags = tuple(
        any(roof_covered_by(scene, i, g) for g in own.get(i, ()))
        for i in range(scene.k)
    )
    return Certificate(covered=base.covered and all(flags),
                       residual=base.residual, witness=base.witness,
                       per_guard_regions=base.per_guard_regions, roof_flags=flags)
