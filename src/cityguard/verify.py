"""Exact coverage certification: residual region and witness extraction.

A certificate is a proof object: free space minus the union of all guard
visibility regions, computed exactly.  covered <=> the residual has zero
area.  A certificate also carries the roof flags of its guard set
(`Certificate.roofs`: per building, whether a guard on it has its roof in
its closed half-plane), computed on first read and kept with it, so the
roof repair and `certify_city` read them once per guard set; a city's
certificate copies them into `roof_flags` and its verdict.

The pass takes free space a piece at a time.  The pieces of an
axis-aligned scene are the free intervals of strips: columns between
consecutive x-lines, which a guard facing E or W can prove whole, or,
when most of its guards face N or S, rows between consecutive y-lines,
which such a guard can.  The guards alone choose the axis, once per
pass, and the proofs and the cuts both run on its strips; on rows every
step below runs with x and y swapped.  Either strip set tiles free
space, so either residual covers the same points, though not in the same
cells.  A scene with rotated buildings takes no strips: its pieces are
the bounds minus the buildings, cut by the kernel (`free_space`).

The pass first locates the guards.  A guard standing on a piece, with
the piece in its closed half-plane, sees all of it: the hull of its
apex and the piece is the piece, which is free space.  The strips are
built once per pass as exact free intervals (`_strips`, which
`free_space` also reads); a guard's apex, a corner, lies on a strip
line, so bisection finds the at most two intervals it lies on, and the
interval's rectangle is tested against the guard's closed half-plane on
its exact coordinates (`_on_strips`).  The pieces of a scene with
rotated buildings are located by an exact scan (`_on_piece`).  On the
covered placements about 60 % of the pieces are proven so.  Only the
pieces left become HCells, in strip order, and take the steps below.

The sight segments from a guard to a convex piece fill the hull of the
guard and the piece, so the guard sees all of the piece iff the piece
lies in the guard's closed half-plane and no building's open interior
meets that hull.  The hull, the guard and the piece's far chain as bare
vertices and lines, is tested exactly against the buildings alone,
`scene.hole_cells`, by the separating-axis loop (`geom.h_clear`).  The
guards whose closed half-plane holds the piece, its holders, come from
the facing index below, which decides that exactly, so for a holder the
hull test alone is True exactly when the guard's region holds the piece.
A piece that one of its holders so proves (`_proven`) is dropped; there
is at most one hull test per holder, and none repeats the half-plane
test.  Any other piece is cut, whole, by the regions of the guards with
a vertex of it strictly in front, in guard order; every other region
lies in its guard's closed half-plane, with the piece behind it, and
would not cut it.  A front guard is skipped when the closed shadow of
one building, seen from its corner, holds every cell still left of the
piece (`geom.h_shadowed`): every interior point of a region triangle is
seen and no interior point of a shadow is, so the region and those cells
have disjoint interiors, which `h_subtract` decides exactly and leaves
the cells as they are.  The cutting stops once no cell is left.  A
piece's descendants depend only on that piece and the regions, and a
piece the regions cover leaves none, so the residual is that of cutting
the axis's whole piece list by every region, cell for cell and in order.
A region is swept only when a piece needs it, or when an exit (the
certificate JSON, the SVG) reads `per_guard_regions`.

The guards a cell is tried on, and those whose regions cut it, come from
a facing index built once per pass: the guards are grouped by facing f
and sorted within a group by the threshold t = f.apex, exact as an int
or a Fraction.  A guard's closed half-plane holds the cell iff
t <= min f.v over the cell's vertices v, and it has a vertex strictly in
front iff t < max f.v, so each group gives the cell's holders and its
front guards as two sorted prefixes, found by bisection after one pass
over the vertices per facing.  The hull tests run first on the holders
facing the piece head on (an E or W facing level with its bbox, an N or
S facing beside it), then on the rest, sorted only when no holder ahead
proves the piece; each part by distance, ties in guard order.  The order
changes the work, never the verdict.  The front guards, read only for a
piece no holder proves, are put back in guard order, so the cuts see the
guards as a plain scan would.

The witness of an uncovered certificate is the first of the largest
residual cell's `interior_points` off every guard's half-plane boundary
line; the oracle takes its UNCOVERABLE witness from the same sequence.

Each (scene, guard tuple) runs one residual pass: certificates are kept
with the scene's regions in `visibility.scene_cache`, so a placement,
its caller and `certify_city` share one certificate.  An equal copy of
that scene shares them; any other scene drops regions and certificates
at once, which bounds the cache by one scene's results.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import count
from typing import Optional

from cityguard.geom import (
    AxisRect, HCell, Point, PolygonSet, h_area2, h_centroid,
    h_clear, h_in_front, h_rect, h_shadowed, h_subtract, h_to_point,
)
from cityguard.model import AXIS_ALIGNED, City, Scene, Solution, roof_flags, validate_scene
from cityguard.visibility import scene_cache, visibility_region


@dataclass(frozen=True)
class Certificate:
    covered: bool
    residual: PolygonSet
    witness: Optional[Point]
    scene: Scene
    guards: tuple
    roof_flags: Optional[tuple] = None

    @cached_property
    def roofs(self) -> tuple:
        """Per building, whether a guard of the set covers its roof
        (`model.roof_flags`), computed on first read and kept with the
        certificate, so the callers that share it share one pass."""
        return roof_flags(self.scene, self.guards)

    @property
    def per_guard_regions(self) -> tuple:
        """Every guard's region, in guard order, from the region cache."""
        return tuple(visibility_region(self.scene, g) for g in self.guards)


def free_space(scene: Scene) -> PolygonSet:
    """Bounds minus open hole interiors, as disjoint closed cells: strip
    columns, or with rotated buildings the bounds minus `hole_cells`."""
    if scene.kind == AXIS_ALIGNED:
        return PolygonSet.of_hcells(_axis_free_cells(scene.bounds, scene.holes))
    return PolygonSet.from_rect(*scene.bounds).difference(PolygonSet.of_hcells(scene.hole_cells))


def _strips(b: AxisRect, holes, rows=False):
    """The strips and their free intervals, exactly: `us`, the strip lines
    in increasing order, and per strip between us[s] and us[s + 1] the
    lists (los, his) of its free intervals' ends along it, in increasing
    order.  Strips are columns between consecutive x-lines, or with
    `rows` rows between consecutive y-lines.  `uv` reads a rectangle as
    (u0, v0, u1, v1), u across the strips and v along them."""
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


def _axis_free_cells(b: AxisRect, holes, rows=False):
    """One CCW rectangle HCell per free interval of each strip, in strip
    order (`_strips`, `_strip_cells`)."""
    return _strip_cells(*_strips(b, holes, rows), rows)


def _strip_cells(us, strips, rows, located=()):
    """The HCells of the free intervals of `_strips` output, in strip
    order, but for the (strip, interval) index pairs in `located`; each
    is written down by `h_rect` from its corners."""
    return [h_rect(v, ul, w, ur) if rows else h_rect(ul, v, ur, w)
            for s, (ul, ur, (los, his)) in enumerate(zip(us, us[1:], strips))
            for j, (v, w) in enumerate(zip(los, his)) if (s, j) not in located]


def covers(scene: Scene, guards) -> bool:
    """Does the guard set cover free space?  Reads the same memoised
    certificate as `certify`."""
    return _certificate(scene, guards).covered


def certify(scene: Scene, guards) -> Certificate:
    return _certificate(scene, guards)


def _certificate(scene: Scene, guards) -> Certificate:
    """The guard set's certificate, kept with the scene's regions
    (`visibility.scene_cache`).  `covers` and `certify` both read it
    directly, so a call through one public function is one call at the
    module boundary.  The scene is validated first (`validate_scene`
    raises SceneValidationError); the parser and the placements validate
    the same scene object, so here that is one identity check."""
    scene = validate_scene(scene)
    certificates = scene_cache(scene)[1]
    key = tuple(guards)
    cert = certificates.get(key)
    if cert is None:
        cert = certificates[key] = _compute(scene, key)
    return cert


def _compute(scene: Scene, guards: tuple) -> Certificate:
    """One residual pass, a piece at a time (see above), over the pieces
    the location step leaves (`_unlocated`).  A guard on no corner raises
    before any sweep."""
    sights = _sights(scene, guards)
    index = _by_facing(sights)
    buildings = scene.hole_cells
    residual = []
    for piece in _unlocated(scene, sights):
        if not _proven(piece, _holders(index, piece), sights, buildings):
            rest = [piece]
            for i in _front(index, piece):
                if all(h_shadowed(sights[i][0], c, buildings) for c in rest):
                    continue  # its region would leave every cell as it is
                rest = h_subtract(rest, visibility_region(scene, guards[i]).cells)
                if not rest:
                    break
            residual += rest
    # the witness lies in the largest cell, the first on ties
    witness = _witness(max(residual, key=h_area2), sights) if residual else None
    return Certificate(covered=not residual, residual=PolygonSet.of_hcells(residual),
                       witness=witness, scene=scene, guards=guards)


def _unlocated(scene: Scene, sights):
    """The pieces of free space that no guard standing on them proves, in
    strip order, as HCells: the strips of an axis-aligned scene, on rows
    when most guards face N or S (`_on_strips`), or the pieces of
    `free_space` (`_on_piece`)."""
    if scene.kind != AXIS_ALIGNED:
        return [piece for piece in free_space(scene).pieces if not _on_piece(piece, sights)]
    rows = 2 * sum(f[0] == 0 for _, f, _ in sights) > len(sights)
    us, strips = _strips(scene.bounds, scene.holes, rows)
    return _strip_cells(us, strips, rows, _on_strips(sights, us, strips, rows))


def _on_strips(sights, us, strips, rows):
    """The location step on strips: the (strip, interval) index pairs
    that a guard standing on them proves.  A guard's apex, a corner, lies
    on a strip line, found by bisection in `us`, so on at most the two
    strips that line bounds, and on at most one free interval of each,
    found by bisection in the strip's lower ends.  It proves the
    interval's rectangle iff its closed half-plane holds the rectangle's
    corner of least f.v, decided exactly on ints or Fractions."""
    located = set()
    for (X, Y, W), (fx, fy), k in sights:
        u, v, fu, fv = (Y, X, fy, fx) if rows else (X, Y, fx, fy)
        u, v = _ratio(u, W), _ratio(v, W)
        i = bisect_left(us, u)
        for s in (i - 1, i):
            if 0 <= s < len(strips) and us[s] <= u <= us[s + 1]:
                los, his = strips[s]
                j = bisect_right(los, v) - 1
                if j >= 0 and v <= his[j] and W * (fu * (us[s] if fu > 0 else us[s + 1])
                                                   + fv * (los[j] if fv > 0 else his[j])) >= k:
                    located.add((s, j))
    return located


def _on_piece(piece: HCell, sights) -> bool:
    """The location step on one convex piece, by an exact scan of the
    guards: does a guard whose apex lies on the closed piece (its lines)
    hold the piece in its closed half-plane (`h_in_front`)?"""
    return any(all(A * X + B * Y + C * W >= 0 for A, B, C in piece.lines)
               and h_in_front(a, f, piece.pts) for a, f, _ in sights for X, Y, W in [a])


def _sights(scene: Scene, guards):
    """(apex, facing, fx * AX + fy * AY) per guard, the apex the
    homogeneous corner `Scene.corner` decodes."""
    return [(a, g.facing, g.facing[0] * a[0] + g.facing[1] * a[1])
            for g in guards for cell, j in [scene.corner(g.anchor)] for a in [cell.pts[j]]]


def _ratio(n: int, d: int):
    """n / d, exactly, as an int when d is 1."""
    return n if d == 1 else Fraction(n, d)


def _by_facing(sights):
    """The facing index: per facing f, the thresholds t = f.apex of its
    sights in increasing order, and the sights' indices in that order."""
    groups = {}
    for i, (a, f, k) in enumerate(sights):
        groups.setdefault(f, []).append((_ratio(k, a[2]), i))
    index = []
    for f, group in groups.items():
        group.sort()
        index.append((f, [t for t, _ in group], [i for _, i in group]))
    return index


def _holders(index, cell: HCell):
    """The indices of the sights whose closed half-plane holds the cell:
    per facing f, the thresholds t <= min f.v over the cell's vertices
    v, in increasing t."""
    held = []
    for (fx, fy), ts, members in index:
        low = min([_ratio(fx * X + fy * Y, W) for X, Y, W in cell.pts])
        held += members[:bisect_right(ts, low)]
    return held


def _front(index, cell: HCell):
    """The indices of the sights with a vertex of the cell strictly in
    front, in guard order: per facing f, the thresholds t < max f.v over
    the cell's vertices v."""
    front = []
    for (fx, fy), ts, members in index:
        high = max([_ratio(fx * X + fy * Y, W) for X, Y, W in cell.pts])
        front += members[:bisect_left(ts, high)]
    front.sort()
    return front


def _proven(piece: HCell, held, sights, buildings) -> bool:
    """Does one of the piece's holders `held` see all of it?  A holder's
    closed half-plane holds the piece, which `_holders` has decided
    exactly, so no building meeting the hull of its apex and the piece
    (`h_clear`) is all that is left to test.  Hull tests run on the
    holders ahead (see above) first, then on the rest, sorted lazily,
    each part nearest the bbox first, ties in guard order.  Floats only
    order the exact tests."""
    x0, y0, x1, y1 = piece.bbox
    ahead, rest = [], []
    for i in held:
        (X, Y, W), (fx, fy), _ = sights[i]
        x, y = X / W, Y / W
        dx = x0 - x if x < x0 else (x - x1 if x > x1 else 0.0)
        dy = y0 - y if y < y0 else (y - y1 if y > y1 else 0.0)
        level = (fy == 0 and dy == 0.0) or (fx == 0 and dx == 0.0)
        (ahead if level else rest).append((dx * dx + dy * dy, i))
    return any(h_clear(sights[i][0], piece, buildings)
               for part in (ahead, rest) for _, i in sorted(part))


def interior_points(cell: HCell):
    """Points strictly inside the cell: the vertex centroid c, then
    (m*m*c + m*v0 + v1) / (m*m + m + 1), m = 2, 3, ...  Each is strictly
    inside the triangle of c and the first two vertices, and a line holds
    at most two of them, so one of the first 2L + 1 is off any L lines.
    Coordinates are ints or Fractions: c and the vertices may be all ints,
    so each later point is divided as a Fraction."""
    c = h_centroid(cell)
    v0, v1 = map(h_to_point, cell.pts[:2])
    yield c
    for m in count(2):
        d = m * m + m + 1
        yield Point(Fraction(m * m * c.x + m * v0.x + v1.x, d),
                    Fraction(m * m * c.y + m * v0.y + v1.y, d))


def _witness(cell: HCell, sights) -> Point:
    """The first of the cell's `interior_points` off every guard's boundary
    line, where `sees` accepts a point though sight there has no area."""
    return next(p for p in interior_points(cell)
                if not any(a[2] * (fx * p.x + fy * p.y) == k for a, (fx, fy), k in sights))


def certify_city(city: City, solution: Solution) -> Certificate:
    """The scene's certificate (from the scene cache) with its roof flags
    (`Certificate.roofs`)."""
    base = certify(city.scene, solution.guards)
    flags = base.roofs
    return replace(base, covered=base.covered and all(flags), roof_flags=flags)
