"""Exact optimal oracle over the wall-aligned vertex-guard class.

`optimal_guard_count` certifies and refines with lazily generated
witnesses (the iterative scheme of Couto, de Rezende and de Souza, and of
Tozoni, de Rezende and de Souza's "Algorithm 966").
A witness is a point of the region to cover with an `int` bitmask of the
candidates whose closed visibility region contains it.  The first
witnesses are the vertex centroids of the base cells (`geom.h_mean`, in
integers).  Each round finds a minimum hitting set of the witness masks
(`min_hitting_set`, a branch and bound), subtracts the chosen candidates'
regions from the base exactly and stops when nothing is left; otherwise
the centroid of every residual cell becomes a new witness.

Each round keeps its work for the next, within one call:

* the minimum's size: witnesses are only added, so the minimum never
  falls, and the last size is the next search's `lower` bound, where it
  stops at the first set of that size (the set the full search finds);
* the residuals: the base minus the regions of each sorted prefix of a
  chosen set, so a round cuts only by the regions past its longest
  cached prefix (`_residual`).  Before a region cuts, the cells its
  guard sees whole go by the verifier's one hull test (`h_in_front`,
  then `h_clear`), as the region would leave nothing of them;
  `h_subtract` cuts each cell on its own and one cutter after another,
  so the cells are those of one subtraction of all of them;
* the fans: a mask reads one fan per candidate anchor
  (`visibility.AnchorFans`), one search for the wedge that holds the
  witness and one sign test per candidate there, which gives the
  closed test over the regions' cells bit for bit; so only the regions
  that a round subtracts (or, when the search fails, all of them) are
  walked and build their cells.

Why the answer is exact:

* every cover contains each witness in some closed region, so the
  search's minimum over the witnesses is a lower bound on the true
  minimum, and a chosen set that the exact subtraction certifies is
  therefore optimal;
* a new witness is the centroid of a residual cell, so it lies in that
  cell's interior and in no chosen closed region: each round rules out
  the previous choice, and the loop ends;
* when the search finds no set within the bound, or a witness has no
  candidate, one subtraction of every candidate's region tells
  UNCOVERABLE from INFEASIBLE_WITHIN.  The UNCOVERABLE witness is the
  first of the largest left cell's `interior_points` that no candidate
  `sees`: a centroid can lie on a half-plane boundary line or a grazing
  line, where `sees` accepts a point that no region holds.

`build_faces` refines the base by every candidate region into an exact
face arrangement, by the same loop that subtracts in each round
(`h_divide`, of which `h_subtract` is the outside half): the parts of a
face inside a region join its mask, the parts outside keep the face's.
With `exhaustive_min_cover` it is the independent cross-check of the
lazy oracle, used by the tests and the benchmark's checks.  The roof
minimum runs the same search on one candidate subset per roof.  Lower
bounds produced this way are lower bounds within the paper's own guard
class (wall-aligned vertex guards), which is what the necessity theorems
quantify over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from cityguard.geom import (
    HCell, Point, h_area2, h_clear, h_divide, h_in_front, h_mean, h_point, h_subtract,
    h_to_point, interior_run,
)
from cityguard.model import (
    City, E, N, S, Scene, Solution, W, hole_guard, p_corner_guard, validate_scene,
    wall_aligned_facings,
)
from cityguard.verify import free_space, interior_points
from cityguard.visibility import AnchorFans, sees, visibility_region

OPTIMAL = "OPTIMAL"
INFEASIBLE_WITHIN = "INFEASIBLE_WITHIN"
UNCOVERABLE = "UNCOVERABLE"

_P_INWARD = {0: (E, N), 1: (W, N), 2: (W, S), 3: (E, S)}


def candidate_set(scene: Scene, include_p_corners: bool = False):
    """All hole vertices x wall-aligned facings (plus optional P corners).

    Every (anchor, facing) pair comes once: each corner has its own
    anchor, a hole's four wall-aligned facings are distinct, and so are a
    P corner's two inward ones."""
    guards = []
    for i, h in enumerate(scene.holes):
        facings = wall_aligned_facings(h)
        guards += [hole_guard(i, c, f) for c in range(4) for f in facings]
    if include_p_corners:
        guards += [p_corner_guard(c, f) for c in range(4) for f in _P_INWARD[c]]
    return guards


@dataclass(frozen=True)
class OracleResult:
    status: str
    count: Optional[int] = None
    solution: Optional[Solution] = None
    witness_point: Optional[Point] = None
    # every witness the oracle generated, as (Point, int mask of the
    # candidates whose closed region contains it); the name is kept for
    # readers that count them
    faces: Optional[tuple] = None


def build_faces(scene: Scene, candidates, region=None):
    """Refine free space (or a given sub-region) by every candidate region;
    returns (HCell, mask) faces.

    Each face is divided by each candidate's region cells (`h_divide`):
    the parts inside them join the candidate's mask, in cut order, and the
    parts outside keep the face's mask."""
    base = free_space(scene) if region is None else region
    faces = [(cell, frozenset()) for cell in base.pieces]
    for ci, cand in enumerate(candidates):
        rcells = visibility_region(scene, cand).cells
        nxt = []
        for (cell, mask) in faces:
            inside, outside = h_divide([cell], rcells)
            bigger = mask | {ci}
            nxt.extend((cell if pts is cell.pts else HCell(pts, lines), bigger)
                       for pts, lines in inside)
            nxt.extend((p, mask) for p in outside)
        faces = nxt
    return faces


def _check_max_count(max_count: int) -> None:
    if max_count < 0:
        raise ValueError(f"max_count must be >= 0, got {max_count}")


def optimal_guard_count(scene: Scene, candidates, max_count: int) -> OracleResult:
    """Exact minimum number of candidates covering free space, found by
    certify and refine (see the module docstring).  The scene is validated
    first, as `certify` validates it (SceneValidationError)."""
    scene = validate_scene(scene)
    status, best, witness, witnesses = _certify_and_refine(
        scene, candidates, free_space(scene).pieces, max_count)
    if status != OPTIMAL:
        return OracleResult(status=status, witness_point=witness, faces=witnesses)
    sol = Solution(algorithm="oracle",
                   guards=tuple(candidates[i] for i in sorted(best)))
    return OracleResult(status=OPTIMAL, count=len(best), solution=sol,
                        faces=witnesses)


def _certify_and_refine(scene: Scene, candidates, base, max_count: int):
    """The lazy-witness loop over the base cells: (status, chosen candidate
    indices or None, witness Point or None, witnesses as (Point, mask)).
    What each round carries to the next is listed in the module
    docstring."""
    _check_max_count(max_count)
    regions = AnchorFans(scene, candidates)
    residuals = {(): base}
    witnesses = []
    masks = []
    lower = 0
    fresh = base
    while True:
        for cell in fresh:
            hp = h_mean(cell)
            mask = regions.mask(hp)
            witnesses.append((h_to_point(hp), mask))
            masks.append(mask)
            if not mask:
                break  # nothing hits it, so the search fails at once
        best = min_hitting_set(masks, max_count, lower)
        if best is None:
            rest = h_subtract(base, [c for i in range(len(candidates)) for c in regions[i].cells])
            if not rest:
                return INFEASIBLE_WITHIN, None, None, tuple(witnesses)
            witness = next(p for p in interior_points(max(rest, key=h_area2))
                           if not any(sees(scene, g, p) for g in candidates))
            return UNCOVERABLE, None, witness, tuple(witnesses)
        lower = len(best)
        fresh = _residual(scene, residuals, sorted(best), regions)
        if not fresh:
            return OPTIMAL, best, None, tuple(witnesses)


def _residual(scene: Scene, residuals, chosen, regions):
    """The base minus the regions of the sorted indices `chosen`.
    `residuals` maps each sorted prefix already subtracted to its
    residual; the longest one cached is cut by the remaining regions one
    at a time, and every new prefix is cached.  Before a region cuts,
    every cell its guard sees whole is dropped: the cell lies in the
    guard's closed half-plane (`h_in_front`) and no building meets the
    hull of the apex and the cell (`h_clear`), so it lies in the closed
    region, which would leave nothing of it.  `h_subtract` cuts each
    piece on its own, in order, and by one cutter after another, so this
    is `h_subtract(base, every chosen cell)`, cell for cell."""
    n = len(chosen)
    while tuple(chosen[:n]) not in residuals:
        n -= 1
    rest = residuals[tuple(chosen[:n])]
    buildings = scene.hole_cells
    for i in range(n, len(chosen)):
        region = regions[chosen[i]]
        g = region.guard
        cell, j = scene.corner(g.anchor)
        apex = cell.pts[j]
        rest = [c for c in rest
                if not (h_in_front(apex, g.facing, c.pts) and h_clear(apex, c, buildings))]
        if rest:  # else the region builds no cells
            rest = h_subtract(rest, region.cells)
        residuals[tuple(chosen[:i + 1])] = rest
    return rest


def _members(bits: int):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def min_hitting_set(masks, max_count: int, lower: int = 0):
    """Exact minimum hitting set of `masks`, each an int bitmask of the
    candidate indices that hit one face (or roof).

    Returns the chosen candidate indices as a frozenset, or None if the
    minimum exceeds `max_count` (or a mask is empty, so nothing hits it).
    Faces whose mask contains another's and candidates whose faces are a
    subset of another candidate's are dropped first (on equal faces the
    lower index stays).  The branch and bound then branches on the
    uncovered face with the fewest remaining candidates, trying them by
    how many uncovered faces they hit; its lower bound is a greedy packing
    of uncovered faces whose remaining candidate sets are pairwise
    disjoint, since no candidate can hit two of them.

    The search keeps the first set it finds of each smaller size, so the
    answer is the first minimum set in search order.  A caller that knows
    the minimum is at least `lower` lets the search stop at the first set
    of that size: the same set the full search returns.
    """
    _check_max_count(max_count)
    faces = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if m == 0:
            return None
        if not any(f & m == f for f in faces):
            faces.append(m)
    cover = {}  # candidate -> bitmask of the faces it hits
    for j, m in enumerate(faces):
        for c in _members(m):
            cover[c] = cover.get(c, 0) | (1 << j)
    # a candidate is dropped when an earlier one, by (more faces, lower
    # index), hits all its faces; domination is transitive and follows
    # that order, so testing against the kept ones alone suffices
    kept, kept_faces = 0, []
    for c, fc in sorted(cover.items(), key=lambda item: (-item[1].bit_count(), item[0])):
        if not any(fc & fd == fc for fd in kept_faces):
            kept |= 1 << c
            kept_faces.append(fc)
    hitters = [m & kept for m in faces]
    best = None

    def limit():
        # -1 once a set of size `lower` is found: every open branch returns
        if best is None:
            return max_count
        return len(best) - 1 if len(best) > lower else -1

    def search(chosen, uncovered, allowed):
        nonlocal best
        if not uncovered:
            best = list(chosen)
            return
        remaining = sorted(((hitters[j] & allowed).bit_count(), hitters[j] & allowed)
                           for j in _members(uncovered))
        bound, used = 0, 0
        for _, h in remaining:
            if not h & used:
                bound += 1
                used |= h
        if len(chosen) + bound > limit():
            return
        # a branch takes c and excludes the candidates tried before it
        for c in sorted(_members(remaining[0][1]),
                        key=lambda c: (-(cover[c] & uncovered).bit_count(), c)):
            if len(chosen) + 1 > limit():
                return
            chosen.append(c)
            search(chosen, uncovered & ~cover[c], allowed)
            chosen.pop()
            allowed &= ~(1 << c)

    search([], (1 << len(faces)) - 1, kept)
    return None if best is None else frozenset(best)


def exhaustive_min_cover(scene: Scene, candidates, max_count: int):
    """Independent check of the branch and bound: try all candidate
    subsets by increasing size.  Returns None if the minimum exceeds
    `max_count`."""
    _check_max_count(max_count)
    faces = build_faces(scene, candidates)
    masks = {mask for _, mask in faces}
    if frozenset() in masks:
        return None
    for size in range(0, max_count + 1):
        for subset in combinations(range(len(candidates)), size):
            s = set(subset)
            if all(m & s for m in masks):
                return size
    return None


# ---------------------------------------------------------------------------
# Roof oracle (3D): minimum wall-aligned vertex guards covering all roofs
# ---------------------------------------------------------------------------


def roof_samples(base):
    """Corners, edge midpoints and the centroid of a roof rectangle."""
    cs = base.corners()
    pts = list(cs)
    for i in range(4):
        a, b = cs[i], cs[(i + 1) % 4]
        pts.append(Point(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2)))
    pts.append(Point(sum(Fraction(p.x) for p in cs) / 4,
                     sum(Fraction(p.y) for p in cs) / 4))
    return pts


def roof_cover_sets(city: City, candidates):
    """For each candidate guard, the set of roofs it fully covers (sampled).

    A roof counts as covered when every one of its `roof_samples` is
    visible: the roof's corners are in the guard's closed half-plane
    (`h_in_front`) and `_sample_visible` finds no prism's open interior on
    the open 3D sight segment.  Only building-corner guards have a height;
    a guard on a bounding-rectangle corner, or on none, raises `ValueError`.
    """
    scene, heights = city.scene, city.heights
    prisms = list(zip(scene.hole_cells, heights))
    roofs = [(i, cell.pts, roof_samples(base), heights[i])
             for i, (base, cell) in enumerate(zip(scene.holes, scene.hole_cells))]
    out = []
    for g in candidates:
        cell, j = scene.corner(g.anchor)
        if not g.on_hole():
            raise ValueError(f"roof guards stand on building corners, got anchor {g.anchor!r}")
        apex = cell.pts[j]
        v = h_to_point(apex)
        vz = heights[g.anchor[1]]
        covered = set()
        for i, corners, pts, hz in roofs:
            if not h_in_front(apex, g.facing, corners):
                continue
            if all(p == v or _sample_visible(v, vz, p, hz, prisms) for p in pts):
                covered.add(i)
        out.append(frozenset(covered))
    return out


def _sample_visible(v: Point, vz, p: Point, pz, prisms) -> bool:
    """No prism of `prisms`, (base HCell, height) pairs, blocks the sight
    segment (v, vz)-(p, pz).

    A prism no taller than the lower end of the segment cannot block, as
    z is linear along it; this exact prefilter skips it.  Otherwise the
    prism blocks iff the open segment enters its open interior: the
    segment's xy run through the footprint's open interior (`interior_run`,
    one integer pass after its float bbox prefilter, with v and p
    converted once) has a point below the roof.  z is linear along the
    run, so that holds iff z < h at the run's lower end."""
    low = min(vz, pz)
    a, b = h_point(v), h_point(p)
    for base, h in prisms:
        if h <= low:
            continue
        run = interior_run(a, b, base)
        if run is not None and vz + run[0 if pz > vz else 1] * (pz - vz) < h:
            return False
    return True


def min_roof_guards(city: City, max_count: int):
    """Exact minimum number of wall-aligned vertex guards covering all roofs.

    Coverage per roof is the sampled over-approximation (corners, edge
    midpoints, centroid) of `roof_cover_sets`, whose prefilters are exact,
    so the returned minimum is a valid lower bound on the true minimum.
    The candidates are the building-corner guards.  Returns None if
    optimum > max_count.  The scene is validated first
    (SceneValidationError).
    """
    validate_scene(city.scene)
    candidates = candidate_set(city.scene, include_p_corners=False)
    roof_masks = [0] * city.scene.k
    for c, roofs in enumerate(roof_cover_sets(city, candidates)):
        for r in roofs:
            roof_masks[r] |= 1 << c
    best = min_hitting_set(roof_masks, max_count)
    return None if best is None else len(best)
