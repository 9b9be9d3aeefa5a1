"""Instance generators: random corpora and the paper's necessity
constructions, plus computational checks of their defining properties.

gen_roof_necessity builds a row of buildings with strictly decreasing,
strictly concave heights and strictly concave widening footprints: a
straight 3D sight segment between roof points of two non-adjacent
buildings is a chord of a concave profile, so the building in between
blocks it.  check_roof_necessity verifies the blocking exactly at the
roof samples (corners, edge midpoints and centroid), with the roof
oracle's sample test.

gen_3k1_necessity builds the rotated family for the 3k+1 lower bound:
each hole presents a corner to the previous hole's flat wall, inside a
snug bounding rectangle.  It has members for k = 1 and 2 only;
check_3k1_properties verifies the construction's defining properties
exactly, and the oracle proves each member's minimum.  Whether a corner
sees part of an edge is read from the visibility regions of the guards
at that corner, the same exact sweep the certificates use.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import attrgetter

from cityguard.errors import GenerationFailedError
from cityguard.geom import (
    AxisRect, HCell, _h_orient, make_axis_rect, make_convex_quad,
)
from cityguard.model import (
    City, Guard, Scene, _holes_disjoint, require_general_position, validate_scene,
    wall_aligned_facings,
)
from cityguard.oracle import _sample_visible, roof_samples
from cityguard.visibility import visibility_region

_X0 = attrgetter("x0")


@dataclass(frozen=True)
class GeneratorParams:
    k: int
    seed: int = 0
    grid: int = 1000

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"k must be non-negative, got {self.k}")
        if self.grid <= 0:
            raise ValueError("grid must be positive")
        if self.k >= 1 and self.grid < 3:
            raise ValueError(f"grid {self.grid} holds no building: "
                             f"k >= 1 needs grid >= 3")


def gen_random(params: GeneratorParams) -> Scene:
    """k disjoint integer holes strictly inside P, in general position."""
    rng = random.Random(params.seed)
    g = params.grid
    wmax = max(1, (g - 2) // max(2 * params.k, 4))
    holes = []
    by_x = []  # the holes placed, sorted by x0
    used_x, used_y = set(), set()
    attempts = 0
    while len(holes) < params.k:
        attempts += 1
        if attempts > 2000 * (params.k + 1):
            raise GenerationFailedError(
                f"could not place {params.k} holes on a {g} grid (seed {params.seed})")
        x0 = rng.randint(1, g - 2)
        y0 = rng.randint(1, g - 2)
        w = rng.randint(1, wmax)
        h = rng.randint(1, wmax)
        x1, y1 = x0 + w, y0 + h
        if x1 > g - 1 or y1 > g - 1:
            continue
        if {x0, x1} & used_x or {y0, y1} & used_y:
            continue
        cand = AxisRect(x0, y0, x1, y1)
        # only a placed hole that starts in [x0 - wmax, x1] can meet the
        # candidate's closed x-range, as no hole is wider than wmax
        near = by_x[bisect_left(by_x, x0 - wmax, key=_X0):bisect_right(by_x, x1, key=_X0)]
        if any(not _holes_disjoint(cand, other) for other in near):
            continue
        insort(by_x, cand, key=_X0)
        holes.append(cand)
        used_x.update((x0, x1))
        used_y.update((y0, y1))
    scene = Scene(bounds=make_axis_rect(0, 0, g, g), holes=tuple(holes))
    scene = validate_scene(scene)
    require_general_position(scene)
    return scene


def gen_random_city(params: GeneratorParams) -> City:
    scene = gen_random(params)
    rng = random.Random(params.seed ^ 0x5EED)
    heights = tuple(rng.randint(1, params.grid) for _ in range(scene.k))
    return City(scene=scene, heights=heights)


# ---------------------------------------------------------------------------
# Roof necessity: k guards are sometimes necessary
# ---------------------------------------------------------------------------


def gen_roof_necessity(k: int) -> City:
    """Row of buildings, heights strictly decreasing and strictly concave,
    footprints widening concavely, so each building blocks the pair it
    separates."""
    if k < 1:
        raise ValueError("k >= 1")
    scale = 100
    holes = []
    heights = []
    for m in range(1, k + 1):
        xc = 10 * m
        half = (m * (2 * k + 2 - m)) * 2 + 2 * m  # strictly concave, distinct lines
        holes.append(AxisRect(xc, -half, xc + 1, half))
        heights.append(scale * ((k + 2) ** 2 - m * m) + m)
    width = 10 * k + 11
    span = max(h.y1 for h in holes) + 7
    scene = Scene(bounds=make_axis_rect(0, -span, width, span), holes=tuple(holes))
    scene = validate_scene(scene)
    require_general_position(scene)
    city = City(scene=scene, heights=tuple(heights))
    failures = check_roof_necessity(city)
    if failures:
        raise GenerationFailedError(f"roof necessity violated: {failures[0]}",
                                    failed_property=failures[0])
    return city


def check_roof_necessity(city: City):
    """Exact finite certificate of the two defining properties:
    1. strictly decreasing heights;
    2. for i < j-1, no top vertex of B_i sees any roof sample of B_j,
       checked symmetrically with the roof oracle's sample test
       (`oracle._sample_visible`)."""
    failures = []
    k = city.scene.k
    hts = city.heights
    for i in range(k - 1):
        if not hts[i] > hts[i + 1]:
            failures.append(("property1", i))
    prisms = list(zip(city.scene.hole_cells, hts))
    for i in range(k):
        for j in range(i + 2, k):
            if (_roofs_mutually_visible(city, i, j, prisms)
                    or _roofs_mutually_visible(city, j, i, prisms)):
                failures.append(("property2", (i, j)))
    return failures


def _roofs_mutually_visible(city: City, i: int, j: int, prisms) -> bool:
    """Some top vertex of B_i sees some roof sample of B_j, by the roof
    oracle's sample test."""
    hi, hj = city.heights[i], city.heights[j]
    return any(_sample_visible(v, hi, p, hj, prisms)
               for v in city.scene.holes[i].corners()
               for p in roof_samples(city.scene.holes[j]))


# ---------------------------------------------------------------------------
# 3k+1 necessity: rotated rectangles
# ---------------------------------------------------------------------------


def gen_3k1_necessity(k: int) -> Scene:
    """The rotated-hole lower-bound family: each hole presents a corner to
    the previous hole's flat wall, so the gap between them touches one
    wall of the earlier hole and two walls of the later one.

    Concretely: B_1 is a large 45-degree diamond; B_2 an axis square
    tucked below-left against B_1's SW wall (it presents its NE corner).
    Members exist for k = 1 and 2, whose exact minima are 4 and 7.  A
    third hole placed by the same search passes properties 1-4 but is
    covered by 9 = 3k guards, and every tested placement of a fourth hole
    is visible around the third (property2), so the generator refuses
    k >= 3 and names what fails rather than emit an invalid witness.
    """
    if k < 1:
        raise ValueError("k >= 1")
    if k > 3:
        raise GenerationFailedError(
            f"the corner-presentation family has no k={k} member: every tested "
            "placement of a fourth hole is visible around the third hole "
            "(property2)", failed_property="property2")
    if k == 3:
        raise GenerationFailedError(
            "the corner-presentation family has no k=3 member: the tested third "
            "hole passes properties 1-4, but the proven minimum is 9 = 3k "
            "wall-aligned vertex guards, not 3k+1", failed_property="minimum")
    r1 = 256
    holes = [make_convex_quad([(0, -r1), (r1, 0), (0, r1), (-r1, 0)])]
    if k >= 2:
        hi = -r1 // 2 - r1 // 32          # NE corner of the square: (-136, -136)
        lo = hi - 2 * (r1 * 3 // 8)
        holes.append(make_convex_quad([(lo, lo), (hi, lo), (hi, hi), (lo, hi)]))
    xs = [p.x for h in holes for p in h.corners()]
    ys = [p.y for h in holes for p in h.corners()]
    m = r1 // 4
    scene = Scene(bounds=make_axis_rect(min(xs) - m, min(ys) - m,
                                        max(xs) + m, max(ys) + m),
                  holes=tuple(holes))
    scene = validate_scene(scene)
    report = check_3k1_properties(scene)
    bad = [name for name, ok, _ in report if not ok]
    if bad:
        raise GenerationFailedError(f"3k+1 construction violates {bad}",
                                    failed_property=bad[0])
    return scene


# --- property checks -------------------------------------------------------


def hole_within_span(inner: HCell, outer: HCell) -> bool:
    """inner lies within a strip bounded by a pair of outer's opposite
    edges: on the closed inner side of both of their lines."""
    return any(all(A * X + B * Y + C * W >= 0
                   for A, B, C in outer.lines[i::2] for X, Y, W in inner.pts)
               for i in (0, 1))


def _edge_visible(scene: Scene, anchor, edge, facings) -> bool:
    """Does a guard at the anchor, facing one of `facings`, see a part of
    the edge of positive length (at a positive angle)?

    Its region is a fan of triangles at the guard, each closed by a
    segment of the one edge nearest across its wedge, so it does iff some
    triangle has both ray hits on the closed edge.  A guard on the edge's
    line sees it edge-on, and no triangle ends on it.
    """
    a, b = edge
    for f in facings:
        for cell in visibility_region(scene, Guard(anchor, f)).cells:
            if all(_on_segment(a, b, r) for r in cell.pts[1:]):
                return True
    return False


def _on_segment(a, b, p) -> bool:
    """The homogeneous point p lies on the closed segment of homogeneous
    ends a, b: on its line, and (p - a) . (p - b) <= 0, each difference
    scaled by the positive product of its two weights."""
    (ax, ay, aw), (bx, by, bw), (px, py, pw) = a, b, p
    return (_h_orient(a, b, p) == 0
            and (px * aw - ax * pw) * (px * bw - bx * pw)
            + (py * aw - ay * pw) * (py * bw - by * pw) <= 0)


def _edges(cell: HCell):
    """The four edges of a building's HCell (`Scene.hole_cells`) as pairs
    of homogeneous ends."""
    pts = cell.pts
    return [(pts[i], pts[(i + 1) % 4]) for i in range(4)]


def _positions(scene: Scene, i: int):
    """The wall-aligned guard positions on B_i: (anchor, corner, facing)."""
    hole = scene.holes[i]
    for c, v in enumerate(hole.corners()):
        for f in wall_aligned_facings(hole):
            yield ("hole", i, c), v, f


def check_3k1_properties(scene: Scene):
    """Per-property report for the 3k+1 construction, each checked exactly.

    1. every hole lies within the span (an opposite-edge strip) of every
       earlier hole;
    2. no edge of B_i is even partially visible from a vertex of B_j when
       |i - j| >= 2;
    3. from each wall-aligned guard position on B_i at most one edge of
       B_{i+1} is visible;
    4. no guard position on B_i sees both an edge of B_{i-1} and an edge
       of B_{i+1} (so no single guard serves two consecutive gaps).
    """
    k = scene.k
    report = []

    p1_fail = [(j, i) for i in range(k) for j in range(i)
               if not hole_within_span(scene.hole_cells[i], scene.hole_cells[j])]
    report.append(("property1", not p1_fail, p1_fail))

    p2_fail = []
    for i in range(k):
        for j in range(k):
            if abs(i - j) < 2:
                continue
            # all round a corner: a facing f and -f
            fx, fy = wall_aligned_facings(scene.holes[j])[0]
            for c in range(4):
                if any(_edge_visible(scene, ("hole", j, c), e, ((fx, fy), (-fx, -fy)))
                       for e in _edges(scene.hole_cells[i])):
                    p2_fail.append((j, i))
                    break
    report.append(("property2", not p2_fail, p2_fail))

    p3_fail = []
    for i in range(k - 1):
        for anchor, v, f in _positions(scene, i):
            visible = sum(1 for e in _edges(scene.hole_cells[i + 1])
                          if _edge_visible(scene, anchor, e, (f,)))
            if visible > 1:
                p3_fail.append((i, v, f, visible))
    report.append(("property3", not p3_fail, p3_fail))

    p4_fail = []
    for i in range(1, k - 1):
        for anchor, v, f in _positions(scene, i):
            prev_vis = any(_edge_visible(scene, anchor, e, (f,))
                           for e in _edges(scene.hole_cells[i - 1]))
            next_vis = any(_edge_visible(scene, anchor, e, (f,))
                           for e in _edges(scene.hole_cells[i + 1]))
            if prev_vis and next_vis:
                p4_fail.append((i, v, f))
    report.append(("property4", not p4_fail, p4_fail))
    return report
