"""Correctness checks on the outputs of benchmark ops.

Each check compares an op's output with a computation made apart from
the code that produced it: the point oracle ``sees`` instead of the
visibility regions and residuals, roof coverage recomputed from the
roof corners, and the paper's bounds recomputed from k.  Every check
returns ``None`` when the output is right and a message when it is not.
They run outside the timed region.
"""

from __future__ import annotations

from fractions import Fraction

from cityguard.geom import AxisRect, Point
from cityguard.visibility import sees

PROBES_PER_KIND = 12
_Q = 9973  # denominator of the random rational probes
_EPS = Fraction(1, 64)  # offset of the probes next to a hole corner
_SLACK = 1e-6


# -- geometry computed here, not by cityguard --------------------------------


def _strictly_inside(hole, p) -> bool:
    """p in the open interior of a hole (a convex polygon, CCW corners)."""
    if isinstance(hole, AxisRect):
        return hole.x0 < p.x < hole.x1 and hole.y0 < p.y < hole.y1
    corners = hole.corners()
    n = len(corners)
    for i in range(n):
        a, b = corners[i], corners[(i + 1) % n]
        if (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x) <= 0:
            return False
    return True


def in_free_space(scene, p) -> bool:
    b = scene.bounds
    if not (b.x0 <= p.x <= b.x1 and b.y0 <= p.y <= b.y1):
        return False
    return not any(_strictly_inside(h, p) for h in scene.holes)


def seen_by_any(scene, guards, p) -> bool:
    return any(sees(scene, g, p) for g in guards)


def roof_flags(city, guards) -> tuple:
    """Per building: does a guard on one of its corners have the whole roof
    in its closed half-plane?"""
    scene = city.scene
    flags = []
    for i, hole in enumerate(scene.holes):
        corners = hole.corners()
        ok = False
        for g in guards:
            if g.anchor[0] != "hole" or g.anchor[1] != i:
                continue
            v = corners[g.anchor[2]]
            fx, fy = g.facing
            if all((c.x - v.x) * fx + (c.y - v.y) * fy >= 0 for c in corners):
                ok = True
                break
        flags.append(ok)
    return tuple(flags)


def _centroid(cell) -> Point:
    n = len(cell)
    return Point(sum(Fraction(p.x) for p in cell) / n,
                 sum(Fraction(p.y) for p in cell) / n)


def _area2(cell):
    n = len(cell)
    return sum(cell[i].x * cell[(i + 1) % n].y - cell[(i + 1) % n].x * cell[i].y
               for i in range(n))


def _edges(corners):
    return [(corners[i], corners[(i + 1) % len(corners)]) for i in range(len(corners))]


def probe_points(scene, guards, rng):
    """Free-space points where coverage is easiest to get wrong: every point
    a hair off a hole corner (slivers of residual start at vertices), and a
    seeded sample of hole and bounds corners, edge midpoints, points just
    past a hole vertex on a grazing line through a guard or another vertex,
    and random rational points."""
    polygons = [h.corners() for h in scene.holes] + [scene.bounds.corners()]
    corners = [c for poly in polygons for c in poly]
    hole_vertices = [c for h in scene.holes for c in h.corners()]
    near = [Point(c.x + dx * _EPS, c.y + dy * _EPS) for c in hole_vertices
            for dx in (-1, 1) for dy in (-1, 1)]
    mids = [Point(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))
            for poly in polygons for a, b in _edges(poly)]
    origins = [g.position(scene) for g in guards] + hole_vertices
    grazing = []
    for _ in range(8 * PROBES_PER_KIND if hole_vertices else 0):
        if len(grazing) == PROBES_PER_KIND:
            break
        o = origins[rng.randrange(len(origins))]
        c = hole_vertices[rng.randrange(len(hole_vertices))]
        if o != c:
            grazing.append(Point(c.x + Fraction(c.x - o.x, 16), c.y + Fraction(c.y - o.y, 16)))
    b = scene.bounds
    randoms = [Point(b.x0 + (b.x1 - b.x0) * Fraction(rng.randrange(_Q + 1), _Q),
                     b.y0 + (b.y1 - b.y0) * Fraction(rng.randrange(_Q + 1), _Q))
               for _ in range(2 * PROBES_PER_KIND)]

    def sample(points, count=PROBES_PER_KIND):
        points = [p for p in points if in_free_space(scene, p)]
        return rng.sample(points, min(count, len(points)))

    return (sample(corners) + [p for p in near if in_free_space(scene, p)]
            + sample(mids) + sample(grazing) + sample(randoms))


# -- checks --------------------------------------------------------------------


def check_covered(scene, guards, rng):
    """A "covered" verdict: every probe point is seen by some guard.

    Floats only choose the order in which guards are asked (nearest first)
    and skip guards whose half-plane is clearly away from the point, with
    slack far above rounding error; ``sees`` decides, exactly."""
    placed = []
    for g in guards:
        v = g.position(scene)
        placed.append((g, float(v.x), float(v.y), g.facing))
    for p in probe_points(scene, guards, rng):
        px, py = float(p.x), float(p.y)
        order = sorted(((vx - px) ** 2 + (vy - py) ** 2, i)
                       for i, (g, vx, vy, (fx, fy)) in enumerate(placed)
                       if (px - vx) * fx + (py - vy) * fy > -_SLACK)
        if not any(sees(scene, placed[i][0], p) for _, i in order):
            return f"covered verdict, but no guard sees ({p.x}, {p.y})"
    return None


def check_uncovered(scene, guards, cert):
    """An "uncovered" verdict with a residual: some point of the residual
    lies in free space and no guard sees it.  The witness is tried first,
    then interior points of the largest residual cells."""
    cells = sorted(cert.residual.cells, key=_area2, reverse=True)[:8]
    candidates = [cert.witness] if cert.witness is not None else []
    for cell in cells:
        c = _centroid(cell)
        candidates.append(c)
        candidates.extend(Point((2 * c.x + v.x) / 3, (2 * c.y + v.y) / 3) for v in cell)
    for p in candidates:
        if in_free_space(scene, p) and not seen_by_any(scene, guards, p):
            return None
    return "uncovered verdict, but every residual point tried is seen by a guard"


def check_certificate(city, guards, cert, rng, full: bool, city_op: bool):
    """Check one verify verdict (certify or certify_city)."""
    scene = city.scene
    if full and not cert.covered:
        return "a placement output was certified as not covered"
    if city_op:
        flags = roof_flags(city, guards)
        if tuple(cert.roof_flags) != flags:
            return f"roof flags {cert.roof_flags} != recomputed {flags}"
        if cert.covered and not all(flags):
            return "covered verdict with an uncovered roof"
    if cert.covered:
        if not cert.residual.is_empty():
            return "covered verdict with a non-empty residual"
        return check_covered(scene, guards, rng)
    if cert.residual.is_empty():
        if city_op and not all(cert.roof_flags):
            return None  # walls and ground covered; the recomputed roofs say no
        return "uncovered verdict with an empty residual"
    return check_uncovered(scene, guards, cert)


def check_bench_row(row, k: int):
    """A place op: the paper's bounds recomputed from k, roof count = k."""
    if not row.certified:
        return "bench row not certified"
    if row.k != k:
        return f"row k={row.k}, scene has k={k}"
    bounds = {"roof": k, "walls_2k1": 2 * k + 1, "walls_main": 2 * k + k // 4 + 4,
              "city_bonly": 2 * k + k // 4 + 4, "city_pcorner": 2 * k + 1}
    if set(row.counts) != set(bounds):
        return f"row columns {sorted(row.counts)}"
    if row.counts["roof"] != k:
        return f"roof guards {row.counts['roof']} != k={k}"
    for name, bound in bounds.items():
        if row.counts[name] > bound:
            return f"{name}: {row.counts[name]} guards > bound {bound}"
    return None
