"""The four boundary staircases of an axis-aligned scene.

Each staircase is the maximal region in one corner quadrant of P whose
boundary chain is formed by extending hole edges (rising staircase:
horizontal edges East, then vertical edges South, per the construction).
Equivalently, and much easier to compute exactly: the rising staircase
is P minus the open South-East quadrants of every hole's North-West
corner; the chain's reflex vertices are exactly the Pareto-optimal
corners of that quadrant family.  The other three kinds are symmetric.

Kind -> removed quadrant (corner of each hole, open):
  RS   top-left region,     SE quadrants of NW corners
  FS   top-right region,    SW quadrants of NE corners
  RRS  bottom-right region, NW quadrants of SE corners
  RFS  bottom-left region,  NE quadrants of SW corners

A Staircase keeps only what the placements read: its stairs (the
Pareto corners) and their buildings, not the region.  `staircase`
builds one without checks; `staircase_sharing` checks the scene once and
builds all four.  Guards are placed on an RRS staircase only
(`staircase_guards`): a placement turns its frame by quarter turns until
the staircase it guards is the frame's RRS, and turns the guards back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from cityguard.errors import EmptyStaircaseError
from cityguard.geom import AxisRect, Point
from cityguard.model import AXIS_ALIGNED, E, S, Scene, hole_guard, require_general_position

RS, FS, RRS, RFS = "RS", "FS", "RRS", "RFS"
KINDS = (RS, FS, RRS, RFS)

ADJACENT_PAIRS = ((RS, FS), (FS, RRS), (RRS, RFS), (RFS, RS))
OPPOSITE_PAIRS = ((RS, RRS), (FS, RFS))

# kind -> (corner index of the quadrant apex, x-dominance sign, y-dominance sign)
# Corner (cx, cy) with signs (sx, sy): quadrant {sx*(x-cx) > 0, sy*(y-cy) > 0}.
_QUADRANT = {
    RS: (3, 1, -1),   # NW corner, open SE quadrant
    FS: (2, -1, -1),  # NE corner, open SW quadrant
    RRS: (1, -1, 1),  # SE corner, open NW quadrant
    RFS: (0, 1, 1),   # SW corner, open NE quadrant
}


@dataclass(frozen=True)
class Staircase:
    """The stairs of one staircase kind."""
    kind: str
    reflex_vertices: tuple       # ((Point, building id), ...) in +x order
    buildings: frozenset

    @property
    def stairs(self) -> int:
        return len(self.reflex_vertices)


def _apex(hole: AxisRect, kind: str) -> Point:
    return hole.corners()[_QUADRANT[kind][0]]


def _pareto(scene: Scene, kind: str):
    """Hole ids whose quadrant apex is not dominated; sorted along the chain.
    In the order of (sx*x, sy*y) only an earlier apex can dominate, so an
    apex stays iff its sy*y is strictly below that of every earlier one."""
    _, sx, sy = _QUADRANT[kind]
    apexes = sorted(((i, _apex(h, kind)) for i, h in enumerate(scene.holes)),
                    key=lambda t: (sx * t[1].x, sy * t[1].y))
    keep = []
    for i, a in apexes:
        if not keep or sy * a.y < sy * keep[-1][1].y:
            keep.append((i, a))
    # chain runs in +x direction for all kinds
    keep.sort(key=lambda t: t[1].x)
    return keep


def staircase(scene: Scene, kind: str) -> Staircase:
    """The staircase of an axis-aligned scene in general position, unchecked."""
    pareto = _pareto(scene, kind)
    return Staircase(kind=kind, reflex_vertices=tuple((a, i) for i, a in pareto),
                     buildings=frozenset(i for i, _ in pareto))


def staircase_guards(st: Staircase):
    """The guards of an RRS staircase: one on each stair's SE corner facing
    E, along the stairs, and one more on the lowest stair's SE corner
    facing S, down the stairs; |guards| = stairs + 1.  A placement turns
    its frame until the staircase it guards is the frame's RRS."""
    if st.stairs == 0:
        raise EmptyStaircaseError(f"{st.kind} staircase of a k=0 scene has no stairs")
    guards = [hole_guard(hid, 1, E) for _, hid in st.reflex_vertices]
    lowest = min(st.reflex_vertices, key=lambda rv: rv[0].y)
    guards.append(hole_guard(lowest[1], 1, S))
    return guards


@dataclass(frozen=True)
class SharingReport:
    extremal: dict              # "L"/"T"/"R"/"B" -> building id
    staircases: dict            # kind -> Staircase
    case0_pair: Optional[tuple]          # coinciding extremal pair, if any
    opposite_shared: tuple               # ((pair, building id), ...)
    adjacent_internal: tuple             # ((pair, building id, alpha, beta), ...)

    @property
    def case(self) -> int:
        if self.case0_pair is not None:
            return 0
        if self.opposite_shared and self.adjacent_internal:
            return 4
        if self.opposite_shared:
            return 2
        if self.adjacent_internal:
            return 3
        return 1


def _extremal_ids(scene: Scene) -> dict:
    holes = scene.holes
    return {
        "L": min(range(scene.k), key=lambda i: holes[i].x0),
        "T": max(range(scene.k), key=lambda i: holes[i].y1),
        "R": max(range(scene.k), key=lambda i: holes[i].x1),
        "B": min(range(scene.k), key=lambda i: holes[i].y0),
    }


def _alpha_beta(scene: Scene, hid: int, pair) -> tuple:
    """Counts above/below the dividing line for an adjacent-shared building.

    For the top pair (RS, FS) the line supports the hole's top edge; the
    other pairs are the 90-degree rotations of that statement.
    """
    h = scene.holes[hid]
    if pair == (RS, FS):        # above / below the top edge line
        above = sum(1 for o in scene.holes if o.y0 > h.y1)
    elif pair == (FS, RRS):     # right / left of the right edge line
        above = sum(1 for o in scene.holes if o.x0 > h.x1)
    elif pair == (RRS, RFS):    # below / above the bottom edge line
        above = sum(1 for o in scene.holes if o.y1 < h.y0)
    else:                       # (RFS, RS): left / right of the left edge line
        above = sum(1 for o in scene.holes if o.x1 < h.x0)
    return above, scene.k - 1 - above


def staircase_sharing(scene: Scene) -> SharingReport:
    if scene.k < 1:
        raise ValueError("sharing analysis needs k >= 1")
    require_general_position(scene)
    if scene.kind != AXIS_ALIGNED:
        raise ValueError("staircases are defined for axis-aligned scenes only")
    stairs = {kind: staircase(scene, kind) for kind in KINDS}
    ext = _extremal_ids(scene)
    shared = {}
    for pair in ADJACENT_PAIRS + OPPOSITE_PAIRS:
        shared[pair] = stairs[pair[0]].buildings & stairs[pair[1]].buildings

    case0_pair = None
    for a, b in (("L", "T"), ("T", "R"), ("R", "B"), ("B", "L")):
        if ext[a] == ext[b]:
            case0_pair = (a, b)
            break

    extremal_set = set(ext.values())
    opposite = tuple(
        (pair, hid) for pair in OPPOSITE_PAIRS for hid in sorted(shared[pair])
    )
    adjacent = tuple(
        (pair, hid) + _alpha_beta(scene, hid, pair)
        for pair in ADJACENT_PAIRS
        for hid in sorted(shared[pair])
        if hid not in extremal_set
    )
    return SharingReport(extremal=ext, staircases=stairs, case0_pair=case0_pair,
                         opposite_shared=opposite, adjacent_internal=adjacent)
