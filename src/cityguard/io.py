"""Canonical file formats: scenes/cities, solutions, certificates.

Instance file:
    { "bounds": [x0, y0, x1, y1],
      "buildings": [ { "base": [x0, y0, x1, y1], "height": h }
                     or { "quad": [[x, y] * 4 CCW], "height": h } ... ] }

Solution file:
    { "algorithm": tag,
      "guards": [ { "anchor": {"building": i, "corner": c}
                    or {"p_corner": c}, "facing": [dx, dy] } ... ],
      "trace": [ [label, ...] ... ] }

A solution's trace, the placement's record of its case dispatch and roof
repairs, is written only when it is non-empty: each entry a list that
starts with a string label, then strings, integers and lists of them.

Rationals are integer tokens or strings "p/q" with q > 0.  Serialization
is canonical: sorted keys, rationals in lowest terms, corners indexed
0..3 CCW from the min-corner (axis-aligned: 0=SW, 1=SE, 2=NE, 3=NW), so
round trips are byte-stable.  Unknown fields are rejected.
"""

from __future__ import annotations

import json

from cityguard.geom import AxisRect, make_axis_rect, make_convex_quad, rational, rational_str
from cityguard.model import City, Guard, Scene, Solution, validate_scene


class FormatError(ValueError):
    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


# (allowed, required) fields of each JSON object a document holds
_CITY = (frozenset({"bounds", "buildings"}), frozenset({"bounds"}))
_BUILDING = (frozenset({"base", "quad", "height"}), frozenset({"height"}))
_SOLUTION = (frozenset({"algorithm", "guards", "trace"}), frozenset({"algorithm", "guards"}))
_GUARD = (frozenset({"anchor", "facing"}),) * 2
_HOLE_ANCHOR = (frozenset({"building", "corner"}),) * 2
_P_ANCHOR = (frozenset({"p_corner"}),) * 2


def _check_keys(obj, fields, path):
    """An object whose keys are among `fields`' allowed and include its
    required ones; the key view is compared with the frozensets directly,
    and the sets of unknown and missing keys are built only to name
    them."""
    if not isinstance(obj, dict):
        raise FormatError("must be an object", path)
    allowed, required = fields
    keys = obj.keys()
    if keys <= allowed and keys >= required:
        return
    extra = keys - allowed
    if extra:
        raise FormatError(f"unknown fields {sorted(extra)}", path)
    missing = required - keys
    if missing:
        raise FormatError(f"missing fields {sorted(missing)}", path)


def _rat(value, path):
    if type(value) is int:  # what `rational` returns for an int, without its checks
        return value
    try:
        return rational(value)
    except (ValueError, TypeError) as e:
        raise FormatError(str(e), path)


def _shape(make, args, path):
    """make(*args), with its ValueError as a FormatError at path."""
    try:
        return make(*args)
    except ValueError as e:
        raise FormatError(str(e), path)


def parse_city(doc) -> City:
    _check_keys(doc, _CITY, "$")
    bounds = doc["bounds"]
    if not (isinstance(bounds, list) and len(bounds) == 4):
        raise FormatError("bounds must be [x0, y0, x1, y1]", "$.bounds")
    rect = _shape(make_axis_rect, [_rat(v, "$.bounds") for v in bounds], "$.bounds")
    holes, heights = [], []
    buildings = doc.get("buildings", [])
    if not isinstance(buildings, list):
        raise FormatError("buildings must be a list", "$.buildings")
    for i, b in enumerate(buildings):
        path = f"$.buildings[{i}]"
        _check_keys(b, _BUILDING, path)
        if ("base" in b) == ("quad" in b):
            raise FormatError("need exactly one of base/quad", path)
        h = _rat(b["height"], path + ".height")
        if h <= 0:
            raise FormatError("height must be positive", path + ".height")
        heights.append(h)
        if "base" in b:
            bpath = path + ".base"
            if not (isinstance(b["base"], list) and len(b["base"]) == 4):
                raise FormatError("base must be [x0, y0, x1, y1]", bpath)
            holes.append(_shape(make_axis_rect, [_rat(v, bpath) for v in b["base"]], bpath))
        else:
            quad, qpath = b["quad"], path + ".quad"
            if not (isinstance(quad, list) and len(quad) == 4
                    and all(isinstance(p, list) and len(p) == 2 for p in quad)):
                raise FormatError("quad must be [[x, y] * 4]", qpath)
            points = [[_rat(p[0], qpath), _rat(p[1], qpath)] for p in quad]
            holes.append(_shape(make_convex_quad, [points], qpath))
    scene = validate_scene(Scene(bounds=rect, holes=tuple(holes)))
    return City(scene=scene, heights=tuple(heights))


def _read_json(path):
    """The JSON document of a UTF-8 file; a file that holds none raises
    FormatError."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise FormatError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}")
    except UnicodeDecodeError as e:
        raise FormatError(f"not UTF-8 text: byte {e.start}: {e.reason}")
    except RecursionError:
        raise FormatError("parse error: the document is nested too deeply")


def load_city(path) -> City:
    return parse_city(_read_json(path))


def city_doc(city: City) -> dict:
    buildings = []
    for i, h in enumerate(city.scene.holes):
        if isinstance(h, AxisRect):
            entry = {"base": [rational_str(v) for v in (h.x0, h.y0, h.x1, h.y1)]}
        else:
            entry = {"quad": [[rational_str(c.x), rational_str(c.y)] for c in h.corners()]}
        entry["height"] = rational_str(city.heights[i])
        buildings.append(entry)
    b = city.scene.bounds
    return {"bounds": [rational_str(v) for v in (b.x0, b.y0, b.x1, b.y1)],
            "buildings": buildings}


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "), indent=1) + "\n"


def save_city(city: City, path):
    with open(path, "w") as f:
        f.write(canonical_json(city_doc(city)))


def _index(anchor, key, path, limit=None):
    """A JSON integer index >= 0 (and < limit, when given)."""
    value = anchor[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise FormatError("must be a non-negative integer", f"{path}.{key}")
    if limit is not None and value >= limit:
        raise FormatError(f"must be below {limit}", f"{path}.{key}")
    return value


def _trace_value(value, path):
    """A trace item read back: a string, an integer (not a bool), or a list
    of them, nested, made a tuple."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    if isinstance(value, list):
        return tuple(_trace_value(v, path) for v in value)
    raise FormatError("trace items are strings, integers and lists of them", path)


def _parse_trace(trace) -> tuple:
    if not isinstance(trace, list):
        raise FormatError("trace must be a list", "$.trace")
    entries = []
    for i, entry in enumerate(trace):
        path = f"$.trace[{i}]"
        if not (isinstance(entry, list) and entry and isinstance(entry[0], str)):
            raise FormatError("a trace entry is a list that starts with a string label", path)
        try:
            entries.append(_trace_value(entry, path))
        except RecursionError:
            raise FormatError("nested too deeply", path)
    return tuple(entries)


def _trace_doc(value):
    return [_trace_doc(v) for v in value] if isinstance(value, tuple) else value


def parse_solution(doc) -> Solution:
    """Parse a solution document.  Building indices are only checked to be
    non-negative here; `Scene.corner`, the one decoder of an anchor, checks
    them against a scene."""
    _check_keys(doc, _SOLUTION, "$")
    if not isinstance(doc["algorithm"], str):
        raise FormatError("algorithm must be a string", "$.algorithm")
    if not isinstance(doc["guards"], list):
        raise FormatError("guards must be a list", "$.guards")
    guards = []
    for i, g in enumerate(doc["guards"]):
        path = f"$.guards[{i}]"
        _check_keys(g, _GUARD, path)
        anchor = g["anchor"]
        apath = path + ".anchor"
        if not isinstance(anchor, dict):
            raise FormatError("must be an object", apath)
        if "building" in anchor:
            _check_keys(anchor, _HOLE_ANCHOR, apath)
            a = ("hole", _index(anchor, "building", apath),
                 _index(anchor, "corner", apath, 4))
        elif "p_corner" in anchor:
            _check_keys(anchor, _P_ANCHOR, apath)
            a = ("p", _index(anchor, "p_corner", apath, 4))
        else:
            raise FormatError("anchor needs building/corner or p_corner", apath)
        facing = g["facing"]
        fpath = path + ".facing"
        if not (isinstance(facing, list) and len(facing) == 2):
            raise FormatError("facing must be [dx, dy]", fpath)
        fx, fy = _rat(facing[0], fpath), _rat(facing[1], fpath)
        if fx == 0 and fy == 0:
            raise FormatError("facing must be a nonzero direction", fpath)
        guards.append(Guard(anchor=a, facing=(fx, fy)))
    return Solution(algorithm=doc["algorithm"], guards=tuple(guards),
                    trace=_parse_trace(doc.get("trace", [])))


def load_solution(path) -> Solution:
    return parse_solution(_read_json(path))


def solution_doc(sol: Solution) -> dict:
    guards = []
    for g in sol.guards:
        if g.anchor[0] == "hole":
            anchor = {"building": g.anchor[1], "corner": g.anchor[2]}
        else:
            anchor = {"p_corner": g.anchor[1]}
        guards.append({"anchor": anchor,
                       "facing": [rational_str(g.facing[0]), rational_str(g.facing[1])]})
    doc = {"algorithm": sol.algorithm, "guards": guards}
    if sol.trace:
        doc["trace"] = _trace_doc(sol.trace)
    return doc


def save_solution(sol: Solution, path):
    with open(path, "w") as f:
        f.write(canonical_json(solution_doc(sol)))


def certificate_doc(cert) -> dict:
    doc = {
        "covered": cert.covered,
        "residual_area": rational_str(cert.residual.area()),
        "residual": [[[rational_str(x), rational_str(y)] for (x, y) in ring]
                     for ring in cert.residual.cells],
        "regions": [
            {"anchor": list(vr.guard.anchor),
             "facing": [rational_str(vr.guard.facing[0]), rational_str(vr.guard.facing[1])],
             "rings": [[[rational_str(x), rational_str(y)] for (x, y) in ring]
                       for ring in vr.region.cells]}
            for vr in cert.per_guard_regions
        ],
    }
    if cert.witness is not None:
        doc["witness"] = [rational_str(cert.witness.x), rational_str(cert.witness.y)]
    if cert.roof_flags is not None:
        doc["roof_flags"] = list(cert.roof_flags)
    return doc
