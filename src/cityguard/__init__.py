"""Guard placement for rectangular cities with 180-degree vertex guards.

Everything is computed over exact rational coordinates, so coverage
certificates ("residual area is exactly zero") are hard claims rather
than floating-point approximations.
"""

from cityguard.geom import Point, AxisRect, ConvexQuad, PolygonSet
from cityguard.model import Scene, City, Guard, Solution, validate_scene
from cityguard.visibility import sees, visibility_region
from cityguard.verify import certify, certify_city
from cityguard.placement import roof_guarding, partition_2k1, guards_2k1, guards_main, city_guarding
from cityguard.oracle import candidate_set, optimal_guard_count

__all__ = [
    "Point", "AxisRect", "ConvexQuad", "PolygonSet",
    "Scene", "City", "Guard", "Solution", "validate_scene",
    "sees", "visibility_region",
    "certify", "certify_city",
    "roof_guarding", "partition_2k1", "guards_2k1", "guards_main", "city_guarding",
    "candidate_set", "optimal_guard_count",
]
