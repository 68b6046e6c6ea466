"""Voronoi-based filtering predicate (Section 5.1 of the paper).

The basic half-space filter uses a *single* route point ``r``: a node is
pruned only when it is closer to ``r`` than to **every** query point.  When
the query has many points this filtering space shrinks quickly.  The paper's
Voronoi optimisation instead uses *all* the filter points of one route ``R``:
the enlarged filtering space ``H_{R:Q}`` is the union of the Voronoi cells of
``R``'s points in the Voronoi diagram of ``R ∪ Q`` (Definition 8).

A node lies inside ``H_{R:Q}`` exactly when it intersects no Voronoi cell of a
query point.  We use the following conservative-but-exact-on-bisectors test:

    the node is pruned by route ``R`` iff for **every** query point ``q``
    there exists a filter point ``r ∈ R`` such that the node lies entirely
    inside ``H_{r:q}``.

If the condition holds, every point ``p`` of the node satisfies
``dist(p, r_q) < dist(p, q)`` for each ``q`` (with ``r_q`` the witness filter
point), hence ``dist(p, R) < dist(p, Q)`` and the pruning is safe.  The test
is strictly weaker than requiring a *single* witness ``r`` for all query
points (the plain half-space filter), so it prunes strictly more nodes, which
is precisely the benefit the paper reports.
"""

from __future__ import annotations

from typing import Sequence

from repro.geometry.bbox import BoundingBox
from repro.geometry.halfspace import point_closer_to, points_dominate_bbox


def voronoi_prunes_point(
    point: Sequence[float],
    route_points: Sequence[Sequence[float]],
    query_points: Sequence[Sequence[float]],
) -> bool:
    """True when ``point`` is strictly closer to the route than to the query.

    ``dist(point, route_points) < dist(point, q)`` must hold for every query
    point ``q``; equivalently the point lies in the Voronoi filtering space
    ``H_{R:Q}``.
    """
    if not route_points:
        return False
    for q in query_points:
        if not any(point_closer_to(point, r, q) for r in route_points):
            return False
    return True


def voronoi_prunes_bbox(
    box: BoundingBox,
    route_points: Sequence[Sequence[float]],
    query_points: Sequence[Sequence[float]],
) -> bool:
    """True when the whole node ``box`` can be pruned by route ``route_points``.

    For every query point ``q`` some filter point of the route must dominate
    the entire box (the box lies inside ``H_{r:q}``).  Safe (never prunes a
    node containing a true RkNNT result) and strictly more powerful than the
    single-point filtering space test.
    """
    if not route_points:
        return False
    return points_dominate_bbox(box, route_points, query_points)
