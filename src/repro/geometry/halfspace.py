"""Perpendicular-bisector half-plane pruning (Section 4.1.1 of the paper).

Given a query point ``q`` and a filtering route point ``r``, the perpendicular
bisector ``⊥(q, r)`` splits the plane into two half-planes: ``H_{r:q}`` (the
set of points strictly closer to ``r`` than to ``q``) and ``H_{q:r}``.  A
transition point inside ``H_{r:q}`` can never take ``q`` as its nearest
neighbour relative to ``r``.

The *filtering space* of a route point ``r`` with respect to a multi-point
query ``Q`` is the intersection ``H_{r:Q} = ∩_{q∈Q} H_{r:q}`` (Definition 6).
A transition point (or a whole R-tree node) located inside ``H_{r:Q}`` is
closer to ``r`` — and therefore to ``r``'s route — than to *every* point of
the query, so the query cannot be its nearest route.

Box containment is a pruning certificate, so it must never disagree with the
verification stage, which compares *squared* float distances.  The linear
form ``2(r-q)·p > |r|² - |q|²`` rounds differently from those squares: at a
near-tie (e.g. ``r`` a subnormal step from ``q``) it can order a point that
the squares call equidistant, and far from the origin ``|r|² - |q|²``
cancels until it can misorder points outright.  :meth:`HalfPlane.contains_bbox` therefore
demands a margin that bounds the rounding of both forms, so a pruned box
holds only points whose squared distance to ``r`` is strictly below their
squared distance to ``q`` as the verification stage computes them.  Near-ties
fall through to verification, which decides them exactly as the brute-force
oracle does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import squared_euclidean

#: Relative part of the box-containment margin, per unit of squared
#: coordinate magnitude (``|r|² + |q|²`` plus the box's largest squared
#: corner norm).  The rounding of the linear form and of the two squared
#: distances stays below ``20u`` of that magnitude (``u = 2⁻⁵³``); 1e-14 is
#: about ``90u``.
CONTAINMENT_REL_MARGIN = 1e-14
#: Absolute part of the margin: covers gradual-underflow error, at most a few
#: multiples of ``2⁻¹⁰⁷⁴`` per elementary operation.
CONTAINMENT_ABS_MARGIN = 1e-300


def box_norm_sq(min_x: float, min_y: float, max_x: float, max_y: float) -> float:
    """Largest squared norm of a point of the box (at one of its corners).

    ``max(-min, max)`` equals ``max(|min|, |max|)`` whenever ``min <= max``.
    """
    x = max_x if max_x > -min_x else -min_x
    y = max_y if max_y > -min_y else -min_y
    return x * x + y * y


@dataclass(frozen=True)
class HalfPlane:
    """The open half-plane ``{p : a*p.x + b*p.y > c}``.

    Constructed so that it contains the points strictly closer to a
    *filtering* point than to a *query* point (see
    :func:`bisector_halfplane`).
    """

    a: float
    b: float
    c: float
    #: The pair's share of the rounding margin:
    #: ``CONTAINMENT_REL_MARGIN * (|r|² + |q|²) + CONTAINMENT_ABS_MARGIN``.
    slack: float = CONTAINMENT_ABS_MARGIN

    def contains_point(self, point: Sequence[float]) -> bool:
        """True when ``point`` lies strictly inside the half-plane."""
        return self.a * point[0] + self.b * point[1] > self.c

    def contains_bbox(self, box: BoundingBox) -> bool:
        """True when the whole box lies inside the half-plane by a margin.

        Because the half-plane is convex it suffices to check the corner of
        the box that minimises ``a*x + b*y``.  That corner must clear ``c``
        by ``slack`` plus :data:`CONTAINMENT_REL_MARGIN` times the box's
        squared norm, so every point of the box is strictly closer to the
        filtering point in squared float distance (see the module notes).
        """
        x = box.min_x if self.a >= 0 else box.max_x
        y = box.min_y if self.b >= 0 else box.max_y
        bound = (self.c + self.slack) + CONTAINMENT_REL_MARGIN * box_norm_sq(
            box.min_x, box.min_y, box.max_x, box.max_y
        )
        return self.a * x + self.b * y > bound


def bisector_halfplane(
    query_point: Sequence[float], filter_point: Sequence[float]
) -> HalfPlane:
    """Half-plane ``H_{r:q}`` of points strictly closer to ``filter_point``.

    ``dist(p, r) < dist(p, q)`` expands to the linear inequality
    ``2(r-q)·p > |r|² - |q|²`` which is what the returned
    :class:`HalfPlane` encodes.

    Parameters
    ----------
    query_point:
        The query point ``q``.
    filter_point:
        The filtering route point ``r``.
    """
    qx, qy = query_point[0], query_point[1]
    rx, ry = filter_point[0], filter_point[1]
    a = 2.0 * (rx - qx)
    b = 2.0 * (ry - qy)
    rr = rx * rx + ry * ry
    qq = qx * qx + qy * qy
    slack = CONTAINMENT_REL_MARGIN * (rr + qq) + CONTAINMENT_ABS_MARGIN
    return HalfPlane(a, b, rr - qq, slack)


def point_closer_to(
    point: Sequence[float],
    filter_point: Sequence[float],
    query_point: Sequence[float],
) -> bool:
    """True when ``point`` is strictly closer to ``filter_point`` than to ``query_point``."""
    return squared_euclidean(point, filter_point) < squared_euclidean(
        point, query_point
    )


def bbox_inside_halfplane(
    box: BoundingBox,
    filter_point: Sequence[float],
    query_point: Sequence[float],
) -> bool:
    """True when every point of ``box`` is strictly closer to ``filter_point``.

    Equivalent to ``box ⊂ H_{r:q}`` (with the rounding margin of
    :meth:`HalfPlane.contains_bbox`); used to prune whole R-tree nodes.
    """
    return bisector_halfplane(query_point, filter_point).contains_bbox(box)


def filtering_space_contains_point(
    point: Sequence[float],
    filter_point: Sequence[float],
    query_points: Iterable[Sequence[float]],
) -> bool:
    """True when ``point`` lies inside the filtering space ``H_{r:Q}``.

    That is, ``point`` is strictly closer to ``filter_point`` than to *every*
    query point (Definition 6).
    """
    d_filter = squared_euclidean(point, filter_point)
    for q in query_points:
        if d_filter >= squared_euclidean(point, q):
            return False
    return True


def filtering_space_contains_bbox(
    box: BoundingBox,
    filter_point: Sequence[float],
    query_points: Iterable[Sequence[float]],
) -> bool:
    """True when the whole ``box`` lies inside the filtering space ``H_{r:Q}``.

    Every point of ``box`` must be strictly closer to ``filter_point`` than to
    every query point; since each ``H_{r:q}`` is convex, checking the
    worst-case corner per half-plane (with the rounding margin of
    :meth:`HalfPlane.contains_bbox`) decides the whole box.
    """
    return points_dominate_bbox(box, (filter_point,), query_points)


def points_dominate_bbox(
    box: BoundingBox,
    filter_points: Sequence[Sequence[float]],
    query_points: Iterable[Sequence[float]],
) -> bool:
    """True when, for every query point ``q``, some filter point ``r`` has
    the whole ``box`` inside ``H_{r:q}``.

    The test of :meth:`HalfPlane.contains_bbox`, rounding margin included,
    evaluated inline: this is the scalar backend's hot loop, so it builds no
    :class:`HalfPlane` objects and computes the box's share of the margin
    and each point's squared norm once per call.  A single filter point
    gives the filtering space ``H_{r:Q}`` (Definition 6); a route's filter
    points give its Voronoi filtering space (Definition 8).
    """
    min_x, min_y, max_x, max_y = box.min_x, box.min_y, box.max_x, box.max_y
    rel = CONTAINMENT_REL_MARGIN
    abs_margin = CONTAINMENT_ABS_MARGIN
    box_margin = rel * box_norm_sq(min_x, min_y, max_x, max_y)
    rows = [(r[0], r[1], r[0] * r[0] + r[1] * r[1]) for r in filter_points]
    for q in query_points:
        qx, qy = q[0], q[1]
        qq = qx * qx + qy * qy
        for rx, ry, rr in rows:
            a = 2.0 * (rx - qx)
            b = 2.0 * (ry - qy)
            x = min_x if a >= 0 else max_x
            y = min_y if b >= 0 else max_y
            if a * x + b * y > ((rr - qq) + (rel * (rr + qq) + abs_margin)) + box_margin:
                break
        else:
            return False
    return True
