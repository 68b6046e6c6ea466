"""Differential tests: vectorized geometry kernels vs. scalar predicates.

Every batch kernel in :mod:`repro.geometry.kernels` must agree *exactly*
(not approximately) with the scalar predicate it replaces — the execution
engine relies on that for element-wise identical batch answers.  Inputs are
random via hypothesis, including degenerate boxes and coincident points.

When numpy is unavailable the kernels fall back to loops over the scalar
predicates, so these tests still pass (they then mostly assert the fallback
plumbing); the numpy-only verification kernel test is skipped.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knn import query_distance_sq
from repro.geometry import kernels
from repro.geometry.bbox import BoundingBox
from repro.geometry.halfspace import (
    bisector_halfplane,
    filtering_space_contains_bbox,
    filtering_space_contains_point,
)
from repro.geometry.point import squared_euclidean
from repro.geometry.voronoi import voronoi_prunes_bbox

coord = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
point = st.tuples(coord, coord)
points = st.lists(point, min_size=1, max_size=6)


@st.composite
def box(draw):
    x1, y1 = draw(point)
    x2, y2 = draw(point)
    return (min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


boxes = st.lists(box(), min_size=1, max_size=5)


def as_bbox(box_tuple) -> BoundingBox:
    return BoundingBox(*box_tuple)


@settings(max_examples=60, deadline=None)
@given(bxs=boxes, query=points)
def test_boxes_min_dist_matches_bbox(bxs, query):
    batch = kernels.boxes_min_dist_sq_to_query(kernels.pack_boxes(bxs), kernels.pack_points(query))
    for box_tuple, got in zip(bxs, batch):
        assert float(got) == as_bbox(box_tuple).min_dist_sq_to_query(query)


@settings(max_examples=60, deadline=None)
@given(pts=points, query=points)
def test_points_min_dist_matches_query_distance(pts, query):
    batch = kernels.points_min_dist_sq_to_query(
        kernels.pack_points(pts), kernels.pack_points(query)
    )
    for pt, got in zip(pts, batch):
        assert float(got) == query_distance_sq(pt, query)


@settings(max_examples=60, deadline=None)
@given(box_tuple=box(), filters=points, query=points)
def test_halfplane_tensor_matches_contains_bbox(box_tuple, filters, query):
    tensor = kernels.box_halfplane_tensor(
        box_tuple, kernels.pack_points(filters), kernels.pack_points(query)
    )
    bbox = as_bbox(box_tuple)
    for i, filter_point in enumerate(filters):
        for j, query_point in enumerate(query):
            expected = bisector_halfplane(query_point, filter_point).contains_bbox(bbox)
            assert bool(tensor[i][j]) == expected


@settings(max_examples=60, deadline=None)
@given(box_tuple=box(), filters=points, query=points)
def test_halfplane_tensor_implies_strict_squared_order(box_tuple, filters, query):
    # A True entry is a pruning certificate: no tolerance, every corner must
    # be strictly closer to the filter point in squared float distance.
    tensor = kernels.box_halfplane_tensor(
        box_tuple, kernels.pack_points(filters), kernels.pack_points(query)
    )
    for i, filter_point in enumerate(filters):
        for j, query_point in enumerate(query):
            if tensor[i][j]:
                for corner in as_bbox(box_tuple).corners():
                    assert squared_euclidean(corner, filter_point) < squared_euclidean(
                        corner, query_point
                    )


@settings(max_examples=40, deadline=None)
@given(bxs=boxes, filters=points, query=points)
def test_block_tensor_implies_strict_squared_order(bxs, filters, query):
    block = kernels.boxes_halfplane_tensor(
        kernels.pack_boxes(bxs), kernels.pack_points(filters), kernels.pack_points(query)
    )
    for b, box_tuple in enumerate(bxs):
        for i, filter_point in enumerate(filters):
            for j, query_point in enumerate(query):
                if block[b][i][j]:
                    for corner in as_bbox(box_tuple).corners():
                        assert squared_euclidean(
                            corner, filter_point
                        ) < squared_euclidean(corner, query_point)


@settings(max_examples=40, deadline=None)
@given(bxs=boxes, filters=points, query=points)
def test_block_tensor_matches_single_box_tensor(bxs, filters, query):
    flt = kernels.pack_points(filters)
    qry = kernels.pack_points(query)
    block = kernels.boxes_halfplane_tensor(kernels.pack_boxes(bxs), flt, qry)
    for b, box_tuple in enumerate(bxs):
        single = kernels.box_halfplane_tensor(box_tuple, flt, qry)
        for i in range(len(filters)):
            for j in range(len(query)):
                assert bool(block[b][i][j]) == bool(single[i][j])


@settings(max_examples=60, deadline=None)
@given(box_tuple=box(), filters=points, query=points)
def test_dominators_match_filtering_space(box_tuple, filters, query):
    all_q, _ = kernels.dominators_of_box(
        box_tuple, kernels.pack_points(filters), kernels.pack_points(query)
    )
    bbox = as_bbox(box_tuple)
    for filter_point, got in zip(filters, all_q):
        assert bool(got) == filtering_space_contains_bbox(bbox, filter_point, query)


@settings(max_examples=60, deadline=None)
@given(box_tuple=box(), route=st.lists(point, min_size=2, max_size=5), query=points)
def test_route_domination_matches_voronoi_predicate(box_tuple, route, query):
    flt = kernels.pack_points(route)
    qry = kernels.pack_points(query)
    tensor = kernels.box_halfplane_tensor(box_tuple, flt, qry)
    got = kernels.route_dominates_box(tensor, list(range(len(route))))
    assert got == voronoi_prunes_bbox(as_bbox(box_tuple), route, query)


@settings(max_examples=60, deadline=None)
@given(pts=points, filter_point=point, query=points)
def test_points_in_filtering_space_matches_scalar(pts, filter_point, query):
    mask = kernels.points_in_filtering_space(
        kernels.pack_points(pts), filter_point, kernels.pack_points(query)
    )
    for pt, got in zip(pts, mask):
        assert bool(got) == filtering_space_contains_point(pt, filter_point, query)


@pytest.mark.skipif(
    not kernels.numpy_available(), reason="verification kernel is numpy-only"
)
@settings(max_examples=40, deadline=None)
@given(
    pts=points,
    routes=st.lists(st.lists(point, min_size=1, max_size=4), min_size=1, max_size=5),
    query=points,
    k_excluded=st.integers(min_value=0, max_value=2),
)
def test_count_closer_routes_matches_bruteforce(pts, routes, query, k_excluded):
    flat = [p for route in routes for p in route]
    offsets = []
    position = 0
    for route in routes:
        offsets.append(position)
        position += len(route)
    excluded_columns = list(range(min(k_excluded, len(routes))))

    thresholds = [query_distance_sq(p, query) for p in pts]
    counts = kernels.count_closer_routes(
        kernels.pack_points(pts),
        thresholds,
        kernels.pack_points(flat),
        offsets,
        excluded_columns=excluded_columns,
        chunk_size=2,  # exercise the chunked path
    )
    for p, threshold, got in zip(pts, thresholds, counts):
        expected = 0
        for column, route in enumerate(routes):
            if column in excluded_columns:
                continue
            route_d = query_distance_sq(p, route)
            if route_d < threshold:
                expected += 1
        assert int(got) == expected


def test_resolve_backend():
    assert kernels.resolve_backend("python") == "python"
    assert kernels.resolve_backend("auto") in ("numpy", "python")
    with pytest.raises(ValueError):
        kernels.resolve_backend("fortran")
    if not kernels.numpy_available():
        with pytest.raises(ValueError):
            kernels.resolve_backend("numpy")
    else:
        assert kernels.resolve_backend("numpy") == "numpy"
