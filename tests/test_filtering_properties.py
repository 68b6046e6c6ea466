"""Property-based tests of the filter-refine engine's safety invariants.

The framework is only exact because its pruning rules are *safe*: a pruned
R-tree node or transition endpoint must never belong to the final answer.
These tests generate random datasets and queries with hypothesis and check
that safety directly against exhaustive distance computations, independently
of the end-to-end equivalence tests in test_rknnt_correctness.py.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filtering import FilterRefineEngine
from repro.core.knn import count_routes_within_sq, query_distance_sq
from repro.geometry.bbox import BoundingBox
from repro.geometry.kernels import numpy_available
from repro.index.route_index import RouteIndex
from repro.index.transition_index import TransitionIndex
from repro.model.dataset import RouteDataset, TransitionDataset
from repro.model.route import Route
from repro.model.transition import Transition

# Coordinates are full-precision float64 draws.  The framework's predicates
# mix the linear half-plane corner test (filtering) with squared-distance
# comparisons (verification, oracle); the two are algebraically equivalent
# but can round to different sides of a *tie*, and subnormal coordinates
# (hypothesis happily draws 5e-324) make the squared/product terms
# underflow to 0.0, turning true orderings into exact squared-space ties.
# The oracles below therefore compare in the same squared space as the
# engine and skip squared-space near-ties (``squared_near_tie``), instead
# of dodging the issue by narrowing the strategies to float32 as PR 3 did.
coord = st.floats(min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord)

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])
METHODS = ["filter-refine", "voronoi", "divide-conquer"]


def squared_near_tie(d2_a, d2_b):
    """True when two squared distances are close enough that differently
    rounded expressions of the same comparison may disagree."""
    return abs(d2_a - d2_b) <= 1e-9 * (1.0 + d2_a + d2_b)


@st.composite
def random_scenario(draw):
    """A small random (routes, transitions, query, k) scenario."""
    route_count = draw(st.integers(min_value=2, max_value=6))
    routes = RouteDataset()
    for route_id in range(route_count):
        points = draw(st.lists(point, min_size=2, max_size=6))
        routes.add(Route(route_id, points))
    transition_count = draw(st.integers(min_value=1, max_value=12))
    transitions = TransitionDataset()
    for transition_id in range(transition_count):
        origin = draw(point)
        destination = draw(point)
        transitions.add(Transition(transition_id, origin, destination))
    query = draw(st.lists(point, min_size=1, max_size=4))
    k = draw(st.integers(min_value=1, max_value=route_count))
    return routes, transitions, query, k


@settings(max_examples=40, deadline=None)
@given(scenario=random_scenario())
def test_is_filtered_never_prunes_a_result_endpoint(scenario):
    """Safety: a pruned (degenerate) node contains no answer endpoint."""
    routes, transitions, query, k = scenario
    route_index = RouteIndex(routes, max_entries=4)
    transition_index = TransitionIndex(transitions, max_entries=4)
    engine = FilterRefineEngine(route_index, transition_index, k)
    engine.filter_routes([tuple(q) for q in query])

    for transition in transitions:
        for endpoint in transition.points:
            box = BoundingBox.from_point(endpoint)
            if engine.is_filtered(box, query):
                # The endpoint must have at least k routes strictly closer
                # than the query, i.e. it cannot be part of the answer.
                threshold_sq = query_distance_sq(endpoint, query)
                distances_sq = [
                    route.squared_distance_to_point(endpoint) for route in routes
                ]
                if any(squared_near_tie(d2, threshold_sq) for d2 in distances_sq):
                    # Geometric tie: different floating-point expressions
                    # of the same comparison may disagree.
                    continue
                closer = count_routes_within_sq(route_index, endpoint, threshold_sq)
                assert closer >= k


@settings(max_examples=30, deadline=None)
@given(scenario=random_scenario())
def test_candidates_plus_pruned_cover_all_endpoints_in_answers(scenario):
    """Completeness: every answer endpoint survives pruning as a candidate."""
    routes, transitions, query, k = scenario
    route_index = RouteIndex(routes, max_entries=4)
    transition_index = TransitionIndex(transitions, max_entries=4)
    engine = FilterRefineEngine(route_index, transition_index, k, use_voronoi=True)
    normalised_query = [tuple(q) for q in query]
    engine.filter_routes(normalised_query)
    candidates = engine.prune_transitions(normalised_query)
    candidate_keys = {(tag.transition_id, tag.endpoint) for _, tag in candidates}

    for transition in transitions:
        for label, endpoint in (("o", transition.origin), ("d", transition.destination)):
            threshold_sq = query_distance_sq(endpoint, normalised_query)
            distances_sq = [
                route.squared_distance_to_point(endpoint) for route in routes
            ]
            if any(squared_near_tie(d2, threshold_sq) for d2 in distances_sq):
                # Geometric tie — see the note in the test above.
                continue
            closer = count_routes_within_sq(route_index, endpoint, threshold_sq)
            if closer < k:
                assert (transition.transition_id, label) in candidate_keys


@settings(max_examples=30, deadline=None)
@given(scenario=random_scenario())
def test_verification_confirms_exactly_the_true_endpoints(scenario):
    """The verify step equals the per-endpoint brute-force predicate."""
    routes, transitions, query, k = scenario
    route_index = RouteIndex(routes, max_entries=4)
    transition_index = TransitionIndex(transitions, max_entries=4)
    engine = FilterRefineEngine(route_index, transition_index, k)
    normalised_query = [tuple(q) for q in query]
    confirmed = engine.run(normalised_query)

    for transition in transitions:
        for label, endpoint in (("o", transition.origin), ("d", transition.destination)):
            threshold_sq = query_distance_sq(endpoint, normalised_query)
            distances_sq = [
                route.squared_distance_to_point(endpoint) for route in routes
            ]
            if any(squared_near_tie(d2, threshold_sq) for d2 in distances_sq):
                # Geometric tie between a route and the query: the engine
                # and this re-computation use different (equally valid)
                # floating-point expressions, so skip the comparison.
                continue
            closer = sum(1 for d2 in distances_sq if d2 < threshold_sq)
            engine_says_yes = label in confirmed.get(transition.transition_id, set())
            assert engine_says_yes == (closer < k)


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("use_voronoi", [False, True], ids=["points", "voronoi"])
@pytest.mark.parametrize("backend", BACKENDS)
@given(scenario=random_scenario())
def test_pruned_endpoints_have_k_strictly_closer_routes(
    scenario, backend, use_voronoi
):
    """Soundness with no tie guard: a pruned endpoint has at least k routes
    strictly closer than the query in the squared float distances that
    verification and the oracle compare, subnormal coordinates included."""
    routes, transitions, query, k = scenario
    route_index = RouteIndex(routes, max_entries=4)
    transition_index = TransitionIndex(transitions, max_entries=4)
    engine = FilterRefineEngine(
        route_index, transition_index, k, use_voronoi=use_voronoi, backend=backend
    )
    normalised_query = [tuple(q) for q in query]
    engine.filter_routes(normalised_query)

    for transition in transitions:
        for endpoint in transition.points:
            if engine.is_filtered(BoundingBox.from_point(endpoint), normalised_query):
                threshold_sq = query_distance_sq(endpoint, normalised_query)
                closer = sum(
                    1
                    for route in routes
                    if route.squared_distance_to_point(endpoint) < threshold_sq
                )
                assert closer >= k


def _apply_random_churn(processor, transitions, seed):
    """Add a few random transitions, then remove up to two existing ones."""
    rng = random.Random(seed)
    next_id = transitions.next_id()
    for offset in range(rng.randint(1, 4)):
        processor.add_transition(
            Transition(
                next_id + offset,
                (rng.uniform(0, 20), rng.uniform(0, 20)),
                (rng.uniform(0, 20), rng.uniform(0, 20)),
            )
        )
    existing = list(transitions.transition_ids)
    for transition_id in rng.sample(existing, min(2, len(existing))):
        processor.remove_transition(transition_id)


@settings(max_examples=25, deadline=None)
@given(scenario=random_scenario(), seed=st.integers(min_value=0, max_value=10_000))
def test_dynamic_insertions_preserve_exactness(scenario, seed):
    """After random insert/remove churn the engine still matches brute force."""
    from repro.core.baseline import rknnt_bruteforce
    from repro.core.rknnt import RkNNTProcessor

    routes, transitions, query, k = scenario
    processor = RkNNTProcessor(routes, transitions)
    _apply_random_churn(processor, transitions, seed)

    oracle = rknnt_bruteforce(routes, transitions, query, k)
    result = processor.query(query, k, method="voronoi")
    assert result.transition_ids == oracle.transition_ids


@settings(max_examples=15, deadline=None)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", METHODS)
@given(scenario=random_scenario(), seed=st.integers(min_value=0, max_value=10_000))
def test_churn_matches_bruteforce_for_every_method(scenario, seed, method, backend):
    """The churn property above, through query and query_batch, for every
    method on every backend."""
    from repro.core.baseline import rknnt_bruteforce
    from repro.core.rknnt import RkNNTProcessor

    routes, transitions, query, k = scenario
    processor = RkNNTProcessor(routes, transitions)
    _apply_random_churn(processor, transitions, seed)

    oracle = rknnt_bruteforce(routes, transitions, query, k)
    single = processor.query(query, k, method=method, backend=backend)
    (batched,) = processor.query_batch([query], k, method=method, backend=backend)
    assert single.confirmed_endpoints == oracle.confirmed_endpoints
    assert batched.confirmed_endpoints == oracle.confirmed_endpoints


# A counterexample Hypothesis found for the property test above, with the
# churn stripped: a fresh processor, no updates.  Route 1 ends a subnormal step
# above the query point.  The squared float distances that verification and
# the oracle compare round (y - 1.2e-276)^2 to y^2, a tie, so all four
# endpoints of transitions 2 and 3 keep the query among their nearest routes
# and the answer is {0, 2, 3}.  The linear half-plane form keeps the
# 1.2e-276 coefficient and once placed those endpoints strictly on route 1's
# side, so the prune dropped them and the engine answered {0}.  The box
# prune's rounding margin now leaves such near-ties to verification.
SUBNORMAL_STEP_ROUTES = {
    0: [(0.0, 0.0), (0.0, 0.0)],
    1: [(0.0, 0.0), (0.0, 1.177786027392801e-276)],
}
SUBNORMAL_STEP_TRANSITIONS = {
    0: ((0.0, 0.0), (0.0, 0.0)),
    2: (
        (8.098682749008287, 15.675971780695452),
        (6.066254521578549, 9.531939083047117),
    ),
    3: (
        (11.667640789100624, 18.162257703906704),
        (10.093737116347805, 5.636756887994077),
    ),
}
SUBNORMAL_STEP_QUERY = [(0.0, 0.0)]
SUBNORMAL_STEP_ANSWER = frozenset({0, 2, 3})


def _subnormal_step_processor(transition_ids):
    """Processor over the pinned routes and the listed pinned transitions."""
    from repro.core.rknnt import RkNNTProcessor

    routes = RouteDataset()
    for route_id, points in SUBNORMAL_STEP_ROUTES.items():
        routes.add(Route(route_id, points))
    transitions = TransitionDataset()
    for transition_id in transition_ids:
        origin, destination = SUBNORMAL_STEP_TRANSITIONS[transition_id]
        transitions.add(Transition(transition_id, origin, destination))
    return RkNNTProcessor(routes, transitions)


@pytest.mark.parametrize("batch", [False, True], ids=["query", "query_batch"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", METHODS)
def test_subnormal_step_matches_bruteforce(method, backend, batch):
    from repro.core.baseline import rknnt_bruteforce

    query, k = SUBNORMAL_STEP_QUERY, 1
    processor = _subnormal_step_processor(SUBNORMAL_STEP_TRANSITIONS)
    if batch:
        (result,) = processor.query_batch([query], k, method=method, backend=backend)
    else:
        result = processor.query(query, k, method=method, backend=backend)
    oracle = rknnt_bruteforce(processor.routes, processor.transitions, query, k)
    assert result.transition_ids == oracle.transition_ids == SUBNORMAL_STEP_ANSWER


@pytest.mark.parametrize("semantics", ["exists", "forall"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_subnormal_step_watch_matches_bruteforce(backend, semantics):
    """The standing-query insert path filters inserted endpoints with the
    same box predicate, so it must leave the near-tie to verification too."""
    from repro.core.baseline import rknnt_bruteforce

    query, k = SUBNORMAL_STEP_QUERY, 1
    processor = _subnormal_step_processor([0])
    subscription = processor.watch(
        query, k, method="voronoi", semantics=semantics, backend=backend
    )
    for transition_id in (2, 3):
        origin, destination = SUBNORMAL_STEP_TRANSITIONS[transition_id]
        processor.add_transition(Transition(transition_id, origin, destination))
    oracle = rknnt_bruteforce(
        processor.routes, processor.transitions, query, k, semantics=semantics
    )
    assert subscription.result().transition_ids == oracle.transition_ids
    assert oracle.transition_ids == SUBNORMAL_STEP_ANSWER


def test_subnormal_step_sharded_matches_bruteforce():
    import multiprocessing

    from repro.core.baseline import rknnt_bruteforce
    from repro.engine.parallel import ShardedExecutor
    from repro.engine.plan import QueryPlan

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork unavailable on this platform")
    query, k = SUBNORMAL_STEP_QUERY, 1
    processor = _subnormal_step_processor(SUBNORMAL_STEP_TRANSITIONS)
    jobs = [(query, frozenset()), (query, frozenset({1}))]
    with ShardedExecutor(
        processor.engine_context, workers=2, start_method="fork"
    ) as pool:
        results = pool.run(jobs, k, QueryPlan.for_method("voronoi"))
    for (_, excluded), result in zip(jobs, results):
        oracle = rknnt_bruteforce(
            processor.routes, processor.transitions, query, k,
            exclude_route_ids=excluded,
        )
        assert result.transition_ids == oracle.transition_ids


# Lattices far from the origin: the linear half-plane form subtracts
# |r|² - |q|² of nearly equal large numbers, so a prune without the rounding
# margin drops answer endpoints there (about one query in ten at offset 40
# with step 1e-4, lon/lat at ~10 m; two in five at offset 4e6 with step
# 0.01, projected metres at cm resolution).
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "offset,step", [(40.0, 1e-4), (4e6, 0.01)], ids=["lonlat", "utm"]
)
def test_offset_lattices_match_bruteforce(offset, step, method, backend):
    from repro.core.baseline import rknnt_bruteforce
    from repro.core.rknnt import RkNNTProcessor

    rng = random.Random(7)

    def lattice_point():
        return (
            offset + step * rng.randint(0, 12),
            offset + step * rng.randint(0, 12),
        )

    for _ in range(25):
        routes = RouteDataset()
        route_count = rng.randint(2, 6)
        for route_id in range(route_count):
            routes.add(
                Route(route_id, [lattice_point() for _ in range(rng.randint(2, 5))])
            )
        transitions = TransitionDataset()
        for transition_id in range(rng.randint(3, 15)):
            transitions.add(
                Transition(transition_id, lattice_point(), lattice_point())
            )
        query = [lattice_point() for _ in range(rng.randint(1, 3))]
        k = rng.randint(1, route_count)
        processor = RkNNTProcessor(routes, transitions)
        for semantics in ("exists", "forall"):
            oracle = rknnt_bruteforce(
                routes, transitions, query, k, semantics=semantics
            )
            result = processor.query(
                query, k, method=method, semantics=semantics, backend=backend
            )
            assert result.transition_ids == oracle.transition_ids
