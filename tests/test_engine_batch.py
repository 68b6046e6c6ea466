"""Differential tests of the unified execution engine and the batch API.

The contract under test, per method × semantics:

    query_batch(queries)  ≡  [query(q) for q in queries]  ≡  rknnt_bruteforce

where ``≡`` is *element-wise identity* of the confirmed endpoint maps (and
therefore of both the ∃ and ∀ answers).  Additionally: the scalar and numpy
backends agree, caches survive dynamic updates, the planning bulk-expansion
path matches per-vertex scalar queries, and divide & conquer statistics sum
over sub-queries (the aggregation fix).
"""

import pytest

from repro.core.baseline import rknnt_bruteforce
from repro.core.filtering import FilterRefineEngine
from repro.core.rknnt import DIVIDE_CONQUER, METHODS, VORONOI, RkNNTProcessor
from repro.data.workloads import QueryWorkload, make_city
from repro.engine import executor
from repro.engine.plan import QueryPlan
from repro.engine.resilience import Deadline, DeadlineExceeded
from repro.geometry.kernels import numpy_available
from repro.model.route import Route
from repro.model.transition import Transition
from repro.planning.precompute import VertexRkNNTIndex

K = 3
QUERY_COUNT = 6

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])
NON_DECOMPOSED = [method for method in METHODS if method != DIVIDE_CONQUER]
#: Every traversal and verification counter of QueryStatistics (the phase
#: timings are the only fields left out).
COUNTERS = (
    "route_nodes_visited",
    "transition_nodes_visited",
    "filter_points",
    "nodes_pruned",
    "candidates",
    "confirmed_points",
    "subqueries",
)


@pytest.fixture(scope="module")
def batch_queries(mini_workload):
    # Short routes with a tight interval so answers are non-trivial, plus a
    # single-point query (divide & conquer degenerate case).
    queries = mini_workload.query_routes(QUERY_COUNT, length=4, interval=0.8)
    queries.append(queries[0][:1])
    return queries


class TestBatchEquivalence:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("semantics", ["exists", "forall"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_equals_single_equals_bruteforce(
        self, mini_city, mini_transitions, mini_processor, batch_queries,
        method, semantics, backend,
    ):
        # Cold caches per parameterization: otherwise a later backend's
        # divide & conquer run would be served from sub-queries memoised by
        # an earlier one and the backend under test would never execute.
        mini_processor.engine_context.clear_caches()
        singles = [
            mini_processor.query(q, K, method=method, semantics=semantics)
            for q in batch_queries
        ]
        batch = mini_processor.query_batch(
            batch_queries, K, method=method, semantics=semantics, backend=backend
        )
        assert len(batch) == len(singles)
        for query, single, batched in zip(batch_queries, singles, batch):
            assert batched.confirmed_endpoints == single.confirmed_endpoints
            assert batched.transition_ids == single.transition_ids
            oracle = rknnt_bruteforce(
                mini_city.routes, mini_transitions, query, K, semantics=semantics
            )
            assert batched.transition_ids == oracle.transition_ids
            assert batched.exists_ids() == oracle.exists_ids()
            assert batched.forall_ids() == oracle.forall_ids()

    @pytest.mark.parametrize("method", METHODS)
    def test_existing_route_queries_batch(self, mini_city, mini_processor, method):
        # Route objects as queries: the query route must exclude itself in
        # the batch path exactly as in the single path.
        routes = list(mini_city.routes)[:4]
        singles = [mini_processor.query(route, K, method=method) for route in routes]
        batch = mini_processor.query_batch(routes, K, method=method)
        for single, batched in zip(singles, batch):
            assert batched.confirmed_endpoints == single.confirmed_endpoints

    def test_repeated_batches_hit_subquery_cache(self, mini_processor, batch_queries):
        first = mini_processor.query_batch(batch_queries, K, method=DIVIDE_CONQUER)
        hits_before = mini_processor.engine_context.subquery_hits
        second = mini_processor.query_batch(batch_queries, K, method=DIVIDE_CONQUER)
        assert mini_processor.engine_context.subquery_hits > hits_before
        for a, b in zip(first, second):
            assert a.confirmed_endpoints == b.confirmed_endpoints


class TestBatchDoesPerQueryWork:
    """A batch is one plain ``execute`` per job: with cold caches it does
    exactly the traversal and verification work of the single queries.
    (Divide & conquer batches share the sub-query memo across jobs, which
    single queries do not, so only the non-decomposed methods compare.)"""

    @pytest.mark.parametrize("method", NON_DECOMPOSED)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_counters_equal_single_query_counters(
        self, mini_processor, batch_queries, method, backend
    ):
        mini_processor.engine_context.clear_caches()
        singles = [
            mini_processor.query(q, K, method=method, backend=backend)
            for q in batch_queries
        ]
        mini_processor.engine_context.clear_caches()
        batch = mini_processor.query_batch(
            batch_queries, K, method=method, backend=backend
        )
        for single, batched in zip(singles, batch):
            for field in COUNTERS:
                assert getattr(batched.stats, field) == getattr(
                    single.stats, field
                ), field

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_memoised_batch_does_no_traversal_work(
        self, mini_processor, batch_queries, backend
    ):
        mini_processor.engine_context.clear_caches()
        first = mini_processor.query_batch(
            batch_queries, K, method=DIVIDE_CONQUER, backend=backend
        )
        second = mini_processor.query_batch(
            batch_queries, K, method=DIVIDE_CONQUER, backend=backend
        )
        for query, a, b in zip(batch_queries, first, second):
            assert b.confirmed_endpoints == a.confirmed_endpoints
            # Every sub-query is an exact memo hit: counted, not executed.
            assert b.stats.subqueries == len(query)
            for field in COUNTERS:
                if field != "subqueries":
                    assert getattr(b.stats, field) == 0, field


class TestContainmentMarginOnRealisticData:
    """The box prune's rounding margin only withholds near-ties: on the
    mini workload every traversal decision and answer is the one the bare
    linear test makes (margins zeroed), so the margin costs no pruning."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_margin_changes_no_decision(
        self, mini_processor, batch_queries, monkeypatch, method, backend
    ):
        from repro.geometry import halfspace, kernels

        mini_processor.engine_context.clear_caches()
        with_margin = mini_processor.query_batch(
            batch_queries, K, method=method, backend=backend
        )
        for module in (halfspace, kernels):
            monkeypatch.setattr(module, "CONTAINMENT_REL_MARGIN", 0.0)
            monkeypatch.setattr(module, "CONTAINMENT_ABS_MARGIN", 0.0)
        mini_processor.engine_context.clear_caches()
        bare = mini_processor.query_batch(
            batch_queries, K, method=method, backend=backend
        )
        for a, b in zip(with_margin, bare):
            assert a.confirmed_endpoints == b.confirmed_endpoints
            for field in COUNTERS:
                assert getattr(a.stats, field) == getattr(b.stats, field), field


class TestExecuteBatch:
    def test_expired_deadline_stops_before_the_next_job(
        self, mini_processor, batch_queries, monkeypatch
    ):
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        real_execute = executor.execute
        calls = []

        def expire_after_first(*args, **kwargs):
            calls.append(args)
            result = real_execute(*args, **kwargs)
            now[0] = 1.0
            return result

        monkeypatch.setattr(executor, "execute", expire_after_first)
        jobs = [(query, frozenset()) for query in batch_queries[:3]]
        with pytest.raises(DeadlineExceeded):
            executor.execute_batch(
                mini_processor.engine_context, jobs, K,
                QueryPlan.for_method("voronoi"), "exists", deadline=deadline,
            )
        assert len(calls) == 1


class TestDynamicUpdates:
    def test_caches_invalidate_on_transition_updates(self, mini_city):
        city_routes = mini_city.routes
        from repro.data.checkins import TransitionGenerator

        transitions = TransitionGenerator(city_routes, seed=123).generate(150)
        processor = RkNNTProcessor(city_routes, transitions)
        query = [(2.0, 2.0), (3.0, 2.5), (4.0, 3.0)]

        before = processor.query_batch([query], K, method=DIVIDE_CONQUER)[0]
        oracle_before = rknnt_bruteforce(city_routes, transitions, query, K)
        assert before.transition_ids == oracle_before.transition_ids

        # Mutate the transition set; the engine context must notice.
        new_id = transitions.next_id()
        processor.add_transition(Transition(new_id, (2.1, 2.1), (3.9, 3.1)))
        removed_id = next(iter(sorted(transitions.transition_ids)))
        processor.remove_transition(removed_id)

        after = processor.query_batch([query], K, method=DIVIDE_CONQUER)[0]
        oracle_after = rknnt_bruteforce(city_routes, transitions, query, K)
        assert after.transition_ids == oracle_after.transition_ids
        assert after.transition_ids != before.transition_ids or (
            new_id not in oracle_after.transition_ids
            and removed_id not in oracle_before.transition_ids
        )

    def test_route_matrix_invalidates_on_route_updates(self, mini_city):
        from repro.data.checkins import TransitionGenerator
        from repro.model.route import Route

        transitions = TransitionGenerator(mini_city.routes, seed=5).generate(100)
        processor = RkNNTProcessor(mini_city.routes, transitions)
        query = [(1.0, 1.0), (2.0, 1.5)]
        processor.query_batch([query], K)  # builds the route matrix

        new_route = Route(
            mini_city.routes.next_id(), [(0.5, 0.5), (1.5, 1.2), (2.5, 1.8)]
        )
        processor.add_route(new_route)
        result = processor.query_batch([query], K)[0]
        oracle = rknnt_bruteforce(mini_city.routes, transitions, query, K)
        assert result.transition_ids == oracle.transition_ids
        processor.remove_route(new_route.route_id)


class TestPlanningBulkPath:
    def test_bulk_build_matches_scalar_per_vertex(self, mini_city, mini_processor):
        bulk = VertexRkNNTIndex(mini_city.network, mini_processor, k=K)
        bulk.build(backend="auto")

        scalar = VertexRkNNTIndex(mini_city.network, mini_processor, k=K)
        for vertex in mini_city.network.vertices():
            # Independent scalar engine, bypassing every shared cache.
            engine = FilterRefineEngine(
                mini_processor.route_index,
                mini_processor.transition_index,
                K,
                use_voronoi=True,
            )
            confirmed = engine.run([tuple(mini_city.network.position(vertex))])
            expected = frozenset(
                (transition_id, endpoint)
                for transition_id, endpoints in confirmed.items()
                for endpoint in endpoints
            )
            assert bulk.vertex_endpoints(vertex) == expected


class TestDivideConquerStats:
    def test_subquery_stats_sum_into_parent(self, mini_processor, mini_workload):
        """Satellite fix: DC stats must be the sum over all sub-queries,
        not the counters of the last one."""
        query = mini_workload.random_query_route(length=5, interval=0.8)
        result = mini_processor.query(query, K, method=DIVIDE_CONQUER)

        totals = {
            "route_nodes_visited": 0,
            "transition_nodes_visited": 0,
            "filter_points": 0,
            "nodes_pruned": 0,
            "candidates": 0,
            "confirmed_points": 0,
        }
        for point in query:
            engine = FilterRefineEngine(
                mini_processor.route_index,
                mini_processor.transition_index,
                K,
                use_voronoi=True,
            )
            engine.run([point])
            for field in totals:
                totals[field] += getattr(engine.stats, field)

        stats = result.stats
        assert stats.subqueries == len(query)
        for field, expected in totals.items():
            assert getattr(stats, field) == expected, field
        # Aggregated timings cover every sub-query, so they cannot be
        # smaller than any single phase observation would allow.
        assert stats.filtering_seconds > 0.0
        assert stats.verification_seconds >= 0.0


class TestInvalidationUnderChurn:
    """Warm caches must never outlive the data they answered.

    An interleaved churn script — transition inserts, deletes, a route
    added and removed — runs against a processor whose caches were warmed
    once and never cleared: after every mutation the batch answers must
    match the brute-force oracle recomputed from the mutated datasets,
    serially and through fork and spawn worker pools (which see the churn
    as delta syncs and route-churn reseeds)."""

    def _queries(self, city):
        return QueryWorkload(city, seed=17).query_routes(
            6, length=3, interval=0.7
        )

    def _run_script(self, processor, check):
        """Mutate, then verify, six times: insert/insert/delete transitions
        interleaved with a route appearing and disappearing."""
        first = processor.transitions.next_id()
        processor.add_transition(Transition(first, (2.1, 2.1), (2.4, 2.6)))
        check("insert first transition")
        second = processor.transitions.next_id()
        processor.add_transition(Transition(second, (3.1, 2.2), (2.6, 2.9)))
        check("insert second transition")
        processor.remove_transition(first)
        check("delete first transition")
        route = Route(
            processor.routes.next_id(),
            [(2.2, 2.1), (2.6, 2.4), (3.0, 2.8)],
        )
        processor.add_route(route)
        check("add route")
        processor.remove_route(route.route_id)
        check("remove route")
        processor.remove_transition(second)
        check("delete second transition")

    @staticmethod
    def _assert_matches_oracle(processor, queries, results, label):
        for index, (result, query) in enumerate(zip(results, queries)):
            oracle = rknnt_bruteforce(
                processor.routes, processor.transitions, query, K
            )
            assert result.confirmed_endpoints == oracle.confirmed_endpoints, (
                f"{label}: stale answer at query {index}"
            )
            assert result.transition_ids == oracle.transition_ids, (
                f"{label}: stale transitions at query {index}"
            )

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_serial_answers_track_churn(self, method, backend):
        city, transitions = make_city("mini")
        processor = RkNNTProcessor(city.routes, transitions)
        queries = self._queries(city)
        # Warm every cache once; from here on each mutation must
        # invalidate on its own — the caches are never cleared again.
        processor.query_batch(queries, K, method=method, backend=backend)

        def check(label):
            results = processor.query_batch(
                queries, K, method=method, backend=backend
            )
            self._assert_matches_oracle(processor, queries, results, label)

        self._run_script(processor, check)

    @pytest.mark.parametrize("method", [VORONOI, DIVIDE_CONQUER])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pooled_answers_track_churn(self, start_method, method):
        import multiprocessing

        from repro.engine.parallel import ShardedExecutor

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        city, transitions = make_city("mini")
        processor = RkNNTProcessor(city.routes, transitions)
        queries = self._queries(city)
        jobs = [(tuple(map(tuple, q)), frozenset()) for q in queries]
        plan = QueryPlan.for_method(method, share_subquery_cache=True)
        with ShardedExecutor(
            processor.engine_context, workers=2, start_method=start_method
        ) as pool:
            pool.run(jobs, K, plan)  # warm the workers' caches

            def check(label):
                results = pool.run(jobs, K, plan)
                self._assert_matches_oracle(processor, queries, results, label)

            self._run_script(processor, check)
