"""Seeded inputs of the benchmark: datasets, queries, update streams, samples.

Everything a run feeds the program is derived from the run's ``--seed``
through :func:`sub_seed`, one independent stream per generator, so the
same seed always yields the same inputs and no generator's draws shift
another's.  Generation never runs inside a timed region.

The route network of each workload is the ``la`` preset's own (its seed
is part of the preset), scaled; the seed drives the transition population,
the query routes, the update stream, the arrival schedule and the oracle
sample.  See ``README.md`` for why the route network is held fixed.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, Iterator, List, Sequence, Tuple

from repro import RouteDataset, Transition, TransitionDataset
from repro.data.checkins import TransitionGenerator
from repro.data.synthetic import CityGenerator
from repro.data.workloads import CITY_PRESETS

Point = Tuple[float, float]
Query = List[Point]

#: Seed kept out of every tuning run; use it to confirm a claimed change
#: on inputs the change was not developed against.
HELDOUT_SEED = 7919

#: Query-route shape shared by every workload (the paper's synthetic
#: query generator: |Q| points, fixed interval, heading change <= 90°).
QUERY_LENGTH = 5
QUERY_INTERVAL = 1.5
QUERY_MAX_TURN_DEGREES = 90.0
K = 10


def sub_seed(seed: int, stream: str) -> int:
    """An independent 63-bit seed for one named generator of a run."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def make_dataset(
    preset: str, scale: int, seed: int
) -> Tuple[RouteDataset, TransitionDataset]:
    """The preset's route network ×``scale`` and a seeded transition set."""
    config = CITY_PRESETS[preset]
    city = CityGenerator(
        width=config.width,
        height=config.height,
        grid_spacing=config.grid_spacing,
        seed=config.seed,
    ).generate(config.route_count * scale, name=config.name)
    transitions = TransitionGenerator(
        city.routes, seed=sub_seed(seed, "transitions")
    ).generate(config.transition_count * scale)
    return city.routes, transitions


def fresh_transitions(
    routes: RouteDataset, seed: int, start_id: int
) -> Iterator[Transition]:
    """Endless stream of new transitions with ids from ``start_id``.

    Drawn from the same distribution as the base set but from a seed
    stream of its own, so inserts are never copies of base rows.
    """
    generator = TransitionGenerator(routes, seed=sub_seed(seed, "inserts"))
    next_id = start_id
    while True:
        yield from generator.iter_transitions(256, start_id=next_id)
        next_id += 256


def _hilbert_index(x: int, y: int, order: int) -> int:
    """Position of grid cell ``(x, y)`` along a Hilbert curve of side 2**order."""
    index = 0
    side = 1 << (order - 1)
    while side:
        rx = 1 if x & side else 0
        ry = 1 if y & side else 0
        index += side * side * ((3 * rx) ^ ry)
        if ry == 0:
            if rx == 1:
                x = side - 1 - x
                y = side - 1 - y
            x, y = y, x
        side >>= 1
    return index


class QueryStream:
    """Stratified synthetic query routes, one stratum per query of a round.

    Start points are drawn from the route points exactly like
    :meth:`repro.data.workloads.QueryWorkload.random_query_route` (every
    route point, shared stops counted once per route), but stratified:
    the points are ordered along a Hilbert curve and cut into ``round_size``
    equal blocks, and each round takes one uniform draw per block.  Each
    round is thus a spatially balanced sample, which keeps the cost of a
    round of queries from swinging with where a few starts happen to land.
    """

    def __init__(self, routes: RouteDataset, seed: int, round_size: int):
        points = [(p.x, p.y) for route in routes for p in route.points]
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        min_x, min_y = min(xs), min(ys)
        span = max(max(xs) - min_x, max(ys) - min_y) or 1.0
        cells = (1 << 10) - 1

        def key(point: Point) -> int:
            return _hilbert_index(
                int((point[0] - min_x) / span * cells),
                int((point[1] - min_y) / span * cells),
                10,
            )

        self._points = sorted(points, key=key)
        self._round_size = round_size
        self._rng = random.Random(seed)

    def _extend(self, start: Point) -> Query:
        rng = self._rng
        points = [start]
        heading = rng.uniform(0.0, 2.0 * math.pi)
        half_turn = math.radians(QUERY_MAX_TURN_DEGREES) / 2.0
        for _ in range(QUERY_LENGTH - 1):
            heading += rng.uniform(-half_turn, half_turn)
            x, y = points[-1]
            points.append(
                (
                    x + QUERY_INTERVAL * math.cos(heading),
                    y + QUERY_INTERVAL * math.sin(heading),
                )
            )
        return points

    def next_round(self) -> List[Query]:
        total, size = len(self._points), self._round_size
        starts = [
            self._points[self._rng.randrange(total * i // size, total * (i + 1) // size)]
            for i in range(size)
        ]
        self._rng.shuffle(starts)
        return [self._extend(start) for start in starts]


def poisson_schedule(rate: float, duration: float, seed: int) -> List[float]:
    """Arrival offsets (seconds from the step start) of a Poisson process."""
    rng = random.Random(seed)
    offsets: List[float] = []
    now = rng.expovariate(rate)
    while now < duration:
        offsets.append(now)
        now += rng.expovariate(rate)
    return offsets


def oracle_sample(
    transitions: Dict[int, Transition],
    query: Sequence[Point],
    answer: Sequence[int],
    seed: int,
    size: int,
) -> List[Transition]:
    """A seeded sample of live transitions to check one answer against.

    A third from the answer (false positives), a third nearest the query
    out of a random pool 40 times that size (where wrongly pruned ones
    hide) and a third uniform.  The oracle's verdict on an endpoint depends only on
    the routes and the query, so checking a sample is exact.
    """
    rng = random.Random(seed)
    third = max(1, size // 3)
    live = sorted(transitions)
    chosen = set(rng.sample(sorted(answer), min(third, len(answer))))

    def distance(transition_id: int) -> float:
        t = transitions[transition_id]
        return min(
            (px - qx) ** 2 + (py - qy) ** 2
            for px, py in (t.origin, t.destination)
            for qx, qy in query
        )

    near_pool = rng.sample(live, min(len(live), 40 * third))
    near_pool.sort(key=distance)
    for transition_id in near_pool:
        if len(chosen) >= 2 * third:
            break
        chosen.add(transition_id)
    for transition_id in rng.sample(live, min(len(live), size)):
        if len(chosen) >= size:
            break
        chosen.add(transition_id)
    return [transitions[i] for i in sorted(chosen)]
