"""Deterministic inputs: the op stream, the steps of a rep, and the model.

Everything here is a pure function of ``--seed``; the program under test
only ever sees the generated operations.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.geometry.intersection import region_matches_point
from repro.geometry.kinematics import MovingPoint
from repro.geometry.knn import brute_force_knn
from repro.workloads.base import InsertOp, KnnOp, QueryOp, UpdateOp
from repro.workloads.expiration import FixedPeriod, estimate_live_fraction
from repro.workloads.network import (
    SPEED_GROUPS,
    NetworkParams,
    RouteNetwork,
    mean_reported_speed,
    network_journey_factory,
)
from repro.workloads.queries import QueryGenerator, QueryProfile
from repro.workloads.stream import StreamParams, build_stream

try:
    import numpy as np
except ImportError:  # the scalar scan below needs no numpy
    np = None

LeafEntry = Tuple[MovingPoint, int]

#: The paper's 1000 km square, expressed in megametres.  Pages store
#: binary32 coordinates; at 1000 units their rounding (6e-5) exceeds the
#: tree's 1e-6 delete tolerance and a reopened tree misses ~3.5 live
#: deletes per 1,000 updates (see README, "Units").  At unit scale the
#: rounding is 6e-8 and no operation fails.
SPACE = 1.0
SPEEDS = tuple(v * SPACE / 1000.0 for v in SPEED_GROUPS)
UPDATE_INTERVAL = 60.0

#: The road map — twenty destinations, 380 routes — is part of the
#: benchmark; ``--seed`` draws the traffic on it (who drives which route
#: when) and the queries.  With a map per seed, query cost and page I/O
#: moved 14-17% from seed to seed; on one map, 5-7%.
MAP_SEED = 2002

#: Lower estimate of the time between one object's reports (measured
#: ~38: reports cluster in the acceleration and deceleration stretches),
#: used to size the generated stream so that enough of it follows the cut.
_REPORT_GAP = 33.0

#: Expiration instants this close to the comparison time are ambiguous
#: after the codec's binary32 round-up, as are positions this far apart.
_T_EXP_BAND = 1e-3
_POS_TOL = 1e-5 * SPACE


class Step(NamedTuple):
    """One call the harness makes; ``samples`` is the ops it carries."""

    kind: str
    time: float
    payload: object
    timed: bool = True
    samples: int = 1


@dataclass(frozen=True)
class StreamSpec:
    """The Section 5.1 knobs one workload fixes."""

    expt: float = 120.0
    window: float = 30.0
    new_objects: float = 0.0
    queries_per_100: int = 1
    #: Generator target per wanted live entry (expiring streams simulate
    #: more objects than stay live).
    population_scale: float = 1.0


@dataclass
class Stream:
    """A population cut from the stream at steady state, and what follows."""

    entries: List[LeafEntry]
    t_cut: float
    tail: list


def generate_stream(
    seed: int, population: int, spec: StreamSpec, insertions: int
) -> Stream:
    """Generate the network workload and cut it at steady state.

    The cut is the first operation at or after ``UI + ExpT``: the ramp
    is over and a full expiration period has passed.  ``insertions``
    insertions must follow the cut.
    """
    policy = FixedPeriod(spec.expt)
    t_cut = UPDATE_INTERVAL + spec.expt
    target = max(1, int(population * spec.population_scale))
    params = NetworkParams(
        target_population=target, update_interval=UPDATE_INTERVAL,
        space=SPACE, speed_groups=SPEEDS,
    )
    simulated = math.ceil(target / estimate_live_fraction(
        policy, UPDATE_INTERVAL, mean_reported_speed(params)
    ))
    journeys = network_journey_factory(
        params, RouteNetwork(params, random.Random(MAP_SEED))
    )
    total = int(simulated * t_cut / _REPORT_GAP) + insertions
    while True:
        ops = build_stream(
            name="network",
            params=StreamParams(
                population=simulated,
                insertions=total,
                update_interval=UPDATE_INTERVAL,
                querying_window=spec.window,
                new_object_fraction=spec.new_objects,
                queries_per_insertions=100 // spec.queries_per_100,
                seed=seed,
            ),
            journey_factory=journeys,
            policy=policy,
            query_profile=QueryProfile(space=SPACE),
        ).ops
        latest: Dict[int, MovingPoint] = {}
        cut = 0
        while cut < len(ops) and ops[cut].time < t_cut:
            op = ops[cut]
            if isinstance(op, InsertOp):
                latest[op.oid] = op.point
            elif isinstance(op, UpdateOp):
                latest[op.oid] = op.new_point
            cut += 1
        tail = ops[cut:]
        if count_insertions(tail) >= insertions:
            break
        # Replacement objects (NewOb) add insertions the estimate does
        # not see; grow the stream until enough of it follows the cut.
        total += total // 3
    entries = [
        (point, oid) for oid, point in latest.items()
        if not point.t_exp < t_cut
    ]
    return Stream(entries, t_cut, tail)


def count_insertions(ops: Iterable) -> int:
    """Insertions in the paper's sense: inserts plus update-inserts."""
    return sum(1 for op in ops if isinstance(op, (InsertOp, UpdateOp)))


def take(tail: Sequence, start: int, insertions: int) -> Tuple[list, int]:
    """The ops from ``start`` holding exactly ``insertions`` insertions."""
    end = start
    seen = 0
    while seen < insertions:
        if isinstance(tail[end], (InsertOp, UpdateOp)):
            seen += 1
        end += 1
    return list(tail[start:end]), end


def step_writes(step: Step) -> list:
    """The insert and update operations a step carries."""
    if step.kind == "write":
        return [step.payload]
    if step.kind == "apply":
        return [op for op in step.payload if not isinstance(op, QueryOp)]
    return []


def stream_steps(ops: Iterable, timed: bool) -> List[Step]:
    """One step per stream operation (writes and one-shot queries)."""
    return [
        Step("query" if isinstance(op, QueryOp) else "write",
             op.time, op, timed)
        for op in ops
    ]


class QueryMaker:
    """The paper's 60/20/20 query mix plus kNN probes, seeded."""

    def __init__(self, seed: int, window: float):
        self._rng = random.Random(seed)
        self._generator = QueryGenerator(QueryProfile(space=SPACE), self._rng)
        self._window = window

    def ranges(self, now: float, points: Sequence[MovingPoint], count: int):
        """``count`` range queries; moving ones follow a tracked point."""
        return [
            self._generator.generate(
                now, self._window,
                [self._rng.choice(points) for _ in range(8)],
            )
            for _ in range(count)
        ]

    def knn(self, now: float, k: int = 10) -> KnnOp:
        """One kNN probe at a uniform location within the window."""
        rng = self._rng
        return KnnOp(
            now,
            (rng.uniform(0.0, SPACE), rng.uniform(0.0, SPACE)),
            now + rng.uniform(0.0, self._window),
            k,
        )


def digest(obj) -> str:
    """A stable hash of a step list or an answer list."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()


class Model:
    """The brute-force oracle: the latest acknowledged report per object.

    ``journal`` remembers the last few writes with the store's commit
    mark they produced, so a lagging replica's answer can be checked
    against the state it had actually applied.
    """

    def __init__(self, entries: Iterable[LeafEntry] = ()):
        self.points: Dict[int, MovingPoint] = {}
        for point, oid in entries:
            held = self.points.get(oid)
            if held is None or held.t_exp < point.t_exp:
                self.points[oid] = point
        self.journal: deque = deque(maxlen=256)
        self._packed = None

    def write(self, op, mark: int = 0) -> None:
        """Record an acknowledged insert or update."""
        point = op.point if isinstance(op, InsertOp) else op.new_point
        self.journal.append((mark, op.oid, self.points.get(op.oid)))
        self.points[op.oid] = point
        self._packed = None

    def rewound(self, mark: int) -> "Model":
        """The model as of commit ``mark`` (within the journal's reach)."""
        past = Model()
        past.points = dict(self.points)
        for written, oid, before in reversed(self.journal):
            if written <= mark:
                break
            if before is None:
                del past.points[oid]
            else:
                past.points[oid] = before
        return past

    def entries(self) -> List[LeafEntry]:
        """``(point, oid)`` pairs, the shape the oracles take."""
        return [(point, oid) for oid, point in self.points.items()]

    def _candidates(self, region) -> Iterable[Tuple[int, MovingPoint]]:
        """Objects whose trajectory box meets the region's swept box.

        A conservative prefilter for the exact scalar predicate: were
        it wrong it would drop true matches, and the comparison with
        the index's answer would fail loudly.
        """
        if np is None:
            return self.points.items()
        if self._packed is None:
            items = list(self.points.items())
            points = [point for _, point in items]
            self._packed = (
                items,
                np.array([p.pos for p in points]),
                np.array([p.vel for p in points]),
                np.array([p.t_ref for p in points]),
            )
        items, pos, vel, t_ref = self._packed
        at1 = pos + vel * (region.t1 - t_ref)[:, None]
        at2 = pos + vel * (region.t2 - t_ref)[:, None]
        dims = range(region.dims)
        lo = [min(region.lower_at(d, region.t1), region.lower_at(d, region.t2))
              for d in dims]
        hi = [max(region.upper_at(d, region.t1), region.upper_at(d, region.t2))
              for d in dims]
        keep = np.all(
            (np.minimum(at1, at2) <= np.array(hi) + _POS_TOL)
            & (np.maximum(at1, at2) >= np.array(lo) - _POS_TOL),
            axis=1,
        )
        return (items[i] for i in np.flatnonzero(keep))

    def range(self, query) -> List[int]:
        """Sorted oids matching ``query`` by the scalar predicate."""
        region = query.region()
        return sorted(
            oid for oid, point in self._candidates(region)
            if region_matches_point(region, point)
        )

    def knn(self, op: KnnOp) -> List[int]:
        """The kNN oracle's answer, nearest first."""
        return [
            oid for _, oid in brute_force_knn(self.entries(), op.x, op.t, op.k)
        ]

    def wrong(self, query, answer: Sequence[int]) -> bool:
        """Whether ``answer`` differs from the oracle's beyond rounding.

        Pages hold binary32 fields, so an object within a rounding
        error of the query's boundary (or of expiring at its start) may
        legitimately fall on either side once it has been through a
        page; every other difference is a wrong answer.
        """
        expected, got = self.range(query), sorted(answer)
        if got == expected:
            return False
        if len(set(got)) != len(got):
            return True
        region = query.region()
        pad = (_POS_TOL,) * region.dims
        grown = replace(
            region,
            lo=tuple(a - b for a, b in zip(region.lo, pad)),
            hi=tuple(a + b for a, b in zip(region.hi, pad)),
        )
        shrunk = replace(
            region,
            lo=tuple(a + b for a, b in zip(region.lo, pad)),
            hi=tuple(a - b for a, b in zip(region.hi, pad)),
        )
        for oid in set(got) ^ set(expected):
            point = self.points.get(oid)
            if point is None:
                return True
            on_edge = (
                region_matches_point(grown, point)
                != region_matches_point(shrunk, point)
                or abs(point.t_exp - region.t1) < _T_EXP_BAND
            )
            if not on_edge:
                return True
        return False


def model_after(entries: Iterable[LeafEntry], steps: Iterable[Step]) -> Model:
    """The model once every write of ``steps`` has been acknowledged."""
    model = Model(entries)
    for step in steps:
        for op in step_writes(step):
            model.write(op)
    return model


def entries_mismatch(
    got: Iterable[LeafEntry], model: Model, now: float
) -> int:
    """How many live objects differ between stored entries and the model.

    Stored entries went through the binary32 page codec, so trajectories
    are compared at ``now`` within a tolerance, and an entry expiring
    within a hair of ``now`` may be live on one side only.
    """
    def live(entries):
        out: Dict[int, List[MovingPoint]] = {}
        for point, oid in entries:
            if not point.t_exp < now:
                out.setdefault(oid, []).append(point)
        return out

    stored, wanted = live(got), live(model.entries())
    wrong = 0
    for oid in stored.keys() | wanted.keys():
        have, want = stored.get(oid, []), wanted.get(oid, [])
        if len(have) == 1 and len(want) == 1:
            a, b = have[0].position_at(now), want[0].position_at(now)
            if (
                max(abs(x - y) for x, y in zip(a, b)) > _POS_TOL
                or abs(have[0].t_exp - want[0].t_exp) > _T_EXP_BAND
            ):
                wrong += 1
        elif any(p.t_exp - now > _T_EXP_BAND for p in have + want):
            wrong += 1
    return wrong
