"""The statistics of the noise protocol: best-of-reps and percentiles."""

from __future__ import annotations

import math
from typing import List, Sequence

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def best_vector(reps: Sequence[Sequence[float]]) -> List[float]:
    """Per timed call, the fastest latency any rep measured for it.

    Every rep replays the same op list, so ``reps[r][i]`` is the same
    call each time; a neighbour that slows one rep for seconds leaves
    the minimum untouched unless it hits the same call in every rep.
    """
    if not reps:
        raise ValueError("no reps to take the best of")
    length = len(reps[0])
    if any(len(rep) != length for rep in reps):
        raise ValueError(
            f"reps disagree on the number of timed calls: "
            f"{[len(rep) for rep in reps]}"
        )
    return [min(column) for column in zip(*reps)]


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (``0 < q <= 100``).

    Raises ``ValueError`` for a tail percentile with fewer than
    :data:`MIN_BEYOND` samples beyond it — p99 needs 1,000 samples.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    if q > 50.0 and len(ordered) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has only "
            f"{len(ordered) - rank} beyond it, need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def trimmed_ops_per_second(samples: Sequence[float], keep: float = 0.9) -> float:
    """Ops per second over the fastest ``keep`` share of the samples.

    About 1% of updates split or reinsert a node and cost 20-100 times
    the median; they carry a quarter of a rep's time, and their number
    in 1,000 updates is 6-20 depending on the seed.  The plain mean
    throughput therefore moves 18-22% from seed to seed, which no
    regression bound survives; over the fastest 90% it moves 2-8%.
    """
    ordered = sorted(samples)
    kept = ordered[:max(1, math.ceil(keep * len(ordered)))]
    return len(kept) / sum(kept)
