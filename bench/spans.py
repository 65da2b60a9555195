"""The traced pass's span recorder.

Spans are recorded from the benchmark's own files, around the calls it
makes into each layer's public entry point; no ``src/`` file gains a
span.  They stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence


class Span(NamedTuple):
    """One recorded interval; ``request`` is the op index it belongs to."""

    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    request: int


class Recorder:
    """Nested spans on one thread: ``begin`` pushes, ``end`` pops."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[tuple] = []
        self._begun = 0

    def begin(self, name: str, request: Optional[int] = None) -> None:
        """Open a span under the innermost open one (sharing its request)."""
        parent = self._open[-1][0] if self._open else None
        if request is None:
            request = self._open[-1][4] if self._open else -1
        self._open.append(
            (self._begun, parent, name, perf_counter(), request)
        )
        self._begun += 1

    def end(self) -> None:
        """Close the innermost open span."""
        end = perf_counter()
        sid, parent, name, start, request = self._open.pop()
        self.spans.append(Span(sid, parent, name, start, end, request))

    def durations(self, name: str) -> List[float]:
        """Seconds of every span called ``name``, in completion order."""
        return [s.end - s.start for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Summed seconds of every span called ``name``."""
        return sum(self.durations(name))

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, for offline inspection."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def spanned(recorder: Optional[Recorder], name: str, fn, *args):
    """Call ``fn(*args)``, inside a span when a recorder is given."""
    if recorder is None:
        return fn(*args)
    recorder.begin(name)
    try:
        return fn(*args)
    finally:
        recorder.end()


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Per span id: its duration minus the union of its children.

    Children may overlap each other (they never do on one thread, but
    the arithmetic does not rely on it), so the covered part is the
    union of their intervals clipped to the parent's.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children[span.sid], key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.sid] = (span.end - span.start) - covered
    return result


def self_time_of(spans: Sequence[Span], name: str) -> List[float]:
    """Self seconds of every span called ``name``."""
    own = self_times(spans)
    return [own[s.sid] for s in spans if s.name == name]
