"""In-memory span recorder for the benchmark's traced runs.

A span is ``(id, name, start, end, parent)``: the benchmark opens one around
each call it makes into a layer of the program, and nested spans name the
span that was open when they began.  The parent travels in a
:class:`contextvars.ContextVar`, so spans opened by concurrent asyncio tasks
(the serve clients) nest under the right parent.  Nothing is written until
:meth:`Tracer.write`; a disabled tracer records nothing.

Self time is a span's duration minus the part of it covered by its
children (their union, so overlapping concurrent children are not counted
twice).
"""

from __future__ import annotations

import contextvars
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Records spans when enabled; costs one branch per span when not."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Optional[dict]]:
        """Record ``name`` around the block; yields the record (or ``None``)."""
        if not self.enabled:
            yield None
            return
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": self._current.get(),
            "start": time.perf_counter(),
            "end": None,
        }
        if attrs:
            record["attrs"] = dict(attrs)
        token = self._current.set(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._current.reset(token)
            self.spans.append(record)

    # -- analysis ------------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        """Durations (seconds) of every span called ``name``, in end order."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: Dict[Optional[int], List[dict]] = defaultdict(list)
        for span in self.spans:
            children[span["parent"]].append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            reach = span["start"]
            for child in sorted(children.get(span["id"], []), key=lambda s: s["start"]):
                lo = max(child["start"], reach)
                hi = min(child["end"], span["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result[span["id"]] = (span["end"] - span["start"]) - covered
        return result

    def self_share(self, name: str) -> List[float]:
        """Self time as a share of duration, for every span called ``name``."""
        own = self.self_times()
        return [
            own[s["id"]] / (s["end"] - s["start"])
            for s in self.spans
            if s["name"] == name and s["end"] > s["start"]
        ]

    def write(self, path: str, meta: Dict[str, object]) -> None:
        """Write every span (with its self time) and ``meta`` as one JSON file."""
        own = self.self_times()
        origin = min((s["start"] for s in self.spans), default=0.0)
        rows = [
            {
                "id": s["id"],
                "name": s["name"],
                "parent": s["parent"],
                "start": s["start"] - origin,
                "end": s["end"] - origin,
                "self": own[s["id"]],
                **({"attrs": s["attrs"]} if "attrs" in s else {}),
            }
            for s in sorted(self.spans, key=lambda s: s["start"])
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "spans": rows}, handle, indent=1)
