"""In-memory spans around the benchmark's calls into reebcone.

A span records a name, start, end, the span that contains it and the op it
belongs to.  Spans stay in memory and are written out once, when the run
ends.  Spans are recorded from the benchmark's own files, around each call
an op makes into a public function of a ``reebcone`` module (and around
``cli.run`` in the set-up of cli-specs); spans inside the library are a
later change.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Collects spans; when disabled, ``call`` adds one branch and nothing else."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op = None
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``, inside a span called ``name`` when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
            "name": name,
            "start": perf_counter(),
            "end": None,
            "error": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def self_times(self) -> dict[int, float]:
        """Seconds of each span not covered by its child spans.

        Children of one span run one after another, so the covered part of
        the parent's interval is the sum of the children's durations.
        """
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path, stamp: dict) -> None:
        """Write the stamp, then one JSON line per span, times in seconds from the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"stamp": stamp}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(dict(s, start=s["start"] - t0, end=s["end"] - t0)) + "\n")
