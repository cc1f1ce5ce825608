"""In-memory spans recorded around calls into driftguard's modules.

A span records its name, start, end, parent span and operation id.  The
benchmark opens spans only in its own code, around the calls it makes into
each layer; nothing inside the package is instrumented.  Spans stay in
memory until ``write`` is called at the end of a run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = None  # id of the operation that new spans belong to
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict:
        """{op: {name: seconds}}: span time minus the time its children cover.

        Spans are opened by one thread and children nest strictly inside
        their parent, so the covered time is the sum of child durations.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            out[s["op"]][s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
        return out

    def write(self, path, header: dict) -> None:
        """One JSON line for ``header``, then one per span, in start order."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
