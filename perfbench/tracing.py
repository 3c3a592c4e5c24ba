"""In-memory spans recorded around the benchmark's calls into each layer.

A span is [name, start, end, parent, op]: perf_counter times, the index of
the enclosing span (-1 at top level) and the operation it belongs to. The
untraced path uses NULL, whose methods cost one attribute lookup.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0
        self.kept: dict[str, list] = {}   # span name -> results of kept calls

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    @contextlib.contextmanager
    def patched(self, targets):
        """Record a span around every call of ``module.attr`` for each
        (module, attr, span name, keep) in ``targets`` while the block runs;
        with ``keep`` the call's results are kept in ``kept[span name]``.
        This reaches calls made inside the program, e.g. run() calling
        step()."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
        for mod, attr, name, keep in targets:
            setattr(mod, attr, self._wrap(getattr(mod, attr), name, keep))
        try:
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def _wrap(self, fn, name, keep):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if keep:
                self.kept.setdefault(name, []).append(result)
            return result
        return traced

    def duration(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def children(self, idx: int) -> list[int]:
        return [i for i in range(idx + 1, len(self.spans)) if self.spans[i][3] == idx]

    def find(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


class _NullTracer:
    op = 0

    def span(self, name: str):
        return contextlib.nullcontext()

    def patched(self, targets):
        return contextlib.nullcontext()


NULL = _NullTracer()
