"""Spans around calls into covertmac's modules, recorded from outside the
package.

The modules bind each other's functions with ``from .x import f``, so a
wrapper only takes effect where callers look the name up.  ``install``
replaces the original function object under every covertmac module attribute
that refers to it (``covertmac.region.divergence_profile``,
``covertmac.simulator.divergence_profile``, ...).  Spans are kept in memory
with a parent id; ``dump`` writes them out at the end of the run.
"""
from __future__ import annotations

import functools
import json
import sys
import time

NAME, PARENT, START, END, EXTRA = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.enabled = False

    def wrap(self, name, fn, on_exit=None):
        """``on_exit(args, result)`` returns a dict of span counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if on_exit is not None:
                span[EXTRA] = on_exit(args, result)
            return result
        return traced

    def install(self, targets) -> None:
        """targets: iterable of (module, attribute, span name, on_exit)."""
        for module, attr, name, on_exit in targets:
            orig = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, orig, on_exit)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "covertmac" and not mod_name.startswith("covertmac."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, counters."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = s[END] - s[START]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child_time[i]
            for k, v in (s[EXTRA] or {}).items():
                row[k] = row.get(k, 0) + v
        return out

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "parent", "start", "end", "extra"],
                       "spans": self.spans}, f)
