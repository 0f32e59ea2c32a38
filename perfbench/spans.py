"""Timing wrappers for the package's public functions.

A :class:`Tracer` replaces named functions on their modules with wrappers
that open a span around each call.  The wrapper sits on the module, so calls
made between the package's own modules (``approx.verify`` calling
``groups.mul`` through ``groups.mul``) are caught too.  Spans are aggregated
in memory as they close -- per name: calls, busy time (time during which at
least one span of that name is open, so recursion is not counted twice) and
self time (duration minus the time of directly nested spans) -- and nothing
is written until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from typing import Any, Callable, Optional

# hook(counts, args, result) adds counters derived from one call
Hook = Callable[[dict, tuple, Any], None]


class Tracer:
    def __init__(self, targets: list[tuple[Any, str, str, Optional[Hook]]]):
        """``targets``: (module, attribute, span name, hook) per function."""
        self.targets = targets
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._child: list[float] = []  # time of nested spans, per open span
        self._depth: dict[str, int] = defaultdict(int)

    def _wrap(self, name: str, fn: Callable, hook: Optional[Hook]) -> Callable:
        child, depth = self._child, self._depth

        @wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            depth[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                nested = child.pop()
                if child:
                    child[-1] += dur
                depth[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += dur - nested
                if not depth[name]:
                    self.busy[name] += dur
            if hook is not None:
                hook(self.counts, args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        originals = []
        try:
            for module, attr, name, hook in self.targets:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, hook))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)
