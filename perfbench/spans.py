"""In-memory spans and counters around calls into the package's layers.

The tracer wraps public functions by rebinding every module attribute that
holds the original function object, so calls made through any import of the
function are seen.  A span is ``[name, start, end, parent_index]``; spans
stay in memory until the job summarises them.  A layer's self time is its
span duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.open: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- instrumentation ---------------------------------------------------

    def spanned(self, name: str, fn: Callable) -> Callable:
        """fn wrapped so each call records one span named ``name``."""
        spans, stack, open_ = self.spans, self._stack, self.open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            open_[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                open_[name] -= 1
                stack.pop()
                record[2] = clock()

        return wrapper

    def counted(self, counter: str, fn: Callable, inside: str) -> Callable:
        """fn wrapped to bump ``counter`` on calls made while span ``inside`` is open."""
        counts, open_ = self.counts, self.open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_[inside]:
                counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def rebind(self, modules: Iterable, original, replacement) -> int:
        """Point every attribute of ``modules`` that is ``original`` at ``replacement``."""
        bound = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)
                    bound += 1
        return bound

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- summary -------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, and outermost seconds.

        ``outer_s`` sums only spans with no ancestor of the same name, so a
        recursive or nested layer is not counted twice.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "outer_s": 0.0}
        )
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                row["outer_s"] += end - start
        return dict(out)
