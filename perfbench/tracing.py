"""In-memory spans for traced benchmark runs.

Spans are recorded only from the benchmark's own code: around the calls it
makes into the library, around library functions swapped in at their module
attributes for the length of the traced segment, and around the policy,
verifier and transition objects handed to the executors.  Nothing under
src/ is changed.  Each span is [name, start_ns, end_ns, parent, item] and
stays in memory until the run ends.

Only the main thread records spans.  The Monte-Carlo engine runs its
batches on worker threads; those calls are timed as a whole by the span
around simulate_accuracy.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from time import perf_counter_ns
from types import SimpleNamespace
from typing import Any, Callable, Optional


class NullTracer:
    """Stand-in for untraced runs: the same interface, recording nothing."""

    active = False
    item: Any = None

    def span(self, name: str):
        return contextlib.nullcontext(-1)


class Tracer:
    active = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self.item: Any = None
        self._open: list[int] = []
        self._main = threading.get_ident()
        self._patched: list[tuple[Any, str, Any]] = []

    def start(self, name: str) -> int:
        if threading.get_ident() != self._main:
            return -1
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.item])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        if index >= 0:
            self.spans[index][2] = perf_counter_ns()
            self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.start(name)
        try:
            yield index
        finally:
            self.end(index)

    def wrap(self, name: str, fn: Callable, keep: Optional[Callable] = None) -> Callable:
        """fn recording a span per call; keep(args, kwargs, result) -> attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if keep is not None and index >= 0:
                self.attrs[index] = keep(args, kwargs, result)
            return result

        return traced

    def method(self, name: str, obj: Any, method: str) -> SimpleNamespace:
        """Proxy exposing one traced method of obj (policy, verifier, ...)."""
        return SimpleNamespace(**{method: self.wrap(name, getattr(obj, method))})

    def patch(self, module: Any, attr: str, replacement: Any) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def patch_wrap(self, module: Any, attr: str, name: str, keep=None) -> None:
        self.patch(module, attr, self.wrap(name, getattr(module, attr), keep))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # --- analysis ---------------------------------------------------------

    def indices(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def seconds(self, index: int) -> float:
        span = self.spans[index]
        return (span[2] - span[1]) * 1e-9

    def durations(self, name: str) -> list[float]:
        return [self.seconds(i) for i in self.indices(name)]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_total(self, name: str) -> float:
        """Summed duration of the named spans minus what their children cover.

        Children run on the same thread inside their parent, one after the
        other, so the covered part is the sum of their durations.
        """
        covered: dict[int, float] = {}
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                covered[span[3]] = covered.get(span[3], 0.0) + self.seconds(i)
        return sum(self.seconds(i) - covered.get(i, 0.0) for i in self.indices(name))

    def children_total(self, parent_name: str, child_prefix: str) -> float:
        parents = set(self.indices(parent_name))
        return sum(
            self.seconds(i)
            for i, span in enumerate(self.spans)
            if span[3] in parents and span[0].startswith(child_prefix)
        )

    def count(self, name: str) -> int:
        return len(self.indices(name))
