"""In-memory spans around the public calls into each becmirror layer.

The tracer replaces a public function by a timing wrapper in every loaded
``becmirror`` module that bound it, so calls made through any module's
globals (``cli`` calling ``sweep``, ``sweep`` calling ``params``, ...) are
recorded.  Nothing inside the package is edited; uninstalling restores the
original objects.  A function that no longer exists is reported as absent
instead of failing, so the benchmark keeps running when a layer is
reorganised.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from typing import Callable


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    thread: int
    cpu: float  # CPU seconds the calling thread spent inside the span

    def as_dict(self) -> dict:
        return asdict(self)


def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if min(b, end) > max(a, start)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """Span id -> (wall self time, CPU self time).

    Wall self time is the duration minus the part of it covered by child
    spans; children running concurrently on pool threads overlap each other,
    so only the union of their intervals is subtracted.  CPU self time is the
    span's thread CPU time minus that of its children on the same thread;
    the gap between the two is time the call waited (for the interpreter
    lock, or for a pool).
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        kids = children.get(span.id, ())
        wall = (span.end - span.start) - covered_length(
            span.start, span.end, [(k.start, k.end) for k in kids]
        )
        cpu = span.cpu - sum(k.cpu for k in kids if k.thread == span.thread)
        result[span.id] = (wall, cpu)
    return result


class Tracer:
    """Records a span per wrapped call, plus counts and observed values.

    A call on a thread with no open span (a sweep pool worker) takes the
    innermost open span of the installing thread as its parent, which is the
    call that is waiting on the pool.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.values: dict[str, list[float]] = defaultdict(list)
        self.run = 0
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._owner = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def observe(self, key: str, value: float) -> None:
        with self._lock:
            self.values[key].append(value)

    def wrap(self, name: str, fn: Callable, on_return: Callable | None = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._owner_stack:
                parent = tracer._owner_stack[-1]
            else:
                parent = None
            span_id = next(tracer._ids)
            stack.append(span_id)
            cpu_start = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu_start
                stack.pop()
                tracer.spans.append(Span(span_id, name, start, end, parent, tracer.run,
                                         threading.get_ident(), cpu))
            if on_return is not None:
                try:
                    on_return(tracer, args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # The call's signature or result changed; keep the run going.
                    tracer.count(f"{name}.hook_error")
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str, targets: dict[str, Callable | None]) -> None:
        """Wrap ``targets`` ("module.function" -> on_return hook or None)."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for target, hook in targets.items():
            module_name, _, func_name = target.rpartition(".")
            home = sys.modules.get(f"{package}.{module_name}")
            original = getattr(home, func_name, None) if home is not None else None
            if not callable(original):
                if target not in self.absent:
                    self.absent.append(target)
                continue
            wrapper = self.wrap(target, original, hook)
            for mod in modules:
                if getattr(mod, func_name, None) is original:
                    self._patches.append((mod, func_name, original))
                    setattr(mod, func_name, wrapper)

    def uninstall(self) -> None:
        for mod, func_name, original in reversed(self._patches):
            setattr(mod, func_name, original)
        self._patches.clear()
