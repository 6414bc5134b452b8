"""Outside-in call tracer.

A `Tracer` replaces named callables (module functions or class attributes)
with wrappers that record one span per call: name, start, end and parent.
Spans live in compact in-memory arrays; per-name call counts, inclusive
time and self time (duration minus the time covered by child spans) are
accumulated as spans close. Leaving the `with` block puts every original
back, also when the traced code raised.

Wrappers never touch arguments or results, so a traced run computes
bit-identical numbers to an untraced one. The tracer is single-threaded,
like the code it traces.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One name to wrap where callers look it up.

    `span` names the span; `enter(tracer, args)` may instead return a name
    chosen per call (it may also bump counters). `leave(tracer, args,
    result)` runs after a normal return. `span=None` with no `enter` makes
    a count-only target: calls are counted, no span is recorded.
    """

    owner: object  # module or class
    attr: str
    span: Optional[str] = None
    enter: Optional[Callable] = None
    leave: Optional[Callable] = None

    @property
    def key(self) -> str:
        owner = self.owner
        if isinstance(owner, type):
            return f"{owner.__module__}.{owner.__qualname__}.{self.attr}"
        return f"{owner.__name__}.{self.attr}"


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        keys = [t.key for t in self.targets]
        if len(set(keys)) != len(keys):
            raise ValueError("a name is listed twice")
        self.entered = Counter()  # target key -> calls
        self.counters = Counter()  # free-form counts set by hooks
        self.calls = Counter()  # span name -> closed spans
        self.total_s = defaultdict(float)  # span name -> inclusive seconds
        self.self_s = defaultdict(float)  # span name -> self seconds
        self.active = Counter()  # span name -> open spans
        self.state = {}  # scratch space for hooks
        self.names: list = []
        self._name_id: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []  # open frames: [span index, name, start, child seconds]
        self._saved: list = []  # (target, original), in install order
        self._installed = False

    # -- install / restore ----------------------------------------------

    def __enter__(self) -> "Tracer":
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self._saved = []
        self._installed = True
        try:
            for target in self.targets:
                original = target.owner.__dict__[target.attr]
                self._saved.append((target, original))
                setattr(target.owner, target.attr, self._wrap(original, target))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, exc_type, exc, tb):
        self._restore()
        return False

    def _restore(self):
        for target, original in reversed(self._saved):
            setattr(target.owner, target.attr, original)
        self._installed = False

    def leftovers(self) -> list:
        """Keys of wrapped names that do not hold their original value."""
        return [t.key for t, orig in self._saved if t.owner.__dict__[t.attr] is not orig]

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, target: Target):
        key, span, enter, leave = target.key, target.span, target.enter, target.leave
        entered = self.entered

        if span is None and enter is None:

            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                entered[key] += 1
                return fn(*args, **kwargs)

            return count_only

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered[key] += 1
            name = enter(self, args) if enter is not None else span
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if leave is not None:
                leave(self, args, result)
            return result

        return wrapper

    def open(self, name: str) -> None:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self.active[name] += 1
        start = perf_counter()
        self.span_start.append(start)
        self._stack.append([idx, name, start, 0.0])

    def close(self) -> None:
        end = perf_counter()
        idx, name, start, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        self.active[name] -= 1
        if self._stack:
            self._stack[-1][3] += dur

    def spans(self, name: str) -> list:
        """Indices of the recorded spans called `name`, in start order."""
        nid = self._name_id.get(name)
        return [] if nid is None else [i for i, n in enumerate(self.span_name) if n == nid]
