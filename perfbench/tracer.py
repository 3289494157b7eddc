"""An in-memory span recorder that wraps the program's public functions.

The traced run times each call into a layer from outside the program:
:func:`traced` replaces the listed functions and methods, by module
attribute, with wrappers that open a span around the call, and puts
the originals back when the block ends.  A function is replaced under
every ``repro.*`` module attribute that holds it, so ``from x import f``
bindings and aliases are traced too.

Spans keep their parent, so a layer's self time is its duration minus
the time its child spans cover.  Nothing is written while the block
runs; :meth:`SpanRecorder.dump` writes the spans afterwards.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module`` + ``attr`` (``Class.method`` allowed)."""

    layer: str
    module: str
    attr: str
    #: ``on_return(recorder, args, kwargs, result)`` adds counters.
    on_return: Callable[..., None] | None = None


class SpanRecorder:
    """Spans as ``[id, parent, name, thread, start, end, self_s, child_s]`` rows."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list[Any]:
        stack = self._stack()
        with self._lock:
            span_id = len(self.spans)
            # [id, parent, name, thread, start, end, self_s, child_s]
            span = [span_id, stack[-1][0] if stack else None, name,
                    threading.get_ident(), time.perf_counter(), None, None, 0.0]
            self.spans.append(span)
        stack.append(span)
        return span

    def exit(self, span: list[Any]) -> None:
        span[5] = time.perf_counter()
        duration = span[5] - span[4]
        span[6] = duration - span[7]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][7] += duration

    @contextmanager
    def span(self, name: str) -> Iterator[list[Any]]:
        span = self.enter(name)
        try:
            yield span
        finally:
            self.exit(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and inclusive ``total_s``."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        for _id, _parent, name, _thread, start, end, self_s, _child in self.spans:
            if end is None:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["total_s"] += end - start
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines (once the run has ended)."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with gzip.open(path, "wt") as handle:
            for span_id, parent, name, thread, start, end, self_s, _ in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "thread": thread, "start": start - origin,
                    "end": None if end is None else end - origin,
                    "self_s": self_s,
                }) + "\n")


def _wrap(fn: Callable[..., Any], target: Target,
          recorder: SpanRecorder) -> Callable[..., Any]:
    layer, on_return = target.layer, target.on_return

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = recorder.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(span)
        if on_return is not None:
            on_return(recorder, args, kwargs, result)
        return result

    return wrapper


def _repro_modules() -> list[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))]


@contextmanager
def traced(recorder: SpanRecorder, targets: list[Target],
           registries: list[dict[str, Any]] = ()) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore.

    A wrapped function also replaces the original among the values of
    each dict in ``registries`` (a name -> function registry).
    """
    restore: list[Callable[[], None]] = []

    def patch(container: Any, key: str, value: Any) -> None:
        if isinstance(container, dict):
            old = container[key]
            container[key] = value
            restore.append(lambda: container.__setitem__(key, old))
        else:
            # A class keeps the raw descriptor (classmethod) for restoring.
            old = vars(container)[key]
            setattr(container, key, value)
            restore.append(lambda: setattr(container, key, old))

    try:
        modules = _repro_modules()
        for target in targets:
            module = sys.modules[target.module]
            if "." in target.attr:
                class_name, method = target.attr.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    patch(owner, method, classmethod(_wrap(raw.__func__, target, recorder)))
                else:
                    patch(owner, method, _wrap(raw, target, recorder))
                continue
            original = getattr(module, target.attr)
            wrapper = _wrap(original, target, recorder)
            for holder in [*modules, *registries]:
                names = holder if isinstance(holder, dict) else vars(holder)
                for name, value in list(names.items()):
                    if value is original:
                        patch(holder, name, wrapper)
        yield
    finally:
        for undo in reversed(restore):
            undo()
