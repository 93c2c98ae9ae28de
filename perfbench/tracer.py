"""Per-layer self time, measured from outside the program.

The benchmark never edits the program to trace it.  :func:`install`
replaces public functions and methods of ``repro`` with span wrappers
for the length of a traced run, and :meth:`Installed.remove` puts the
originals back.  A function that other modules imported by name
(``from .codestream import parse_codestream``) is replaced in every
loaded ``repro`` module that binds the same object, so the wrapper sees
every call however it is spelt.

Self time of a layer is the time inside its spans minus the time their
child spans cover.  Generator functions (the simulator's ``transport``,
``invoke`` and ``finish_call``) are timed per resume: each ``send`` into
the generator is one span, so simulated waiting between resumes is not
host time of that layer.

A target that does not exist (a later change deleted it) is listed in
:attr:`Installed.absent` and otherwise ignored.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


class Tracer:
    """A span stack plus per-layer self-time and count accumulators."""

    def __init__(self):
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(float)
        self.stack: list = []
        self.main_thread = threading.get_ident()
        #: Per-cell collections of simulator objects whose own counters
        #: are read when the cell finishes (see ``layers.py``).
        self.seen: dict = defaultdict(dict)

    def push(self, layer: str) -> None:
        self.stack.append([layer, perf_counter(), 0.0])

    def pop(self) -> None:
        end = perf_counter()
        layer, start, child = self.stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        if self.stack:
            self.stack[-1][2] += duration

    @contextmanager
    def span(self, layer: str):
        self.push(layer)
        try:
            yield
        finally:
            self.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``qualname`` is ``"function"`` or ``"Class.method"`` inside
    ``module``.  ``generator`` wraps a generator function per resume.
    ``before(tracer, args)`` runs before the call and its return value
    is handed to ``after(tracer, args, result, state)``.
    """

    layer: str
    module: str
    qualname: str
    generator: bool = False
    before: Optional[Callable] = None
    after: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module}:{self.qualname}"


def _drive(tracer: Tracer, layer: str, inner):
    """Re-yield *inner*'s items, timing each resume as one span.

    The span bookkeeping of :meth:`Tracer.push`/:meth:`Tracer.pop` is
    inlined: this loop runs once per simulator resume.
    """
    stack = tracer.stack
    self_s = tracer.self_s
    value = None
    error = None
    while True:
        frame = [layer, perf_counter(), 0.0]
        stack.append(frame)
        try:
            if error is None:
                item = inner.send(value)
            else:
                pending, error = error, None
                item = inner.throw(pending)
        except StopIteration as stop:
            return stop.value
        finally:
            duration = perf_counter() - frame[1]
            stack.pop()
            self_s[layer] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
        try:
            value = yield item
        except GeneratorExit:
            inner.close()
            raise
        except BaseException as exc:  # forwarded into the wrapped generator
            error = exc
            value = None


def _wrap(tracer: Tracer, target: Target, fn):
    layer = target.layer
    before, after = target.before, target.after
    main = tracer.main_thread
    push, pop = tracer.push, tracer.pop
    get_ident = threading.get_ident

    if target.generator:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if get_ident() != main or not inspect.isgenerator(inner):
                return inner
            if before is not None:
                before(tracer, args)
            return _drive(tracer, layer, inner)

        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if get_ident() != main:
            return fn(*args, **kwargs)
        state = before(tracer, args) if before is not None else None
        push(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            pop()
        if after is not None:
            after(tracer, args, result, state)
        return result

    return wrapper


class Installed:
    """The wrappers currently in place; :meth:`remove` restores them."""

    def __init__(self):
        self.absent: list = []
        self.wrapped: list = []
        self._undo: list = []

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _resolve(target: Target):
    """``(owner, attribute name, original)`` or ``None`` when absent."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if inspect.isclass(owner):
        original = owner.__dict__.get(name)
    else:
        original = getattr(owner, name, None)
    if not inspect.isfunction(original):
        return None
    return owner, name, original


def install(tracer: Tracer, targets) -> Installed:
    """Wrap every target that exists; record the others as absent."""
    installed = Installed()
    for target in targets:
        resolved = _resolve(target)
        if resolved is None:
            installed.absent.append(target.name)
            continue
        owner, name, original = resolved
        wrapper = _wrap(tracer, target, original)
        installed._undo.append((owner, name, original))
        setattr(owner, name, wrapper)
        if not inspect.isclass(owner):
            # Module-level function: rebind every import of it too.
            for module_name, module in list(sys.modules.items()):
                if module is owner or module is None:
                    continue
                if module_name != "repro" and not module_name.startswith("repro."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        installed._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
        installed.wrapped.append(target.name)
    return installed
