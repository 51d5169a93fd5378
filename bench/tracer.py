"""Spans around algperiods' public functions, installed from outside the package.

``Tracer.install`` finds every public function defined in an
``algperiods.*`` module and replaces, in every such module, each attribute
that *is* that function object with a timing wrapper.  Copies bound by
``from .exactmat import charpoly`` (or ``import trace as mat_trace``) are
therefore wrapped too, and calls made through them are seen.  No private
name of the package is read.

Spans are kept in memory as tuples and written out when the benchmark
ends.  A span's self time is its duration minus the time covered by its
direct children; spans never overlap except by nesting, because the
benchmark is single-threaded.

A generator function gets one span per generator, whose duration is the
time spent inside it (its resumptions), not the time it was alive.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time

MODULES = ("arith", "census", "cli", "exactmat", "lefschetz", "polycyc", "realize", "zeta")

# Tiny helpers called in inner loops: wrapping them would cost more than they do.
SKIP = {"arith.moebius", "arith.divisors", "arith.reg"}


def _charpoly_note(args, result):
    return (args[0].dim, max((abs(c).bit_length() for c in result.coeffs), default=0))


def _divmod_note(args, result):
    return int(result[1].is_zero())


def _window_note(args, result):
    return len(result)


_RAISED = object()

# Extra numbers recorded on a span: (args, result) -> note.
NOTES = {
    "exactmat.charpoly": _charpoly_note,
    "polycyc.poly_divmod": _divmod_note,
    "polycyc.trace_sequence_from_charpoly": _window_note,
}


class Tracer:
    def __init__(self) -> None:
        # (span id, parent id or -1, request, name, start ns, end ns, busy ns, child ns, note)
        self.spans: list[tuple] = []
        self.request = -1
        self._stack: list[list] = []  # [span id, child ns] of the open spans
        self._ids = itertools.count()
        self._patched: list[tuple] = []  # (module, attribute, original)
        self.wrapped: list[str] = []

    # ---------------------------------------------------------- installation

    def install(self) -> None:
        self.wrapped = []
        modules = {m: sys.modules[f"algperiods.{m}"] for m in MODULES if f"algperiods.{m}" in sys.modules}
        originals = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and not attr.startswith("_") and obj.__name__ == attr
                        and obj.__module__ == mod.__name__ and name not in SKIP):
                    originals[id(obj)] = (obj, self._wrap(name, obj))
                    self.wrapped.append(name)
        namespaces = list(modules.values()) + [sys.modules["algperiods"]]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    setattr(mod, attr, originals[id(obj)][1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # ---------------------------------------------------------- wrappers

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        clock = time.perf_counter_ns
        stack, spans, ids = self._stack, self.spans, self._ids

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                frame = [next(ids), 0]
                parent = stack[-1][0] if stack else -1
                request = self.request
                gen = fn(*args, **kwargs)
                busy = 0
                first = last = clock()
                try:
                    while True:
                        stack.append(frame)
                        start = clock()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            last = clock()
                            stack.pop()
                            busy += last - start
                            if stack:
                                stack[-1][1] += last - start
                        yield item
                finally:
                    gen.close()
                    spans.append((frame[0], parent, request, name, first, last, busy, frame[1], None))

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            result = _RAISED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                extra = note(args, result) if note and result is not _RAISED else None
                spans.append((frame[0], parent, self.request, name, start, end, end - start, frame[1], extra))

        return traced

    def reset(self) -> None:
        self._stack.clear()
        self.spans.clear()
