"""In-memory span recording around calls into eqmatch's public functions.

The tracer wraps module functions and class methods from outside the
package: every reference to the original object in every loaded
``eqmatch`` module is swapped for a wrapper that records one span per call,
and ``uninstall`` puts the originals back. Nothing under ``src/`` knows it
is being traced.

A span is ``(name, start_ns, end_ns, parent, op, detail)``: ``parent`` is the
index of the enclosing span (-1 at the root), ``op`` the id of the
benchmark operation the call belongs to, and ``detail`` an optional dict
filled in by an annotator from the call's arguments and result. Spans stay
in a list until ``write_jsonl`` dumps them when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from typing import Callable


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: int, detail) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.op, detail)

    @contextlib.contextmanager
    def span(self, name: str, detail: dict | None = None):
        idx, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, parent, name, start, detail)

    def wrap(self, name: str, fn: Callable,
             annotate: Callable | None = None) -> Callable:
        """A wrapper around ``fn`` that records a span per call. ``annotate``
        maps (args, kwargs, result) to the span's detail dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                detail = annotate(args, kwargs, result) if annotate else None
                self._close(idx, parent, name, start, detail)

        return traced

    # -- patching ------------------------------------------------------------

    def install(self, targets) -> None:
        """Patch each (span name, owner, attribute, annotate) target. A class
        owner is patched in place; a module function is replaced in every
        ``eqmatch`` module that imported it by name."""
        for name, owner, attr, annotate in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, annotate)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "eqmatch" or mod_name.startswith("eqmatch.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def finished(self) -> list[tuple]:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        return list(self.spans)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, detail) in enumerate(self.finished()):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op,
                                     "detail": detail}, sort_keys=True) + "\n")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_times_ns(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the time its direct children cover. Spans
    come from one thread, so children are disjoint and their sum is the
    covered part."""
    covered = [0] * len(spans)
    for name, start, end, parent, _op, _detail in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_n, start, end, _p, _o, _d) in enumerate(spans)]


def nesting_violations(spans: list[tuple]) -> list[int]:
    """Indices of spans that start before or end after their parent."""
    bad = []
    for i, (_name, start, end, parent, _op, _detail) in enumerate(spans):
        if parent >= 0:
            _pn, pstart, pend, _pp, _po, _pd = spans[parent]
            if start < pstart or end > pend or parent >= i:
                bad.append(i)
    return bad
