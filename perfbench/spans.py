"""In-memory span tracer that wraps a package's public names from outside.

A span is (id, name, start, end, parent, row, attrs). `row` is a label the
benchmark sets before each operation, so spans can be grouped by table row.
Wrappers are installed where callers look the names up (a module global or
a class attribute) and removed again afterwards, so untraced calls run the
original code. A name that no longer exists is recorded in `missing` rather
than raising, which lets the benchmark report its metrics as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "row", "attrs", "child_s")

    def __init__(self, id, name, start, parent, row, attrs):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.row = row
        self.attrs = attrs
        self.child_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration minus the part covered by child spans."""
        return self.seconds - self.child_s


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self.row = None
        self._stack = []
        self._patches = []
        self._opened = 0
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else None
        s = Span(self._opened, name, time.perf_counter(), parent, self.row, attrs or {})
        self._opened += 1
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += s.seconds
            self.spans.append(s)

    def _spanned(self, fn, name, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, attrs(*args, **kwargs) if attrs else None):
                return fn(*args, **kwargs)
        return wrapper

    def wrap(self, target: str, name: str, attrs=None, around=None) -> None:
        """Wrap `module:attr.path` in a span called `name`.

        `attrs(*args, **kwargs)` returns a dict stored on the span.
        `around(call, *args, **kwargs)` runs outside the span and must
        return `call(*args, **kwargs)`; it is for probes whose own cost must
        not count as the wrapped call's time.
        """
        module_name, _, path = target.partition(":")
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            if target not in self.missing:
                self.missing.append(target)
            return
        spanned = self._spanned(original, name, attrs)
        if around is None:
            replacement = spanned
        else:
            @functools.wraps(original)
            def replacement(*args, **kwargs):
                return around(spanned, *args, **kwargs)
        own = attr in vars(owner)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, own))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write(self, path) -> None:
        """One JSON object per span, in start order; times in seconds since
        the tracer was created, `parent` is the parent's id or null."""
        with open(path, "w") as f:
            for s in sorted(self.spans, key=lambda s: s.id):
                f.write(json.dumps({
                    "id": s.id, "parent": None if s.parent is None else s.parent.id,
                    "name": s.name, "row": s.row, "start": s.start - self._t0,
                    "end": s.end - self._t0, "self": s.self_seconds, "attrs": s.attrs,
                }) + "\n")

    def select(self, name, row=None):
        return [s for s in self.spans if s.name == name and (row is None or s.row == row)]
