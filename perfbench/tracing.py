"""In-memory spans recorded by the benchmark's own wrappers.

A span is ``[name, start, end, parent, attrs]`` with ``perf_counter``
times and ``parent`` the index of the enclosing span (-1 for a root).
Spans are opened only at layer boundaries the benchmark controls: around
setup steps, around each operation, and — while :func:`instrument` is
active — around the kernel entry points and coin-stream functions as
``repro.diffusion.csr_engine`` binds them. Nothing inside ``src/`` is
changed; with tracing off, :meth:`Tracer.span` is a no-op and no wrapper
is installed, so untraced runs execute the program's own code only.
"""
from __future__ import annotations

import contextlib
import functools
import json
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator


class Tracer:
    """Span recorder; ``enabled`` toggles recording without changing code paths."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> int:
        """Start a span under the current one and return its index (-1 if off)."""
        if not self.enabled:
            return -1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, attrs])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """End the span returned by :meth:`open`."""
        if idx < 0:
            return
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        """Context-manager form of open/close."""
        idx = self.open(name, **attrs)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn: Callable, attrs_of: Callable) -> Callable:
        """``fn`` wrapped in a span whose attrs come from ``attrs_of(*args)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, **attrs_of(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span, relative to the first one, as one JSON document."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round(s - t0, 9), round(e - t0, 9), parent, attrs]
            for name, s, e, parent, attrs in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"meta": meta, "fields": ["name", "start", "end", "parent", "attrs"],
                        "spans": rows})
        )


def rss_mb(pid: int | str = "self") -> float:
    """Current resident set size of process ``pid`` in MiB, read from /proc."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def self_times(spans: list[list], lo: int, hi: int) -> list[float]:
    """Self time of spans ``lo..hi-1``: duration minus direct children's durations."""
    own = [s[2] - s[1] for s in spans[lo:hi]]
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent >= lo:
            own[parent - lo] -= spans[i][2] - spans[i][1]
    return own


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Install span wrappers on the kernel and coin-stream entry points.

    ``CSREngine.run``/``run_many`` become ``kernel`` spans; ``uniforms``,
    ``uniforms_mixed`` and ``trial_bases`` — patched where
    ``csr_engine`` looks them up — become ``rng`` spans carrying the
    number of ids hashed. Originals are restored on exit.
    """
    from repro.diffusion import csr_engine

    engine = csr_engine.CSREngine
    patches = [
        (engine, "run", tracer.wrap(
            "kernel", engine.run, lambda self, seeds, t: {"trials": 1, "model": self.model})),
        (engine, "run_many", tracer.wrap(
            "kernel", engine.run_many,
            lambda self, seeds, ts, **kw: {"trials": len(ts), "model": self.model})),
        (csr_engine, "uniforms", tracer.wrap(
            "rng", csr_engine.uniforms, lambda stream, t, ids: {"ids": len(ids)})),
        (csr_engine, "uniforms_mixed", tracer.wrap(
            "rng", csr_engine.uniforms_mixed, lambda bases, ids: {"ids": len(ids)})),
        (csr_engine, "trial_bases", tracer.wrap(
            "rng", csr_engine.trial_bases, lambda stream, ts: {"ids": len(ts)})),
    ]
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
    try:
        for obj, attr, wrapper in patches:
            setattr(obj, attr, wrapper)
        yield
    finally:
        for obj, attr, original in saved:
            setattr(obj, attr, original)
