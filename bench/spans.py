"""In-memory spans recorded around calls into equivar's modules.

A traced run wraps the public functions each workload reaches (by patching
the name in the module that calls it), records one span per call, and
writes the spans out when the run ends. Untraced runs patch nothing.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans of one run: name, start, end, parent span and attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "t0": perf_counter(),
            "t1": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["t1"] = perf_counter()
            self._stack.pop()

    def add(self, name: str, t0: float, t1: float, parent: int | None, **attrs) -> dict:
        """Record a span measured elsewhere, such as in a child process."""
        rec = {"id": len(self.spans), "parent": parent, "name": name, "t0": t0, "t1": t1, **attrs}
        self.spans.append(rec)
        return rec

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``attrs(args, result)`` may return extra attributes for the span;
        it is called after the call returns, or with ``result=None`` when
        the call raises.
        """
        func = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as rec:
                result = None
                try:
                    result = func(*args, **kwargs)
                    return result
                finally:
                    if attrs is not None:
                        rec.update(attrs(args, result))

        self._patched.append((owner, attr, func))
        setattr(owner, attr, traced)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, func = self._patched.pop()
            setattr(owner, attr, func)

    # ------------------------------------------------------------------
    # derived figures

    def named(self, name: str, **match) -> list[dict]:
        return [
            s
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())
        ]

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time covered by its direct children."""
        out = {s["id"]: dur(s) for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= dur(s)
        return out


def dur(span: dict) -> float:
    return span["t1"] - span["t0"]


def total(spans: list[dict]) -> float:
    return sum(dur(s) for s in spans)


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else float("nan")
