"""Runtime tracer: times calls into the program's layers from outside.

A :class:`Tracer` replaces a layer's public entry point with a timing
wrapper for the duration of a ``with`` block and restores it after.  A
wrapper must be installed where the caller looks the name up: the
kernel imports ``backtrace`` into ``repro.pim.kernel``, so that is the
attribute to patch, not ``repro.core.backtrace.backtrace``.

Two kinds of entry point:

* **span** points record one span per call — name, start, end, parent
  span and the tracer's current context id (a batch or request id) —
  kept in memory and written out by :meth:`Tracer.write_spans`;
* **counted** points (the per-pair bookkeeping layers, called tens of
  thousands of times per thousand pairs) only add to per-layer call
  counts and times.

Every call, of either kind, sits on one stack, so a layer's *self time*
is its calls' wall time minus the time spent in calls to any traced
layer beneath it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Optional

#: observer called as ``observe(args, kwargs, result)`` after a call returns
Observer = Callable[[tuple, dict, object], None]


class Tracer:
    """Span and self-time recorder for patched entry points."""

    def __init__(self) -> None:
        #: (name, start_s, end_s, parent span index or -1, context id)
        self.spans: list[Optional[tuple]] = []
        #: layer -> [calls, self seconds]
        self.layers: dict[str, list] = {}
        #: id stamped on every span; the benchmark sets it per batch/request
        self.context: Optional[str] = None
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(
        self,
        owner: object,
        attr: str,
        layer: str,
        span: bool = True,
        observe: Optional[Observer] = None,
    ) -> None:
        """Wrap the function or plain method ``owner.attr`` for ``layer``."""
        self.replace(owner, attr, self._wrap(getattr(owner, attr), layer, attr, span, observe))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def _wrap(self, fn, layer: str, attr: str, span: bool, observe: Optional[Observer]):
        stats = self.layers.setdefault(layer, [0, 0.0])
        stack = self._stack
        spans = self.spans
        name = f"{layer}:{attr}"
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = -1
            parent = -1
            if span:
                index = len(spans)
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    spans[index] = (name, start, end, parent, tracer.context)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results ---------------------------------------------------------------

    def self_seconds(self, layer: str) -> float:
        return self.layers.get(layer, (0, 0.0))[1]

    def calls(self, layer: str) -> int:
        return self.layers.get(layer, (0, 0.0))[0]

    def write_spans(self, path: Path) -> None:
        """Write the spans and per-layer totals as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "layers": {
                layer: {"calls": calls, "self_s": self_s}
                for layer, (calls, self_s) in sorted(self.layers.items())
            },
            "fields": ["name", "start_s", "end_s", "parent", "context"],
            "spans": [s for s in self.spans if s is not None],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
