"""Spans and counters around the library's public functions.

``Tracer.installed(ps)`` replaces each traced name where the library looks
it up: the package attributes the benchmark calls, the names that
``posurf.classify`` imported from ``posurf.border`` and ``posurf.surfaces``,
and methods of ``SimplicialComplex``. Method spans are recorded only on the
request's own complex, so the pseudomanifold tests that the normality test
runs on links stay inside its self time. ``link`` is counted, not timed.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

FUNCTIONS = {
    "posurf": {
        "read_facets": "simplicial.read_facets",
        "from_hasse": "poset.from_hasse",
        "classify_fast": "classify.classify_fast",
        "classify_recursive": "classify.classify_recursive",
    },
    "posurf.classify": {
        "is_k_surface": "surfaces.is_k_surface",
        "is_pcm": "border.is_pcm",
        "is_smooth_pcm": "border.is_smooth_pcm",
        "border_mask_of": "border.border_mask_of",
        "check_condition_C": "border.check_condition_C",
    },
}
METHODS = {
    "is_pseudomanifold": "simplicial.is_pseudomanifold",
    "is_normal_pseudomanifold": "simplicial.is_normal_pseudomanifold",
    "face_poset": "simplicial.face_poset",
}
SELF_MS = [
    "simplicial.read_facets",
    "simplicial.is_pseudomanifold",
    "simplicial.is_normal_pseudomanifold",
    "simplicial.face_poset",
    "poset.from_hasse",
    "surfaces.is_k_surface",
    "border.is_pcm",
    "border.is_smooth_pcm",
    "border.border_mask_of",
    "border.check_condition_C",
    "classify.classify_fast",
    "classify.classify_recursive",
]
COUNTS = [
    "simplicial.link.calls",
    "simplicial.face_poset.calls",
    "simplicial.faces",
    "poset.bitmask_bytes",
    "surfaces.memo_entries",
    "border.pcm_memo_entries",
    "border.smooth_memo_entries",
]
MEMOS = {
    "surfaces.memo_entries": "surface",
    "border.pcm_memo_entries": "pcm",
    "border.smooth_memo_entries": "smooth",
}
PER_LAYER_UNITS = {f"{name}.self_ms": "ms" for name in SELF_MS}
PER_LAYER_UNITS.update({name: "count" for name in COUNTS})
PER_LAYER_UNITS.update(
    {"poset.bitmask_bytes": "bytes", "classify.fallback_frac": "fraction", "trace.overhead_ms": "ms"}
)
# Classification.timings keys and the span that times the same call.
TIMING_SPANS = {
    "surface": "surfaces.is_k_surface",
    "pcm": "border.is_pcm",
    "smooth_pcm": "border.is_smooth_pcm",
    "smooth_pcm_fallback": "border.is_smooth_pcm",
    "border": "border.border_mask_of",
    "pseudomanifold": "simplicial.is_pseudomanifold",
    "normal_pseudomanifold": "simplicial.is_normal_pseudomanifold",
}


class Tracer:
    """Records spans (name, start, end, parent, request) and per-request counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.requests = 0
        self._stack: list[int] = []
        self._classified: list[tuple[int, dict]] = []
        self._bitmask_bytes: dict[int, int] = {}
        self._request = -1
        self._complex = None
        self._poset = None

    # -- recording ----------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self._request)

    def _function(self, name, fn):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            out = self._span(name, fn, args, kwargs)
            if name == "simplicial.read_facets":
                self._complex = out
            elif name == "poset.from_hasse":
                self._poset = out
            elif name.startswith("classify."):
                self._classified.append((sid, out.timings))
            return out

        return traced

    def _method(self, name, fn):
        def traced(obj, *args, **kwargs):
            if obj is not self._complex:
                return fn(obj, *args, **kwargs)
            out = self._span(name, fn, (obj,) + args, kwargs)
            if name == "simplicial.face_poset":
                self.counts["simplicial.face_poset.calls"] += 1
                self._poset = out
            return out

        return traced

    def _link(self, fn):
        def counted(obj, simplex):
            self.counts["simplicial.link.calls"] += 1
            return fn(obj, simplex)

        return counted

    def begin(self) -> None:
        self._request = self.requests
        self._complex = self._poset = None

    def end(self, index: int) -> None:
        """Per-request counts, read after the request's timer has stopped.

        ``index`` is the request's input; its bitmask bytes are computed once.
        """
        self.requests += 1
        poset = self._poset
        if self._complex is not None:
            self.counts["simplicial.faces"] += len(self._complex)
        elif poset is not None:
            self.counts["simplicial.faces"] += len(poset)
        if poset is None:
            return
        for metric, memo in MEMOS.items():
            self.counts[metric] += len(poset.memo(memo))
        if index not in self._bitmask_bytes:
            masks = poset.alpha_masks + poset.beta_masks + poset.theta_masks
            self._bitmask_bytes[index] = sum((m.bit_length() + 7) // 8 for m in masks)
        self.counts["poset.bitmask_bytes"] += self._bitmask_bytes[index]

    @contextmanager
    def installed(self, ps):
        saved = []

        def patch(owner, attr, replacement):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        for module, names in FUNCTIONS.items():
            owner = sys.modules[module]
            for attr, name in names.items():
                patch(owner, attr, self._function(name, getattr(owner, attr)))
        cls = ps.SimplicialComplex
        for attr, name in METHODS.items():
            patch(cls, attr, self._method(name, getattr(cls, attr)))
        patch(cls, "link", self._link(cls.link))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- derived figures ----------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Per-request self time of each span name: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start - child[sid]
        n = max(self.requests, 1)
        return {f"{name}.self_ms": total[name] * 1000.0 / n for name in SELF_MS}

    def per_request_counts(self) -> dict[str, float]:
        n = max(self.requests, 1)
        return {name: self.counts[name] / n for name in COUNTS}

    def fallbacks(self) -> int:
        """Smoothness fallbacks: is_smooth_pcm spans called from classify_fast."""
        return sum(
            1
            for name, _, _, parent, _ in self.spans
            if name == "border.is_smooth_pcm" and parent >= 0
            and self.spans[parent][0] == "classify.classify_fast"
        )

    def timings_gap(self) -> tuple[float, float]:
        """Totals, in seconds, of Classification.timings and of the matching child spans."""
        children = defaultdict(list)
        for sid, (_, _, _, parent, _) in enumerate(self.spans):
            children[parent].append(sid)
        library = traced = 0.0
        for sid, timings in self._classified:
            for key, seconds in timings.items():
                spans = [self.spans[c] for c in children[sid] if self.spans[c][0] == TIMING_SPANS.get(key)]
                if spans:
                    library += seconds
                    traced += sum(end - start for _, start, end, _, _ in spans)
        return library, traced
