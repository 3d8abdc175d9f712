"""Dual-path classification.

``classify_recursive`` applies the poset recognizers, which decide the
recursive definitions by one pass of the interval law (``posurf.surfaces``).
``classify_fast`` classifies a simplicial complex through the normal
pseudomanifold test instead: for rank >= 1, a pure complex is a discrete
surface exactly when it is a normal pseudomanifold with empty border, and
a PCM exactly when it is a normal pseudomanifold with nonempty border;
ranks -1 and 0 are decided by the vertex count.
Normality is decided from star connectivity (the facets over each face
of codimension >= 2 connected through ridges over it), which for a
pseudomanifold is every such link being one; no link is built. Each star
is searched as an induced subgraph of the complex's one facet dual graph,
built from its one ridge index. Condition (C), which decides smoothness
exactly, is the same search on the boundary ridges; the fast path builds
no poset and no complex.
``cross_check`` runs both paths over a corpus and fails loudly on any
disagreement.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable

from .errors import CrossCheckError, DomainError
from .poset import as_view
# The recognizers are called through these module globals, which the
# benchmark's tracer (perfbench/tracing.py) patches by name.
from .simplicial import SimplicialComplex, check_condition_C, write_facets
from .surfaces import as_poset, border_mask_of, is_k_surface, is_pcm, is_smooth_pcm

__all__ = [
    "Classification",
    "classify_recursive",
    "classify_fast",
    "classify_both",
    "CrossCheckReport",
    "cross_check",
]


@dataclass
class Classification:
    """Structured verdict for one instance.

    Fields are None where the corresponding check was not evaluated (for
    example, pseudomanifold tests on non-simplicial posets, or the border
    of a non-normal complex on the fast path). ``timings`` holds per-check
    wall durations in seconds.
    """

    rank: int
    is_surface: bool | None = None
    is_pcm: bool | None = None
    is_smooth_pcm: bool | None = None
    is_pseudomanifold: bool | None = None
    is_normal_pseudomanifold: bool | None = None
    border_empty: bool | None = None
    path: str = "recursive"
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def category(self) -> str:
        """'empty', 'surface', 'pcm' or 'neither': the top-level verdict."""
        if self.rank < 0:
            return "empty"
        if self.is_surface:
            return "surface"
        if self.is_pcm:
            return "pcm"
        return "neither"

    def to_dict(self) -> dict:
        return {
            **{name: getattr(self, name) for name in VERDICT_FIELDS},
            "category": self.category,
            "path": self.path,
            "timings_ms": {k: round(v * 1000.0, 3) for k, v in self.timings.items()},
        }


VERDICT_FIELDS = tuple(
    f.name for f in fields(Classification) if f.name not in ("path", "timings")
)


def _timed(timings: dict, name: str, fn):
    t0 = time.perf_counter()
    out = fn()
    timings[name] = time.perf_counter() - t0
    return out


def classify_recursive(obj) -> Classification:
    """Classify by the recursive definitions, through the interval law.

    Accepts a SimplicialComplex (pseudomanifold checks included) or a
    Poset/SuborderView (poset-level recognizers only).
    """
    complex_ = obj if isinstance(obj, SimplicialComplex) else None
    view = as_view(complex_.face_poset() if complex_ is not None else obj)
    timings: dict[str, float] = {}
    sv = _timed(timings, "surface", lambda: is_k_surface(view))
    pv = _timed(timings, "pcm", lambda: is_pcm(view))
    mv = _timed(timings, "smooth_pcm", lambda: is_smooth_pcm(view))
    # the view as the poset the recognizers built: its rank needs no table
    r = as_poset(view).rank()
    border_empty = r < 0 or _timed(timings, "border", lambda: border_mask_of(view) == 0)
    cls = Classification(
        rank=r,
        is_surface=sv.holds,
        is_pcm=pv.holds,
        is_smooth_pcm=mv.holds,
        border_empty=border_empty,
        path="recursive",
        timings=timings,
    )
    if complex_ is not None:
        cls.is_pseudomanifold = _timed(timings, "pseudomanifold", complex_.is_pseudomanifold)
        cls.is_normal_pseudomanifold = _timed(
            timings, "normal_pseudomanifold", complex_.is_normal_pseudomanifold
        )
    return cls


def classify_fast(k) -> Classification:
    """Classify a simplicial complex through the normal pseudomanifold test.

    For rank >= 1: not a normal pseudomanifold means neither surface nor
    PCM; a normal pseudomanifold is a surface when its border is empty
    (no boundary ridge, that is no ridge under one top face) and a PCM
    otherwise. A PCM is smooth exactly when condition (C) holds on its
    boundary ridges. At rank 1 this reads: a cycle is a surface and a path
    a smooth PCM. Ranks -1 and 0 are decided by the vertex count: none or
    two make a surface, none or one a smooth PCM. No complex is built.
    """
    if not isinstance(k, SimplicialComplex):
        raise DomainError("fast classification requires a simplicial complex")
    n = k.dim
    timings: dict[str, float] = {}
    pm = _timed(timings, "pseudomanifold", k.is_pseudomanifold)
    normal = pm and _timed(timings, "normal_pseudomanifold", k.is_normal_pseudomanifold)
    if n <= 0:
        v = len(k.vertices)
        surface, pcm, smooth, border_empty = v in (0, 2), v <= 1, v <= 1, True
    else:
        border_empty = not _timed(timings, "border", k._boundary) if normal else None
        surface = normal and border_empty
        pcm = normal and not border_empty
        smooth = pcm and _timed(timings, "condition_C", lambda: check_condition_C(k))
    return Classification(
        rank=n,
        is_surface=surface,
        is_pcm=pcm,
        is_smooth_pcm=smooth,
        is_pseudomanifold=pm,
        is_normal_pseudomanifold=normal,
        border_empty=border_empty,
        path="fast",
        timings=timings,
    )


def _disagreements(fast: Classification, recursive: Classification) -> list[str]:
    out = []
    if fast.category != recursive.category:
        out.append(f"category: fast={fast.category} recursive={recursive.category}")
    for name in VERDICT_FIELDS:
        a = getattr(fast, name)
        b = getattr(recursive, name)
        if a is not None and b is not None and a != b:
            out.append(f"{name}: fast={a} recursive={b}")
    return out


def classify_both(k) -> Classification:
    """Run both paths on one complex; any disagreement raises, never reconciles.

    The pseudomanifold fields are reported, not compared: both paths read
    them from the same ``SimplicialComplex`` methods, cached on ``k``."""
    fast = classify_fast(k)
    recursive = classify_recursive(k)
    issues = _disagreements(fast, recursive)
    if issues:
        raise CrossCheckError("fast/recursive disagreement: " + "; ".join(issues))
    timings = {
        f"{prefix}.{n}": v
        for prefix, cls in (("fast", fast), ("recursive", recursive))
        for n, v in cls.timings.items()
    }
    return replace(recursive, path="both", timings=timings)


# The fields of a ``CrossCheckReport`` row, in order, each with the width
# of its column in ``table()``.
_ROW_WIDTHS = {
    "instance": 28, "faces": 6, "category": 9, "fast_ms": 9, "recursive_ms": 13, "speedup": 8,
}


@dataclass
class CrossCheckReport:
    """One row per instance, as ``posurf bench --json`` prints it: the
    fields of ``_ROW_WIDTHS``, times in milliseconds."""

    rows: list[dict]

    @property
    def category_counts(self) -> dict[str, int]:
        return dict(sorted(Counter(row["category"] for row in self.rows).items()))

    def to_dict(self) -> dict:
        """The rows and the category counts."""
        return {"rows": self.rows, "category_counts": self.category_counts}

    def table(self) -> str:
        """The rows as a text table, with the category mix."""

        def line(cells) -> str:
            return " ".join(
                f"{c:>{w}.2f}" if isinstance(c, float) else f"{c:<{w}}" if i == 0 else f"{c:>{w}}"
                for i, (c, w) in enumerate(zip(cells, _ROW_WIDTHS.values()))
            )

        header = line(k.replace("_", " ") for k in _ROW_WIDTHS)
        lines = [header, "-" * len(header)]
        lines += [line(row.values()) for row in self.rows]
        mix = ", ".join(f"{k}={v}" for k, v in self.category_counts.items())
        lines.append(f"instance mix: {mix}")
        return "\n".join(lines)


def _fresh(k: SimplicialComplex) -> SimplicialComplex:
    # Rebuild so neither path warms the other's caches during timing.
    return SimplicialComplex(k.facets)


def cross_check(
    instances: Iterable[tuple[str, SimplicialComplex]],
    dump_dir: str | Path | None = None,
) -> CrossCheckReport:
    """Run both classifiers over named complexes and compare.

    On any disagreement the offending instance is written out as a facet
    file for triage and a CrossCheckError is raised. The pseudomanifold
    fields come from the same ``SimplicialComplex`` methods on both paths,
    so they are not cross-checked; tests hold them to their definitions.
    """
    rows = []
    for name, k in instances:
        t0 = time.perf_counter()
        fast = classify_fast(_fresh(k))
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        recursive = classify_recursive(_fresh(k))
        t_rec = time.perf_counter() - t0
        issues = _disagreements(fast, recursive)
        if issues:
            safe = re.sub(r"[^A-Za-z0-9._-]", "-", name)
            target = Path(dump_dir or ".") / f"crosscheck-{safe}.facets"
            target.write_text(write_facets(k))
            raise CrossCheckError(f"{name}: " + "; ".join(issues), artifact=str(target))
        speedup = round(t_rec / t_fast if t_fast > 0 else float("inf"), 2)
        ms = (round(t_fast * 1000, 3), round(t_rec * 1000, 3))
        rows.append(dict(zip(_ROW_WIDTHS, (name, len(k), recursive.category, *ms, speedup))))
    return CrossCheckReport(rows)
