"""Seeded request texts for the three benchmark workloads.

A request is one input text (a facet list, or a Hasse poset) with the
verdict it must get. The seed only relabels vertices or face ids, and
shuffles lines, for the fixed named instances; for ``fast-small`` it
also draws each random complex within its fixed size cell. The library
sees only the text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Each workload's classifier, and the tail percentile that its run reports.
# The percentile is fixed here so that a faster program, which completes
# more requests, is still compared at the same percentile. Each leaves at
# least ten samples beyond it in a 30 s run on a 2-core machine: fast-large
# completes about 110 requests (p90), recursive about 450 (p97), and
# fast-small cycles through 1000 distinct inputs, so p99 leaves ten
# distinct inputs beyond it.
MODES = {"fast-large": "fast", "fast-small": "fast", "recursive": "recursive"}
TAIL_PERCENTILE = {"fast-large": 90, "fast-small": 99, "recursive": 97}

# Each family runs over an even grid of sizes, so that request costs spread
# evenly on a log scale: neighbouring instances differ by less than half.
# A percentile then sits among instances of similar cost, never in a wide
# gap between two, where a small shift of the machine's speed would move it
# to another instance. The khalimsky squares run up to 34 so that the two
# costliest recursive instances, khalimsky 34 and sphere 5, are close in
# cost: p97 falls between them.
FAST_LARGE = (
    *(("sphere", n) for n in (6, 7, 8)),
    *(("annulus", m) for m in range(100, 401, 50)),
    *(("disk", m) for m in range(200, 401, 50)),
    *(("pinched-box", m) for m in range(12, 25, 4)),
)
RECURSIVE = (
    *(("sphere", n) for n in (3, 4, 5)),
    *(("annulus", m) for m in range(6, 25, 6)),
    *(("disk", m) for m in range(8, 49, 8)),
    *(("pinched-box", m) for m in range(4, 10)),
    ("pinched-sphere",),
    *(("khalimsky", w, w) for w in range(10, 35, 2)),
)
SMALL_POOL = 1000
# The fast-small draws cycle through every (facets, vertices, dim) cell, with
# the dimension alternating, so that every seed has the same mix of sizes;
# the seed only draws each complex within its cell. Every tenth draw is
# joined with the next one, which has the other dimension: a non-pure union.
SMALL_GRID = tuple(
    (dim, n_vertices, n_facets)
    for n_facets in range(4, 17)
    for n_vertices in range(5, 11)
    for dim in (2, 3)
)
NON_PURE_EVERY = 10

# Verdicts (category, is_smooth_pcm) of the generated families.
KNOWN = {
    "sphere": ("surface", False),
    "annulus": ("pcm", True),
    "disk": ("pcm", True),
    "khalimsky": ("pcm", True),
    "pinched-box": ("pcm", False),
    "pinched-sphere": ("neither", False),
}


@dataclass(frozen=True)
class Request:
    """One input text; ``expected`` is None when ``classify_recursive`` decides it."""

    name: str
    fmt: str  # "facets" or "hasse"
    text: str
    expected: tuple[str, bool] | None


def build(workload: str, seed: int, ps) -> list[Request]:
    """The requests of one pass over ``workload``, in their seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fast-small":
        requests = _small_pool(rng, ps)
    else:
        specs = FAST_LARGE if workload == "fast-large" else RECURSIVE
        requests = [_named(spec, rng, ps) for spec in specs]
    rng.shuffle(requests)
    return requests


def _named(spec: tuple, rng: random.Random, ps) -> Request:
    obj = ps.generate(*spec)
    name = " ".join(str(x) for x in spec)
    if isinstance(obj, ps.Poset):
        return Request(name, "hasse", _hasse_text(obj, rng), KNOWN[spec[0]])
    return Request(name, "facets", _facet_text(obj.facets, rng), KNOWN[spec[0]])


def _small_pool(rng: random.Random, ps) -> list[Request]:
    drawn = []
    for i in range(SMALL_POOL):
        params = (*SMALL_GRID[i % len(SMALL_GRID)], rng.randrange(2**32))
        drawn.append((params, ps.random_pure_complex(*params).facets))
    requests = []
    for i, (params, facets) in enumerate(drawn):
        name = "random-pure {} {} {} {}".format(*params)
        if i % NON_PURE_EVERY == NON_PURE_EVERY - 1:
            other_params, other = drawn[(i + 1) % SMALL_POOL]
            name += " + {} {} {} {}".format(*other_params)
            facets = facets + other
        requests.append(Request(name, "facets", _facet_text(facets, rng), None))
    return requests


def _facet_text(facets, rng: random.Random) -> str:
    vertices = sorted(set().union(*facets))
    labels = vertices[:]
    rng.shuffle(labels)
    relabel = dict(zip(vertices, labels))
    lines = []
    for f in facets:
        vs = [relabel[v] for v in f]
        rng.shuffle(vs)
        lines.append(" ".join(map(str, vs)))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def _hasse_text(p, rng: random.Random) -> str:
    ids = list(range(len(p)))
    rng.shuffle(ids)
    lines = []
    for h in range(len(p)):
        label = p.label(h)
        head = f"f {ids[h]} :" if label is None else f"f {ids[h]} {label} :"
        lines.append(" ".join([head] + [str(ids[c]) for c in p.covers(h)]))
    rng.shuffle(lines)
    return f"rank {p.rank()}\n" + "\n".join(lines) + "\n"
