"""Deterministic instance constructors: the named corpus plus a seeded
random family. The same spec always yields the identical facet list."""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass

from .errors import DomainError
from .poset import Poset, check_poset_faces
from .simplicial import MAX_FACES, SimplicialComplex, refuse_faces, simplicial_join

__all__ = [
    "generate",
    "generator_names",
    "solid_simplex",
    "sphere",
    "disk",
    "annulus",
    "icosahedron",
    "pinched_sphere",
    "pinched_box",
    "khalimsky_block",
    "random_pure_complex",
]


def _check_faces(what: str, n_facets: int, size: int) -> None:
    """Refuse, before any facet is built, ``n_facets`` facets of ``size``
    vertices whose closure bound, n_facets * (2^size - 1), is above
    MAX_FACES: the bound the constructor would refuse them by. A size
    above 65 counts as 65, which keeps the bound above 2^64, where
    ``refuse_faces`` names it only by a power of two below it."""
    bound = n_facets * ((1 << min(size, 65)) - 1)
    if bound > MAX_FACES:
        refuse_faces(what, bound)


def solid_simplex(n: int) -> SimplicialComplex:
    """The full n-simplex on vertices 0..n."""
    if n < 0:
        raise DomainError("simplex needs n >= 0")
    _check_faces(f"simplex {n}", 1, n + 1)
    return SimplicialComplex([range(n + 1)])


def sphere(n: int) -> SimplicialComplex:
    """Boundary of the (n+1)-simplex: the minimal triangulated n-sphere."""
    if n < 0:
        raise DomainError("sphere needs n >= 0")
    _check_faces(f"sphere {n}", n + 2, n + 1)
    verts = list(range(n + 2))
    return SimplicialComplex([verts[:i] + verts[i + 1 :] for i in range(len(verts))])


def disk(m: int) -> SimplicialComplex:
    """Triangulated disk: the cone over an m-cycle (apex is vertex m)."""
    if m < 3:
        raise DomainError("disk needs a cycle length m >= 3")
    _check_faces(f"disk {m}", m, 3)
    return SimplicialComplex([(i, (i + 1) % m, m) for i in range(m)])


def annulus(m: int) -> SimplicialComplex:
    """Triangulated annulus: two m-cycles (0..m-1 and m..2m-1), 2m triangles."""
    if m < 4:
        raise DomainError("annulus needs a cycle length m >= 4")
    _check_faces(f"annulus {m}", 2 * m, 3)
    facets = []
    for i in range(m):
        j = (i + 1) % m
        facets.append((i, j, m + i))
        facets.append((j, m + i, m + j))
    return SimplicialComplex(facets)


# Standard combinatorial icosahedron: apex 0, upper ring 1..5, lower ring
# 6..10, apex 11. Vertices 0 and 11 are non-adjacent with disjoint links.
_ICOSAHEDRON = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 6, 2), (2, 6, 7), (2, 7, 3), (3, 7, 8), (3, 8, 4),
    (4, 8, 9), (4, 9, 5), (5, 9, 10), (5, 10, 1), (1, 10, 6),
    (6, 11, 7), (7, 11, 8), (8, 11, 9), (9, 11, 10), (10, 11, 6),
)


def icosahedron() -> SimplicialComplex:
    """The icosahedron boundary: 12 vertices, 30 edges, 20 triangles."""
    return SimplicialComplex(_ICOSAHEDRON)


def pinched_sphere() -> SimplicialComplex:
    """Icosahedron with the two antipodal vertices 0 and 11 identified.

    The identified vertices are non-adjacent and their links are disjoint
    5-cycles, so the quotient is still a simplicial complex; the merged
    vertex is the pinch.
    """
    return SimplicialComplex(
        [tuple(0 if v == 11 else v for v in tri) for tri in _ICOSAHEDRON]
    )


def pinched_box(m: int) -> SimplicialComplex:
    """Cone over the triangulated annulus (apex is vertex 2m)."""
    if m < 4:
        raise DomainError("pinched-box needs a cycle length m >= 4")
    _check_faces(f"pinched-box {m}", 2 * m, 4)
    apex = SimplicialComplex([[2 * m]])
    return simplicial_join(annulus(m), apex)


def khalimsky_block(w: int, h: int) -> Poset:
    """Cubical block of w x h unit squares, as a poset.

    Cells are grid points (x, y) with 0 <= x <= 2w and 0 <= y <= 2h; the
    number of odd coordinates is the cell's rank, and a cell covers the
    cells reached by moving one odd coordinate to an adjacent even value.
    Labels are "x,y". Refused, before any cell is listed, above
    ``MAX_POSET_FACES`` cells.
    """
    if w < 1 or h < 1:
        raise DomainError("khalimsky block needs w >= 1 and h >= 1")
    check_poset_faces((2 * w + 1) * (2 * h + 1))
    cells = [(x, y) for y in range(2 * h + 1) for x in range(2 * w + 1)]
    idx = {c: i for i, c in enumerate(cells)}
    covers = []
    labels = []
    for x, y in cells:
        cs = []
        if x % 2:
            cs += [idx[(x - 1, y)], idx[(x + 1, y)]]
        if y % 2:
            cs += [idx[(x, y - 1)], idx[(x, y + 1)]]
        covers.append(sorted(cs))
        labels.append(f"{x},{y}")
    return Poset(covers, labels)


def random_pure_complex(
    dim: int, n_vertices: int, n_facets: int, seed: int = 0, glue_bias: float = 0.9
) -> SimplicialComplex:
    """Seeded pure complex: fixed-dimension facets over a vertex pool.

    Growth is biased toward gluing a new facet along a ridge of an existing
    one, which makes pseudomanifold-like instances common enough to exercise
    the non-vacuous side of the classifier equivalence. Each attempt draws,
    with probability ``glue_bias``, a ridge under exactly one facet and a
    vertex that extends it without putting any ridge under three facets;
    otherwise it draws ``dim + 1`` vertices of the pool.

    The pool is never scanned. Each ridge keeps the apexes of the facets
    over it (the vertex each adds to it), and each face two below a facet
    keeps the vertices x for which face + x is under two facets or more. A
    vertex v outside a boundary ridge R fails exactly when it is the apex
    of R's one facet or some (R - u) + v is already under two facets, so
    an attempt reads the vertices that fail from R's neighbourhood alone.
    The boundary ridges are kept sorted as facets are added, and the pick
    is an index into the pool minus R and the vertices that fail: the same
    draw as a choice among the candidates in order. The loop stops once
    ``min(n_facets, C(n_vertices, dim + 1))`` facets are drawn (a full pool
    takes no more) or after ``50 * n_facets`` attempts, so it may return
    fewer facets than asked. The facets are exactly those drawn by
    recounting every ridge on each attempt
    (``tests/oracles.py::random_pure_by_recount``).

    Raises DomainError before drawing when that many facets could have more
    than ``MAX_FACES`` faces together, and before counting the pool when
    one facet could.
    """
    if dim < 1:
        raise DomainError("random-pure needs dim >= 1")
    if n_vertices < dim + 2:
        raise DomainError(f"random-pure needs at least dim + 2 = {dim + 2} vertices")
    if n_facets < 1:
        raise DomainError("random-pure needs at least one facet")
    _check_faces(f"a facet of dimension {dim}", 1, dim + 1)
    target = min(n_facets, math.comb(n_vertices, dim + 1))
    _check_faces(f"{target} random facet(s) of dimension {dim}", target, dim + 1)
    rng = random.Random(seed)
    pool = range(n_vertices)
    facets: set[tuple[int, ...]] = set()
    apexes: dict[tuple[int, ...], list[int]] = {}  # ridge -> apex of each facet over it
    doubled: dict[tuple[int, ...], set[int]] = {}  # face -> each x, face + x under 2+ facets
    boundary: list[tuple[int, ...]] = []  # sorted ridges under exactly one facet

    def add(f: tuple[int, ...]) -> None:
        if f in facets:
            return
        facets.add(f)
        for i, apex in enumerate(f):
            r = f[:i] + f[i + 1 :]
            over = apexes.setdefault(r, [])
            over.append(apex)
            if len(over) == 1:
                insort(boundary, r)
            elif len(over) == 2:
                del boundary[bisect_left(boundary, r)]
                for j, x in enumerate(r):
                    doubled.setdefault(r[:j] + r[j + 1 :], set()).add(x)

    add(tuple(sorted(rng.sample(pool, dim + 1))))
    attempts = 0
    while len(facets) < target and attempts < 50 * n_facets:
        attempts += 1
        if rng.random() < glue_bias:
            # glue onto a ridge with exactly one coface, and only in ways
            # that keep every ridge under two cofaces: growth then looks
            # manifold-like and can close up into a pseudomanifold
            if not boundary:
                continue
            ridge = rng.choice(boundary)
            blocked = {*ridge, *apexes[ridge]}
            for j in range(dim):
                blocked.update(doubled.get(ridge[:j] + ridge[j + 1 :], ()))
            if len(blocked) == n_vertices:
                continue
            # the pick-th vertex of the pool outside ``blocked``
            pick = rng.randrange(n_vertices - len(blocked))
            for b in sorted(blocked):
                if b > pick:
                    break
                pick += 1
            add(tuple(sorted((*ridge, pick))))
        else:
            add(tuple(sorted(rng.sample(pool, dim + 1))))
    return SimplicialComplex(sorted(facets))


@dataclass(frozen=True)
class _Entry:
    fn: object
    params: tuple[str, ...]
    takes_seed: bool = False


_REGISTRY: dict[str, _Entry] = {
    "simplex": _Entry(solid_simplex, ("n",)),
    "sphere": _Entry(sphere, ("n",)),
    "disk": _Entry(disk, ("m",)),
    "annulus": _Entry(annulus, ("m",)),
    "pinched-sphere": _Entry(pinched_sphere, ()),
    "pinched-box": _Entry(pinched_box, ("m",)),
    "khalimsky": _Entry(khalimsky_block, ("w", "h")),
    "random-pure": _Entry(random_pure_complex, ("dim", "vertices", "facets"), True),
}


def generator_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def generate(name: str, *params: int):
    """Build a named instance: a SimplicialComplex, or a Poset for cubical ones.

    ``name`` is followed by the generator's integer parameters. The random
    family takes its seed as an optional last parameter (default 0).
    """
    entry = _REGISTRY.get(name)
    if entry is None:
        raise DomainError(f"unknown generator {name!r}; known: {', '.join(generator_names())}")
    params = tuple(int(p) for p in params)
    arity = len(entry.params)
    if len(params) != arity and not (entry.takes_seed and len(params) == arity + 1):
        expected = " ".join(entry.params) + (" [seed]" if entry.takes_seed else "")
        raise DomainError(f"generator {name!r} expects parameters: {expected or '(none)'}")
    return entry.fn(*params)
