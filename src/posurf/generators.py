"""Deterministic instance constructors: the named corpus plus a seeded
random family. The same spec always yields the identical facet list."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import DomainError
from .poset import Poset
from .simplicial import MAX_FACES, SimplicialComplex, simplicial_join

__all__ = [
    "GeneratorSpec",
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


@dataclass(frozen=True)
class GeneratorSpec:
    """Name plus integer parameters (and a seed for the random family)."""

    name: str
    params: tuple[int, ...] = ()
    seed: int | None = None


def solid_simplex(n: int) -> SimplicialComplex:
    """The full n-simplex on vertices 0..n."""
    if n < 0:
        raise DomainError("simplex needs n >= 0")
    return SimplicialComplex([range(n + 1)])


def sphere(n: int) -> SimplicialComplex:
    """Boundary of the (n+1)-simplex: the minimal triangulated n-sphere."""
    if n < 0:
        raise DomainError("sphere needs n >= 0")
    verts = list(range(n + 2))
    return SimplicialComplex([verts[:i] + verts[i + 1 :] for i in range(len(verts))])


def disk(m: int) -> SimplicialComplex:
    """Triangulated disk: the cone over an m-cycle (apex is vertex m)."""
    if m < 3:
        raise DomainError("disk needs a cycle length m >= 3")
    return SimplicialComplex([(i, (i + 1) % m, m) for i in range(m)])


def annulus(m: int) -> SimplicialComplex:
    """Triangulated annulus: two m-cycles (0..m-1 and m..2m-1), 2m triangles."""
    if m < 4:
        raise DomainError("annulus needs a cycle length m >= 4")
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
    apex = SimplicialComplex([[2 * m]])
    return simplicial_join(annulus(m), apex)


def khalimsky_block(w: int, h: int) -> Poset:
    """Cubical block of w x h unit squares, as a poset.

    Cells are grid points (x, y) with 0 <= x <= 2w and 0 <= y <= 2h; the
    number of odd coordinates is the cell's rank, and a cell covers the
    cells reached by moving one odd coordinate to an adjacent even value.
    Labels are "x,y".
    """
    if w < 1 or h < 1:
        raise DomainError("khalimsky block needs w >= 1 and h >= 1")
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

    An attempt costs time in the facets it touches, not in the whole draw
    or the pool. Ridge counts are updated as facets are added, and the
    sorted boundary ridges are rebuilt only after an add. A vertex outside
    every facet always extends a ridge, since its side ridges are new, so
    only the used vertices are checked, and the pick is an index into the
    pool minus the ridge and the used vertices that fail: the same draw as
    a choice among the candidates in order. The loop stops once
    ``min(n_facets, C(n_vertices, dim + 1))`` facets are drawn (a full pool
    takes no more) or after ``50 * n_facets`` attempts, so it may return
    fewer facets than asked. The facets are exactly those drawn by
    recounting every ridge on each attempt
    (``tests/oracles.py::random_pure_by_recount``).

    Raises DomainError before drawing when that many facets could have more
    than ``MAX_FACES`` faces together.
    """
    if dim < 1:
        raise DomainError("random-pure needs dim >= 1")
    if n_vertices < dim + 2:
        raise DomainError(f"random-pure needs at least dim + 2 = {dim + 2} vertices")
    if n_facets < 1:
        raise DomainError("random-pure needs at least one facet")
    target = min(n_facets, math.comb(n_vertices, dim + 1))
    bound = target * (2 ** (dim + 1) - 1)
    if bound > MAX_FACES:
        raise DomainError(
            f"{target} random facet(s) of dimension {dim} may have up to "
            f"{bound} faces, above the limit of {MAX_FACES}"
        )
    rng = random.Random(seed)
    pool = range(n_vertices)
    facets: set[tuple[int, ...]] = set()
    ridge_counts: dict[tuple[int, ...], int] = {}
    used: set[int] = set()  # the vertices of the facets
    boundary = None  # sorted ridges under exactly one facet, until the next add

    def add(f: tuple[int, ...]) -> None:
        nonlocal boundary
        if f in facets:
            return
        facets.add(f)
        for i in range(len(f)):
            r = f[:i] + f[i + 1 :]
            ridge_counts[r] = ridge_counts.get(r, 0) + 1
        used.update(f)
        boundary = None

    add(tuple(sorted(rng.sample(pool, dim + 1))))
    attempts = 0
    while len(facets) < target and attempts < 50 * n_facets:
        attempts += 1
        if rng.random() < glue_bias:
            # glue onto a ridge with exactly one coface, and only in ways
            # that keep every ridge under two cofaces: growth then looks
            # manifold-like and can close up into a pseudomanifold
            if boundary is None:
                boundary = sorted(r for r, c in ridge_counts.items() if c == 1)
            if not boundary:
                continue
            ridge = rng.choice(boundary)
            blocked = set(ridge)
            for v in used - blocked:
                cand = tuple(sorted((*ridge, v)))
                if cand in facets or any(
                    ridge_counts.get(cand[:i] + cand[i + 1 :], 0) > 1
                    for i in range(dim + 1)
                    if cand[i] != v
                ):
                    blocked.add(v)
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
    doc: str
    takes_seed: bool = False


_REGISTRY: dict[str, _Entry] = {
    "simplex": _Entry(solid_simplex, ("n",), "full n-simplex"),
    "sphere": _Entry(sphere, ("n",), "boundary of the (n+1)-simplex"),
    "disk": _Entry(disk, ("m",), "cone over an m-cycle"),
    "annulus": _Entry(annulus, ("m",), "two m-cycles, 2m triangles"),
    "pinched-sphere": _Entry(pinched_sphere, (), "icosahedron with antipodes identified"),
    "pinched-box": _Entry(pinched_box, ("m",), "cone over the m-annulus"),
    "khalimsky": _Entry(khalimsky_block, ("w", "h"), "cubical w x h block (poset)"),
    "random-pure": _Entry(
        random_pure_complex, ("dim", "vertices", "facets"), "seeded random pure complex", True
    ),
}


def generator_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def generate(spec, *params: int, seed: int | None = None):
    """Build a named instance: a SimplicialComplex, or a Poset for cubical ones.

    ``spec`` is a GeneratorSpec or a name followed by integer parameters.
    For the random family the seed may be given as the last positional
    parameter or via ``seed=``.
    """
    if isinstance(spec, GeneratorSpec):
        name, params, seed = spec.name, spec.params, spec.seed
    else:
        name = spec
    entry = _REGISTRY.get(name)
    if entry is None:
        raise DomainError(f"unknown generator {name!r}; known: {', '.join(generator_names())}")
    params = tuple(int(p) for p in params)
    arity = len(entry.params)
    if entry.takes_seed and len(params) == arity + 1:
        seed = params[-1]
        params = params[:-1]
    if len(params) != arity:
        expected = " ".join(entry.params) or "(none)"
        raise DomainError(f"generator {name!r} expects parameters: {expected}")
    if entry.takes_seed:
        return entry.fn(*params, seed=seed if seed is not None else 0)
    return entry.fn(*params)
