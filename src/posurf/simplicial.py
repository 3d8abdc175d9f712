"""Simplicial complexes: construction, links, joins, pseudomanifold tests.

A simplex is a frozenset of integer vertex labels; its dimension is its
cardinality minus one. A complex is the downward closure of any family of
simplices and stores every nonempty face, so it is closed under inclusion
and therefore under intersection. The face poset bridges a complex to the
poset-level recognizers; there, the rank of every face equals its
dimension.
"""

from __future__ import annotations

import operator
from itertools import combinations
from typing import Iterable, Iterator, NoReturn

from .errors import DomainError, ParseError
from .poset import Poset, check_poset_faces, content_lines

__all__ = [
    "SimplicialComplex",
    "simplicial_join",
    "read_facets",
    "write_facets",
    "check_condition_C",
]

# Upper bound on the closure of a facet list, checked before each facet's
# subsets are enumerated. The sum of 2^|f| - 1 over the facets bounds the
# face count, and every per-complex index (faces, ridges, stars) grows
# linearly in it. The bound admits ``annulus 8000`` (112,000) and refuses
# one 18-vertex facet (262,143), whose closure alone takes seconds and
# hundreds of megabytes.
MAX_FACES = 1 << 17


def refuse_faces(what: str, bound: int) -> NoReturn:
    """Refuse ``what``, whose closure may have ``bound`` > MAX_FACES faces.

    A bound wider than 64 bits is named by its power of two: one large
    facet's 2^|f| - 1 has more digits than ``str`` converts.
    """
    size = f"up to {bound}" if bound.bit_length() <= 64 else f"over 2^{bound.bit_length() - 1}"
    raise DomainError(f"{what} may have {size} faces, above the limit of {MAX_FACES}")


def _as_simplex(vertices: Iterable[int]) -> frozenset[int]:
    try:
        s = frozenset(map(operator.index, vertices))
    except TypeError:
        raise DomainError(f"a simplex is a set of integer vertices, not {vertices!r}") from None
    if not s:
        raise DomainError("the empty simplex is not a face")
    return s


def _canonical(simplices: Iterable[tuple[int, ...]]) -> tuple[frozenset, ...]:
    """Sorted vertex tuples as frozensets, by dimension, then vertex tuple.

    Built from a list of known length: ``tuple()`` over a ``map`` grows by
    repeated resizing, and over many small complexes that fragmented the
    heap until peak RSS grew with the number of complexes built.
    """
    return tuple([frozenset(t) for t in sorted(sorted(simplices), key=len)])


class SimplicialComplex:
    """The downward closure of a family of nonempty integer simplices."""

    def __init__(self, simplices: Iterable[Iterable[int]]):
        """Close ``simplices`` under inclusion; the maximal ones are the facets.

        Raises DomainError, before enumerating a facet's subsets, when the
        facets so far could have more than ``MAX_FACES`` faces together.
        """
        closure: set[tuple[int, ...]] = set()
        facets = []
        bound = 0
        # largest first, so a generator under another one is already closed
        for g in sorted({_as_simplex(s) for s in simplices}, key=len, reverse=True):
            vs = tuple(sorted(g))
            if vs in closure:
                continue
            bound += (1 << len(vs)) - 1
            if bound > MAX_FACES:
                refuse_faces(f"the closure of {len(facets) + 1} facet(s)", bound)
            facets.append(vs)
            for r in range(1, len(vs) + 1):
                closure.update(combinations(vs, r))
        self._canonical = _canonical(closure)
        self._dim = len(self._canonical[-1]) - 1 if closure else -1
        self._facets = _canonical(facets)
        self._vertices = tuple(sorted(set().union(*facets)))
        self._poset: Poset | None = None
        self._ridges: dict[frozenset, list[int]] | None = None
        self._pseudomanifold: bool | None = None
        self._normal: bool | None = None

    # -- basic queries ------------------------------------------------------

    @property
    def dim(self) -> int:
        """Top dimension; -1 for the empty complex."""
        return self._dim

    @property
    def faces(self) -> tuple[frozenset, ...]:
        """All faces in canonical order (by dimension, then vertex tuple)."""
        return self._canonical

    @property
    def facets(self) -> tuple[frozenset, ...]:
        """The maximal faces, in canonical order."""
        return self._facets

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    def __len__(self) -> int:
        return len(self._canonical)

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self._canonical)

    def __contains__(self, simplex) -> bool:
        try:
            s = _as_simplex(simplex)
        except DomainError:
            return False
        return any(s <= f for f in self._facets)

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self._canonical == other._canonical

    def __hash__(self) -> int:
        return hash(self._canonical)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self)} faces, dim {self._dim})"

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by dimension, from 0 up to dim."""
        counts = [0] * (self._dim + 1)
        for f in self._canonical:
            counts[len(f) - 1] += 1
        return tuple(counts)

    # -- face poset bridge --------------------------------------------------

    def face_poset(self) -> Poset:
        """Poset of all faces under inclusion; covering is codimension 1.

        Ids follow the canonical face order and labels record the sorted
        vertex tuple, comma separated. Cached on the complex. Refused, before
        any label or cover is built, above ``MAX_POSET_FACES`` faces.
        """
        if self._poset is None:
            check_poset_faces(len(self._canonical))
            idx = dict(zip(self._canonical, range(len(self._canonical))))
            covers = []
            labels = []
            for f in self._canonical:
                labels.append(",".join(str(v) for v in sorted(f)))
                covers.append(sorted(idx[f - {v}] for v in f) if len(f) > 1 else [])
            self._poset = Poset(covers, labels)
        return self._poset

    # -- links and structural predicates ------------------------------------

    def link(self, simplex) -> "SimplicialComplex":
        """Faces disjoint from ``simplex`` whose union with it is a face: the
        closure of ``F - simplex`` over the facets F strictly containing it."""
        h = _as_simplex(simplex)
        if h not in self:
            raise DomainError(f"{sorted(h)} is not a face of the complex")
        return SimplicialComplex(f - h for f in self._facets if h < f)

    def is_pure(self) -> bool:
        """Every face lies under a top-dimensional facet."""
        return all(len(f) - 1 == self._dim for f in self._facets)

    def _ridge_index(self) -> dict[frozenset, list[int]]:
        """Each ridge under a top facet -> positions of its top cofaces among
        the top facets; empty below dimension 1. Cached on the complex."""
        if self._ridges is None:
            top = [f for f in self._facets if len(f) - 1 == self._dim > 0]
            self._ridges = _ridge_index(top)
        return self._ridges

    def boundary_ridges(self) -> list[frozenset]:
        """The ridges under exactly one top facet; on a simplicial PCM, the
        facets of its border, which is their closure (not built here)."""
        return [r for r, cofacets in self._ridge_index().items() if len(cofacets) == 1]

    def is_codim1_connected(self) -> bool:
        """Facet dual-graph connectivity (facets adjacent via a shared ridge).

        This decides the existence of paths between top faces that use only
        faces of the top two dimensions. Requires a pure complex.
        """
        if not self.is_pure():
            raise DomainError("codim-1 connectivity requires a pure complex")
        parent = list(range(len(self._facets)))
        for cofacets in self._ridge_index().values():
            for other in cofacets[1:]:
                _union(parent, cofacets[0], other)
        return sum(1 for i, p in enumerate(parent) if i == p) <= 1

    def is_pseudomanifold(self) -> bool:
        """Pure, each ridge under one or two top faces, dual graph connected.

        A rank-0 complex qualifies only as the degenerate single vertex;
        the empty complex does not qualify. Cached on the complex.
        """
        if self._pseudomanifold is None:
            n = self._dim
            if n <= 0:
                self._pseudomanifold = n == 0 and len(self._canonical) == 1
            else:
                self._pseudomanifold = (
                    self.is_pure()
                    and all(len(c) <= 2 for c in self._ridge_index().values())
                    and self.is_codim1_connected()
                )
        return self._pseudomanifold

    def is_normal_pseudomanifold(self) -> bool:
        """Pseudomanifold whose links of codimension >= 2 faces are pseudomanifolds.

        Decided from star connectivity, without building any link: a
        pseudomanifold is normal iff, for each face f of codimension >= 2,
        the facets containing f are connected through ridges containing f.
        The two agree because in a pseudomanifold every such link is pure
        (its facets are F - f for the facets F over f) and each of its
        ridges R - f lies under as many of its facets as the ridge R of the
        complex does, so one or two; the link is then a pseudomanifold iff
        its dual graph is connected, and that graph is the star's graph of
        facets over f joined by ridges over f. Cached on the complex.
        """
        if self._normal is None:
            self._normal = self.is_pseudomanifold() and _stars_connected(self._ridge_index())
        return self._normal


def _ridge_index(facets: list[frozenset]) -> dict[frozenset, list[int]]:
    """Each ridge of a family of same-size facets -> positions of the facets
    over it, built in one pass."""
    ridges: dict[frozenset, list[int]] = {}
    for i, f in enumerate(facets):
        for v in f:
            ridges.setdefault(f - {v}, []).append(i)
    return ridges


def _stars_connected(ridges: dict[frozenset, list[int]]) -> bool:
    """Over each nonempty face strictly under a ridge (of codimension >= 2
    in the facets' closure), the facets are connected through the ridges
    over it: one union-find per face, from a ridge index of ``_ridge_index``."""
    stars: dict[frozenset, dict[int, int]] = {}
    for ridge, cofacets in ridges.items():
        # the faces of codimension >= 2 under this ridge: 1 to |ridge| - 1 vertices
        for size in range(1, len(ridge)):
            for sub in combinations(ridge, size):
                parent = stars.setdefault(frozenset(sub), {})
                for i in cofacets:
                    parent.setdefault(i, i)
                for other in cofacets[1:]:
                    _union(parent, cofacets[0], other)
    return all(sum(1 for i, p in parent.items() if i == p) == 1 for parent in stars.values())


def check_condition_C(complex) -> bool:
    """Border-smoothness condition (C) for a simplicial n-PCM, n >= 1.

    (C) asks every border face for a strict neighborhood inside the border
    that is an (n-2)-surface. It is decided here from simplicial data only,
    without the face poset, and it decides smoothness exactly:

    1. Smooth implies (C): a smooth PCM's border is a separated union of
       (n-1)-surfaces, and inside such a union each face's strict
       neighborhood is the one it has in its own component, an
       (n-2)-surface.
    2. (C) implies smooth: the paper's sufficient condition.
    3. The border of a simplicial PCM is its boundary complex B, the
       closure of the ridges under exactly one top facet. Every ridge of B
       lies under exactly two facets of B, because in a normal
       pseudomanifold the link of a codimension-2 face is a path or a
       cycle. (C) then holds iff, for every face of B of codimension >= 2
       in B, the facets of B over it are connected through ridges of B
       over it: each vertex-connected component of B is a closed normal
       (n-1)-pseudomanifold, for n-1 >= 2 an (n-1)-surface by the normal
       pseudomanifold characterization, and for n-1 = 1 a cycle. For
       n = 1, B is a path's two endpoints and (C) holds trivially, so
       every 1-PCM is smooth. B is read from its facets, the boundary
       ridges, and is never closed.

    The input must be a normal pseudomanifold of dimension n >= 1 with at
    least one boundary ridge, which is what an n-PCM is among simplicial
    complexes; DomainError otherwise.
    """
    if not isinstance(complex, SimplicialComplex):
        raise DomainError("condition (C) applies to simplicial complexes")
    if complex.dim < 1:
        raise DomainError("condition (C) applies to complexes of rank >= 1")
    boundary = complex.boundary_ridges()
    if not (complex.is_normal_pseudomanifold() and boundary):
        raise DomainError("condition (C) requires an n-PCM input")
    return _stars_connected(_ridge_index(boundary))


def _find(parent, x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, a: int, b: int) -> None:
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[rb] = ra


def simplicial_join(k: SimplicialComplex, l: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes: both plus all unions of a face from each.

    It is the closure of the unions of a facet from each, or of the other
    side's facets when one side is empty. When the vertex sets collide,
    the second complex is renumbered upward by an offset; the result's
    dimension is dim(k) + dim(l) + 1.

    The unions are distinct and maximal, so their closure has at most
    sum over pairs of 2^(|x| + |y|) - 1 faces, which is the constructor's
    own bound. It is checked in closed form before any union is built.
    """
    l_facets = l.facets
    if set(k.vertices) & set(l.vertices):
        offset = max(k.vertices) + 1 - min(l.vertices)
        l_facets = tuple(frozenset(v + offset for v in f) for f in l_facets)
    if not k.facets or not l_facets:
        return SimplicialComplex(k.facets + l_facets)
    pairs = len(k.facets) * len(l_facets)
    bound = sum(1 << len(x) for x in k.facets) * sum(1 << len(y) for y in l_facets) - pairs
    if bound > MAX_FACES:
        refuse_faces(f"the join of {len(k.facets)} facets with {len(l_facets)} facets", bound)
    return SimplicialComplex(x | y for x in k.facets for y in l_facets)


def read_facets(text: str) -> SimplicialComplex:
    """Parse the facet-list format: one facet per line, '#' comments.

    Refused through ``refuse_faces`` at the first line whose simplex alone
    has more than ``MAX_FACES`` faces, or that is the ``MAX_FACES`` + 1-th
    distinct simplex. Both bounds are exact: every simplex read is a face of
    the closure, so the constructor, which reads every line first, refuses
    each such input too.
    """
    simplices: set[frozenset[int]] = set()
    bound = 0
    for no, line in content_lines(text):
        try:
            verts = [int(t) for t in line.split()]
        except ValueError:
            raise ParseError(f"facet vertices must be integers: {line!r}", no) from None
        s = frozenset(verts)
        if len(s) != len(verts):
            raise ParseError(f"repeated vertex in facet: {line!r}", no)
        faces = (1 << len(s)) - 1
        if faces > MAX_FACES:
            refuse_faces(f"line {no}: a simplex of {len(s)} vertices", faces)
        if s not in simplices:
            simplices.add(s)
            bound += faces
            if len(simplices) > MAX_FACES:
                refuse_faces(f"line {no}: the closure of {len(simplices)} simplices", bound)
    return SimplicialComplex(simplices)


def write_facets(k: SimplicialComplex) -> str:
    """Serialize a complex as its facet list, canonically ordered."""
    lines = [" ".join(str(v) for v in sorted(f)) for f in k.facets]
    return "\n".join(lines) + ("\n" if lines else "")
