"""Simplicial complexes: construction, links, joins, pseudomanifold tests.

A simplex is a frozenset of integer vertex labels; its dimension is its
cardinality minus one. A complex is the downward closure of any family of
simplices, so it is closed under inclusion and therefore under
intersection. It keeps its faces as sorted vertex tuples, and builds the
public frozenset faces only when they are read. The face poset bridges a
complex to the poset-level recognizers; there, the rank of every face
equals its dimension. The pseudomanifold tests read one ridge index and
one facet dual graph per complex, and search each star as an induced
subgraph.
"""

from __future__ import annotations

import operator
from itertools import combinations
from typing import Callable, Iterable, Iterator, NoReturn

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


def _canonical(simplices: list[tuple[int, ...]]) -> tuple[frozenset, ...]:
    """Sort the vertex tuples in place, by dimension, then vertex tuple, and
    return them as frozensets.

    Built from a list of known length: ``tuple()`` over a ``map`` grows by
    repeated resizing, and over many small complexes that fragmented the
    heap until peak RSS grew with the number of complexes built.
    """
    simplices.sort()
    simplices.sort(key=len)
    return tuple([frozenset(t) for t in simplices])


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
        # the closure, as sorted vertex tuples; the frozenset faces are
        # built from it on first read of ``faces``
        self._closure = closure
        self._faces: tuple[frozenset, ...] | None = None
        self._facets = _canonical(facets)
        self._dim = len(facets[-1]) - 1 if facets else -1
        self._vertices = tuple(sorted(set().union(*facets)))
        # the top facets' vertex tuples, numbered as in ``_facets`` on a
        # pure complex: the ridge index and the dual graph index them
        self._top = [vs for vs in facets if len(vs) - 1 == self._dim > 0]
        self._poset: Poset | None = None
        self._ridges: dict[tuple[int, ...], list[int]] | None = None
        self._adjacency: list[list[int]] | None = None
        self._border_ridges: list[tuple[int, ...]] | None = None
        self._pseudomanifold: bool | None = None
        self._normal: bool | None = None

    # -- basic queries ------------------------------------------------------

    @property
    def dim(self) -> int:
        """Top dimension; -1 for the empty complex."""
        return self._dim

    @property
    def faces(self) -> tuple[frozenset, ...]:
        """All faces in canonical order (by dimension, then vertex tuple).
        Built on first read and cached on the complex."""
        if self._faces is None:
            self._faces = _canonical(list(self._closure))
        return self._faces

    @property
    def facets(self) -> tuple[frozenset, ...]:
        """The maximal faces, in canonical order."""
        return self._facets

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    def __len__(self) -> int:
        return len(self._closure)

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self.faces)

    def __contains__(self, simplex) -> bool:
        try:
            s = _as_simplex(simplex)
        except DomainError:
            return False
        return tuple(sorted(s)) in self._closure

    # a complex is fixed by its facets, which are listed in canonical order
    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self._facets == other._facets

    def __hash__(self) -> int:
        return hash(self._facets)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self)} faces, dim {self._dim})"

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by dimension, from 0 up to dim."""
        counts = [0] * (self._dim + 1)
        for f in self._closure:
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
            check_poset_faces(len(self._closure))
            faces = self.faces
            idx = dict(zip(faces, range(len(faces))))
            covers = []
            labels = []
            for f in faces:
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

    def _ridge_index(self) -> dict[tuple[int, ...], list[int]]:
        """Each ridge under a top facet (sorted vertex tuples) -> positions of
        its top cofaces in ``_top``; empty below dimension 1. Cached."""
        if self._ridges is None:
            self._ridges = _ridge_index(self._top)
        return self._ridges

    def _dual(self) -> list[list[int]]:
        """The dual graph of a pure complex, built on first use. Cached on the complex."""
        if self._adjacency is None:
            self._adjacency = _dual_graph(len(self._facets), self._ridge_index())
        return self._adjacency

    def _boundary(self) -> list[tuple[int, ...]]:
        """The ridges under exactly one top facet, as sorted vertex tuples. Cached."""
        if self._border_ridges is None:
            self._border_ridges = [r for r, cofacets in self._ridge_index().items() if len(cofacets) == 1]
        return self._border_ridges

    def boundary_ridges(self) -> list[frozenset]:
        """The ridges under exactly one top facet; on a simplicial PCM, the
        facets of its border, which is their closure (not built here)."""
        return [frozenset(r) for r in self._boundary()]

    def is_codim1_connected(self) -> bool:
        """Facet dual-graph connectivity (facets adjacent via a shared ridge).

        This decides the existence of paths between top faces that use only
        faces of the top two dimensions. Requires a pure complex.
        """
        if not self.is_pure():
            raise DomainError("codim-1 connectivity requires a pure complex")
        return self._dual_connected()

    def _dual_connected(self) -> bool:
        """Whether the facets of a pure complex are connected through ridges."""
        n = len(self._facets)
        return n <= 1 or self._dim > 0 and _connected(self._dual(), range(n))

    def is_pseudomanifold(self) -> bool:
        """Pure, each ridge under one or two top faces, dual graph connected.

        A rank-0 complex qualifies only as the degenerate single vertex;
        the empty complex does not qualify. Cached on the complex.
        """
        if self._pseudomanifold is None:
            self._pseudomanifold = (
                self._dim >= 0
                and self.is_pure()
                and all(len(c) <= 2 for c in self._ridge_index().values())
                and self._dual_connected()
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
            self._normal = self.is_pseudomanifold() and _stars_connected(self._top, self._dual)
        return self._normal


def _ridge_index(facets: list[tuple[int, ...]]) -> dict[tuple[int, ...], list[int]]:
    """Each ridge of a family of same-size sorted vertex tuples -> positions
    of the facets over it, built in one pass."""
    ridges: dict[tuple[int, ...], list[int]] = {}
    for i, f in enumerate(facets):
        for ridge in combinations(f, len(f) - 1):
            ridges.setdefault(ridge, []).append(i)
    return ridges


def _dual_graph(size: int, ridges: dict[tuple[int, ...], list[int]]) -> list[list[int]]:
    """Neighbour lists of ``size`` facets, adjacent when they share a ridge."""
    adjacency: list[list[int]] = [[] for _ in range(size)]
    for cofacets in ridges.values():
        if len(cofacets) == 2:
            a, b = cofacets
            adjacency[a].append(b)
            adjacency[b].append(a)
        elif len(cofacets) > 2:
            for i in cofacets:
                adjacency[i].extend(j for j in cofacets if j != i)
    return adjacency


def _connected(adjacency: list[list[int]], nodes: Iterable[int]) -> bool:
    """Whether ``nodes`` (at least one) induce a connected subgraph: one search."""
    todo = set(nodes)
    stack = [todo.pop()]
    while stack and todo:
        for j in adjacency[stack.pop()]:
            if j in todo:
                todo.remove(j)
                stack.append(j)
    return not todo


def _stars_connected(facets: list[tuple[int, ...]], dual: Callable[[], list[list[int]]]) -> bool:
    """Whether, over each nonempty face S of codimension >= 2 in the closure
    of ``facets`` (same-size sorted vertex tuples), the facets over S are
    connected through ridges over S; ``dual()``, the facets' dual graph, is
    called only if some star has two or more facets.

    If two facets F and G over S share a ridge R, then R = F & G, since F
    and G are distinct and R is one vertex short of each; so R contains S.
    The star graph of S is thus exactly the dual graph induced on the
    facets over S, which are collected from the facets' own subsets of 1
    to |F| - 2 vertices: sum over F of 2^|F| - |F| - 2 appends. On a
    complex's top facets that is below its ``MAX_FACES`` bound; on its
    boundary ridges, at most |F| / 2 times that bound's term 2^|F| - 1.
    """
    stars: dict[tuple[int, ...], list[int]] = {}
    for i, f in enumerate(facets):
        for size in range(1, len(f) - 1):
            for s in combinations(f, size):
                stars.setdefault(s, []).append(i)
    searched = [star for star in stars.values() if len(star) > 1]
    adjacency = dual() if searched else []
    return all(_connected(adjacency, star) for star in searched)


def check_condition_C(complex) -> bool:
    """Border-smoothness condition (C) for a simplicial n-PCM, n >= 1.

    (C) asks every border face for a strict neighborhood inside the border
    that is an (n-2)-surface. It is decided here from simplicial data only,
    without the face poset, and it decides smoothness exactly:

    1. Smooth implies (C): a smooth PCM's border is a separated union of
       (n-1)-surfaces, and inside such a union each face's strict
       neighborhood is the one it has in its own component, an
       (n-2)-surface.
    2. (C) implies smooth, on every poset: the proof is in the docstring
       of ``posurf.surfaces.is_smooth_pcm``, which decides smoothness so.
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
    boundary = complex._boundary()
    if not (complex.is_normal_pseudomanifold() and boundary):
        raise DomainError("condition (C) requires an n-PCM input")
    return _stars_connected(boundary, lambda: _dual_graph(len(boundary), _ridge_index(boundary)))


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
    each such input too. A line is split at most one vertex past the largest
    simplex admitted (17), and a longer line is refused by its first
    vertices, so it costs no more than its text.
    """
    most = (MAX_FACES + 1).bit_length() - 1
    simplices: set[frozenset[int]] = set()
    bound = 0
    for no, line in content_lines(text):
        toks = line.split(None, most + 1)
        if len(toks) > most + 1:
            what = f"line {no}: a simplex on its first {most + 2} vertices"
            refuse_faces(what, (1 << most + 2) - 1)
        try:
            s = frozenset(map(int, toks))
        except ValueError:
            raise ParseError("facet vertices must be integers", no) from None
        if len(s) != len(toks):
            raise ParseError("repeated vertex in facet", no)
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
