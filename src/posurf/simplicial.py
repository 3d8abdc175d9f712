"""Simplicial complexes: construction, links, joins, pseudomanifold tests.

A simplex is a frozenset of integer vertex labels; its dimension is its
cardinality minus one. A complex stores every nonempty face and is closed
under inclusion (checked) and therefore under intersection. The face
poset bridges a complex to the poset-level recognizers; there, the rank
of every face equals its dimension.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .errors import DomainError, ParseError
from .poset import Poset

__all__ = [
    "Simplex",
    "SimplicialComplex",
    "simplicial_join",
    "read_facets",
    "write_facets",
]

Simplex = frozenset

# Upper bound on the closure of a facet list, checked before any subset is
# enumerated. The sum of 2^|f| - 1 over the facets bounds the face count, and
# every per-complex index (faces, ridges, stars) grows linearly in it. The
# bound admits ``annulus 8000`` (112,000) and refuses one 18-vertex facet
# (262,143), whose closure alone takes seconds and hundreds of megabytes.
MAX_FACES = 1 << 17


def _as_simplex(vertices: Iterable[int]) -> frozenset[int]:
    s = frozenset(int(v) for v in vertices)
    if not s:
        raise DomainError("the empty simplex is not a face")
    return s


def _canonical_key(s: frozenset) -> tuple:
    return (len(s), tuple(sorted(s)))


class SimplicialComplex:
    """An inclusion-closed, intersection-closed family of nonempty simplices."""

    def __init__(self, simplices: Iterable[Iterable[int]]):
        faces = {_as_simplex(s) for s in simplices}
        for f in faces:
            if len(f) > 1:
                for v in f:
                    if f - {v} not in faces:
                        raise DomainError(
                            f"not closed under inclusion: {sorted(f - {v})} missing under {sorted(f)}"
                        )
        self._faces = frozenset(faces)
        self._canonical = tuple(sorted(faces, key=_canonical_key))
        self._dim = max((len(f) for f in faces), default=0) - 1
        non_maximal = set()
        for f in faces:
            if len(f) > 1:
                for v in f:
                    non_maximal.add(f - {v})
        self._facets = tuple(sorted((f for f in faces if f not in non_maximal), key=_canonical_key))
        self._vertices = tuple(sorted(set().union(*faces))) if faces else ()
        self._poset: Poset | None = None
        self._face_ids: dict[frozenset, int] | None = None
        self._ridges: dict[frozenset, list[int]] | None = None
        self._pseudomanifold: bool | None = None
        self._normal: bool | None = None
        self._boundary: SimplicialComplex | None = None

    @classmethod
    def from_facets(cls, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Downward closure of the given facets; each facet must be nonempty.

        Raises DomainError, before enumerating any face, when the closure
        could exceed ``MAX_FACES`` faces.
        """
        simplices = [_as_simplex(f) for f in facets]
        bound = sum((1 << len(f)) - 1 for f in simplices)
        if bound > MAX_FACES:
            raise DomainError(
                f"the closure of {len(simplices)} facet(s) may have up to {bound} faces, "
                f"above the limit of {MAX_FACES}"
            )
        faces: set[frozenset] = set()
        for f in simplices:
            vs = sorted(f)
            for r in range(1, len(vs) + 1):
                faces.update(frozenset(c) for c in combinations(vs, r))
        return cls(faces)

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
        return s in self._faces

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self._faces == other._faces

    def __hash__(self) -> int:
        return hash(self._faces)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self)} faces, dim {self._dim})"

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by dimension, from 0 up to dim."""
        counts = [0] * (self._dim + 1)
        for f in self._faces:
            counts[len(f) - 1] += 1
        return tuple(counts)

    # -- face poset bridge --------------------------------------------------

    def face_poset(self) -> Poset:
        """Poset of all faces under inclusion; covering is codimension 1.

        Ids follow the canonical face order and labels record the sorted
        vertex tuple, comma separated. Cached on the complex.
        """
        if self._poset is None:
            idx = self._face_index()
            covers = []
            labels = []
            for f in self._canonical:
                labels.append(",".join(str(v) for v in sorted(f)))
                covers.append(sorted(idx[f - {v}] for v in f) if len(f) > 1 else [])
            self._poset = Poset(covers, labels)
        return self._poset

    def _face_index(self) -> dict[frozenset, int]:
        """Face -> its id in the face poset (the canonical position); cached."""
        if self._face_ids is None:
            self._face_ids = {f: i for i, f in enumerate(self._canonical)}
        return self._face_ids

    def face_id(self, simplex) -> int:
        s = _as_simplex(simplex)
        try:
            return self._face_index()[s]
        except KeyError:
            raise DomainError(f"{sorted(s)} is not a face of the complex") from None

    # -- links and structural predicates ------------------------------------

    def link(self, simplex) -> "SimplicialComplex":
        """Faces disjoint from ``simplex`` whose union with it is a face."""
        h = _as_simplex(simplex)
        if h not in self._faces:
            raise DomainError(f"{sorted(h)} is not a face of the complex")
        return SimplicialComplex(f for f in self._faces if not f & h and (f | h) in self._faces)

    def is_pure(self) -> bool:
        """Every face lies under a top-dimensional facet."""
        return all(len(f) - 1 == self._dim for f in self._facets)

    def _ridge_index(self) -> dict[frozenset, list[int]]:
        """Each ridge under a top facet -> indices into ``facets`` of its top cofaces.

        Built in one pass over the facets and cached on the complex.
        """
        if self._ridges is None:
            ridges: dict[frozenset, list[int]] = {}
            for i, f in enumerate(self._facets):
                if len(f) - 1 == self._dim and len(f) > 1:
                    for v in f:
                        ridges.setdefault(f - {v}, []).append(i)
            self._ridges = ridges
        return self._ridges

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
                self._pseudomanifold = n == 0 and len(self._faces) == 1
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
            self._normal = self.is_pseudomanifold() and self._stars_connected()
        return self._normal

    def _stars_connected(self) -> bool:
        """Over each face of codimension >= 2 under a ridge, the facets are
        connected through ridges: one union-find per face, from the ridge index."""
        n = self._dim
        stars: dict[frozenset, dict[int, int]] = {}
        for ridge, cofacets in self._ridge_index().items():
            vs = tuple(ridge)
            # the faces of codimension >= 2 under this ridge: 1 to n-1 vertices
            for size in range(1, n):
                for sub in combinations(vs, size):
                    parent = stars.setdefault(frozenset(sub), {})
                    for i in cofacets:
                        parent.setdefault(i, i)
                    for other in cofacets[1:]:
                        _union(parent, cofacets[0], other)
        return all(sum(1 for i, p in parent.items() if i == p) == 1 for parent in stars.values())

    def boundary_complex(self) -> "SimplicialComplex":
        """Closure of the ridges that lie under exactly one top facet; cached.

        On a simplicial PCM this is its border: the faces whose strict
        neighborhood in the face poset is not a surface.
        """
        if self._boundary is None:
            self._boundary = SimplicialComplex.from_facets(
                r for r, cofacets in self._ridge_index().items() if len(cofacets) == 1
            )
        return self._boundary


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

    When the vertex sets collide, the second complex is renumbered upward
    by an offset; the result's dimension is dim(k) + dim(l) + 1.
    """
    l_faces = list(l.faces)
    if k.vertices and l.vertices and set(k.vertices) & set(l.vertices):
        offset = max(k.vertices) + 1 - min(l.vertices)
        l_faces = [frozenset(v + offset for v in f) for f in l_faces]
    faces = set(k.faces) | set(l_faces)
    faces.update(x | y for x in k.faces for y in l_faces)
    return SimplicialComplex(faces)


def read_facets(text: str) -> SimplicialComplex:
    """Parse the facet-list format: one facet per line, '#' comments."""
    facets = []
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            verts = [int(t) for t in toks]
        except ValueError:
            raise ParseError(f"facet vertices must be integers: {line!r}", no) from None
        if len(set(verts)) != len(verts):
            raise ParseError(f"repeated vertex in facet: {line!r}", no)
        facets.append(verts)
    return SimplicialComplex.from_facets(facets)


def write_facets(k: SimplicialComplex) -> str:
    """Serialize a complex as its facet list, canonically ordered."""
    lines = [" ".join(str(v) for v in sorted(f)) for f in k.facets]
    return "\n".join(lines) + ("\n" if lines else "")
