"""Border/interior operators, the PCM recognizers and condition (C).

The border of a rank-n suborder collects the faces whose strict
neighborhood fails the (n-1)-surface test; the interior is the rest.
These are thin wrappers over the one recursion of
:class:`posurf.surfaces.Views`, which decides PCM and smooth PCM alike and
shares its memos with the surface recognizer. Condition (C) is decided
from a simplicial complex's boundary ridges instead, with no face poset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .poset import Poset, SuborderView, as_view, component_masks, iter_bits
from .simplicial import SimplicialComplex, _ridge_index, _stars_connected
from .surfaces import NOT_PCM, SurfaceVerdict, Views

__all__ = [
    "BorderDecomposition",
    "PcmVerdict",
    "border",
    "is_pcm",
    "is_smooth_pcm",
    "check_condition_C",
    "border_mask_of",
]


@dataclass(frozen=True)
class PcmVerdict:
    """Outcome of a PCM recognizer; ``rank`` is set only when it holds."""

    holds: bool
    rank: int | None


@dataclass(frozen=True)
class BorderDecomposition:
    """The border of a view, its interior, and the border's components.

    Each component comes with its own surface verdict, evaluated as a
    standalone suborder.
    """

    border_faces: frozenset[int]
    interior_faces: frozenset[int]
    components: tuple[tuple[frozenset[int], SurfaceVerdict], ...]

    @property
    def is_empty(self) -> bool:
        return not self.border_faces


def border_mask_of(obj: "Poset | SuborderView") -> int:
    """Bitmask of the border faces of a poset or view of rank >= 0."""
    view = as_view(obj)
    return Views(view.ambient).border(view.mask)


def border(obj: "Poset | SuborderView") -> BorderDecomposition:
    """Border decomposition of a poset or suborder view (rank >= 0).

    Scans the faces in id order and tests each strict neighborhood against
    the (rank-1)-surface target; the border faces are then partitioned
    into theta-connected components, each with its surface verdict.
    """
    view = as_view(obj)
    views = Views(view.ambient)
    bmask = views.border(view.mask)
    return BorderDecomposition(
        border_faces=frozenset(iter_bits(bmask)),
        interior_faces=frozenset(iter_bits(view.mask & ~bmask)),
        components=tuple(
            (frozenset(iter_bits(cm)), SurfaceVerdict.of(views, cm))
            for cm in component_masks(view.ambient, bmask)
        ),
    )


def _pcm_verdict(obj: "Poset | SuborderView", smooth: bool) -> PcmVerdict:
    view = as_view(obj)
    r = Views(view.ambient).pcm(view.mask, smooth)
    return PcmVerdict(r != NOT_PCM, None if r == NOT_PCM else r)


def is_pcm(obj: "Poset | SuborderView") -> PcmVerdict:
    return _pcm_verdict(obj, smooth=False)


def is_smooth_pcm(obj: "Poset | SuborderView") -> PcmVerdict:
    return _pcm_verdict(obj, smooth=True)


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
