"""Border/interior operators, the PCM recognizers and condition (C).

The border of a rank-n suborder collects the faces whose strict
neighborhood fails the (n-1)-surface test; the interior is the rest.
These are thin wrappers over the one recursion of
:class:`posurf.surfaces.Views`, which decides PCM and smooth PCM alike and
shares its memos with the surface recognizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError
from .poset import Poset, SuborderView, as_view, component_masks, iter_bits, mask_of
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


def check_condition_C(complex, border_faces: Iterable[int] | None = None) -> bool:
    """Border-smoothness condition for a simplicial PCM of rank >= 2.

    Holds when every border face has, inside the border suborder, a strict
    neighborhood that is an (n-2)-surface. When ``border_faces`` is omitted
    the input is first verified to be an n-PCM (DomainError otherwise) and
    the border is computed from the definition; callers that have already
    established PCM-hood pass the border to skip both steps.

    The condition is sufficient for smoothness; it is not claimed necessary,
    so a negative answer alone does not settle non-smoothness.
    """
    from .simplicial import SimplicialComplex

    if not isinstance(complex, SimplicialComplex):
        raise DomainError("condition (C) applies to simplicial complexes")
    n = complex.dim
    if n < 2:
        raise DomainError("condition (C) applies to complexes of rank >= 2")
    poset = complex.face_poset()
    views = Views(poset)
    if border_faces is None:
        if views.pcm(poset.full_mask) != n:
            raise DomainError("condition (C) requires an n-PCM input")
        bmask = views.border(poset.full_mask)
    else:
        bmask = mask_of(as_view(poset), border_faces)
    theta = poset.theta_masks
    return all(views.surface(theta[h] & bmask) == n - 2 for h in iter_bits(bmask))
