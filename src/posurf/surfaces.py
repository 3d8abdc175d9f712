"""The recognizers' one recursion over suborder views.

``Views(poset)`` decides, for any member bitmask of the poset, its rank,
whether it is connected, whether it is a discrete surface, whether it is
coherent, its border, and whether it is a PCM or a smooth PCM. Each answer
is memoized under the bitmask in one of the poset's named memos
(``view_rank``, ``connected``, ``surface``, ``coherent``, ``border``,
``pcm``, ``smooth``), so every recognizer run on one poset shares the work
of the others. The exceptions are the views that a bit test decides, which
are never stored: surface views of at most two faces and PCM views of at
most one. On a khalimsky block most surface views are that small, and
each memo key is as wide as the poset, so storing them would cost more
memory than deciding them again costs time. Setting
``POSURF_DISABLE_MEMO`` to 1, true or yes turns every memo into one that
never stores, and each call then recomputes from the definitions
(differential debugging); the switch is read when a ``Views`` is made,
which each public recognizer does per call.
The recursion is depth-bounded: a strict neighborhood always has rank
strictly below the view it was taken in. ``Views`` refuses a poset of rank
above ``MAX_RANK`` with a DomainError, so the recursion never reaches
Python's frame limit. The surface and border tests split each strict
neighborhood into its two join factors, the strict closure and the strict
opening (see ``Views.surface``). The PCM and smooth PCM tests are one walk
over the border that ``Views.border`` computes (see ``Views.pcm``). Only
coherence, border and PCM tests compute ranks. The border of a rank-n view
collects the faces whose strict neighborhood is not an (n-1)-surface; the
interior is the rest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import DomainError
from .poset import Poset, SuborderView, as_view, component_masks, iter_bits, view_rank

__all__ = [
    "SurfaceVerdict",
    "PcmVerdict",
    "BorderDecomposition",
    "is_k_surface",
    "is_coherent",
    "border",
    "is_pcm",
    "is_smooth_pcm",
]

NOT_SURFACE = NOT_PCM = -2

# Upper bound on the rank of a poset the recursion takes. Each rank nests
# about two frames (a view, then a join factor of one of its
# neighborhoods), so rank 256 needs about 520 of Python's default 1000.
MAX_RANK = 256


class _NoMemo(dict):
    """A memo that never stores."""

    def __setitem__(self, key, value) -> None:
        pass


class Views:
    """Rank, surface, coherence, border and PCM tests on views of one poset."""

    def __init__(self, poset: Poset):
        if poset.rank() > MAX_RANK:
            raise DomainError(
                f"a poset of rank {poset.rank()} would nest the recursion {poset.rank()} "
                f"views deep, above the limit of {MAX_RANK}"
            )
        self.poset = poset
        self.alpha = poset.alpha_masks
        self.beta = poset.beta_masks
        self.theta = poset.theta_masks
        disabled = os.environ.get("POSURF_DISABLE_MEMO", "") in ("1", "true", "yes")
        memo = (lambda name: _NoMemo()) if disabled else poset.memo
        self._ranks = memo("view_rank")
        self._connected = memo("connected")
        self._surfaces = memo("surface")
        self._coherent = memo("coherent")
        self._borders = memo("border")
        self._pcms = {False: memo("pcm"), True: memo("smooth")}

    def rank(self, mask: int) -> int:
        """Rank of the view; -1 when empty."""
        got = self._ranks.get(mask)
        if got is None:
            got = self._ranks[mask] = view_rank(self.poset, mask)
        return got

    def connected(self, mask: int) -> bool:
        """Path-connectedness of the view under strict theta adjacency."""
        got = self._connected.get(mask)
        if got is None:
            got = self._connected[mask] = next(component_masks(self.poset, mask), 0) == mask
        return got

    def _nbhd(self, h: int, mask: int) -> int:
        """Surface rank of theta(h) & mask, or NOT_SURFACE, by its join factors."""
        a = self.surface(self.alpha[h] & mask)
        if a == NOT_SURFACE:
            return NOT_SURFACE
        b = self.surface(self.beta[h] & mask)
        if b == NOT_SURFACE:
            return NOT_SURFACE
        return a + b + 1

    def surface(self, mask: int) -> int:
        """Surface rank of the view, or NOT_SURFACE.

        The recursion over the definition: the empty order is the
        (-1)-surface; exactly two mutually non-adjacent faces form the
        0-surface; otherwise the view must be connected with every strict
        neighborhood a (k-1)-surface. For h in a view V, every face of
        alpha(h) & V lies below h and so below every face of beta(h) & V:
        theta(h) & V is the order join (alpha(h) & V) * (beta(h) & V). By
        the join law for discrete surfaces (Evako, Kopperman & Mukhin 1996;
        Daragon, Couprie & Bertrand, "Discrete surfaces and frontier
        orders", JMIV 2005), X * Y is a (k+l+1)-surface exactly when X is a
        k-surface and Y an l-surface, so each neighborhood is decided by
        its two factors (``_nbhd``). These are far fewer views than the
        neighborhoods, and faces share them. The definition also asks k to
        be the view's rank, which holds by the rank law for order joins: a
        longest chain of V through h is a longest chain below h, then h,
        then a longest chain above it, so rank V = 1 + max over h of
        rank(theta(h) & V). By induction a k-surface has rank k (the empty
        order rank -1, two incomparable faces rank 0), so V has rank k.
        """
        count = mask.bit_count()
        if count <= 2:
            # the base cases: decided by a bit test, so never stored
            if count == 0:
                return -1
            top = mask.bit_length() - 1
            return 0 if count == 2 and not self.theta[top] & mask else NOT_SURFACE
        got = self._surfaces.get(mask)
        if got is not None:
            return got
        low = (mask & -mask).bit_length() - 1
        result = NOT_SURFACE
        if self.connected(mask):
            k = self._nbhd(low, mask)
            if k >= 0:
                for h in iter_bits(mask ^ (1 << low)):
                    if self._nbhd(h, mask) != k:
                        break
                else:
                    result = k + 1
        self._surfaces[mask] = result
        return result

    def coherent(self, mask: int) -> bool:
        """Every strict neighborhood drops rank by exactly one, recursively."""
        got = self._coherent.get(mask)
        if got is None:
            n = self.rank(mask)
            got = self._coherent[mask] = all(
                self.rank(t) == n - 1 and self.coherent(t)
                for t in (self.theta[h] & mask for h in iter_bits(mask))
            )
        return got

    def border(self, mask: int) -> int:
        """Bitmask of the faces whose strict neighborhood is not an (n-1)-surface."""
        got = self._borders.get(mask)
        if got is None:
            n = self.rank(mask)
            if n < 0:
                raise DomainError("the border is undefined on the empty order")
            got = 0
            for h in iter_bits(mask):
                if self._nbhd(h, mask) != n - 1:
                    got |= 1 << h
            self._borders[mask] = got
        return got

    def pcm(self, mask: int, smooth: bool = False) -> int:
        """(Smooth) PCM rank of the view, or NOT_PCM.

        Base cases: the empty order is the (-1)-PCM and a singleton the
        0-PCM. For rank n >= 1 the view must be connected with a nonempty
        border, and every border face's strict neighborhood must be an
        (n-1)-PCM, a smooth one for a smooth PCM; a smooth PCM's border must
        also be a separated union of (n-1)-surfaces. Interior faces need no
        test: the border is exactly the faces whose neighborhood is not an
        (n-1)-surface. One walk over the border serves both flags. A border
        face's neighborhood is tested whole: the join law for PCMs would
        split it too, but its factors are new views on grid-like inputs and
        measured slower there.
        """
        count = mask.bit_count()
        if count <= 1:
            return count - 1
        memo = self._pcms[smooth]
        got = memo.get(mask)
        if got is not None:
            return got
        result = NOT_PCM
        # a connected view of two or more faces has rank n >= 1
        if self.connected(mask):
            n = self.rank(mask)
            bmask = self.border(mask)
            if (
                bmask
                and all(self.pcm(self.theta[h] & mask, smooth) == n - 1 for h in iter_bits(bmask))
                and (not smooth or self._surface_union(bmask, n - 1))
            ):
                result = n
        memo[mask] = result
        return result

    def _surface_union(self, bmask: int, target: int) -> bool:
        """Is the border view a separated union of target-rank surfaces?

        Components of a suborder are never theta-adjacent inside it, so the
        separation between parts is automatic. For target >= 1 surfaces are
        connected, hence each component must itself be a target-surface. A
        0-surface is two mutually non-adjacent faces, so for target 0 the
        border must consist of singleton components in even number (any
        pairing then realizes the union of 0-surfaces).
        """
        comps = list(component_masks(self.poset, bmask))
        if target == 0:
            return len(comps) == bmask.bit_count() and len(comps) % 2 == 0
        return all(self.surface(cm) == target for cm in comps)


@dataclass(frozen=True)
class SurfaceVerdict:
    """Outcome of the surface recognizer on one suborder view.

    ``rank`` is the k for which the view is a k-surface (possibly -1 for
    the empty order) and is absent when ``is_surface`` is false.
    """

    is_surface: bool
    rank: int | None

    @classmethod
    def of(cls, views: Views, mask: int) -> "SurfaceVerdict":
        r = views.surface(mask)
        return cls(r != NOT_SURFACE, None if r == NOT_SURFACE else r)


def is_k_surface(obj: "Poset | SuborderView") -> SurfaceVerdict:
    """Run the recursive surface recognizer on a poset or suborder view."""
    view = as_view(obj)
    return SurfaceVerdict.of(Views(view.ambient), view.mask)


def is_coherent(obj: "Poset | SuborderView") -> bool:
    """True when every strict neighborhood drops rank by exactly one, recursively."""
    view = as_view(obj)
    return Views(view.ambient).coherent(view.mask)


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
