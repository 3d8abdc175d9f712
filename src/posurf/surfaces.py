"""The recognizers' one recursion over suborder views.

``Views(poset)`` decides, for any member bitmask of the poset, its rank,
whether it is connected, whether it is a discrete surface, whether it is
coherent, its border, and whether it is a PCM or a smooth PCM. Each answer
is memoized under the bitmask in one of the poset's named memos
(``view_rank``, ``connected``, ``surface``, ``coherent``, ``border``,
``pcm``, ``smooth``), so every recognizer run on one poset shares the work
of the others. Setting ``POSURF_DISABLE_MEMO`` to 1, true or yes turns
every memo into one that never stores, and each call then recomputes from
the definitions (differential debugging); the switch is read when a
``Views`` is made, which each public recognizer does per call.
The recursion is naturally depth-bounded: a strict neighborhood always has
rank strictly below the view it was taken in. The surface and border tests
split each strict neighborhood into its two join factors, the strict
closure and the strict opening (see ``Views.surface``), and the smooth PCM
test reads the PCM verdict and its border (see ``Views.pcm``). Only
coherence, border and PCM tests compute ranks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import DomainError
from .poset import Poset, SuborderView, as_view, component_masks, iter_bits, view_rank

__all__ = ["SurfaceVerdict", "Views", "is_k_surface", "is_coherent", "NOT_SURFACE", "NOT_PCM"]

NOT_SURFACE = NOT_PCM = -2


class _NoMemo(dict):
    """A memo that never stores."""

    def __setitem__(self, key, value) -> None:
        pass


class Views:
    """Rank, surface, coherence, border and PCM tests on views of one poset."""

    def __init__(self, poset: Poset):
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
        got = self._surfaces.get(mask)
        if got is not None:
            return got
        count = mask.bit_count()
        low = (mask & -mask).bit_length() - 1
        result = NOT_SURFACE
        if count == 0:
            result = -1
        elif count == 2:
            if not self.theta[low] & mask:
                result = 0
        elif count > 2 and self.connected(mask):
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
        border, and every strict neighborhood must be an (n-1)-surface
        (interior face) or an (n-1)-PCM (border face). A walk that passes
        every face has found the whole border and stores it in the
        ``border`` memo. A border face's neighborhood is tested whole: the
        join law for PCMs would split it too, but its factors are new views
        on grid-like inputs and measured slower there.

        A smooth PCM needs smooth (n-1)-PCM neighborhoods at its border
        faces, and a border that is a separated union of (n-1)-surfaces.
        By induction smooth(t) = n-1 implies pcm(t) = n-1, so a smooth
        PCM's walk is a PCM's walk with the same border: a view is a smooth
        n-PCM exactly when it is an n-PCM whose border faces have smooth
        (n-1)-PCM neighborhoods and whose border is such a union. The two
        share their base cases, so the smooth test reads the PCM verdict,
        passes NOT_PCM and ranks <= 0 through, and walks the border only.
        """
        memo = self._pcms[smooth]
        got = memo.get(mask)
        if got is not None:
            return got
        if smooth:
            result = n = self.pcm(mask)
            if n >= 1:
                bmask = self.border(mask)
                smooth_faces = all(
                    self.pcm(self.theta[h] & mask, True) == n - 1 for h in iter_bits(bmask)
                )
                if not (smooth_faces and self._surface_union(bmask, n - 1)):
                    result = NOT_PCM
        else:
            count = mask.bit_count()
            result = count - 1 if count <= 1 else NOT_PCM
            # a connected view of two or more faces has rank n >= 1
            if count > 1 and self.connected(mask):
                n = self.rank(mask)
                bmask = 0
                for h in iter_bits(mask):
                    if self._nbhd(h, mask) != n - 1:
                        if self.pcm(self.theta[h] & mask) != n - 1:
                            break
                        bmask |= 1 << h
                else:
                    self._borders[mask] = bmask
                    if bmask:
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
    the empty order) and is absent when ``is_surface`` is false. ``mask``
    is the view identity the verdict was memoized under.
    """

    is_surface: bool
    rank: int | None
    mask: int

    @classmethod
    def of(cls, views: Views, mask: int) -> "SurfaceVerdict":
        r = views.surface(mask)
        return cls(r != NOT_SURFACE, None if r == NOT_SURFACE else r, mask)


def is_k_surface(obj: "Poset | SuborderView") -> SurfaceVerdict:
    """Run the recursive surface recognizer on a poset or suborder view."""
    view = as_view(obj)
    return SurfaceVerdict.of(Views(view.ambient), view.mask)


def is_coherent(obj: "Poset | SuborderView") -> bool:
    """True when every strict neighborhood drops rank by exactly one, recursively."""
    view = as_view(obj)
    return Views(view.ambient).coherent(view.mask)
