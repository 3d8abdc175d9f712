"""The recognizers' one recursion over suborder views.

``Views(poset)`` decides, for any member bitmask of the poset, its rank,
whether it is connected, whether it is a discrete surface, its border,
and whether it is a PCM. Each answer is memoized under the bitmask in one
of the poset's five named memos (``view_rank``, ``connected``,
``surface``, ``border``, ``pcm``), so every recognizer run on one poset
shares the work of the others. The exceptions are the views that a bit
test decides, which are never stored: surface views of at most two faces
and PCM views of at most one. On a khalimsky block most surface views are
that small, and each memo key is as wide as the poset, so storing them
would cost more memory than deciding them again costs time.
The recursion is depth-bounded: a strict neighborhood always has rank
strictly below the view it was taken in, and the recursion from a view
visits only that view's subviews. So each recognizer refuses a view (not
its ambient poset) of rank above ``MAX_RANK`` with a DomainError
(``views_of``), and the recursion never reaches Python's frame limit.
The surface, border and PCM tests split each strict neighborhood into its
two join factors, the strict closure and the strict opening, by the join
laws for surfaces (see ``Views.surface``) and for PCMs (see ``Views.pcm``,
which proves it). So every view that the PCM walk from a whole poset
visits, with the surface and border tests under it, is an interval: at
most (comparable pairs) + 2n + 1 views over n faces. The PCM test is one
walk over the border that ``Views.border`` computes. A smooth PCM is a PCM
whose border satisfies condition (C), on every poset (see
``is_smooth_pcm``, which proves it), so smoothness is read off the border
after that one walk. Below the view a recognizer starts from, only the
border and PCM tests compute ranks. The border of a rank-n view collects
the faces whose strict neighborhood is not an (n-1)-surface; the interior
is the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError
from .poset import Poset, SuborderView, as_view, component_masks, iter_bits, view_rank

__all__ = [
    "Verdict",
    "BorderDecomposition",
    "is_k_surface",
    "border",
    "is_pcm",
    "is_smooth_pcm",
]

# The rank the recursion returns for a view that is not a surface or PCM.
NOT_HELD = -2

# Upper bound on the rank of the view the recursion starts from, which it
# never leaves, so the ambient poset may be deeper. Each rank nests
# about two frames (a view, then a join factor of one of its
# neighborhoods): ``is_pcm`` on a 100-face chain (rank 99) needs a frame
# limit of 202 from the top level, 2.02 frames per rank, so rank 256 needs
# about 520 of Python's default 1000.
MAX_RANK = 256


class Views:
    """Rank, surface, border and PCM tests on views of one poset."""

    def __init__(self, poset: Poset):
        self.poset = poset
        self.full = poset.full_mask
        self.alpha = poset.alpha_masks
        self.beta = poset.beta_masks
        self._ranks = poset.memo("view_rank")
        self._connected = poset.memo("connected")
        self._surfaces = poset.memo("surface")
        self._borders = poset.memo("border")
        self._pcms = poset.memo("pcm")

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

    def _factors(self, mask: int) -> Iterator[tuple[int, int, int]]:
        """(h, alpha(h) & mask, beta(h) & mask) for each face h of the view.

        On the whole poset the factors are the table entries themselves,
        not equal copies, so the memo keys of the whole-poset scans share
        the tables' ints. The loop is written out, not over ``iter_bits``:
        ``surface`` runs it on every view, and a nested generator costs
        more per face.
        """
        alpha, beta = self.alpha, self.beta
        if mask == self.full:
            yield from zip(range(len(alpha)), alpha, beta)
            return
        rest = mask
        while rest:
            low = rest & -rest
            h = low.bit_length() - 1
            yield h, alpha[h] & mask, beta[h] & mask
            rest ^= low

    def _join(self, below: int, above: int) -> int:
        """Surface rank of the order join below * above, or NOT_HELD."""
        a = self.surface(below)
        if a == NOT_HELD:
            return NOT_HELD
        b = self.surface(above)
        if b == NOT_HELD:
            return NOT_HELD
        return a + b + 1

    def surface(self, mask: int) -> int:
        """Surface rank of the view, or NOT_HELD.

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
        its two factors (``_join``). These are far fewer views than the
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
            if count == 2 and not (self.alpha[top] & mask or self.beta[top] & mask):
                return 0
            return NOT_HELD
        got = self._surfaces.get(mask)
        if got is not None:
            return got
        result = NOT_HELD
        if self.connected(mask):
            factors = self._factors(mask)
            _, below, above = next(factors)
            k = self._join(below, above)
            if k >= 0:
                for _, below, above in factors:
                    if self._join(below, above) != k:
                        break
                else:
                    result = k + 1
        self._surfaces[mask] = result
        return result

    def border(self, mask: int) -> int:
        """Bitmask of the faces whose strict neighborhood is not an (n-1)-surface."""
        got = self._borders.get(mask)
        if got is None:
            n = self.rank(mask)
            if n < 0:
                raise DomainError("the border is undefined on the empty order")
            got = 0
            for h, below, above in self._factors(mask):
                if self._join(below, above) != n - 1:
                    got |= 1 << h
            self._borders[mask] = got
        return got

    def pcm(self, mask: int) -> int:
        """PCM rank of the view, or NOT_HELD.

        Base cases: the empty order is the (-1)-PCM and a singleton the
        0-PCM. For rank n >= 1 the view must be connected with a nonempty
        border, and every border face's strict neighborhood must be an
        (n-1)-PCM. Interior faces need no test: the border is exactly the
        faces whose neighborhood is not an (n-1)-surface. A border face h
        has the neighborhood theta(h) & V = A * B, A = alpha(h) & V and
        B = beta(h) & V (see ``surface``), which is nonempty as V is
        connected. It is decided by its two factors, by the join law for
        PCMs: a nonempty join Z = X * Y is an m-PCM iff (i) each of X and Y
        is a surface or a PCM, (ii) their ranks sum to m - 1 and (iii) they
        are not both surfaces, the empty order counting as both. On the
        border (iii) needs no test: two surface factors whose ranks sum to
        n - 2 would make h interior. The factors' surface ranks are read
        first, as ``border`` has stored most of them, and ``pcm`` runs only
        on a factor that is not a surface.

        Proof, by induction on m. A PCM of rank >= 0 is never a surface: a
        0-PCM is one face, and a k-PCM with k >= 1 has a border, which a
        k-surface has not. If X is empty, Z = Y and (i)-(iii) say that Y is
        an m-PCM; Y empty is dual. Otherwise Z is connected, rank Z =
        rank X + rank Y + 1, and a face x of X has theta_Z(x) =
        theta_X(x) * Y. By the surface join law that is a (rank Z - 1)-
        surface iff Y is a surface and theta_X(x) a (rank X - 1)-surface:
        x is a border face of Z iff x is on X's border or Y is not a
        surface. Faces of Y are dual. If (i)-(iii) hold, one factor, say Y,
        is not a surface, so X, nonempty, lies in the border. For x on the
        border, theta_X(x) is a surface or a PCM of rank rank X - 1 (X is
        one or the other), and it is not a surface when Y is one, as x is
        then on the border of the PCM X. So theta_X(x) and Y meet (i)-(iii)
        at m - 1, and theta_Z(x) is an (m-1)-PCM by induction. Conversely,
        let Z be an m-PCM. Its border is nonempty, so X and Y are not both
        surfaces, and rank Z = m gives (ii). For y in Y, X * theta_Y(y) is
        an (m-1)-surface or an (m-1)-PCM, so X is a surface by the join
        law or, by induction, a surface or a PCM; Y likewise.

        So the walk visits only views made of the full view and its alpha
        and beta restrictions: from the full view, each is an interval of
        the poset (below a face, above a face, or between two comparable
        faces), at most (comparable pairs) + 2n + 1 views over n faces.
        """
        count = mask.bit_count()
        if count <= 1:
            return count - 1
        got = self._pcms.get(mask)
        if got is not None:
            return got
        result = NOT_HELD
        # a connected view of two or more faces has rank n >= 1
        if self.connected(mask):
            n = self.rank(mask)
            bmask = self.border(mask)
            result = n if bmask else NOT_HELD
            # one loop, with no helper frame: the recursion nests about two
            # frames per rank (see MAX_RANK)
            for h in iter_bits(bmask):
                below = self.alpha[h] & mask
                above = self.beta[h] & mask
                a = self.surface(below)
                b = self.surface(above)
                if a == NOT_HELD:
                    a = self.pcm(below)
                if b == NOT_HELD and a != NOT_HELD:
                    b = self.pcm(above)
                if a == NOT_HELD or b == NOT_HELD or a + b != n - 2:
                    result = NOT_HELD
                    break
        self._pcms[mask] = result
        return result


def views_of(obj: "Poset | SuborderView") -> tuple[Views, int]:
    """The ``Views`` of ``obj``'s poset and ``obj``'s mask, once ``obj``'s
    rank (O(1) on a whole poset) is found to be within ``MAX_RANK``."""
    view = as_view(obj)
    views = Views(view.ambient)
    r = views.rank(view.mask)
    if r > MAX_RANK:
        msg = f"a poset of rank {r} would nest the recursion {r} views deep"
        raise DomainError(f"{msg}, above the limit of {MAX_RANK}")
    return views, view.mask


@dataclass(frozen=True)
class Verdict:
    """Outcome of a recognizer: ``rank`` is the k for which the view is a
    k-surface or k-PCM (possibly -1 for the empty order), and None when
    the definition holds at no rank."""

    rank: int | None

    @property
    def holds(self) -> bool:
        return self.rank is not None


def _verdict(rank: int) -> Verdict:
    """The verdict of a rank the recursion returned."""
    return Verdict(None if rank == NOT_HELD else rank)


def is_k_surface(obj: "Poset | SuborderView") -> Verdict:
    """Run the recursive surface recognizer on a poset or suborder view."""
    views, mask = views_of(obj)
    return _verdict(views.surface(mask))


@dataclass(frozen=True)
class BorderDecomposition:
    """The border of a view, its interior, and the border's components.

    Each component comes with its own surface verdict, evaluated as a
    standalone suborder.
    """

    border_faces: frozenset[int]
    interior_faces: frozenset[int]
    components: tuple[tuple[frozenset[int], Verdict], ...]

    @property
    def is_empty(self) -> bool:
        return not self.border_faces


def border_mask_of(obj: "Poset | SuborderView") -> int:
    """Bitmask of the border faces of a poset or view of rank >= 0."""
    views, mask = views_of(obj)
    return views.border(mask)


def border(obj: "Poset | SuborderView") -> BorderDecomposition:
    """Border decomposition of a poset or suborder view (rank >= 0).

    Scans the faces in id order and tests each strict neighborhood against
    the (rank-1)-surface target; the border faces are then partitioned
    into theta-connected components, each with its surface verdict.
    """
    views, mask = views_of(obj)
    bmask = views.border(mask)
    return BorderDecomposition(
        border_faces=frozenset(iter_bits(bmask)),
        interior_faces=frozenset(iter_bits(mask & ~bmask)),
        components=tuple(
            (frozenset(iter_bits(cm)), _verdict(views.surface(cm)))
            for cm in component_masks(views.poset, bmask)
        ),
    )


def is_pcm(obj: "Poset | SuborderView") -> Verdict:
    views, mask = views_of(obj)
    return _verdict(views.pcm(mask))


def is_smooth_pcm(obj: "Poset | SuborderView") -> Verdict:
    """The PCM walk, then condition (C) on the border it computed.

    A smooth n-PCM (n >= 1) is an n-PCM whose border B is a separated
    union of (n-1)-surfaces (for n = 1, of mutually non-adjacent faces in
    even number) and whose border faces have smooth (n-1)-PCMs as strict
    neighborhoods; the empty order and a singleton are smooth. Condition
    (C) asks each h in B for an (n-2)-surface theta_B(h) = theta(h) & B.
    The law decided here holds on every poset: a view is a smooth n-PCM
    iff it is an n-PCM satisfying (C). Each theta_B(h) is the join
    (alpha(h) & B) * (beta(h) & B), so ``_join`` decides it by its factors
    and no neighborhood is tested whole. Smooth implies (C) (see
    ``check_condition_C``). The converse follows from the join law for
    discrete surfaces (see ``Views.surface``). Write theta_W(x) for the
    strict neighborhood of x in a view W, B_W for W's border, and recall
    that a k-surface with k >= 1 is connected.

    Inclusion: if V has rank m and W = theta_V(h) rank m - 1, then B_W lies
    in B & W. Take x in W off B, say x < h (x > h is dual). The
    (m-1)-surface theta_V(x) = alpha_V(x) * beta_V(x) has a p-surface and
    a q-surface as factors, p + q = m - 2. In W, x keeps alpha_V(x), which
    lies below h, and the faces of beta_V(x) comparable to h, but not h:
    theta_W(x) = alpha_V(x) * theta_{beta_V(x)}(h), a p-surface joined
    with a (q-1)-surface. It is an (m-2)-surface, so x is off B_W.

    Lemma M(m), m >= 1: if W is an m-PCM and N, a subset of W, is an
    (m-1)-surface holding B_W, then B_W = N. For m = 1, each face of W
    has one neighbor (border) or two non-adjacent ones (interior), so the
    connected W is a path and |B_W| = 2 = |N|. For m >= 2, take b in B_W;
    P = theta_W(b) is an (m-1)-PCM, and by the inclusion its nonempty
    border lies in B_W & P, inside the (m-2)-surface theta_N(b). M(m-1)
    gives theta_N(b) = B_P, inside B_W. So B_W is closed under adjacency
    in the connected N, and B_W = N.

    Theorem, by induction on n: an n-PCM V satisfying (C) is smooth. For
    n = 1, (C) makes the path's two ends non-adjacent singletons, and
    their neighborhoods are singletons. For n >= 2, a component C of B
    gives each of its faces x the neighborhood theta_C(x) = theta_B(x), a
    nonempty (n-2)-surface, so C has three faces or more and is an
    (n-1)-surface; B is their separated union. For h in B, W = theta_V(h)
    is an (n-1)-PCM and N = theta_B(h) an (n-2)-surface by (C), holding
    B_W by the inclusion, so B_W = N by M(n-1). Then W satisfies (C), as
    theta_{B_W}(x) = theta_N(x) is an (n-3)-surface, and is smooth by
    induction.
    """
    views, mask = views_of(obj)
    n = views.pcm(mask)
    if n >= 1:
        bmask = views.border(mask)
        if any(views._join(below, above) != n - 2 for _, below, above in views._factors(bmask)):
            n = NOT_HELD
    return _verdict(n)
