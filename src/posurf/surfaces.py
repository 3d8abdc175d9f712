"""The recognizers' one recursion over the intervals of a poset.

``Views(poset)`` decides, for each open interval (lo, hi) of a whole
poset, its rank, whether it is connected, whether it is a discrete
surface, its border and whether it is a PCM. lo = -1 is a bottom sentinel
below every face and hi = n a top sentinel above every face, so (-1, h)
is the strict closure of face h, (h, n) its strict opening and (-1, n)
the whole poset. The members of (lo, hi) are ``beta[lo] & alpha[hi]``.

The strict neighborhood of a face g of (lo, hi) is the order join of its
two factors, (lo, g) and (g, hi), and the join laws for surfaces (see
``Views.surface``) and for PCMs (see ``Views.pcm``, which proves it)
decide it from them. So the recursion visits only intervals, and names
each by its endpoints: at most (comparable pairs) + 2n + 1 views over n
faces. The PCM test is one walk over the border, which it finds as it
goes. A smooth PCM is a PCM whose border satisfies condition (C), on every
poset (see ``is_smooth_pcm``, which proves it), and (C) runs the same
recursion on the border, built as its own poset. A view that is not a
whole poset is first built as one (``to_poset``, cached per view mask).
Such a poset reads the surface rank of an interval off its ambient poset
when the ambient interval between the same faces lies inside the view, as
the two then have the same members: on a simplicial border, which holds
the closure of each of its faces, that is every closure.

Most intervals are decided by laws over the face ranks fr (the longest
chain below a face), the co-ranks cr (the longest chain above it) and the
cover lists, extended to the sentinels by fr[-1] = cr[n] = -1 and
fr[n] = cr[-1] = rank + 1. Each face g of (lo, hi) has fr[lo] < fr[g] <
fr[hi] and cr[lo] > cr[g] > cr[hi]; let d = min(fr[hi] - fr[lo],
cr[lo] - cr[hi]), so the interval has rank at most d - 2.

* d <= 1: the interval is empty, as no rank lies strictly between.
* d == 2: each member g has fr[g] = fr[lo] + 1, so it covers lo (a face
  between them would rank between), and is covered by hi likewise (dually
  with cr). The members form an antichain, as they share a rank: a
  0-surface iff there are exactly two, a PCM iff at most one. On a closure
  this reads: a face of rank 0 has an empty closure, and one of rank 1
  the antichain of its covers. Openings are dual, with cr and up-covers.
* Connectivity. Let hi < n. Each member lies below a cover c of hi inside
  the interval, so (lo, hi) is the union of the pieces (lo, c], each
  connected, as c is its top. If x < y with x in the piece of c and y in
  that of c', then x < y <= c', so x is in both: two pieces are joined by
  a comparability only if they overlap, and the interval is connected iff
  the overlap graph of its pieces is. The covers of hi form an antichain,
  so the pieces of c and c' overlap iff (lo, c) and (lo, c') do. Openings
  are dual, with the up-covers of lo. The whole poset is connected iff its
  cover graph is, as each comparability is a chain of covers.
* Rank. A longest chain of (lo, hi) lies in the piece of a cover c of hi,
  and c tops it: rank(lo, hi) is the maximum of rank(lo, c) + 1 over the
  covers c of hi inside it. On a closure it is fr[h] - 1, and on an
  opening cr[h] - 1.

The surface ranks of closures and openings are stored in two per-face
lists, the poset's ``closure_surface`` and ``opening_surface`` memos,
which start with the faces of rank (co-rank) 0 and 1 that the laws
decide. Any other answer that no law gives is stored under the interval's
member mask, in the poset's ``view_rank``, ``surface``, ``border`` and
``pcm`` memos, so that equal intervals of distinct endpoints share one
entry; borders are stored as masks. A bit test decides a surface view of
at most two faces and a PCM view of at most one, and these are never
stored. The loop over an interval's faces reads the lists, the laws and
the memo itself, and calls the recursion only on a factor none decides.
The recursion is depth-bounded: each view it visits from a view of rank r
has rank below r, so each recognizer refuses a view (not its ambient
poset) of rank above ``MAX_RANK`` with a DomainError (``views_of``), and
the recursion never reaches Python's frame limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .poset import Poset, SuborderView, as_view, component_masks, iter_bits

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
# never leaves, so the ambient poset may be deeper. Each rank nests about
# one frame, as each factor is decided inside the loop that reads it:
# ``is_pcm`` on a 100-face chain (rank 99) needs a frame limit of 104 from
# the top level, so rank 256 needs about 265 of Python's default 1000.
MAX_RANK = 256


def _with_sentinels(poset: Poset) -> tuple[tuple, ...]:
    """Face ranks, co-ranks, closures, openings, covers and up-covers, each
    extended by the top sentinel at index n and the bottom one at index -1
    (that is, n + 1)."""
    n = len(poset)
    top = poset.rank() + 1
    down, up = poset.cover_lists, poset.up_cover_lists
    return (
        poset.face_ranks + (top, -1),
        poset.co_ranks + (-1, top),
        poset.alpha_masks + (poset.full_mask, 0),
        poset.beta_masks + (0, poset.full_mask),
        down + (tuple(h for h in range(n) if not up[h]), ()),
        up + ((), tuple(h for h in range(n) if not down[h])),
    )


def _decided(ranks: tuple[int, ...], covers: tuple[tuple[int, ...], ...]) -> list[int | None]:
    """Per face, the surface rank of its closure that the laws give from its
    rank and covers (of its opening, from its co-rank and up-covers), or
    None: empty at rank 0, and at rank 1 the antichain of its covers."""
    return [
        -1 if r == 0 else (0 if len(cs) == 2 else NOT_HELD) if r == 1 else None
        for r, cs in zip(ranks, covers)
    ]


class Views:
    """Rank, surface, border and PCM tests on the intervals of one poset."""

    def __init__(self, poset: Poset, within: tuple[Views, tuple[int, ...], int] | None = None):
        """``within`` is set when ``poset`` is a view of another poset built as
        its own: the ambient's ``Views``, the ambient id of each face, and the
        view's mask in the ambient."""
        self.poset = poset
        self.n = len(poset)
        self.within = within
        tables = poset.memo("sentinel_tables", lambda: _with_sentinels(poset))
        self.fr, self.cr, self.alpha, self.beta, self.down, self.up = tables
        self.closures = poset.memo("closure_surface", lambda: _decided(poset.face_ranks, poset.cover_lists))
        self.openings = poset.memo("opening_surface", lambda: _decided(poset.co_ranks, poset.up_cover_lists))
        self._ranks = poset.memo("view_rank")
        self._surfaces = poset.memo("surface")
        self._borders = poset.memo("border")
        self._pcms = poset.memo("pcm")

    def members(self, lo: int, hi: int) -> int:
        """Member mask of (lo, hi): a table entry on a closure or an opening."""
        if lo < 0:
            return self.alpha[hi]
        if hi == self.n:
            return self.beta[lo]
        return self.beta[lo] & self.alpha[hi]

    def bound(self, lo: int, hi: int) -> int:
        """d: the interval (lo, hi) of comparable lo < hi has rank at most d - 2."""
        d = self.fr[hi] - self.fr[lo]
        e = self.cr[lo] - self.cr[hi]
        return d if d < e else e

    def antichain(self, lo: int, hi: int) -> int:
        """The member count of an interval with d == 2, an antichain."""
        if lo < 0:
            return len(self.down[hi])
        if hi == self.n:
            return len(self.up[lo])
        return (self.beta[lo] & self.alpha[hi]).bit_count()

    def rank(self, lo: int, hi: int) -> int:
        """Rank of (lo, hi); -1 when empty."""
        if lo < 0:
            return self.fr[hi] - 1
        if hi == self.n:
            return self.cr[lo] - 1
        mask = self.beta[lo] & self.alpha[hi]
        if not mask:
            return -1
        if self.bound(lo, hi) == 2:
            return 0
        got = self._ranks.get(mask)
        if got is None:
            got = 0
            for c in self.down[hi]:
                if mask >> c & 1:
                    r = self.rank(lo, c) + 1
                    if r > got:
                        got = r
            self._ranks[mask] = got
        return got

    def connected(self, lo: int, hi: int) -> bool:
        """Connectedness of a nonempty interval, from the overlaps of its pieces."""
        n = self.n
        if hi < n:
            if lo < 0:
                parts = [self.alpha[c] for c in self.down[hi]]
            else:
                below = self.beta[lo]
                parts = [below & self.alpha[c] for c in self.down[hi] if below >> c & 1]
        elif lo >= 0:
            parts = [self.beta[c] for c in self.up[lo]]
        else:
            return self._cover_graph_connected()
        comp, *rest = parts
        grew = True
        while rest and grew:
            left = []
            for part in rest:
                if part & comp:
                    comp |= part
                else:
                    left.append(part)
            grew = len(left) < len(rest)
            rest = left
        return not rest

    def _cover_graph_connected(self) -> bool:
        down, up = self.down, self.up
        seen = [False] * self.n
        seen[0] = True
        todo = [0]
        reached = 1
        while todo:
            h = todo.pop()
            for nbrs in (down[h], up[h]):
                for g in nbrs:
                    if not seen[g]:
                        seen[g] = True
                        reached += 1
                        todo.append(g)
        return reached == self.n

    def surface(self, lo: int, hi: int) -> int:
        """Surface rank of (lo, hi), or NOT_HELD.

        The recursion over the definition: the empty order is the
        (-1)-surface; exactly two mutually non-adjacent faces form the
        0-surface; otherwise the view must be connected with every strict
        neighborhood a (k-1)-surface. For g in (lo, hi), every face of
        (lo, g) lies below g and so below every face of (g, hi): the strict
        neighborhood of g is the order join (lo, g) * (g, hi). By the join
        law for discrete surfaces (Evako, Kopperman & Mukhin 1996; Daragon,
        Couprie & Bertrand, "Discrete surfaces and frontier orders", JMIV
        2005), X * Y is a (k+l+1)-surface exactly when X is a k-surface and
        Y an l-surface, so each neighborhood is decided by its two factors.
        These are far fewer views than the neighborhoods, and faces share
        them. The definition also asks k to be the view's rank, which holds
        by the rank law for order joins: a longest chain of V through g is
        a longest chain below g, then g, then a longest chain above it, so
        rank V = 1 + max over g of rank(theta(g) & V). By induction a
        k-surface has rank k (the empty order rank -1, two incomparable
        faces rank 0), so V has rank k. The loop over the faces is written
        out here, with no helper frame: the recursion nests one frame per
        rank.
        """
        n = self.n
        closures, openings = self.closures, self.openings
        if lo < 0 and hi < n:
            got = closures[hi]
            if got is not None:
                return got
            mask = self.alpha[hi]
        elif hi == n and lo >= 0:
            got = openings[lo]
            if got is not None:
                return got
            mask = self.beta[lo]
        else:
            # an inner interval, or the whole poset
            d = self.fr[hi] - self.fr[lo]
            e = self.cr[lo] - self.cr[hi]
            if e < d:
                d = e
            if d < 2:
                return -1
            mask = self.beta[lo] & self.alpha[hi]
            count = mask.bit_count()
            if d == 2:
                return -1 if count == 0 else 0 if count == 2 else NOT_HELD
            if count <= 2:
                # decided by a bit test, so never stored
                if count == 0:
                    return -1
                top = mask.bit_length() - 1
                if count == 2 and not (self.alpha[top] & mask or self.beta[top] & mask):
                    return 0
                return NOT_HELD
            got = self._surfaces.get(mask)
            if got is not None:
                return got
        result = self._ambient_surface(lo, hi) if self.within else None
        if result is None and self.connected(lo, hi):
            fr, cr, alpha, beta = self.fr, self.cr, self.alpha, self.beta
            memo = self._surfaces
            k = NOT_HELD
            for g in range(n) if lo < 0 and hi == n else iter_bits(mask):
                # a factor that a list or the memo holds, or that a law
                # decides, is read here without a call; the memo returns None
                # on a view of at most two faces, never stored
                if lo < 0:
                    a = closures[g]
                else:
                    d = fr[g] - fr[lo]
                    e = cr[lo] - cr[g]
                    if e < d:
                        d = e
                    if d < 2:
                        a = -1
                    else:
                        sub = beta[lo] & alpha[g]
                        if d == 2:
                            m = sub.bit_count()
                            a = -1 if m == 0 else 0 if m == 2 else NOT_HELD
                        else:
                            a = memo.get(sub)
                if a is None:
                    a = self.surface(lo, g)
                if a == NOT_HELD:
                    break
                if hi == n:
                    b = openings[g]
                else:
                    d = fr[hi] - fr[g]
                    e = cr[g] - cr[hi]
                    if e < d:
                        d = e
                    if d < 2:
                        b = -1
                    else:
                        sub = beta[g] & alpha[hi]
                        if d == 2:
                            m = sub.bit_count()
                            b = -1 if m == 0 else 0 if m == 2 else NOT_HELD
                        else:
                            b = memo.get(sub)
                if b is None:
                    b = self.surface(g, hi)
                if b == NOT_HELD or k != NOT_HELD and a + b + 1 != k:
                    break
                k = a + b + 1
                if k < 0:
                    break
            else:
                result = k + 1
        if result is None:
            result = NOT_HELD
        if lo < 0 and hi < n:
            closures[hi] = result
        elif hi == n and lo >= 0:
            openings[lo] = result
        else:
            self._surfaces[mask] = result
        return result

    def _ambient_surface(self, lo: int, hi: int) -> int | None:
        """The surface rank of (lo, hi) read off the ambient poset, when the
        ambient interval between the same faces lies inside this view and so
        has the same members; else None. On a border built as its own poset,
        the closures and most inner intervals are such intervals, and the
        PCM walk has decided them."""
        ambient, ids, inside = self.within
        lo = ids[lo] if lo >= 0 else -1
        hi = ids[hi] if hi < self.n else ambient.n
        if ambient.members(lo, hi) & ~inside:
            return None
        return ambient.surface(lo, hi)

    def join(self, lo: int, g: int, hi: int) -> int:
        """Surface rank of g's strict neighborhood in (lo, hi), the join
        (lo, g) * (g, hi), or NOT_HELD."""
        a = self.closures[g] if lo < 0 else self.surface(lo, g)
        if a is None:
            a = self.surface(lo, g)
        if a == NOT_HELD:
            return NOT_HELD
        b = self.openings[g] if hi == self.n else self.surface(g, hi)
        if b is None:
            b = self.surface(g, hi)
        if b == NOT_HELD:
            return NOT_HELD
        return a + b + 1

    def border(self, lo: int, hi: int) -> int:
        """Mask of the faces of (lo, hi) whose strict neighborhood is not an
        (r-1)-surface, r the rank of (lo, hi)."""
        mask = self.members(lo, hi)
        got = self._borders.get(mask)
        if got is None:
            r = self.rank(lo, hi)
            if r < 0:
                raise DomainError("the border is undefined on the empty order")
            got = 0
            for g in range(hi) if lo < 0 and hi == self.n else iter_bits(mask):
                if self.join(lo, g, hi) != r - 1:
                    got |= 1 << g
            self._borders[mask] = got
        return got

    def pcm(self, lo: int, hi: int) -> int:
        """PCM rank of (lo, hi), or NOT_HELD.

        Base cases: the empty order is the (-1)-PCM and a singleton the
        0-PCM. For rank r >= 1 the view must be connected with a nonempty
        border, and every border face's strict neighborhood must be an
        (r-1)-PCM. Interior faces need no test: the border is exactly the
        faces whose neighborhood is not an (r-1)-surface. A border face g
        has the neighborhood A * B, A = (lo, g) and B = (g, hi) (see
        ``surface``), which is nonempty as the view is connected. It is
        decided by its two factors, by the join law for PCMs: a nonempty
        join Z = X * Y is an m-PCM iff (i) each of X and Y is a surface or
        a PCM, (ii) their ranks sum to m - 1 and (iii) they are not both
        surfaces, the empty order counting as both. On the border (iii)
        needs no test: two surface factors whose ranks sum to r - 2 would
        make g interior. Unless the border is stored, it is found in the
        same loop: g is on it unless its factors are surfaces whose ranks
        sum to r - 2. The walk stops at the first border face that fails,
        and stores the border only once it has scanned every face. ``pcm``
        runs only on a factor that is not a surface.

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
        """
        n = self.n
        d = self.fr[hi] - self.fr[lo]
        e = self.cr[lo] - self.cr[hi]
        if e < d:
            d = e
        if d < 3:
            if d < 2:
                return -1
            m = self.antichain(lo, hi)
            return m - 1 if m <= 1 else NOT_HELD
        if lo < 0:
            mask = self.alpha[hi]
        elif hi == n:
            mask = self.beta[lo]
        else:
            mask = self.beta[lo] & self.alpha[hi]
            count = mask.bit_count()
            if count <= 1:
                return count - 1
        got = self._pcms.get(mask)
        if got is not None:
            return got
        result = NOT_HELD
        # a connected view of two or more faces has rank r >= 1
        if self.connected(lo, hi):
            r = self.rank(lo, hi)
            bmask = self._borders.get(mask)
            scan = bmask is None
            if not scan:
                faces = iter_bits(bmask)
            else:
                faces = range(n) if lo < 0 and hi == n else iter_bits(mask)
            found = 0
            closures, openings = self.closures, self.openings
            # one loop, with no helper frame (see MAX_RANK)
            for g in faces:
                a = closures[g] if lo < 0 else None
                if a is None:
                    a = self.surface(lo, g)
                b = openings[g] if hi == n else None
                if b is None:
                    b = self.surface(g, hi)
                if scan:
                    if a != NOT_HELD and b != NOT_HELD and a + b == r - 2:
                        continue
                    found |= 1 << g
                if a == NOT_HELD:
                    a = self.pcm(lo, g)
                if b == NOT_HELD and a != NOT_HELD:
                    b = self.pcm(g, hi)
                if a == NOT_HELD or b == NOT_HELD or a + b != r - 2:
                    break
            else:
                if scan:
                    bmask = self._borders[mask] = found
                result = r if bmask else NOT_HELD
        self._pcms[mask] = result
        return result


def as_poset(view: SuborderView) -> Poset:
    """The view as a whole poset: its ambient, or else its ``to_poset()``,
    built once per view mask."""
    if view.mask == view.ambient.full_mask:
        return view.ambient
    built = view.ambient.memo("to_poset")
    got = built.get(view.mask)
    if got is None:
        got = built[view.mask] = view.to_poset()
    return got


def views_of(obj: "Poset | SuborderView") -> Views:
    """The ``Views`` of ``obj`` as a whole poset (``as_poset``), once its rank
    is found to be within ``MAX_RANK``."""
    view = as_view(obj)
    poset = as_poset(view)
    r = poset.rank()
    if r > MAX_RANK:
        msg = f"a poset of rank {r} would nest the recursion {r} views deep"
        raise DomainError(f"{msg}, above the limit of {MAX_RANK}")
    if poset is view.ambient:
        return Views(poset)
    return Views(poset, (Views(view.ambient), view.members, view.mask))


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
    views = views_of(obj)
    return _verdict(views.surface(-1, views.n))


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


def _in_ambient(view: SuborderView, mask: int) -> int:
    """A mask over the faces of ``as_poset(view)`` as a mask over the view's ambient."""
    if view.mask == view.ambient.full_mask:
        return mask
    ids = view.members
    out = 0
    for h in iter_bits(mask):
        out |= 1 << ids[h]
    return out


def border_mask_of(obj: "Poset | SuborderView") -> int:
    """Bitmask of the border faces of a poset or view of rank >= 0."""
    view = as_view(obj)
    views = views_of(view)
    return _in_ambient(view, views.border(-1, views.n))


def border(obj: "Poset | SuborderView") -> BorderDecomposition:
    """Border decomposition of a poset or suborder view (rank >= 0).

    Scans the faces in id order and tests each strict neighborhood against
    the (rank-1)-surface target; the border faces are then partitioned
    into theta-connected components, each with its surface verdict.
    """
    view = as_view(obj)
    views = views_of(view)
    p = views.poset
    bmask = views.border(-1, views.n)

    def faces(mask: int) -> frozenset[int]:
        return frozenset(iter_bits(_in_ambient(view, mask)))

    return BorderDecomposition(
        border_faces=faces(bmask),
        interior_faces=faces(p.full_mask & ~bmask),
        components=tuple(
            (faces(cm), is_k_surface(SuborderView(p, cm))) for cm in component_masks(p, bmask)
        ),
    )


def is_pcm(obj: "Poset | SuborderView") -> Verdict:
    views = views_of(obj)
    return _verdict(views.pcm(-1, views.n))


def is_smooth_pcm(obj: "Poset | SuborderView") -> Verdict:
    """The PCM walk, then condition (C) on the border it computed.

    A smooth n-PCM (n >= 1) is an n-PCM whose border B is a separated
    union of (n-1)-surfaces (for n = 1, of mutually non-adjacent faces in
    even number) and whose border faces have smooth (n-1)-PCMs as strict
    neighborhoods; the empty order and a singleton are smooth. Condition
    (C) asks each h in B for an (n-2)-surface theta_B(h) = theta(h) & B.
    The law decided here holds on every poset: a view is a smooth n-PCM
    iff it is an n-PCM satisfying (C). B is built as its own poset, in
    which theta_B(h) is the join of the closure and the opening of h, so
    ``Views.join`` decides it by its factors and no neighborhood is tested
    whole. Smooth implies (C) (see
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
    views = views_of(obj)
    n = views.pcm(-1, views.n)
    if n >= 1:
        b = views_of(SuborderView(views.poset, views.border(-1, views.n)))
        if any(b.join(-1, h, b.n) != n - 2 for h in range(b.n)):
            n = NOT_HELD
    return _verdict(n)
