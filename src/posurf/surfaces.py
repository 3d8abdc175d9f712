"""The recognizers: one pass of the interval law over a poset.

Extend a poset P of rank R by a bottom sentinel -1 below every face and a
top sentinel n above every face, with face ranks fr[-1] = -1 and
fr[n] = R + 1 (fr[h] is the longest chain below h, and the co-rank cr[h]
the longest chain above it). For y < z in the extension, (y, z) is the
open interval between them: (-1, z) is the strict closure of z, (y, n)
the strict opening of y and (-1, n) the whole poset. Let d = fr[z] - fr[y].
P is graded when each cover of a face z has rank fr[z] - 1 and each
maximal face rank R; every maximal chain then has R + 1 faces, so (y, z)
is graded of rank d - 2, and an interval with d = 2 is the antichain of
the faces that cover y and are covered by z. Call it lone if it has one
member.

The definitions: the empty order is the (-1)-surface and the (-1)-PCM,
two incomparable faces the 0-surface and one face the 0-PCM. For k >= 1,
a k-surface is connected with every strict neighborhood theta(x) a
(k-1)-surface, and a k-PCM has rank k and is connected, with a nonempty
border (the faces whose neighborhood is not a (k-1)-surface) whose faces'
neighborhoods are (k-1)-PCMs. A surface has no border, so no PCM of rank
k >= 0 is a surface. In an interval (lo, hi), theta(x) is the order join
(lo, x) * (x, hi), as each face below x lies below each face above it.

The law. P is a surface or a PCM of rank R iff it is graded, every
interval with d = 2 has one or two members, and every interval with
d >= 3 is connected. It is then an R-surface iff none is lone, and an
R-PCM otherwise (the empty order, R = -1, is both).

Proof. Two join laws, of Evako, Kopperman & Mukhin (1996) and Daragon,
Couprie & Bertrand ("Discrete surfaces and frontier orders", JMIV 2005):
X * Y is a (k+l+1)-surface iff X is a k-surface and Y an l-surface; and a
nonempty X * Y is an m-PCM iff (i) X and Y are each a surface or a PCM,
(ii) their ranks sum to m - 1 and (iii) they are not both surfaces. The
second, by induction on m: if X is empty, Z = X * Y is Y, and (i)-(iii)
say that Y is an m-PCM; Y empty is dual. Otherwise Z is connected, rank
Z = rank X + rank Y + 1, and a face x of X has theta_Z(x) = theta_X(x) *
Y, by the first law a (rank Z - 1)-surface iff Y is a surface and
theta_X(x) a (rank X - 1)-surface: x is on Z's border iff it is on X's or
Y is not a surface. Faces of Y are dual. If (i)-(iii) hold, one factor,
say Y, is not a surface, so X, nonempty, lies in the border. For x on it,
theta_X(x) is a surface or PCM of rank rank X - 1, and not a surface when
Y is one, as x is then on the border of the PCM X: so theta_X(x) and Y
meet (i)-(iii) at m - 1, and theta_Z(x) is an (m-1)-PCM by induction.
Conversely, if Z is an m-PCM, its border is nonempty, so X and Y are not
both surfaces, and rank Z = m gives (ii). For y in Y, X * theta_Y(y) is
an (m-1)-surface or (m-1)-PCM, so X is a surface by the first law or, by
induction, a surface or PCM; Y likewise.

* A surface or PCM Q of rank k is graded. For k <= 0 it is an antichain.
  For k >= 1, each theta(x) is a surface or PCM of rank k - 1, graded by
  induction. Take a maximal chain C of Q and x in C: C - x is a maximal
  chain of theta(x), as a face comparable to all of C - x and to x would
  extend C. So C has k + 1 faces.
* For a graded P and y < z, by induction on d: (y, z) is a surface or PCM
  (of rank d - 2) iff every interval (u, w) with y <= u < w <= z passes
  the law, and a surface iff none of them is lone. For d = 1, (y, z) is
  empty. For d = 2 it is an antichain: the 0-surface with two members,
  the 0-PCM with one, neither with more. For d >= 3, each (u, w) other
  than (y, z) lies in [y, x] or [x, z] for a face x of (y, z): x = w if
  u = y, else x = u. If they all pass, each factor (y, x) and (x, z) is a
  surface or PCM by induction, their ranks sum to d - 4, so each
  theta(x) is a (d-3)-surface (both factors surfaces) or a (d-3)-PCM (by
  the join laws). A connected (y, z) is then a (d-2)-surface if no face
  is on its border, and a (d-2)-PCM if some is. Conversely a surface or
  PCM of rank d - 2 >= 1 is connected, and each theta(x) is a
  (d-3)-surface or a (d-3)-PCM, so by the join laws both factors are
  surfaces or PCMs, and by induction their intervals pass. It is a
  surface iff every theta(x) is a (d-3)-surface, iff every factor is a
  surface, iff no (u, w) is lone.

With y = -1 and z = n this is the law, at d = R + 2.

Connectivity. Let d >= 3 and z a face or the top sentinel n, whose
covers are the maximal faces. Each face of (y, z) lies below a cover c of
z inside it, so (y, z) is the union of the pieces (y, c], each
connected, as c is its top. If x < x' with x in the piece of c and x' in
that of c', then x is in both: pieces are joined only by overlapping, and
(y, z) is connected iff the overlap graph of its pieces is. Two pieces
that meet share a face covering y, as each face of (y, z) lies above one.
So the pass numbers the covers of z and gives each face x below z the bit
mask sig[x] of the covers above it: (y, z) is connected iff the masks
sig[w] of the faces w covering y below z join up, by overlaps, into
sig[y]. For y = -1 these w are the minimal faces below z. On a graded
poset sig[y] holds the members of a d = 2 interval (y, z).

The pass (``_closures``) visits the faces bottom-up and decides each
closure from its covers' closures and the intervals (y, z) below z, with
no recursion and no memo. A face with a cover whose closure fails fails,
as its closure holds that closure's intervals, and is skipped: on a
poset whose faces of rank 1 have more than two covers the pass ends at
rank 1. The pass tests the grading at each face's covers; ``Law`` then
tests the rest of it, that each maximal face has rank R, and decides the
openings (y, n) and the whole poset (-1, n) by one more walk, down from
the top sentinel n: the d = 2 counts, the lone intervals (y, n) and the
overlaps of the d >= 3 openings and of the minimal faces' masks.

The border. A face x of a rank-R poset is on the border iff theta(x) =
(-1, x) * (x, n) is not an (R-1)-surface: by the surface join law, iff
its closure or its opening is not a surface, or fr[x] + cr[x] != R (a
surface has the rank of its poset, fr[x] - 1 and cr[x] - 1 here). The
pass decides each closure by the law, and the same pass on the dual
order each opening. On a PCM both pass the law, as their extended
intervals are those (y, z) of P with z <= x (closure) or x <= y
(opening), and fr[x] + cr[x] = R. So x is on the border of a PCM iff some
lone (y, z) has z <= x or x <= y, with no second pass.

Each recognizer refuses a poset of rank above ``MAX_RANK`` with a
DomainError (``law_of``); a view that is not a whole poset is first built
as one (``to_poset``, cached per view mask).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

# The kind of an extended closure, opening or whole poset by the law: it
# fails, passes with a lone interval (a PCM), or passes with none (a surface).
NEITHER, PCM, SURFACE = 0, 1, 2

# Upper bound on the rank of a poset the recognizers take. The pass checks
# each interval (y, z) of comparable faces once, and a chain of n faces has
# about n^2 / 2 of them, each decided in a step that grows with z's rank.
MAX_RANK = 256


def _joined(parts: list[int]) -> bool:
    """Whether the overlap graph of the nonzero masks ``parts`` is connected."""
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


def _below(covers, down, up, sig: list[int], lows: list[int]) -> int:
    """The kind the intervals (y, z) with d >= 2 give the closure of z,
    given z's ``covers``: z is a face of rank >= 2 whose covers' closures
    pass, or the top sentinel of a graded poset of rank >= 1. Appends the
    y of each lone one to ``lows``. Walks the closure down rank by rank,
    filling ``sig`` (see the module docstring), which it leaves zero."""
    for i, c in enumerate(covers):
        sig[c] = 1 << i
    walked = list(covers)
    level = covers
    d = 2
    kind = SURFACE
    try:
        while True:
            lower = []
            for u in level:
                s = sig[u]
                for x in down[u]:
                    if not sig[x]:
                        lower.append(x)
                    sig[x] |= s
            if not lower:
                # level holds the minimal faces: the closure (-1, z)
                return kind if _joined([sig[v] for v in level]) else NEITHER
            walked += lower
            if d == 2:
                for y in lower:
                    m = sig[y].bit_count()
                    if m > 2:
                        return NEITHER
                    if m == 1:
                        kind = PCM
                        lows.append(y)
            else:
                for y in lower:
                    s = sig[y]
                    if s & (s - 1) and not _joined([sig[w] for w in up[y] if sig[w]]):
                        return NEITHER
            level = lower
            d += 1
    finally:
        for x in walked:
            sig[x] = 0


def _closures(ranks, down, up) -> tuple[list[int], list[int]]:
    """The kind of each face's closure, by one bottom-up pass of the law over
    face ranks, cover lists and up-cover lists, and the faces y of the lone
    intervals (y, z) met, z a face. Run on co-ranks, up-covers and covers, it
    gives each face's opening instead."""
    kinds = [NEITHER] * len(ranks)
    lows: list[int] = []
    sig = [0] * len(ranks)
    for z in sorted(range(len(ranks)), key=ranks.__getitem__):
        r = ranks[z]
        kind = SURFACE
        for c in down[z]:
            if kinds[c] == NEITHER or ranks[c] != r - 1:
                break
            if kinds[c] == PCM:
                kind = PCM
        else:
            if r == 1:
                # (-1, z) has d = 2: the covers of z
                m = len(down[z])
                kind = NEITHER if m > 2 else PCM if m == 1 else kind
            elif r >= 2:
                kind = min(kind, _below(down[z], down, up, sig, lows))
            kinds[z] = kind
    return kinds, lows


def _mask(flags) -> int:
    """The bit mask of the positions of the true flags."""
    mask = 0
    for h, flag in enumerate(flags):
        if flag:
            mask |= 1 << h
    return mask


class Law:
    """One pass of the law over a whole poset, built once per poset (``law_of``).

    ``closures[h]`` is the kind of face h's extended closure and ``lows``
    holds the y of each lone interval (y, z), z a face; the kind of
    the whole poset, the openings and the border are found on first use.
    It keeps the poset's rank, face ranks, co-ranks and cover lists, not
    the poset, which holds it: so a poset is freed as soon as it is
    dropped.
    """

    def __init__(self, poset: Poset):
        self.rank = poset.rank()
        self.face_ranks, self.co_ranks = poset.face_ranks, poset.co_ranks
        self.down, self.up = poset.cover_lists, poset.up_cover_lists
        self.closures, self.lows = _closures(self.face_ranks, self.down, self.up)

    @cached_property
    def whole(self) -> tuple[int, list[int]]:
        """The kind of the whole poset, by its closures, the ranks of its
        maximal faces, then its openings (y, n) and (-1, n), all decided
        by one walk down from the top sentinel n; and the y of each lone
        (y, n)."""
        fr, up, top = self.face_ranks, self.up, self.rank
        n = len(fr)
        kind = min(self.closures, default=SURFACE)
        maximal = [h for h, u in enumerate(up) if not u]
        if kind == NEITHER or any(fr[h] != top for h in maximal):
            return NEITHER, []
        lone: list[int] = []
        if top == 0:
            # (-1, n) has d = 2: the faces
            kind = NEITHER if n > 2 else PCM if n == 1 else SURFACE
        elif top >= 1:
            kind = min(kind, _below(maximal, self.down, up, [0] * n, lone))
        return kind, lone

    @property
    def kind(self) -> int:
        return self.whole[0]

    @cached_property
    def openings(self) -> list[int]:
        """The kind of each face's extended opening."""
        return _closures(self.co_ranks, self.up, self.down)[0]

    def surface_rank(self) -> int | None:
        return self.rank if self.kind == SURFACE else None

    def pcm_rank(self) -> int | None:
        return self.rank if self.kind == PCM or self.rank < 0 else None

    @cached_property
    def border(self) -> int:
        """Mask of the border faces: on a PCM by the lone intervals, on any
        other poset of rank >= 0 by the closures and openings."""
        if self.rank < 0:
            raise DomainError("the border is undefined on the empty order")
        kind, lone = self.whole
        if kind == SURFACE:
            return 0
        if kind == PCM:
            # above the z of a lone (y, z), a PCM closure, or below its y,
            # z a face or the top sentinel
            mask = _mask(k == PCM for k in self.closures)
            walked = [False] * len(self.closures)
            todo = self.lows + lone
            while todo:
                y = todo.pop()
                if not walked[y]:
                    walked[y] = True
                    mask |= 1 << y
                    todo += self.down[y]
            return mask
        fr, cr = self.face_ranks, self.co_ranks
        return _mask(
            not (a == SURFACE == b and fr[h] + cr[h] == self.rank)
            for h, (a, b) in enumerate(zip(self.closures, self.openings))
        )


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


def law_of(obj: "Poset | SuborderView") -> tuple[Poset, Law]:
    """``obj`` as a whole poset (``as_poset``) and its ``Law``, once its rank
    is found to be within ``MAX_RANK``."""
    poset = as_poset(as_view(obj))
    r = poset.rank()
    if r > MAX_RANK:
        raise DomainError(f"a poset of rank {r} is above the rank limit of {MAX_RANK}")
    return poset, poset.memo("law", lambda: Law(poset))


@dataclass(frozen=True)
class Verdict:
    """Outcome of a recognizer: ``rank`` is the k for which the view is a
    k-surface or k-PCM (possibly -1 for the empty order), and None when
    the definition holds at no rank."""

    rank: int | None

    @property
    def holds(self) -> bool:
        return self.rank is not None


def is_k_surface(obj: "Poset | SuborderView") -> Verdict:
    """The surface verdict of a poset or suborder view, by the law."""
    return Verdict(law_of(obj)[1].surface_rank())


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
    return _in_ambient(view, law_of(view)[1].border)


def border(obj: "Poset | SuborderView") -> BorderDecomposition:
    """Border decomposition of a poset or suborder view (rank >= 0): the
    border faces, partitioned into theta-connected components, each with
    its surface verdict."""
    view = as_view(obj)
    p, law = law_of(view)
    bmask = law.border

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
    """The PCM verdict of a poset or suborder view, by the law."""
    return Verdict(law_of(obj)[1].pcm_rank())


def is_smooth_pcm(obj: "Poset | SuborderView") -> Verdict:
    """The PCM verdict, then condition (C) on the border.

    A smooth n-PCM (n >= 1) is an n-PCM whose border B is a separated
    union of (n-1)-surfaces (for n = 1, of mutually non-adjacent faces in
    even number) and whose border faces have smooth (n-1)-PCMs as strict
    neighborhoods; the empty order and a singleton are smooth. Condition
    (C) asks each h in B for an (n-2)-surface theta_B(h) = theta(h) & B.
    The law decided here holds on every poset: a view is a smooth n-PCM
    iff it is an n-PCM satisfying (C). B is built as its own poset, in
    which theta_B(h) is the join of the closure and the opening of h: an
    (n-2)-surface iff both are surfaces, which the pass and its dual
    decide, with fr_B[h] + cr_B[h] = n - 1 (see the module docstring). Smooth
    implies (C) (see ``check_condition_C``). The converse follows from
    the join law for discrete surfaces. Write theta_W(x) for the strict
    neighborhood of x in a view W, B_W for W's border, and recall that a
    k-surface with k >= 1 is connected.

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
    p, law = law_of(obj)
    n = law.pcm_rank()
    if n is not None and n >= 1:
        _, b = law_of(SuborderView(p, law.border))
        # the closures first: the openings take a second pass
        ranks = zip(b.closures, b.face_ranks, b.co_ranks)
        if not all(a == SURFACE and f + c == n - 1 for a, f, c in ranks):
            n = None
        elif not all(o == SURFACE for o in b.openings):
            n = None
    return Verdict(n)
