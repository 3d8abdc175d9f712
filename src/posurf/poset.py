"""Finite partially ordered sets stored by their covering (Hasse) relation.

Faces are dense integer ids ``0..n-1``. A poset keeps, per face, its
covers and the faces covering it, its rank and its co-rank: the
recognizers read nothing else. The full strict order is derived from the
covering relation only on first read, as per-face bitmask tables:

* ``alpha_masks[h]``  faces strictly below ``h`` (combinatorial closure)
* ``beta_masks[h]``   faces strictly above ``h`` (combinatorial opening)
* ``theta_masks[h]``  their union, the strict neighborhood theta(h)

They grow quadratically in the face count, and only the operator algebra
reads them: ``local_sets``, ``theta_view``, the ranks of views that are
not a whole poset and of their faces (``view_levels``), components
(``component_masks``) and separated unions. ``border`` splits the border
into components on the border built as its own poset, so it builds the
tables of the border alone.

A suborder is a :class:`SuborderView`: the ambient poset plus a member
bitmask. The recognizers run one pass over a whole poset, and build any
other view as its own poset first (``SuborderView.to_poset``, with no
cache); ``in_ambient`` maps a mask over that poset back to the ambient.

Posets are immutable after construction and safe to share across threads
for reading; lazily filled caches only move from "absent" to the one
correct value, so concurrent readers cannot observe an inconsistency.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, ParseError

__all__ = [
    "Poset",
    "SuborderView",
    "as_view",
    "restrict",
    "theta_view",
    "local_sets",
    "rank",
    "is_coherent",
    "connected_components",
    "join",
    "is_separated_union",
    "to_hasse",
    "from_hasse",
]


# Upper bound on the faces of a poset, checked before any cover list is
# read, and by ``from_hasse`` at the face record past it, so parsing stops
# there. It bounds the strict-order tables built on first read (and the
# closures the constructor builds to prune covers), which grow
# quadratically in the face count: on annulus face posets ``alpha_masks``
# and ``beta_masks`` take about 1.4 MB at 3.2k faces, 32 MB at 16k and
# over 500 MB at 64k.
MAX_POSET_FACES = 1 << 14


def check_poset_faces(n: int) -> None:
    """Refuse a poset of ``n`` faces above ``MAX_POSET_FACES``."""
    if n > MAX_POSET_FACES:
        raise DomainError(f"a poset of {n} faces is above the limit of {MAX_POSET_FACES}")


# Every line boundary of str.splitlines, with "\r\n" kept as one.
_LINE_END = re.compile("\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped line) for each line of ``text``
    that is not blank once its '#' comment is cut.

    The lines and numbers are those of ``text.splitlines()``, read lazily in
    blocks of whole lines of about 64k characters, so a parser that stops
    early never holds every line at once. Every line boundary ends a block.
    """
    no = start = 0
    while start < len(text):
        end = _LINE_END.search(text, start + (1 << 16))
        stop = end.end() if end else len(text)
        for raw in text[start:stop].splitlines():
            no += 1
            line = raw.split("#", 1)[0].strip()
            if line:
                yield no, line
        start = stop


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _strict_below(down: Sequence[Sequence[int]], order: Iterable[int]) -> list[int]:
    """Mask of the faces strictly below each face of ``order`` by the covers
    ``down``, 0 for a face not in it; ``order`` lists each face after its
    covers."""
    below = [0] * len(down)
    for h in order:
        m = 0
        for c in down[h]:
            m |= below[c] | 1 << c
        below[h] = m
    return below


class Poset:
    """Immutable finite poset given by its covering relation.

    ``covers[h]`` lists the immediate strict predecessors of face ``h``;
    the strict order is its transitive closure, and a listed face below
    another listed face of the same list is dropped. Construction rejects
    cyclic input, so the closure is always a strict partial order. It
    also rejects more than ``MAX_POSET_FACES`` faces, before it reads any
    cover list. It keeps, per face, the faces that cover it
    (``up_cover_lists``), its rank (``face_ranks``, the longest chain
    below it) and its co-rank (``co_ranks``, the longest chain above it),
    and builds no n-bit table: a listed cover can lie below another only
    when the covers of a face differ in rank, and only for such a face
    are closures built, to prune its covers, and then dropped. The
    strict-order tables are built on first read (``alpha_masks``,
    ``beta_masks``, ``theta_masks``).
    """

    def __init__(self, covers: Sequence[Iterable[int]], labels: Sequence[str | None] | None = None):
        n = len(covers)
        check_poset_faces(n)
        try:
            cover_lists = [tuple(sorted({operator.index(c) for c in cs})) for cs in covers]
        except TypeError:
            raise DomainError("covers must list integer face ids") from None
        for h, cs in enumerate(cover_lists):
            for c in cs:
                if not 0 <= c < n:
                    raise DomainError(f"face {h} covers unknown face {c}")
                if c == h:
                    raise DomainError(f"face {h} covers itself")
        if labels is None:
            label_tuple: tuple[str | None, ...] = (None,) * n
        else:
            label_tuple = tuple(labels)
            if len(label_tuple) != n:
                raise DomainError("labels length does not match face count")

        self._labels = label_tuple
        self._n = n
        self.full_mask = (1 << n) - 1

        # One topological pass over the cover DAG gives ranks and the
        # acyclicity check. A listed cover below another has a lower rank,
        # so only a face whose covers differ in rank can list one.
        up: list[list[int]] = [[] for _ in range(n)]
        indeg = [len(cs) for cs in cover_lists]
        for h, cs in enumerate(cover_lists):
            for c in cs:
                up[c].append(h)
        order = [h for h in range(n) if indeg[h] == 0]
        ranks = [0] * n
        uneven = []
        for h in order:
            r = 0
            low = n
            for c in cover_lists[h]:
                rc = ranks[c]
                if rc >= r:
                    r = rc + 1
                if rc < low:
                    low = rc
            if low < r - 1:
                uneven.append(h)
            ranks[h] = r
            for g in up[h]:
                indeg[g] -= 1
                if indeg[g] == 0:
                    order.append(g)
        if len(order) != n:
            raise DomainError("covering relation is cyclic")
        if uneven:
            # closures of the faces up to the uneven faces' covers, built
            # only to prune those covers; a redundant cover changes no rank
            top = max(ranks[h] for h in uneven)
            alpha = _strict_below(cover_lists, [h for h in order if ranks[h] < top])
            for h in uneven:
                below = 0
                for c in cover_lists[h]:
                    below |= alpha[c]
                for c in cover_lists[h]:
                    if below >> c & 1:
                        up[c].remove(h)
                cover_lists[h] = tuple(c for c in cover_lists[h] if not below >> c & 1)
        # the reverse pass gives co-ranks, the longest chain above each face
        co_ranks = [0] * n
        for h in reversed(order):
            r = 0
            for g in up[h]:
                rg = co_ranks[g]
                if rg >= r:
                    r = rg + 1
            co_ranks[h] = r

        self._covers = tuple(cover_lists)
        self.up_cover_lists = tuple(map(tuple, up))
        self.face_ranks = tuple(ranks)
        self.co_ranks = tuple(co_ranks)
        self._rank = max(ranks) if n else -1
        self._memo: dict[str, object] = {}

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"Poset({self._n} faces, rank {self._rank})"

    @property
    def labels(self) -> tuple[str | None, ...]:
        return self._labels

    def label(self, h: int) -> str | None:
        self._check_face(h)
        return self._labels[h]

    def covers(self, h: int) -> tuple[int, ...]:
        """Immediate strict predecessors of ``h``."""
        self._check_face(h)
        return self._covers[h]

    @property
    def cover_lists(self) -> tuple[tuple[int, ...], ...]:
        return self._covers

    def rank(self) -> int:
        return self._rank

    def _check_face(self, h: int) -> None:
        if not isinstance(h, int) or not 0 <= h < self._n:
            raise DomainError(f"unknown face id {h!r}")

    @cached_property
    def alpha_masks(self) -> tuple[int, ...]:
        """The faces strictly below each face (its closure), as a table of
        n-bit masks built on first read."""
        order = sorted(range(self._n), key=self.face_ranks.__getitem__)
        return tuple(_strict_below(self._covers, order))

    @cached_property
    def beta_masks(self) -> tuple[int, ...]:
        """The faces strictly above each face (its opening), as a table of
        n-bit masks built on first read."""
        order = sorted(range(self._n), key=self.co_ranks.__getitem__)
        return tuple(_strict_below(self.up_cover_lists, order))

    @cached_property
    def theta_masks(self) -> tuple[int, ...]:
        """``theta_mask`` of every face, as a table built on first read."""
        return tuple(a | b for a, b in zip(self.alpha_masks, self.beta_masks))

    def memo(self, name: str, make=dict):
        """Named cache scoped to this poset (compute-once contract), made
        by ``make`` on first use."""
        got = self._memo.get(name)
        if got is None:
            got = self._memo.setdefault(name, make())
        return got


@dataclass(frozen=True)
class SuborderView:
    """A suborder of an ambient poset, identified by a member bitmask.

    The induced order is the ambient order restricted to the members;
    ranks inside a view are recomputed for the induced order, never
    inherited from the ambient poset.
    """

    ambient: Poset
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask & ~self.ambient.full_mask:
            raise DomainError("view members outside the ambient poset")

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, h: int) -> bool:
        return isinstance(h, int) and 0 <= h and bool(self.mask >> h & 1)

    def rank(self) -> int:
        return view_rank(self.ambient, self.mask)

    def to_poset(self) -> Poset:
        """Materialize the view as a standalone poset: the full view is its
        ambient, and any other view is built anew on each call.

        New ids follow ascending ambient ids (``members[i]`` becomes ``i``,
        see ``in_ambient``); labels are carried over. Covering is recomputed
        for the induced order, which in general differs from the ambient
        covering. A walk down the ambient covers of a member through
        non-members meets each member it covers in the view, as no member
        lies between them; the members met below a non-member are found
        once, as a mask over the view's ids. A member met past a non-member
        may lie below another one met; ``Poset`` drops such a cover.
        """
        if self.mask == self.ambient.full_mask:
            return self.ambient
        members = self.members
        pos = {h: i for i, h in enumerate(members)}
        down = self.ambient.cover_lists
        met: dict[int, int] = {}
        covers: list[list[int]] = []
        for h in members:
            mask = 0
            for c in down[h]:
                i = pos.get(c)
                if i is not None:
                    mask |= 1 << i
                    continue
                todo = [c]
                while todo:
                    x = todo[-1]
                    if x in met:
                        todo.pop()
                        continue
                    new = [y for y in down[x] if y not in pos and y not in met]
                    if new:
                        todo += new
                        continue
                    m = 0
                    for y in down[x]:
                        i = pos.get(y)
                        m |= met[y] if i is None else 1 << i
                    met[x] = m
                    todo.pop()
                mask |= met[c]
            covers.append(list(iter_bits(mask)))
        labels = [self.ambient._labels[h] for h in members]
        return Poset(covers, labels)


def in_ambient(view: SuborderView, mask: int) -> int:
    """A mask over the faces of ``view.to_poset()`` as a mask over the view's ambient."""
    if view.mask == view.ambient.full_mask:
        return mask
    ids = view.members
    out = 0
    for h in iter_bits(mask):
        out |= 1 << ids[h]
    return out


def as_view(obj: "Poset | SuborderView") -> SuborderView:
    if isinstance(obj, SuborderView):
        return obj
    if isinstance(obj, Poset):
        return SuborderView(obj, obj.full_mask)
    raise DomainError(f"expected a Poset or SuborderView, got {type(obj).__name__}")


def mask_of(view: SuborderView, faces: Iterable[int]) -> int:
    m = 0
    for h in faces:
        if h not in view:
            raise DomainError(f"face {h} is not a member of the poset/view")
        m |= 1 << h
    return m


def restrict(obj: "Poset | SuborderView", faces: Iterable[int]) -> SuborderView:
    """The suborder view induced by ``faces``."""
    view = as_view(obj)
    return SuborderView(view.ambient, mask_of(view, faces))


def theta_view(obj: "Poset | SuborderView", h: int) -> SuborderView:
    """The strict neighborhood of ``h`` as a suborder view."""
    view = as_view(obj)
    if h not in view:
        raise DomainError(f"face {h} is not a member of the poset/view")
    return SuborderView(view.ambient, theta_mask(view.ambient, h) & view.mask)


# ---------------------------------------------------------------------------
# mask-level machinery shared by the recognizers


def theta_mask(poset: Poset, h: int) -> int:
    """The strict neighborhood of face ``h``: its closure and its opening."""
    return poset.alpha_masks[h] | poset.beta_masks[h]


def view_levels(poset: Poset, mask: int) -> list[int]:
    """The faces of the suborder induced by ``mask``, by rank (recomputed).

    ``levels[r]`` masks the faces of view rank r. Faces are placed in order
    of ambient rank, so each comes after every face below it, and a face
    goes one level above the highest level that meets its closure in the
    view, found by scanning down from the top: a few mask tests per face,
    where a max over the faces below it is quadratic on a long chain.
    """
    levels: list[int] = []
    alpha = poset.alpha_masks
    for h in sorted(iter_bits(mask), key=poset.face_ranks.__getitem__):
        below = alpha[h] & mask
        r = len(levels)
        while r and not levels[r - 1] & below:
            r -= 1
        if r == len(levels):
            levels.append(0)
        levels[r] |= 1 << h
    return levels


def view_rank(poset: Poset, mask: int) -> int:
    """Rank of the suborder induced by ``mask``; -1 when empty.

    The full view's rank is the poset's, computed at construction; any
    other view is re-ranked from its own faces.
    """
    if mask == poset.full_mask:
        return poset.rank()
    return len(view_levels(poset, mask)) - 1


def is_coherent(obj: "Poset | SuborderView") -> bool:
    """True when the view is graded: every maximal chain has rank + 1 faces.

    Coherence asks each strict neighborhood of a rank-n view to be a
    coherent view of rank n - 1. Unrolled, a view V of rank n is coherent
    iff, for every chain S of V, the faces of V - S comparable to all of S
    form a view of rank n - |S|. If V is graded, extending S to a maximal
    chain shows this. Conversely, take S to be a maximal chain: no other
    face is comparable to all of it, so |S| = n + 1. V is graded iff each
    cover inside V raises the face rank by one and each maximal face has
    rank n; both are read off the view as a standalone poset (``to_poset``).
    """
    p = as_view(obj).to_poset()
    ranks = p.face_ranks
    return all(
        (r == p.rank() or p.up_cover_lists[h]) and all(ranks[c] == r - 1 for c in p.cover_lists[h])
        for h, r in enumerate(ranks)
    )


def component_masks(poset: Poset, mask: int) -> Iterator[int]:
    """Connected components of a view under strict theta adjacency.

    Yielded lazily, ordered by their lowest member: a view is connected
    exactly when its first component is the whole view. Each search stops
    once its component covers the faces no earlier component took: at the
    end of a round, and every 16 frontier faces within one. On a dense
    poset the second round already reaches every face, and ORing in the
    neighborhood of each face after that is most of the search; a test
    after every face would cost the small views of a sparse poset more.
    """
    if not mask:
        return
    alpha = poset.alpha_masks
    beta = poset.beta_masks
    rest = mask
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            todo = rest & ~comp
            nxt = 0
            f = frontier
            seen = 0
            while f:
                low = f & -f
                h = low.bit_length() - 1
                nxt |= alpha[h] | beta[h]
                f ^= low
                seen += 1
                if not seen & 15 and nxt & todo == todo:
                    break
            nxt &= todo
            comp |= nxt
            frontier = 0 if nxt == todo else nxt
        yield comp
        rest &= ~comp


# ---------------------------------------------------------------------------
# public operator algebra


_KIND_MASK = {
    "alpha": lambda p, h: p.alpha_masks[h],
    "beta": lambda p, h: p.beta_masks[h],
    "theta": theta_mask,
}


def local_sets(
    obj: "Poset | SuborderView",
    faces: int | Iterable[int],
    kind: str,
    strict: bool = True,
) -> frozenset[int]:
    """Closure (alpha), opening (beta) or neighborhood (theta) of faces.

    ``faces`` may be a single id or an iterable; over a set the result is
    the union over its members. Non-strict variants include the faces
    themselves.
    """
    view = as_view(obj)
    try:
        mask_at = _KIND_MASK[kind]
    except KeyError:
        raise DomainError(f"unknown operator kind {kind!r}; use alpha, beta or theta") from None
    if isinstance(faces, int):
        faces = (faces,)
    out = 0
    for h in faces:
        if h not in view:
            raise DomainError(f"face {h} is not a member of the poset/view")
        m = mask_at(view.ambient, h) & view.mask
        if not strict:
            m |= 1 << h
        out |= m
    return frozenset(iter_bits(out))


def rank(obj: "Poset | SuborderView", h: int | None = None) -> int:
    """Rank of the poset/view, or of one face within it."""
    view = as_view(obj)
    if h is None:
        return view_rank(view.ambient, view.mask)
    if h not in view:
        raise DomainError(f"face {h} is not a member of the view")
    if view.mask == view.ambient.full_mask:
        return view.ambient.face_ranks[h]
    return next(r for r, level in enumerate(view_levels(view.ambient, view.mask)) if level >> h & 1)


def connected_components(obj: "Poset | SuborderView") -> tuple[frozenset[int], ...]:
    """Partition of the members under strict theta adjacency."""
    view = as_view(obj)
    return tuple(frozenset(iter_bits(m)) for m in component_masks(view.ambient, view.mask))


def join(p: Poset, q: Poset) -> Poset:
    """Order join: every face of ``p`` sits below every face of ``q``.

    ``q``'s ids are offset by ``len(p)``; labels are preserved. The
    covering relation of the result is the transitive reduction of the
    joined order: both internal cover relations plus (maximal faces of
    ``p``) x (minimal faces of ``q``).
    """
    np_ = len(p)
    covers: list[list[int]] = [list(p.covers(h)) for h in range(np_)]
    p_max = [h for h in range(np_) if not p.up_cover_lists[h]]
    for h in range(len(q)):
        cs = [c + np_ for c in q.covers(h)]
        if not cs and np_:
            cs = list(p_max)
        covers.append(cs)
    return Poset(covers, p.labels + q.labels)


def is_separated_union(obj: "Poset | SuborderView", a: Iterable[int], b: Iterable[int]) -> bool:
    """True when no theta adjacency crosses between the parts ``a``, ``b``.

    ``a`` and ``b`` must be disjoint and together cover the poset/view.
    """
    view = as_view(obj)
    am = mask_of(view, a)
    bm = mask_of(view, b)
    if am & bm:
        raise DomainError("the two parts overlap")
    if am | bm != view.mask:
        raise DomainError("the two parts do not cover the poset/view")
    reach = 0
    for h in iter_bits(am):
        reach |= theta_mask(view.ambient, h)
    return not reach & bm


# ---------------------------------------------------------------------------
# Hasse text format


def to_hasse(p: Poset) -> str:
    """Serialize a poset: one ``f <id> <label?> : <covered-id>*`` per face."""
    lines = ["# f <id> <label?> : <covered-id>*"]
    lines.append(f"rank {p.rank()}")
    for h in range(len(p)):
        lab = p.label(h)
        if lab is None:
            head = f"f {h} :"
        else:
            lab = str(lab)
            # '#' would start a comment in from_hasse
            if not lab or lab == ":" or "#" in lab or any(ch.isspace() for ch in lab):
                raise DomainError(f"label of face {h} cannot be serialized: {lab!r}")
            head = f"f {h} {lab} :"
        tail = " ".join(str(c) for c in p.covers(h))
        lines.append(f"{head} {tail}" if tail else head)
    return "\n".join(lines) + "\n"


def from_hasse(text: str) -> Poset:
    """Parse the Hasse text format; ids must be dense from 0.

    A ``rank <n>`` line is optional and verified against the computed rank.
    Refused at face record ``MAX_POSET_FACES`` + 1, before the rest of the
    text is read: a poset of that many faces is refused anyway. So is a
    record with more covered ids than that, which only repeated ids reach
    in a poset admitted; a line is split at most one id past them.
    """
    records: dict[int, tuple[str | None, list[int]]] = {}
    declared: int | None = None
    declared_line = 0
    for no, line in content_lines(text):
        # 'f <id> <label> :' and one covered id past the limit
        toks = line.split(None, MAX_POSET_FACES + 4)
        if toks[0] == "rank":
            if len(toks) != 2:
                raise ParseError("malformed rank line", no)
            if declared is not None:
                raise ParseError("duplicate rank line", no)
            try:
                declared = int(toks[1])
            except ValueError:
                raise ParseError(f"rank is not an integer: {toks[1]!r:.40}", no) from None
            declared_line = no
        elif toks[0] == "f":
            if len(records) == MAX_POSET_FACES:
                msg = f"face record {MAX_POSET_FACES + 1} is above the limit of {MAX_POSET_FACES} faces"
                raise ParseError(msg, no)
            if len(toks) < 3:
                raise ParseError("face record needs at least 'f <id> :'", no)
            try:
                fid = int(toks[1])
            except ValueError:
                raise ParseError(f"face id is not an integer: {toks[1]!r:.40}", no) from None
            if toks[2] == ":":
                label, rest = None, toks[3:]
            elif len(toks) > 3 and toks[3] == ":":
                label, rest = toks[2], toks[4:]
            else:
                raise ParseError("missing ':' separator in face record", no)
            if len(rest) > MAX_POSET_FACES:
                msg = f"face record names over {MAX_POSET_FACES} covered ids"
                raise ParseError(f"{msg}, above the limit of {MAX_POSET_FACES} faces", no)
            try:
                covered = [int(t) for t in rest]
            except ValueError:
                raise ParseError("covered ids must be integers", no) from None
            if fid in records:
                raise ParseError(f"duplicate face id {fid}", no)
            records[fid] = (label, covered)
        else:
            raise ParseError(f"unknown record {toks[0]!r:.40}", no)
    n = len(records)
    if sorted(records) != list(range(n)):
        raise ParseError("face ids are not dense from 0")
    covers = [records[h][1] for h in range(n)]
    labels = [records[h][0] for h in range(n)]
    try:
        poset = Poset(covers, labels)
    except DomainError as exc:
        raise ParseError(str(exc)) from None
    if declared is not None and declared != poset.rank():
        raise ParseError(
            f"declared rank {declared} does not match computed rank {poset.rank()}",
            declared_line,
        )
    return poset
