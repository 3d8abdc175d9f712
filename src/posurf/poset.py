"""Finite partially ordered sets stored by their covering (Hasse) relation.

Faces are dense integer ids ``0..n-1``. The full strict order is derived
from the covering relation once, as per-face bitmasks, and cached on the
poset:

* ``alpha_masks[h]``  faces strictly below ``h`` (combinatorial closure)
* ``beta_masks[h]``   faces strictly above ``h`` (combinatorial opening)
* ``theta_masks[h]``  their union (the strict neighborhood)

A suborder is a :class:`SuborderView`: the ambient poset plus a member
bitmask. All recognizers in this package work on such views, so a face
never gets renumbered while recursing through neighborhoods, and the
member bitmask doubles as the memoization key.

Posets are immutable after construction and safe to share across threads
for reading; lazily filled caches only move from "absent" to the one
correct value, so concurrent readers cannot observe an inconsistency.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
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
    "connected_components",
    "join",
    "is_separated_union",
    "to_hasse",
    "from_hasse",
]


# Upper bound on the faces of a poset, checked before any bitmask is built.
# The three strict-order bitmask tables grow quadratically in the face
# count: about 2 MB at 3.2k faces, 50 MB at 16k and 850 MB at 64k.
MAX_POSET_FACES = 1 << 14


def check_poset_faces(n: int) -> None:
    """Refuse a poset of ``n`` faces above ``MAX_POSET_FACES``."""
    if n > MAX_POSET_FACES:
        raise DomainError(f"a poset of {n} faces is above the limit of {MAX_POSET_FACES}")


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped line) for each line of ``text``
    that is not blank once its '#' comment is cut.

    The lines and numbers are those of ``text.splitlines()``, read lazily in
    blocks of whole lines of about 64k characters, so a parser that stops
    early never holds every line at once.
    """
    no = start = 0
    while start < len(text):
        stop = text.find("\n", start + (1 << 16))
        stop = len(text) if stop < 0 else stop + 1
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


class Poset:
    """Immutable finite poset given by its covering relation.

    ``covers[h]`` lists the immediate strict predecessors of face ``h``;
    the strict order is its transitive closure. Construction rejects
    cyclic input, so the closure is always a strict partial order. It
    also rejects more than ``MAX_POSET_FACES`` faces, before it reads any
    cover list.
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

        self._covers = tuple(cover_lists)
        self._labels = label_tuple
        self._n = n
        self.full_mask = (1 << n) - 1

        # One topological pass over the cover DAG gives closures, ranks,
        # and the acyclicity check.
        up: list[list[int]] = [[] for _ in range(n)]
        indeg = [len(cs) for cs in cover_lists]
        for h, cs in enumerate(cover_lists):
            for c in cs:
                up[c].append(h)
        order = [h for h in range(n) if indeg[h] == 0]
        alpha = [0] * n
        ranks = [0] * n
        qi = 0
        while qi < len(order):
            h = order[qi]
            qi += 1
            a = 0
            r = 0
            for c in cover_lists[h]:
                a |= alpha[c] | (1 << c)
                if ranks[c] + 1 > r:
                    r = ranks[c] + 1
            alpha[h] = a
            ranks[h] = r
            for g in up[h]:
                indeg[g] -= 1
                if indeg[g] == 0:
                    order.append(g)
        if len(order) != n:
            raise DomainError("covering relation is cyclic")
        beta = [0] * n
        for h in reversed(order):
            b = 0
            for g in up[h]:
                b |= beta[g] | (1 << g)
            beta[h] = b

        self.alpha_masks = tuple(alpha)
        self.beta_masks = tuple(beta)
        self.theta_masks = tuple(a | b for a, b in zip(alpha, beta))
        self.face_ranks = tuple(ranks)
        self._rank = max(ranks) if n else -1
        self._memo: dict[str, dict] = {}

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

    def memo(self, name: str) -> dict:
        """Named cache scoped to this poset (compute-once contract)."""
        return self._memo.setdefault(name, {})


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
        """Materialize the view as a standalone poset.

        New ids follow ascending ambient ids (``members[i]`` becomes ``i``);
        labels are carried over. Covering is recomputed for the induced
        order, which in general differs from the ambient covering.
        """
        members = self.members
        pos = {h: i for i, h in enumerate(members)}
        alpha = self.ambient.alpha_masks
        beta = self.ambient.beta_masks
        covers = []
        for h in members:
            below = alpha[h] & self.mask
            covers.append(sorted(pos[x] for x in iter_bits(below) if not beta[x] & below))
        labels = [self.ambient._labels[h] for h in members]
        return Poset(covers, labels)


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
    return SuborderView(view.ambient, view.ambient.theta_masks[h] & view.mask)


# ---------------------------------------------------------------------------
# mask-level machinery shared by the recognizers


def view_face_ranks(poset: Poset, mask: int) -> dict[int, int]:
    """Per-face ranks of the suborder induced by ``mask`` (recomputed)."""
    ranks: dict[int, int] = {}
    alpha = poset.alpha_masks
    for h in sorted(iter_bits(mask), key=poset.face_ranks.__getitem__):
        below = alpha[h] & mask
        ranks[h] = 1 + max(ranks[x] for x in iter_bits(below)) if below else 0
    return ranks


def view_rank(poset: Poset, mask: int) -> int:
    """Rank of the suborder induced by ``mask``; -1 when empty.

    The full view's rank is the poset's, computed at construction; any
    other view is re-ranked from its own faces.
    """
    if mask == poset.full_mask:
        return poset.rank()
    return max(view_face_ranks(poset, mask).values(), default=-1)


def component_masks(poset: Poset, mask: int) -> Iterator[int]:
    """Connected components of a view under strict theta adjacency.

    Yielded lazily, ordered by their lowest member: a view is connected
    exactly when its first component is the whole view.
    """
    theta = poset.theta_masks
    rest = mask
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= theta[low.bit_length() - 1]
                f ^= low
            nxt &= mask & ~comp
            comp |= nxt
            frontier = nxt
        yield comp
        rest &= ~comp


# ---------------------------------------------------------------------------
# public operator algebra


_KIND_ATTR = {"alpha": "alpha_masks", "beta": "beta_masks", "theta": "theta_masks"}


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
        masks = getattr(view.ambient, _KIND_ATTR[kind])
    except KeyError:
        raise DomainError(f"unknown operator kind {kind!r}; use alpha, beta or theta") from None
    if isinstance(faces, int):
        faces = (faces,)
    out = 0
    for h in faces:
        if h not in view:
            raise DomainError(f"face {h} is not a member of the poset/view")
        m = masks[h] & view.mask
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
    return view_face_ranks(view.ambient, view.mask)[h]


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
    p_max = [h for h in range(np_) if p.beta_masks[h] == 0]
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
    theta = view.ambient.theta_masks
    reach = 0
    for h in iter_bits(am):
        reach |= theta[h]
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
    text is read: a poset of that many faces is refused anyway.
    """
    records: dict[int, tuple[str | None, list[int]]] = {}
    declared: int | None = None
    declared_line = 0
    for no, line in content_lines(text):
        toks = line.split()
        if toks[0] == "rank":
            if len(toks) != 2:
                raise ParseError("malformed rank line", no)
            if declared is not None:
                raise ParseError("duplicate rank line", no)
            try:
                declared = int(toks[1])
            except ValueError:
                raise ParseError(f"rank is not an integer: {toks[1]!r}", no) from None
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
                raise ParseError(f"face id is not an integer: {toks[1]!r}", no) from None
            if toks[2] == ":":
                label, rest = None, toks[3:]
            elif len(toks) > 3 and toks[3] == ":":
                label, rest = toks[2], toks[4:]
            else:
                raise ParseError("missing ':' separator in face record", no)
            try:
                covered = [int(t) for t in rest]
            except ValueError:
                raise ParseError("covered ids must be integers", no) from None
            if fid in records:
                raise ParseError(f"duplicate face id {fid}", no)
            records[fid] = (label, covered)
        else:
            raise ParseError(f"unknown record {toks[0]!r}", no)
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
