"""Independent brute-force oracles used to compute/freeze expected values.

Everything here re-derives results from raw cover lists (or raw simplex
sets) with naive set algebra, deliberately sharing no code path with the
package internals it is used to check.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator

from posurf.errors import DomainError
from posurf.poset import Poset, SuborderView, as_view, component_masks, iter_bits, view_rank
from posurf.simplicial import SimplicialComplex
from posurf.surfaces import Verdict

# The rank ``MaskViews`` gives a view that is not a surface or PCM.
NOT_HELD = -2


def face_id(k: SimplicialComplex, simplex) -> int:
    """Id of ``simplex`` in ``k.face_poset()``: its position in the canonical
    face order ``k.faces``."""
    return k.faces.index(frozenset(simplex))


# ---------------------------------------------------------------------------
# poset-level oracles over raw cover lists


def strict_below(covers):
    """h -> set of faces strictly below h, by repeated expansion."""
    n = len(covers)
    below = [set(cs) for cs in covers]
    changed = True
    while changed:
        changed = False
        for h in range(n):
            extra = set()
            for c in below[h]:
                extra |= below[c]
            if not extra <= below[h]:
                below[h] |= extra
                changed = True
    return below


def brute_local(covers, h, kind, strict=True, members=None):
    below = strict_below(covers)
    members = set(range(len(covers))) if members is None else set(members)
    assert h in members
    if kind == "alpha":
        out = below[h] & members
    elif kind == "beta":
        out = {x for x in members if h in below[x]}
    else:
        out = (below[h] & members) | {x for x in members if h in below[x]}
    if not strict:
        out = out | {h}
    return out


def brute_face_rank(covers, h, members=None):
    below = strict_below(covers)
    members = set(range(len(covers))) if members is None else set(members)

    def r(x):
        under = below[x] & members
        return 0 if not under else 1 + max(r(y) for y in under)

    return r(h)


def brute_rank(covers, members=None):
    members = set(range(len(covers))) if members is None else set(members)
    if not members:
        return -1
    return max(brute_face_rank(covers, h, members) for h in members)


def coherent_by_recursion(covers, members=None):
    """Coherence by its recursive definition: every strict neighborhood of
    a rank-n view is a coherent view of rank n - 1."""
    below = strict_below(covers)
    members = set(range(len(covers))) if members is None else set(members)
    n = brute_rank(covers, members)
    for h in members:
        nbhd = {x for x in members if x in below[h] or h in below[x]}
        if brute_rank(covers, nbhd) != n - 1 or not coherent_by_recursion(covers, nbhd):
            return False
    return True


def brute_co_ranks(covers):
    """h -> the number of faces of a longest chain strictly above h."""
    below = strict_below(covers)
    above = [{x for x in range(len(covers)) if h in below[x]} for h in range(len(covers))]
    memo = {}

    def co(h):
        if h not in memo:
            memo[h] = 0 if not above[h] else 1 + max(co(x) for x in above[h])
        return memo[h]

    return [co(h) for h in range(len(covers))]


def brute_components(covers, members=None, below=None):
    """Components under strict comparability; ``below`` is ``strict_below(covers)``,
    computed here when not given."""
    below = strict_below(covers) if below is None else below
    members = set(range(len(covers))) if members is None else set(members)
    seen = set()
    comps = []
    for start in sorted(members):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            x = queue.pop()
            for y in members:
                if y not in comp and (y in below[x] or x in below[y]):
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        comps.append(comp)
    return comps


def brute_is_surface(covers, members=None):
    """(is_surface, rank) by the literal recursion; no memo, no bitmasks."""
    below = strict_below(covers)
    members = frozenset(range(len(covers))) if members is None else frozenset(members)

    def theta(h, mem):
        return frozenset(x for x in mem if x != h and (x in below[h] or h in below[x]))

    def connected(mem):
        if not mem:
            return True
        comp = {min(mem)}
        queue = [min(mem)]
        while queue:
            x = queue.pop()
            for y in theta(x, mem):
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        return comp == set(mem)

    def rank_of(mem):
        if not mem:
            return -1

        def fr(x):
            under = below[x] & mem
            return 0 if not under else 1 + max(fr(y) for y in under)

        return max(fr(x) for x in mem)

    def surf(mem):
        if not mem:
            return (True, -1)
        if len(mem) == 1:
            return (False, None)
        if len(mem) == 2:
            a, b = sorted(mem)
            return (True, 0) if b not in theta(a, mem) and a not in theta(b, mem) else (False, None)
        if not connected(mem):
            return (False, None)
        child = None
        for h in mem:
            ok, k = surf(theta(h, mem))
            if not ok:
                return (False, None)
            if child is None:
                child = k
            elif k != child:
                return (False, None)
        if rank_of(mem) != child + 1:
            return (False, None)
        return (True, child + 1)

    return surf(members)


def brute_border(covers, members=None):
    """Set of border faces by the definition (surface test per neighborhood)."""
    below = strict_below(covers)
    members = frozenset(range(len(covers))) if members is None else frozenset(members)
    n = brute_rank(covers, members)
    assert n >= 0
    out = set()
    for h in members:
        nbhd = frozenset(x for x in members if x != h and (x in below[h] or h in below[x]))
        ok, k = brute_is_surface(covers, nbhd)
        if not (ok and k == n - 1):
            out.add(h)
    return out


def brute_is_pcm(covers, members=None):
    """(holds, rank) by the literal recursion; small instances only."""
    below = strict_below(covers)
    members = frozenset(range(len(covers))) if members is None else frozenset(members)

    def theta(h, mem):
        return frozenset(x for x in mem if x != h and (x in below[h] or h in below[x]))

    def connected(mem):
        if not mem:
            return True
        comp = {min(mem)}
        queue = [min(mem)]
        while queue:
            x = queue.pop()
            for y in theta(x, mem):
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        return comp == set(mem)

    def pcm(mem):
        if not mem:
            return (True, -1)
        if len(mem) == 1:
            return (True, 0)
        n = brute_rank(covers, mem)
        if n == 0 or not connected(mem):
            return (False, None)
        has_border = False
        for h in mem:
            t = theta(h, mem)
            ok, k = brute_is_surface(covers, t)
            if ok and k == n - 1:
                continue
            okp, kp = pcm(t)
            if okp and kp == n - 1:
                has_border = True
                continue
            return (False, None)
        return (True, n) if has_border else (False, None)

    return pcm(members)


def _partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def brute_is_smooth_pcm(covers, members=None, max_border=8):
    """(holds, rank) with the border condition decided verbatim.

    The border must admit SOME partition into parts that are each
    (n-1)-surfaces and pairwise theta-separated; all partitions are
    enumerated, so only small borders are feasible (RuntimeError above
    ``max_border`` faces).
    """
    from itertools import combinations

    below = strict_below(covers)
    members = frozenset(range(len(covers))) if members is None else frozenset(members)

    def theta(h, mem):
        return frozenset(x for x in mem if x != h and (x in below[h] or h in below[x]))

    def connected(mem):
        if not mem:
            return True
        comp = {min(mem)}
        queue = [min(mem)]
        while queue:
            x = queue.pop()
            for y in theta(x, mem):
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        return comp == set(mem)

    def smooth(mem):
        if not mem:
            return (True, -1)
        if len(mem) == 1:
            return (True, 0)
        n = brute_rank(covers, mem)
        if n == 0 or not connected(mem):
            return (False, None)
        bd = set()
        for h in mem:
            t = theta(h, mem)
            ok, k = brute_is_surface(covers, t)
            if ok and k == n - 1:
                continue
            oks, ks = smooth(t)
            if oks and ks == n - 1:
                bd.add(h)
                continue
            return (False, None)
        if not bd:
            return (False, None)
        if len(bd) > max_border:
            raise RuntimeError("border too large for literal partition enumeration")
        for part in _partitions(sorted(bd)):
            good = all(
                brute_is_surface(covers, frozenset(group)) == (True, n - 1) for group in part
            )
            if good:
                for g1, g2 in combinations(part, 2):
                    if any(b in theta(a, bd) for a in g1 for b in g2):
                        good = False
                        break
            if good:
                return (True, n)
        return (False, None)

    return smooth(members)


def brute_condition_C(covers, members=None) -> bool:
    """Condition (C) on an n-PCM by its definition: each border face's strict
    neighborhood inside the border is an (n-2)-surface."""
    below = strict_below(covers)
    members = frozenset(range(len(covers))) if members is None else frozenset(members)
    n = brute_rank(covers, members)
    bd = brute_border(covers, members)
    return all(
        brute_is_surface(covers, {x for x in bd if x in below[h] or h in below[x]}) == (True, n - 2)
        for h in bd
    )


# ---------------------------------------------------------------------------
# the recursion over member bitmasks


class MaskViews:
    """Rank, connectivity, surface, border and PCM tests on any member
    bitmask of one poset: the reference for the law of ``posurf.surfaces``.

    Each neighborhood is split into its two join factors, masks cut from
    the closure and opening tables, and every answer is memoized under its
    mask, in the poset's ``view_rank``, ``connected``, ``surface``,
    ``border`` and ``pcm`` memos, which the library does not use. Nothing is
    decided by the interval law or by face ranks and cover lists.
    """

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
        """(h, alpha(h) & mask, beta(h) & mask) for each face h of the view."""
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
        """Surface rank of the view, or NOT_HELD: each strict neighborhood
        decided by its two join factors (``_join``), by the join law for
        discrete surfaces that the ``posurf.surfaces`` docstring cites."""
        count = mask.bit_count()
        if count <= 2:
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
        """PCM rank of the view, or NOT_HELD: the walk over the border,
        each border neighborhood decided by its two join factors, by the
        join law for PCMs that the ``posurf.surfaces`` docstring proves."""
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


def pcm_by_walk(obj: "Poset | SuborderView") -> Verdict:
    """PCM verdict by the definition's own walk over the border.

    For rank n >= 1 the view must be connected with a nonempty border, and
    every border face's strict neighborhood, tested whole, an (n-1)-PCM.
    Rank, connectivity and border come from ``MaskViews``; the walk and its
    memo are its own. It is the reference for ``is_pcm``, which decides by
    the interval law. The neighborhoods it visits are not intervals, so it
    is exponential on chains and simplices.
    """
    view = as_view(obj)
    views = MaskViews(view.ambient)
    theta = view.ambient.theta_masks
    memo: dict[int, int] = {}

    def pcm(mask: int) -> int:
        count = mask.bit_count()
        if count <= 1:
            return count - 1
        if mask not in memo:
            memo[mask] = NOT_HELD
            if views.connected(mask):
                n = views.rank(mask)
                bmask = views.border(mask)
                if bmask and all(pcm(theta[h] & mask) == n - 1 for h in iter_bits(bmask)):
                    memo[mask] = n
        return memo[mask]

    rank = pcm(view.mask)
    return Verdict(None if rank == NOT_HELD else rank)


def smooth_pcm_by_walk(obj: "Poset | SuborderView") -> Verdict:
    """Smooth PCM verdict by the definition's own walk over the border.

    For rank n >= 1 the view must be connected with a nonempty border,
    every border face's strict neighborhood a smooth (n-1)-PCM, and the
    border a separated union of (n-1)-surfaces. Components of a suborder
    are never adjacent in it, so for n >= 2 each component must be an
    (n-1)-surface; for n = 1 the border must be singletons in even number
    (any pairing of them is a union of 0-surfaces). Rank, connectivity,
    border and surfaces come from ``MaskViews``; the walk and its memo are its
    own. It is the reference for ``is_smooth_pcm`` (PCM and condition (C))
    on borders above the cap of ``brute_is_smooth_pcm``.
    """
    view = as_view(obj)
    views = MaskViews(view.ambient)
    theta = view.ambient.theta_masks
    memo: dict[int, int] = {}

    def smooth(mask: int) -> int:
        count = mask.bit_count()
        if count <= 1:
            return count - 1
        if mask not in memo:
            memo[mask] = NOT_HELD
            if views.connected(mask):
                n = views.rank(mask)
                bmask = views.border(mask)
                comps = list(component_masks(view.ambient, bmask))
                if n == 1:
                    union = len(comps) == bmask.bit_count() and len(comps) % 2 == 0
                else:
                    union = all(views.surface(c) == n - 1 for c in comps)
                if bmask and union and all(
                    smooth(theta[h] & mask) == n - 1 for h in iter_bits(bmask)
                ):
                    memo[mask] = n
        return memo[mask]

    rank = smooth(view.mask)
    return Verdict(None if rank == NOT_HELD else rank)


# ---------------------------------------------------------------------------
# condition (C) on the face poset


def condition_C_by_neighborhoods(k) -> bool:
    """Condition (C) by its definition on the face poset: every border face
    has, inside the border suborder, a strict neighborhood that is an
    (n-2)-surface.

    Verifies by the recursion that ``k`` is an n-PCM of rank n >= 1
    (DomainError otherwise) and computes the border from the definition;
    the package decides the same condition on the boundary complex.
    """
    n = k.dim
    poset = k.face_poset()
    views = MaskViews(poset)
    if n < 1 or views.pcm(poset.full_mask) != n:
        raise DomainError("condition (C) requires an n-PCM input of rank >= 1")
    bmask = views.border(poset.full_mask)
    theta = poset.theta_masks
    return all(views.surface(theta[h] & bmask) == n - 2 for h in iter_bits(bmask))


def condition_C_by_links(k) -> bool:
    """Condition (C) read from links in the boundary complex B, the closure
    of the boundary ridges of a normal PCM ``k``: the link in B of every
    face of codimension >= 2 in B is codimension-1 connected.

    B is pure and each of its ridges lies under two of its facets, so such
    a link is a pseudomanifold exactly when it is codimension-1 connected,
    decided here by ``codim1_connected_definitional``; one link complex per
    face, and no face poset.
    """
    boundary = SimplicialComplex(k.boundary_ridges())
    return all(
        codim1_connected_definitional(boundary.link(f))
        for f in boundary.faces
        if len(f) < boundary.dim
    )


# ---------------------------------------------------------------------------
# simplicial-level oracles (raw frozensets; no face poset involved)


def link_by_faces(k, h) -> set[frozenset]:
    """The faces of the link of h by definition: faces disjoint from h
    whose union with h is a face, by a scan of every face."""
    h = frozenset(h)
    faces = set(k.faces)
    return {f for f in faces if not f & h and (f | h) in faces}


def join_by_faces(k, l) -> set[frozenset]:
    """The faces of the join by definition: the faces of both complexes
    plus every union of a face from each, with l renumbered upward by
    max(k) + 1 - min(l) when the vertex sets collide."""
    l_faces = list(l.faces)
    if set(k.vertices) & set(l.vertices):
        offset = max(k.vertices) + 1 - min(l.vertices)
        l_faces = [frozenset(v + offset for v in f) for f in l_faces]
    faces = set(k.faces) | set(l_faces)
    faces.update(x | y for x in k.faces for y in l_faces)
    return faces


def codim1_connected_definitional(k) -> bool:
    """Every two top faces joined by a path within the top two dimensions.

    BFS over comparability restricted to faces of dimension n-1 or n,
    straight from the definition of codimension-1 connectivity.
    """
    n = k.dim
    facets = [f for f in k.faces if len(f) - 1 == n]
    if len(facets) <= 1:
        return True
    allowed = [f for f in k.faces if len(f) - 1 in (n - 1, n)]
    start = facets[0]
    seen = {start}
    queue = [start]
    while queue:
        x = queue.pop()
        for y in allowed:
            if y not in seen and (x < y or y < x):
                seen.add(y)
                queue.append(y)
    return all(f in seen for f in facets)


def normal_pseudomanifold_by_links(k) -> bool:
    """Normality straight from the definition: a pseudomanifold whose every
    face of codimension >= 2 has a link that is itself a pseudomanifold.

    Builds one full link complex per face, so it is quadratic in the face
    count; the package decides the same property from star connectivity.
    """
    n = k.dim
    return k.is_pseudomanifold() and all(
        k.link(f).is_pseudomanifold() for f in k.faces if len(f) - 1 <= n - 2
    )


def _alternating(path):
    """Compress a comparability path to strict peak/valley alternation."""
    out = [path[0]]
    for f in path[1:]:
        if f != out[-1]:
            out.append(f)
    changed = True
    while changed:
        changed = False
        i = 1
        while i < len(out) - 1:
            a, b, c = out[i - 1], out[i], out[i + 1]
            if (a < b < c) or (c < b < a):
                del out[i]
                changed = True
            else:
                i += 1
    return out


def _bfs_comparability(nodes, a, b):
    """Shortest comparability path from a to b within nodes, or None."""
    if a == b:
        return [a]
    prev = {a: None}
    queue = [a]
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        for y in nodes:
            if y not in prev and (x < y or y < x):
                prev[y] = x
                if y == b:
                    path = [b]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return path[::-1]
                queue.append(y)
    return None


def fig7_path_repair(k, a, b, max_steps=5000):
    """Constructive two-step repair of a path between top faces a and b.

    Step one massages an arbitrary comparability path into one whose even
    positions are top faces. Step two repeatedly replaces a valley of
    minimal dimension by a path through its coface set, which raises the
    minimal dimension, until only codimension-1 valleys remain. Returns
    the final path or None when a replacement has no local path (possible
    on inputs that are neither PCMs nor surfaces).
    """
    n = k.dim
    faces = list(k.faces)
    facets = [f for f in faces if len(f) - 1 == n]
    a, b = frozenset(a), frozenset(b)
    assert a in facets and b in facets
    if a == b:
        return [a]
    path = _bfs_comparability(faces, a, b)
    if path is None:
        return None
    path = _alternating(path)

    def lift_peaks(p):
        out = list(p)
        for i in range(0, len(out), 2):
            if len(out[i]) - 1 < n:
                out[i] = min((f for f in facets if out[i] <= f), key=lambda f: tuple(sorted(f)))
        return out

    path = lift_peaks(path)
    steps = 0
    while steps < max_steps:
        steps += 1
        valleys = [(len(path[i]), i) for i in range(1, len(path), 2)]
        if not valleys:
            break
        size, i = min(valleys)
        if size - 1 >= n - 1:
            break
        p = path[i]
        q1, q2 = path[i - 1], path[i + 1]
        cofaces = [f for f in faces if p < f]
        local = _bfs_comparability(cofaces, q1, q2)
        if local is None:
            return None
        local = lift_peaks(_alternating(local))
        path = path[: i - 1] + local + path[i + 2 :]
    else:
        return None
    return path


def is_valid_codim1_path(k, path, a, b) -> bool:
    """Endpoint, dimension, and consecutive-comparability checks."""
    n = k.dim
    if not path or path[0] != frozenset(a) or path[-1] != frozenset(b):
        return False
    for f in path:
        if f not in k or len(f) - 1 not in (n - 1, n):
            return False
    for x, y in zip(path, path[1:]):
        if not (x < y or y < x):
            return False
    return True


def repair_decides_connected(k) -> bool:
    """Fig-7-style repair as a decision: every facet reachable from the first."""
    facets = [f for f in k.faces if len(f) - 1 == k.dim]
    if len(facets) <= 1:
        return True
    base = facets[0]
    for f in facets[1:]:
        if fig7_path_repair(k, base, f) is None:
            return False
    return True


# ---------------------------------------------------------------------------
# the random-pure generator by recounting every ridge on each attempt


def random_pure_by_recount(
    dim: int, n_vertices: int, n_facets: int, seed: int = 0, glue_bias: float = 0.9
) -> SimplicialComplex:
    """Reference for ``random_pure_complex``: the same draws, computed the
    quadratic way. Each glue attempt recounts and re-sorts every ridge of
    every facet and scans the whole vertex pool for candidates, and the loop
    runs until the facets are drawn or 50 * n_facets attempts are spent.
    """
    if dim < 1:
        raise DomainError("random-pure needs dim >= 1")
    if n_vertices < dim + 2:
        raise DomainError(f"random-pure needs at least dim + 2 = {dim + 2} vertices")
    if n_facets < 1:
        raise DomainError("random-pure needs at least one facet")
    rng = random.Random(seed)
    pool = range(n_vertices)
    facets = {tuple(sorted(rng.sample(pool, dim + 1)))}
    attempts = 0
    while len(facets) < n_facets and attempts < 50 * n_facets:
        attempts += 1
        if rng.random() < glue_bias:
            # glue onto a ridge with exactly one coface, and only in ways
            # that keep every ridge under two cofaces: growth then looks
            # manifold-like and can close up into a pseudomanifold
            ridge_counts: dict[tuple, int] = {}
            for f in sorted(facets):
                for v in f:
                    r = tuple(x for x in f if x != v)
                    ridge_counts[r] = ridge_counts.get(r, 0) + 1
            boundary = [r for r, c in sorted(ridge_counts.items()) if c == 1]
            if not boundary:
                continue
            ridge = set(rng.choice(boundary))
            candidates = []
            for v in pool:
                if v in ridge:
                    continue
                cand = tuple(sorted(ridge | {v}))
                if cand in facets:
                    continue
                side_ridges = [tuple(x for x in cand if x != u) for u in cand]
                side_ridges = [r for r in side_ridges if set(r) != ridge]
                if all(ridge_counts.get(r, 0) <= 1 for r in side_ridges):
                    candidates.append(cand)
            if not candidates:
                continue
            new = rng.choice(candidates)
        else:
            new = tuple(sorted(rng.sample(pool, dim + 1)))
        facets.add(new)
    return SimplicialComplex(sorted(facets))


# ---------------------------------------------------------------------------
# small helpers for frozen expected values


def powerset_nonempty(vertices):
    vs = sorted(vertices)
    out = set()
    for r in range(1, len(vs) + 1):
        out.update(frozenset(c) for c in combinations(vs, r))
    return out


def closure_by_powersets(generators) -> set[frozenset]:
    """The downward closure of a family of simplices: the union of their
    nonempty subsets."""
    return set().union(*(powerset_nonempty(g) for g in generators))


# ---------------------------------------------------------------------------
# order isomorphism by backtracking search (small instances only); this one
# reads Poset objects, since what it checks is the face-poset bridge


def _materialize(obj: "Poset | SuborderView") -> Poset:
    if isinstance(obj, Poset):
        return obj
    return as_view(obj).to_poset()


def _iso_signatures(p: Poset, rounds: int = 2) -> list:
    """Per-face invariants refined over the cover graph (WL-style)."""
    n = len(p)
    up: list[list[int]] = [[] for _ in range(n)]
    for h in range(n):
        for c in p.covers(h):
            up[c].append(h)
    sig: list = [(p.face_ranks[h], len(p.covers(h)), len(up[h])) for h in range(n)]
    for _ in range(rounds):
        sig = [
            (
                sig[h],
                tuple(sorted(sig[c] for c in p.covers(h))),
                tuple(sorted(sig[g] for g in up[h])),
            )
            for h in range(n)
        ]
    return sig


def is_isomorphic(p: "Poset | SuborderView", q: "Poset | SuborderView", max_faces: int = 40) -> bool:
    """Order-isomorphism by backtracking search; small inputs only.

    Inputs larger than ``max_faces`` are refused with a DomainError: the
    search is exponential in general.
    """
    pa = _materialize(p)
    qa = _materialize(q)
    if len(pa) > max_faces or len(qa) > max_faces:
        raise DomainError(f"isomorphism test refused: inputs above {max_faces} faces")
    if len(pa) != len(qa):
        return False
    if pa.rank() != qa.rank():
        return False

    sig_p = _iso_signatures(pa)
    sig_q = _iso_signatures(qa)
    if sorted(map(repr, sig_p)) != sorted(map(repr, sig_q)):
        return False

    n = len(pa)
    candidates: list[list[int]] = []
    by_sig: dict[str, list[int]] = {}
    for j in range(n):
        by_sig.setdefault(repr(sig_q[j]), []).append(j)
    for h in range(n):
        candidates.append(by_sig.get(repr(sig_p[h]), []))
        if not candidates[-1]:
            return False

    order = sorted(range(n), key=lambda h: len(candidates[h]))
    mapping = [-1] * n
    used = [False] * n

    up_p: list[list[int]] = [[] for _ in range(n)]
    up_q: list[list[int]] = [[] for _ in range(n)]
    for h in range(n):
        for c in pa.covers(h):
            up_p[c].append(h)
        for c in qa.covers(h):
            up_q[c].append(h)
    covers_q = [set(qa.covers(h)) for h in range(n)]
    coverers_q = [set(up_q[h]) for h in range(n)]

    def extend(i: int) -> bool:
        if i == n:
            return True
        a = order[i]
        for b in candidates[a]:
            if used[b]:
                continue
            ok = True
            for c in pa.covers(a):
                m = mapping[c]
                if m >= 0 and m not in covers_q[b]:
                    ok = False
                    break
            if ok:
                for g in up_p[a]:
                    m = mapping[g]
                    if m >= 0 and m not in coverers_q[b]:
                        ok = False
                        break
            if not ok:
                continue
            mapping[a] = b
            used[b] = True
            if extend(i + 1):
                return True
            mapping[a] = -1
            used[b] = False
        return False

    return extend(0)
