"""Independent brute-force oracles used to compute/freeze expected values.

Everything here re-derives results from raw cover lists (or raw simplex
sets) with naive set algebra, deliberately sharing no code path with the
package internals it is used to check.
"""

from __future__ import annotations

import random
from itertools import combinations

from posurf.errors import DomainError
from posurf.poset import Poset, as_view, iter_bits
from posurf.simplicial import SimplicialComplex
from posurf.surfaces import Views


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


def brute_components(covers, members=None):
    below = strict_below(covers)
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
    views = Views(poset)
    if n < 1 or views.pcm(poset.full_mask) != n:
        raise DomainError("condition (C) requires an n-PCM input of rank >= 1")
    bmask = views.border(poset.full_mask)
    theta = poset.theta_masks
    return all(views.surface(theta[h] & bmask) == n - 2 for h in iter_bits(bmask))


# ---------------------------------------------------------------------------
# simplicial-level oracles (raw frozensets; no face poset involved)


def enumerate_cofaces(faces, h):
    """All faces strictly containing h, by direct scan."""
    h = frozenset(h)
    return {f for f in faces if h < f}


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
