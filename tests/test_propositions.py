"""Structural propositions checked exhaustively over the small corpus.

Every check in here quantifies over all faces (or face pairs) of all
applicable instances; helpers return violation lists so the acceptance
suite can reuse them as universally quantified passes.
"""

from posurf import (
    Poset,
    SimplicialComplex,
    border,
    is_coherent,
    is_k_surface,
    is_pcm,
    is_smooth_pcm,
    join,
    local_sets,
    rank,
    restrict,
    theta_view,
)
from posurf.surfaces import border_mask_of
from posurf.poset import as_view, iter_bits

from . import oracles
from .conftest import antichain_poset, complex_corpus, path_complex, poset_corpus


def all_posets():
    named = [(n, p) for n, p in poset_corpus()]
    named += [(f"face poset of {n}", k.face_poset()) for n, k in complex_corpus()]
    return named


def pcm_posets():
    out = []
    for name, p in all_posets():
        v = is_pcm(p)
        if v.holds and v.rank >= 0:
            out.append((name, p, v.rank))
    return out


# ---------------------------------------------------------------------------
# simplicial-complex facts


def check_closures_are_surfaces(k: SimplicialComplex):
    """In a complex, the strict closure of a d-face is a (d-1)-surface."""
    violations = []
    p = k.face_poset()
    for h, f in enumerate(k.faces):
        v = is_k_surface(restrict(p, sorted(local_sets(p, h, "alpha"))))
        if not (v.holds and v.rank == len(f) - 2):
            violations.append((sorted(f), v))
    return violations


def check_interval_surfaces(k: SimplicialComplex):
    """For y strictly under x: opening(y) meet closure(x) is a surface of
    rank dim(x) - dim(y) - 2."""
    violations = []
    p = k.face_poset()
    for xid, x in enumerate(k.faces):
        below = local_sets(p, xid, "alpha")
        for yid in below:
            inter = local_sets(p, yid, "beta") & below
            v = is_k_surface(restrict(p, sorted(inter)))
            want = (len(x) - 1) - p.face_ranks[yid] - 2
            if not (v.holds and v.rank == want):
                violations.append((sorted(x), yid, v))
    return violations


def test_closures_are_surfaces(complexes):
    for name, k in complexes:
        assert not check_closures_are_surfaces(k), name


def test_interval_surfaces(complexes):
    for name, k in complexes:
        assert not check_interval_surfaces(k), name


# ---------------------------------------------------------------------------
# purity / homogeneity / coherence of PCMs


def check_pure(p: Poset, n: int):
    violations = []
    for h in range(len(p)):
        if p.face_ranks[h] != n and not any(
            p.face_ranks[g] == n for g in iter_bits(p.beta_masks[h])
        ):
            violations.append(h)
    return violations


def check_homogeneous(p: Poset, n: int):
    violations = []
    for h in range(len(p)):
        k = p.face_ranks[h]
        above = {p.face_ranks[g] for g in iter_bits(p.beta_masks[h])}
        below = {p.face_ranks[g] for g in iter_bits(p.alpha_masks[h])}
        if not set(range(k + 1, n + 1)) <= above or not set(range(k)) <= below:
            violations.append(h)
    return violations


def test_pcms_are_pure_and_homogeneous():
    checked = 0
    for name, p, n in pcm_posets():
        assert not check_pure(p, n), name
        assert not check_homogeneous(p, n), name
        checked += 1
    assert checked >= 8


def test_surfaces_and_pcms_are_coherent():
    for name, p in all_posets():
        if is_k_surface(p).holds or is_pcm(p).holds or is_smooth_pcm(p).holds:
            assert is_coherent(p), name


def test_nothing_is_both_surface_and_pcm_except_empty():
    for name, p in all_posets():
        if len(p) == 0:
            assert is_k_surface(p).holds and is_pcm(p).holds
        else:
            assert not (is_k_surface(p).holds and is_pcm(p).holds), name


# ---------------------------------------------------------------------------
# closures/openings inside PCMs


def check_pcm_face_sides(p: Poset, n: int):
    """closure(h) is a (rk(h)-1)-PCM or surface; opening(h) an (n-rk(h)-1) one."""
    violations = []
    for h in range(len(p)):
        k = p.face_ranks[h]
        down = restrict(p, sorted(iter_bits(p.alpha_masks[h])))
        sv, pv = is_k_surface(down), is_pcm(down)
        if not ((sv.holds and sv.rank == k - 1) or (pv.holds and pv.rank == k - 1)):
            violations.append(("alpha", h))
        up = restrict(p, sorted(iter_bits(p.beta_masks[h])))
        sv, pv = is_k_surface(up), is_pcm(up)
        if not ((sv.holds and sv.rank == n - k - 1) or (pv.holds and pv.rank == n - k - 1)):
            violations.append(("beta", h))
    return violations


def test_pcm_face_sides():
    for name, p, n in pcm_posets():
        assert not check_pcm_face_sides(p, n), name


def test_pcm_interval_rank_and_kind():
    # for a strictly above b inside an n-PCM: closure(a) meet opening(b)
    # has rank rk(a) - rk(b) - 2 and is a surface or a PCM
    for name, p, n in pcm_posets():
        if n < 1:
            continue
        for b in range(len(p)):
            for a in iter_bits(p.beta_masks[b]):
                inter = p.alpha_masks[a] & p.beta_masks[b]
                sub = restrict(p, sorted(iter_bits(inter)))
                want = p.face_ranks[a] - p.face_ranks[b] - 2
                assert rank(sub) == want if len(sub) else want == -1, (name, a, b)
                sv, pv = is_k_surface(sub), is_pcm(sub)
                assert sv.holds or pv.holds, (name, a, b)


def test_join_factor_classification_inside_pcms():
    # when the neighborhood of h decomposes as opening * closure and one
    # factor is a surface, the other is a PCM of the complementary rank
    for name, p, n in pcm_posets():
        if n < 1:
            continue
        for h in range(len(p)):
            t = theta_view(p, h)
            if not is_pcm(t).holds or is_k_surface(t).holds:
                continue
            m = rank(t)
            down = restrict(p, sorted(iter_bits(p.alpha_masks[h])))
            up = restrict(p, sorted(iter_bits(p.beta_masks[h])))
            sd = is_k_surface(down)
            su = is_k_surface(up)
            if sd.holds:
                pv = is_pcm(up)
                assert pv.holds and pv.rank == m - sd.rank - 1, (name, h)
            if su.holds:
                pv = is_pcm(down)
                assert pv.holds and pv.rank == m - su.rank - 1, (name, h)


# ---------------------------------------------------------------------------
# border propositions


def border_set(p: Poset, members=None) -> frozenset[int]:
    view = as_view(p) if members is None else restrict(p, sorted(members))
    return frozenset(iter_bits(border_mask_of(view)))


def check_border_neighborhood_inclusion(p: Poset):
    """Border of the neighborhood is included in the neighborhood of the border."""
    violations = []
    if rank(p) < 0:
        return violations
    bd = border_set(p)
    for h in sorted(bd):
        nbhd = theta_view(p, h)
        if len(nbhd) == 0:
            continue
        border_of_nbhd = border_set(p, nbhd.members)
        nbhd_of_border = local_sets(p, h, "theta") & bd
        if not border_of_nbhd <= nbhd_of_border:
            violations.append(h)
    return violations


def check_border_neighborhood_equality(p: Poset):
    violations = []
    if rank(p) < 0:
        return violations
    bd = border_set(p)
    for h in sorted(bd):
        nbhd = theta_view(p, h)
        if len(nbhd) == 0:
            continue
        border_of_nbhd = border_set(p, nbhd.members)
        nbhd_of_border = local_sets(p, h, "theta") & bd
        if border_of_nbhd != nbhd_of_border:
            violations.append(h)
    return violations


def test_border_neighborhood_inclusion_on_coherent_posets():
    checked = 0
    for name, p in all_posets():
        if len(p) == 0 or not is_coherent(p):
            continue
        assert not check_border_neighborhood_inclusion(p), name
        checked += 1
    assert checked >= 10


def test_border_neighborhood_equality_on_coherent_complexes(complexes):
    checked = 0
    for name, k in complexes:
        p = k.face_poset()
        if len(p) == 0 or not is_coherent(p):
            continue
        assert not check_border_neighborhood_equality(p), name
        checked += 1
    assert checked >= 6


def test_border_beta_equality_on_simplicial_pcms(complexes):
    # opening of h inside the border equals the border of the opening of h
    for name, k in complexes:
        p = k.face_poset()
        v = is_pcm(p)
        if not v.holds or v.rank < 1:
            continue
        bd = border_set(p)
        for h in sorted(bd):
            up = local_sets(p, h, "beta")
            beta_in_border = up & bd
            border_of_beta = border_set(p, up) if up else frozenset()
            assert beta_in_border == border_of_beta, (name, h)


def test_border_rank_and_closure_on_simplicial_pcms(complexes):
    for name, k in complexes:
        p = k.face_poset()
        v = is_pcm(p)
        if not v.holds or v.rank < 1:
            continue
        n = v.rank
        bd = border_set(p)
        sub = restrict(p, sorted(bd))
        assert rank(sub) == n - 1, name
        # the border is inclusion closed and equals the closure of its
        # rank-(n-1) faces
        top = [h for h in bd if p.face_ranks[h] == n - 1]
        closure = set(top)
        for h in top:
            closure |= local_sets(p, h, "alpha")
        assert closure == set(bd), name


def test_border_of_simplicial_pcm_has_no_top_faces(complexes):
    for name, k in complexes:
        p = k.face_poset()
        v = is_pcm(p)
        if not v.holds or v.rank < 1:
            continue
        for h in border_set(p):
            assert p.face_ranks[h] < v.rank, name


def test_simplicial_pcms_of_rank_1_and_2_are_smooth(complexes, big_complexes):
    # A 1-PCM is a path, whose border is its two endpoints: a 0-surface. In
    # a 2-PCM each border vertex has a path as its link, whose two ends are
    # the only border edges through it, so the border is a union of cycles.
    from posurf import random_pure_complex

    draws = [
        (f"random d2 #{i}", random_pure_complex(2, 5 + i % 6, 2 + i % 11, i)) for i in range(150)
    ]
    ranks = []
    for name, k in complexes + big_complexes + draws:
        p = k.face_poset()
        v = is_pcm(p)
        if v.holds and v.rank in (1, 2):
            assert is_smooth_pcm(p).holds, name
            ranks.append((v.rank, name.startswith("random")))
    assert {(1, False), (2, False), (2, True)} <= set(ranks)
    assert ranks.count((2, True)) >= 20


def test_two_smallest_non_smooth_simplicial_pcms():
    # In dimension 3 the smallest non-smooth simplicial PCMs have 6 facets on
    # 7 vertices, in two isomorphism classes: cones with apex 0 over a
    # 6-triangle annulus bounded by two 3-cycles. Both paths must call each a
    # PCM that is not smooth. Their vertex degrees differ, so the two are not
    # isomorphic.
    from collections import Counter

    from posurf import check_condition_C, classify_both

    smallest = [
        [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 5), (0, 1, 4, 6), (0, 3, 4, 5), (0, 4, 5, 6)],
        [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 5), (0, 2, 4, 6), (0, 3, 5, 6), (0, 4, 5, 6)],
    ]
    degrees = []
    for facets in smallest:
        k = SimplicialComplex(facets)
        assert len(k) == 49 and k.f_vector() == (7, 18, 18, 6)
        cls = classify_both(k)
        assert cls.category == "pcm" and cls.rank == 3
        assert cls.is_smooth_pcm is False
        assert not check_condition_C(k)
        degrees.append(sorted(Counter(v for f in k.faces if len(f) == 2 for v in f).values()))
    assert degrees == [[4, 4, 5, 5, 6, 6, 6], [5, 5, 5, 5, 5, 5, 6]]


def test_census_of_pure_3_complexes_on_7_vertices():
    # Every pure 3-complex grown from the tetrahedron (0,1,2,3) on 7 vertices,
    # one facet at a time across a boundary ridge (a ridge under one facet),
    # never putting a ridge under three facets. Growth reaches every
    # 3-pseudomanifold on these vertices, so every 3-PCM. The first
    # non-smooth PCMs appear at 6 facets, and both paths must agree on them.
    from collections import Counter
    from itertools import combinations

    from posurf import classify_both, classify_fast

    level = {frozenset({(0, 1, 2, 3)})}
    counts = [len(level)]
    for _ in range(5):
        grown = set()
        for k in level:
            ridges = Counter(r for f in k for r in combinations(f, 3))
            for r in [r for r, c in ridges.items() if c == 1]:
                for v in range(7):
                    f = tuple(sorted(r + (v,)))
                    if v not in r and f not in k and all(ridges[s] <= 1 for s in combinations(f, 3)):
                        grown.add(k | {f})
        level = grown
        counts.append(len(level))
    assert counts == [1, 12, 126, 1152, 9141, 59_328]
    verdicts = Counter()
    non_smooth = []
    for k in level:
        c = classify_fast(SimplicialComplex(k))
        verdict = "smooth" if c.is_smooth_pcm else c.category
        verdicts[verdict] += 1
        if verdict == "pcm":
            non_smooth.append(k)
    assert verdicts == {"neither": 50_184, "smooth": 8640, "pcm": 504}
    for k in non_smooth:
        c = classify_both(SimplicialComplex(k))
        assert (c.category, c.rank, c.is_smooth_pcm) == ("pcm", 3, False), sorted(k)


def test_openings_in_simplicial_pcms_split_by_border(complexes):
    # opening(h) is a PCM exactly on border faces, a surface on interior
    for name, k in complexes:
        p = k.face_poset()
        v = is_pcm(p)
        if not v.holds or v.rank < 1:
            continue
        n = v.rank
        bd = border_set(p)
        for h, f in enumerate(k.faces):
            up = restrict(p, sorted(local_sets(p, h, "beta")))
            want = n - (len(f) - 1) - 1
            if h in bd:
                pv = is_pcm(up)
                assert pv.holds and pv.rank == want, (name, sorted(f))
            else:
                sv = is_k_surface(up)
                assert sv.holds and sv.rank == want, (name, sorted(f))


def test_link_of_border_face_matches_border_of_link(complexes):
    # lk(h, border) is isomorphic to the border of lk(h, X) on simplicial PCMs
    for name, k in complexes:
        p = k.face_poset()
        v = is_pcm(p)
        if not v.holds or v.rank < 1:
            continue
        bd = border_set(p)
        border_complex = SimplicialComplex(
            [sorted(map(int, p.label(h).split(","))) for h in bd]
        )
        for h in sorted(bd):
            f = frozenset(map(int, p.label(h).split(",")))
            lk_of_border = border_complex.link(f)
            lk_full = k.link(f)
            lk_poset = lk_full.face_poset()
            if len(lk_poset) == 0:
                assert len(lk_of_border) == 0
                continue
            border_of_link = border_set(lk_poset)
            border_of_link_complex = SimplicialComplex(
                [sorted(map(int, lk_poset.label(x).split(","))) for x in border_of_link]
            )
            assert oracles.is_isomorphic(
                lk_of_border.face_poset(), border_of_link_complex.face_poset(), max_faces=60
            ), (name, sorted(f))


# ---------------------------------------------------------------------------
# join laws


def _pcm_examples():
    return [
        ("point", Poset([[]]), 0),
        ("edge path", path_complex(1).face_poset(), 1),
        ("chain 2", Poset([[], [0]]), 1),
    ]


def _surface_examples():
    return [
        ("empty", Poset([]), -1),
        ("0-surface", antichain_poset(2), 0),
        ("4-cycle", join(antichain_poset(2), antichain_poset(2)), 1),
    ]


def test_join_pcm_with_surface_is_pcm_with_border_formula():
    for pname, p, k in _pcm_examples():
        for sname, s, l in _surface_examples():
            if k + l + 1 > 2:
                continue
            j = join(p, s)
            v = is_pcm(j)
            assert v.holds and v.rank == k + l + 1, (pname, sname)
            j2 = join(s, p)
            v2 = is_pcm(j2)
            assert v2.holds and v2.rank == k + l + 1, (sname, pname)
            # border of (PCM * surface) = the surface part plus the PCM border
            if k + l + 1 >= 0:
                bd = border_set(j)
                p_border = border_set(p) if rank(p) >= 0 else frozenset()
                s_part = frozenset(range(len(p), len(p) + len(s)))
                assert bd == s_part | p_border, (pname, sname)


def test_join_pcm_with_pcm_is_pcm():
    for pname, p, k in _pcm_examples():
        for qname, q, l in _pcm_examples():
            if k + l + 1 > 2:
                continue
            v = is_pcm(join(p, q))
            assert v.holds and v.rank == k + l + 1, (pname, qname)
