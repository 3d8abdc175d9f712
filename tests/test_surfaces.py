"""Surface recognizer and coherence: base cases, instances, differentials."""

import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from posurf import (
    DomainError,
    Poset,
    border,
    classify_recursive,
    is_coherent,
    is_k_surface,
    is_pcm,
    is_smooth_pcm,
    join,
    khalimsky_block,
    pinched_sphere,
    restrict,
    solid_simplex,
    sphere,
    theta_view,
)
from posurf.poset import iter_bits, view_rank
from posurf.surfaces import MAX_RANK, Views, border_mask_of

from .conftest import antichain_poset, chain_poset, warm_and_fresh
from . import oracles


def test_base_cases():
    assert is_k_surface(Poset([])) == is_k_surface(Poset([]))
    v = is_k_surface(Poset([]))
    assert v.holds and v.rank == -1
    # a singleton is not a surface
    assert not is_k_surface(Poset([[]])).holds
    # two non-adjacent faces form the 0-surface
    v = is_k_surface(antichain_poset(2))
    assert v.holds and v.rank == 0
    # two adjacent faces do not
    assert not is_k_surface(chain_poset(2)).holds
    # three isolated points: no
    assert not is_k_surface(antichain_poset(3)).holds


def test_triangle_boundary_is_1_surface():
    p = sphere(1).face_poset()
    ok, k = oracles.brute_is_surface(p.cover_lists)
    assert (ok, k) == (True, 1)
    v = is_k_surface(p)
    assert v.holds and v.rank == 1


def test_sphere_family():
    for n in range(4):
        v = is_k_surface(sphere(n).face_poset())
        assert v.holds and v.rank == n, f"sphere {n}"


def test_solid_simplex_is_not_a_surface():
    for n in range(4):
        assert not is_k_surface(solid_simplex(n).face_poset()).holds


def test_pinched_sphere_is_not_a_surface():
    assert not is_k_surface(pinched_sphere().face_poset()).holds


def test_surface_matches_brute_oracle(posets, complexes):
    small = [p for _, p in posets if len(p) <= 26]
    small += [k.face_poset() for _, k in complexes if len(k) <= 26]
    for p in small:
        expect = oracles.brute_is_surface(p.cover_lists)
        got = is_k_surface(p)
        assert (got.holds, got.rank) == expect


def test_neighborhoods_of_surfaces_are_surfaces(complexes):
    for name, k in complexes:
        p = k.face_poset()
        v = is_k_surface(p)
        if not v.holds:
            continue
        for h in range(len(p)):
            nv = is_k_surface(theta_view(p, h))
            assert nv.holds and nv.rank == v.rank - 1, (name, h)


def test_random_posets_match_brute_oracles():
    # seeded sweep over random cover DAGs: surface/PCM/smooth PCM verdicts
    # and borders against the naive re-derivations, on full posets and
    # random views
    import random

    from posurf.poset import SuborderView, iter_bits
    from posurf.surfaces import NOT_HELD

    def check_rank_law(p, mask):
        # rank V = 1 + max rank(theta(h) & V), and a surface's rank is its view's
        views = oracles.MaskViews(p)
        if mask:
            sub = max(views.rank(p.theta_masks[h] & mask) for h in iter_bits(mask))
            assert views.rank(mask) == 1 + sub, (p.cover_lists, mask)
        assert views.surface(mask) in (NOT_HELD, views.rank(mask)), (p.cover_lists, mask)

    def check_smooth_and_border(p, mask):
        # the smooth test reads (C) off the border that the PCM walk stores,
        # and the border after a PCM walk must match a fresh one; both
        # against definitions that share neither
        covers = p.cover_lists
        members = list(iter_bits(mask))
        try:
            expect = oracles.brute_is_smooth_pcm(covers, members)
        except RuntimeError:  # a border above the oracle's max_border
            pass
        else:
            got = is_smooth_pcm(SuborderView(p, mask))
            assert (got.holds, got.rank) == expect, (covers, mask)
        if mask:
            views = oracles.MaskViews(p)
            views.pcm(mask)
            fresh = oracles.MaskViews(Poset(covers)).border(mask)
            assert views.border(mask) == fresh, (covers, mask)
            assert set(iter_bits(fresh)) == oracles.brute_border(covers, members), (covers, mask)

    rng = random.Random(777)
    for _ in range(300):
        n = rng.randint(0, 9)
        covers = []
        for h in range(n):
            k = rng.randint(0, min(3, h))
            covers.append(sorted(rng.sample(range(h), k)) if h else [])
        p = Poset(covers)
        check_rank_law(p, p.full_mask)
        sv = is_k_surface(p)
        assert (sv.holds, sv.rank) == oracles.brute_is_surface(covers), covers
        pv = is_pcm(p)
        assert (pv.holds, pv.rank) == oracles.brute_is_pcm(covers), covers
        if n and p.rank() >= 0:
            assert border(p).border_faces == frozenset(oracles.brute_border(covers)), covers
        check_smooth_and_border(p, p.full_mask)
        if n:
            view = SuborderView(p, rng.randrange(1 << n))
            check_rank_law(p, view.mask)
            sv = is_k_surface(view)
            assert (sv.holds, sv.rank) == oracles.brute_is_surface(covers, view.members)
            pv = is_pcm(view)
            assert (pv.holds, pv.rank) == oracles.brute_is_pcm(covers, view.members)
            check_smooth_and_border(p, view.mask)


def test_warm_and_fresh_memos_agree_on_surfaces(posets, complexes):
    targets = [p for _, p in posets] + [k.face_poset() for _, k in complexes]
    for p in targets:
        warm, fresh = warm_and_fresh(p, [is_k_surface])
        assert warm == fresh, p


def test_every_recognizer_fills_its_memos():
    # the border scan fills the per-face lists of closures and openings;
    # the whole poset goes, under its mask, into the others. The
    # rank memo holds the inner intervals that no law ranks: a surface's
    # walk stops at its empty border and has none, a chain's PCM walk some.
    p = sphere(2).face_poset()
    for recognizer in (is_k_surface, border, is_pcm, is_smooth_pcm):
        recognizer(p)
    assert is_k_surface(p).rank == 2
    for name in ("closure_surface", "opening_surface"):
        assert None not in p.memo(name), name
    assert all(p.memo(name) for name in ("surface", "border", "pcm"))
    chain = chain_poset(6)
    assert is_pcm(chain).rank == 5 and chain.memo("view_rank")


def test_views_a_bit_test_decides_are_never_stored():
    # surface views of at most two faces and PCM views of at most one are
    # decided before the memo is read; on a khalimsky block they are most
    # of the surface views, and storing them more than tripled the traced peak
    p = khalimsky_block(24, 24)
    tracemalloc.start()
    try:
        c = classify_recursive(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.category == "pcm" and c.is_smooth_pcm
    assert p.memo("surface") and all(m.bit_count() >= 3 for m in p.memo("surface"))
    assert p.memo("pcm") and all(m.bit_count() >= 2 for m in p.memo("pcm"))
    assert peak < 1_000_000


def test_closure_and_opening_ranks_live_in_the_per_face_lists():
    # the surface rank of each face's closure and opening is stored in a
    # per-face list, not under the mask, and agrees with the recursion over
    # masks on a fresh poset. The lists start with the faces of rank
    # (co-rank) 0 or 1, whose closure (opening) a law decides; the border
    # scan fills in the rest.
    for p, category in ((khalimsky_block(12, 12), "pcm"), (sphere(3).face_poset(), "surface")):
        fresh = Views(Poset(p.cover_lists))
        assert [h for h, r in enumerate(fresh.closures) if r is None] == [
            h for h, r in enumerate(p.face_ranks) if r >= 2
        ]
        assert [h for h, r in enumerate(fresh.openings) if r is None] == [
            h for h, r in enumerate(p.co_ranks) if r >= 2
        ]
        assert classify_recursive(p).category == category
        closures, openings = p.memo("closure_surface"), p.memo("opening_surface")
        reference = oracles.MaskViews(Poset(p.cover_lists))
        for h in range(len(p)):
            assert closures[h] == reference.surface(p.alpha_masks[h]), h
            assert openings[h] == reference.surface(p.beta_masks[h]), h
        assert not set(p.memo("surface")) & set(p.alpha_masks + p.beta_masks)


def _comparable_pairs(p: Poset):
    """Every interval (lo, hi) of comparable lo < hi, with the sentinels
    -1 (bottom) and n (top)."""
    n = len(p)
    yield -1, n
    for h in range(n):
        yield -1, h
        yield h, n
        for lo in iter_bits(p.alpha_masks[h]):
            yield lo, h


def test_interval_laws_against_brute_oracles():
    # each law that decides an interval from face ranks, co-ranks and cover
    # lists, on every comparable pair: d == 1 gives an empty interval, d == 2
    # the antichain of faces that cover lo and are covered by hi, the overlaps
    # of the pieces give connectivity, the covers of hi give the rank
    import random

    rng = random.Random(25)
    posets = [khalimsky_block(7, 5), solid_simplex(6).face_poset()]
    for _ in range(120):
        n = rng.randint(1, 12)
        posets.append(Poset([sorted(rng.sample(range(h), rng.randint(0, min(3, h)))) for h in range(n)]))
    seen = Counter()
    for p in posets:
        covers = p.cover_lists
        below = oracles.strict_below(covers)
        assert list(p.co_ranks) == oracles.brute_co_ranks(covers), covers
        views = Views(p)
        faces = set(range(len(p)))
        for lo, hi in _comparable_pairs(p):
            mask = views.members(lo, hi)
            members = set(iter_bits(mask))
            under = below[hi] if hi < len(p) else faces
            assert members == {x for x in under if lo < 0 or lo in below[x]}, (covers, lo, hi)
            d = views.bound(lo, hi)
            seen[min(d, 3)] += 1
            if d <= 1:
                assert not members, (covers, lo, hi)
            elif d == 2:
                both = set(views.up[lo]) & set(views.down[hi])
                assert members == both, (covers, lo, hi)
                assert not any(below[x] & members for x in members), (covers, lo, hi)
                assert views.antichain(lo, hi) == len(members), (covers, lo, hi)
            if members:
                components = oracles.brute_components(covers, members, below)
                assert views.connected(lo, hi) == (len(components) == 1), (covers, lo, hi)
            assert views.rank(lo, hi) == view_rank(p, mask), (covers, lo, hi)
    assert min(seen.values()) > 100, seen


def test_a_poset_too_deep_for_the_recursion_is_refused():
    # each rank nests about one frame; a chain of MAX_RANK + 1 faces is
    # taken, one face more is refused before any view is evaluated
    deepest = chain_poset(MAX_RANK + 1)
    assert not is_k_surface(deepest).holds
    assert border_mask_of(deepest) == deepest.full_mask
    too_deep = chain_poset(MAX_RANK + 2)
    # coherence is decided from face ranks, with no recursion
    assert is_coherent(too_deep)
    recognizers = (is_k_surface, border_mask_of, border, is_pcm, is_smooth_pcm)
    for recognizer in recognizers + (classify_recursive,):
        with pytest.raises(DomainError, match=f"rank {MAX_RANK + 1} would nest"):
            recognizer(too_deep)
    # the bound is on the view the recursion starts from, which it never
    # leaves: a 3-face view of that chain is decided as its own poset is
    view = restrict(too_deep, [0, 1, 2])
    alone = view.to_poset()
    assert is_pcm(view).rank == 2
    for recognizer in recognizers:
        assert recognizer(view) == recognizer(alone), recognizer.__name__
    assert replace(classify_recursive(view), timings={}) == replace(
        classify_recursive(alone), timings={}
    )


def test_pcm_walk_nests_about_two_frames_per_rank():
    # the factor test sits in the one loop of Views.pcm; a chain of rank r
    # then nests about r frames and some, within the 2r set here, so
    # MAX_RANK fits Python's default limit
    p = chain_poset(64)
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 2 * p.rank() + 8)
    try:
        assert is_pcm(p).rank == 63
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# coherence


def test_coherence_cases(posets, complexes):
    # every verified surface is coherent
    for name, k in complexes:
        p = k.face_poset()
        if is_k_surface(p).holds:
            assert is_coherent(p), name
    # empty poset is coherent; isolated point adjoined to a triangle is not
    assert is_coherent(Poset([]))
    tri = solid_simplex(2).face_poset()
    covers = list(tri.cover_lists) + [()]
    assert not is_coherent(Poset(covers))


def test_khalimsky_blocks_are_coherent(posets):
    for name, p in posets:
        if name.startswith("khalimsky"):
            assert is_coherent(p), name


def test_concurrent_readers_see_consistent_verdicts():
    # memo contract: a poset shared across threads yields one consistent
    # verdict per view no matter the interleaving
    import threading

    p = sphere(3).face_poset()
    results = []

    def worker():
        v = is_k_surface(p)
        results.append((v.holds, v.rank))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [(True, 3)] * 8


def test_join_of_surfaces_ranks():
    # joins of small surfaces are surfaces with ranks adding as k + l + 1
    surfaces = {
        -1: Poset([]),
        0: antichain_poset(2),
        1: join(antichain_poset(2), antichain_poset(2)),
    }
    for k, a in surfaces.items():
        for l, b in surfaces.items():
            v = is_k_surface(join(a, b))
            assert v.holds and v.rank == k + l + 1
