"""Surface recognizer and coherence: base cases, instances, differentials."""

import tracemalloc

import pytest

from posurf import (
    DomainError,
    Poset,
    classify_recursive,
    is_coherent,
    is_k_surface,
    is_pcm,
    join,
    khalimsky_block,
    pinched_sphere,
    solid_simplex,
    sphere,
    theta_view,
)
from posurf.surfaces import border_mask_of
from posurf.surfaces import MAX_RANK

from .conftest import antichain_poset, chain_poset, memo_on_and_off
from . import oracles


def test_base_cases():
    assert is_k_surface(Poset([])) == is_k_surface(Poset([]))
    v = is_k_surface(Poset([]))
    assert v.is_surface and v.rank == -1
    # a singleton is not a surface
    assert not is_k_surface(Poset([[]])).is_surface
    # two non-adjacent faces form the 0-surface
    v = is_k_surface(antichain_poset(2))
    assert v.is_surface and v.rank == 0
    # two adjacent faces do not
    assert not is_k_surface(chain_poset(2)).is_surface
    # three isolated points: no
    assert not is_k_surface(antichain_poset(3)).is_surface


def test_triangle_boundary_is_1_surface():
    p = sphere(1).face_poset()
    ok, k = oracles.brute_is_surface(p.cover_lists)
    assert (ok, k) == (True, 1)
    v = is_k_surface(p)
    assert v.is_surface and v.rank == 1


def test_sphere_family():
    for n in range(4):
        v = is_k_surface(sphere(n).face_poset())
        assert v.is_surface and v.rank == n, f"sphere {n}"


def test_solid_simplex_is_not_a_surface():
    for n in range(4):
        assert not is_k_surface(solid_simplex(n).face_poset()).is_surface


def test_pinched_sphere_is_not_a_surface():
    assert not is_k_surface(pinched_sphere().face_poset()).is_surface


def test_surface_matches_brute_oracle(posets, complexes):
    small = [p for _, p in posets if len(p) <= 26]
    small += [k.face_poset() for _, k in complexes if len(k) <= 26]
    for p in small:
        expect = oracles.brute_is_surface(p.cover_lists)
        got = is_k_surface(p)
        assert (got.is_surface, got.rank) == expect


def test_neighborhoods_of_surfaces_are_surfaces(complexes):
    for name, k in complexes:
        p = k.face_poset()
        v = is_k_surface(p)
        if not v.is_surface:
            continue
        for h in range(len(p)):
            nv = is_k_surface(theta_view(p, h))
            assert nv.is_surface and nv.rank == v.rank - 1, (name, h)


def test_random_posets_match_brute_oracles():
    # seeded sweep over random cover DAGs: surface/PCM/smooth PCM verdicts
    # and borders against the naive re-derivations, on full posets and
    # random views
    import random

    from posurf import border, is_pcm, is_smooth_pcm
    from posurf.poset import SuborderView, iter_bits
    from posurf.surfaces import NOT_SURFACE, Views

    def check_rank_law(p, mask):
        # rank V = 1 + max rank(theta(h) & V), and a surface's rank is its view's
        views = Views(p)
        if mask:
            sub = max(views.rank(p.theta_masks[h] & mask) for h in iter_bits(mask))
            assert views.rank(mask) == 1 + sub, (p.cover_lists, mask)
        assert views.surface(mask) in (NOT_SURFACE, views.rank(mask)), (p.cover_lists, mask)

    def check_smooth_and_border(p, mask):
        # the smooth test walks the border that Views.border stores, and the
        # border after a PCM walk must match a fresh one; both against
        # definitions that share neither
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
            views = Views(p)
            views.pcm(mask)
            fresh = Views(Poset(covers)).border(mask)
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
        assert (sv.is_surface, sv.rank) == oracles.brute_is_surface(covers), covers
        pv = is_pcm(p)
        assert (pv.holds, pv.rank) == oracles.brute_is_pcm(covers), covers
        if n and p.rank() >= 0:
            assert border(p).border_faces == frozenset(oracles.brute_border(covers)), covers
        check_smooth_and_border(p, p.full_mask)
        if n:
            view = SuborderView(p, rng.randrange(1 << n))
            check_rank_law(p, view.mask)
            sv = is_k_surface(view)
            assert (sv.is_surface, sv.rank) == oracles.brute_is_surface(covers, view.members)
            pv = is_pcm(view)
            assert (pv.holds, pv.rank) == oracles.brute_is_pcm(covers, view.members)
            check_smooth_and_border(p, view.mask)


def test_memoized_vs_unmemoized_agree(posets, complexes, monkeypatch):
    targets = [p for _, p in posets] + [k.face_poset() for _, k in complexes]
    for p in targets:
        with_memo, without = memo_on_and_off(monkeypatch, lambda: is_k_surface(p))
        assert (with_memo.is_surface, with_memo.rank) == (without.is_surface, without.rank)
        coherent, coherent_without = memo_on_and_off(monkeypatch, lambda: is_coherent(p))
        assert coherent == coherent_without


def test_memo_switch_stores_nothing(monkeypatch):
    from posurf import border, is_pcm, is_smooth_pcm

    names = ("view_rank", "connected", "surface", "coherent", "border", "pcm", "smooth")
    recognizers = (is_k_surface, is_coherent, border, is_pcm, is_smooth_pcm)
    monkeypatch.setenv("POSURF_DISABLE_MEMO", "1")
    p = sphere(2).face_poset()
    for recognizer in recognizers:
        recognizer(p)
    assert is_k_surface(p).rank == 2
    assert [len(p.memo(name)) for name in names] == [0] * 7
    monkeypatch.delenv("POSURF_DISABLE_MEMO")
    q = sphere(2).face_poset()
    for recognizer in recognizers:
        recognizer(q)
    assert is_k_surface(q).rank == 2
    assert all(len(q.memo(name)) > 0 for name in names)


def test_views_a_bit_test_decides_are_never_stored(monkeypatch):
    # surface views of at most two faces and PCM views of at most one are
    # decided before the memo is read; on a khalimsky block they are most
    # of the surface views, and storing them more than tripled the traced peak
    monkeypatch.delenv("POSURF_DISABLE_MEMO", raising=False)
    p = khalimsky_block(24, 24)
    tracemalloc.start()
    try:
        c = classify_recursive(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.category == "pcm" and c.is_smooth_pcm
    assert p.memo("surface") and all(m.bit_count() >= 3 for m in p.memo("surface"))
    for name in ("pcm", "smooth"):
        assert p.memo(name) and all(m.bit_count() >= 2 for m in p.memo(name))
    assert peak < 1_000_000


def test_a_poset_too_deep_for_the_recursion_is_refused(monkeypatch):
    # each rank nests about two frames; a chain of MAX_RANK + 1 faces is
    # taken, one face more is refused before any view is evaluated
    deepest = chain_poset(MAX_RANK + 1)
    for env in ("", "1"):
        monkeypatch.setenv("POSURF_DISABLE_MEMO", env)
        assert not is_k_surface(deepest).is_surface
        assert border_mask_of(deepest) == deepest.full_mask
    too_deep = chain_poset(MAX_RANK + 2)
    for recognizer in (is_k_surface, is_coherent, border_mask_of, is_pcm, classify_recursive):
        with pytest.raises(DomainError, match=f"rank {MAX_RANK + 1} would nest"):
            recognizer(too_deep)


# ---------------------------------------------------------------------------
# coherence


def test_coherence_cases(posets, complexes):
    # every verified surface is coherent
    for name, k in complexes:
        p = k.face_poset()
        if is_k_surface(p).is_surface:
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
        results.append((v.is_surface, v.rank))

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
            assert v.is_surface and v.rank == k + l + 1
