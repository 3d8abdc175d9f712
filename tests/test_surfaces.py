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
    disk,
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
from posurf.poset import SuborderView, iter_bits
from posurf.surfaces import MAX_RANK, NEITHER, PCM, SURFACE, _joined, border_mask_of, law_of

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

    def check_rank_law(p, mask):
        # rank V = 1 + max rank(theta(h) & V), and a surface's rank is its view's
        views = oracles.MaskViews(p)
        if mask:
            sub = max(views.rank(p.theta_masks[h] & mask) for h in iter_bits(mask))
            assert views.rank(mask) == 1 + sub, (p.cover_lists, mask)
        assert views.surface(mask) in (oracles.NOT_HELD, views.rank(mask)), (p.cover_lists, mask)

    def check_smooth_and_border(p, mask):
        # the smooth test reads (C) off the border that the pass caches,
        # and the reference border after a PCM walk must match a fresh one;
        # both against definitions that share neither
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
    # every recognizer reads one pass of the law, cached on the poset, and
    # stores no interval; a PCM's border is built as its own poset for
    # condition (C), and not cached on the ambient
    for p, category in ((sphere(2).face_poset(), "surface"), (disk(4).face_poset(), "pcm")):
        for recognizer in (is_k_surface, border, is_pcm, is_smooth_pcm):
            recognizer(p)
        assert classify_recursive(p).category == category
        assert p.memo("law") is law_of(p)[1]
        assert set(p._memo) == {"law"}
    # a chain is all border, so (C) runs on the chain itself
    chain = chain_poset(6)
    assert not is_smooth_pcm(chain).holds and set(chain._memo) == {"law"}
    law = chain.memo("law")
    assert law.closures == [SURFACE] + [PCM] * 5 and law.openings == [PCM] * 5 + [SURFACE]
    # each proper view is built as its own poset per call, and dropped with
    # it: the ambient keeps no "to_poset" memo, and no law, as it is never
    # classified itself
    p = sphere(3).face_poset()
    for h in range(len(p)):
        view = theta_view(p, h)
        assert is_k_surface(view).rank == 2 and not is_smooth_pcm(view).holds
    assert not p._memo


def test_recursive_classification_stores_no_interval():
    # the pass keeps per-face lists, no interval memo: on a khalimsky block
    # the traced peak stays under a megabyte, where storing the intervals
    # that a bit test decides more than tripled it
    p = khalimsky_block(24, 24)
    tracemalloc.start()
    try:
        c = classify_recursive(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.category == "pcm" and c.is_smooth_pcm
    assert set(p._memo) == {"law"}
    assert peak < 1_000_000


def _reference_kind(views: oracles.MaskViews, mask: int) -> int:
    """The kind of a view by the recursion over member masks."""
    if views.surface(mask) != oracles.NOT_HELD:
        return SURFACE
    return PCM if views.pcm(mask) != oracles.NOT_HELD else NEITHER


def test_closure_and_opening_ranks_live_in_the_per_face_lists():
    # the kind of each face's closure and opening (a surface, a PCM that is
    # not one, or neither) is kept in two per-face lists of the pass, and
    # agrees with the recursion over masks on a fresh poset
    for p, category in ((khalimsky_block(12, 12), "pcm"), (sphere(3).face_poset(), "surface")):
        assert classify_recursive(p).category == category
        law = law_of(p)[1]
        reference = oracles.MaskViews(Poset(p.cover_lists))
        assert law.closures == [_reference_kind(reference, m) for m in p.alpha_masks]
        assert law.openings == [_reference_kind(reference, m) for m in p.beta_masks]


def _check_law(p: Poset, mask: int) -> Counter:
    """The pass on the view ``mask`` of ``p``, built as its own poset, against
    the recursion over member masks of ``p`` (``MaskViews``): the kind of each
    face's closure and opening, the whole verdicts and the border; on at most
    nine faces, against the brute oracles too. Counts what it saw."""
    view = SuborderView(p, mask)
    q, law = law_of(view)
    ids = view.members
    reference = oracles.MaskViews(p)
    closures = [_reference_kind(reference, p.alpha_masks[h] & mask) for h in ids]
    openings = [_reference_kind(reference, p.beta_masks[h] & mask) for h in ids]
    assert law.closures == closures, (p.cover_lists, mask)
    assert law.openings == openings, (p.cover_lists, mask)
    ranks = (reference.surface(mask), reference.pcm(mask))
    surface, pcm = (None if r == oracles.NOT_HELD else r for r in ranks)
    assert (is_k_surface(view).rank, is_pcm(view).rank) == (surface, pcm), (p.cover_lists, mask)
    kind = SURFACE if surface is not None else PCM if pcm is not None else NEITHER
    seen = Counter([("closure", k) for k in closures] + [("opening", k) for k in openings])
    seen["whole", kind] += 1
    if q.rank() >= 0:
        bmask = border_mask_of(view)
        assert bmask == reference.border(mask), (p.cover_lists, mask)
        if kind == PCM:
            # PCMs with a border face above a lone interval, and with one below
            on = [bmask >> h & 1 for h in ids]
            seen["border", "closure side"] += any(b and k == PCM for b, k in zip(on, closures))
            seen["border", "opening side"] += any(b and k != PCM for b, k in zip(on, closures))
    if len(ids) <= 9:
        covers, members = p.cover_lists, list(ids)
        sv, pv = is_k_surface(view), is_pcm(view)
        assert (sv.holds, sv.rank) == oracles.brute_is_surface(covers, members), (covers, mask)
        assert (pv.holds, pv.rank) == oracles.brute_is_pcm(covers, members), (covers, mask)
        if q.rank() >= 0:
            want = oracles.brute_border(covers, members)
            assert set(iter_bits(border_mask_of(view))) == want, (covers, mask)
    return seen


def _random_dag(rng, n: int, graded: bool) -> Poset:
    """n faces, each covering up to three earlier ones; if ``graded``, faces
    are dealt into ranks and cover one to three faces of the rank below."""
    if not graded:
        return Poset([sorted(rng.sample(range(h), rng.randint(0, min(3, h)))) for h in range(n)])
    levels: list[list[int]] = []
    covers = []
    for h in range(n):
        r = rng.randrange(len(levels) + 1) if levels else 0
        r = max(r, len(levels) - 1) if rng.random() < 0.5 else r
        if r == len(levels):
            levels.append([])
        below = levels[r - 1] if r else []
        covers.append(sorted(rng.sample(below, min(len(below), rng.randint(1, 3)))) if r else [])
        levels[r].append(h)
    return Poset(covers)


def test_the_law_against_the_reference_recursion():
    # the pass and its dual against the recursion over member masks, on
    # random DAGs of up to 40 faces (half of them graded), on the face posets
    # of random pure complexes and on random views of face posets: closures,
    # neighborhoods and random subsets
    import random

    from posurf import annulus, pinched_box, random_pure_complex

    rng = random.Random(26)
    seen = Counter()
    for i in range(500):
        p = _random_dag(rng, rng.randint(1, 40), graded=i % 2 == 1)
        seen += _check_law(p, p.full_mask)
    for i in range(120):
        dim = rng.choice((1, 2, 3))
        k = random_pure_complex(dim, rng.randint(dim + 2, dim + 6), rng.randint(2, 9), i)
        p = k.face_poset()
        if len(p) <= 60:
            seen += _check_law(p, p.full_mask)
    ambients = [
        sphere(3).face_poset(), disk(6).face_poset(), annulus(6).face_poset(),
        pinched_box(4).face_poset(), solid_simplex(4).face_poset(), khalimsky_block(6, 6),
    ]  # fmt: skip
    for p in ambients:
        for _ in range(40):
            h = rng.randrange(len(p))
            drop = 0
            for x in rng.sample(range(len(p)), rng.randint(0, 3)):
                drop |= 1 << x
            for mask in (p.alpha_masks[h], p.beta_masks[h], p.theta_masks[h], p.full_mask & ~drop):
                seen += _check_law(p, mask)
    for part in ("closure", "opening", "whole"):
        assert min(seen[part, k] for k in (NEITHER, PCM, SURFACE)) >= 30, seen
    assert min(seen["border", side] for side in ("closure side", "opening side")) >= 30, seen


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
    # the laws the pass decides intervals by, on every comparable pair of
    # graded and ungraded posets: (lo, hi) is connected iff the faces that
    # cover lo inside it, each with the mask of the covers of hi above it,
    # join up by overlaps (the openings (lo, n) by the openings of the faces
    # that cover lo), and on a graded poset an interval whose ends differ by
    # two in rank is the antichain of the faces between them
    import random

    from posurf import random_pure_complex

    rng = random.Random(25)
    posets = [khalimsky_block(7, 5), solid_simplex(6).face_poset()]
    for i in range(240):
        posets.append(_random_dag(rng, rng.randint(1, 12), graded=i % 3 == 1))
    for i in range(100):
        # graded, with a disconnected opening at each pinched vertex
        k = random_pure_complex(2, rng.randint(6, 9), rng.randint(4, 9), i, glue_bias=0.5)
        posets.append(k.face_poset())
    seen = Counter()
    for p in posets:
        covers, n = p.cover_lists, len(p)
        below = oracles.strict_below(covers)
        assert list(p.co_ranks) == oracles.brute_co_ranks(covers), covers
        graded = is_coherent(p)
        for lo, hi in _comparable_pairs(p):
            under = below[hi] if hi < n else set(range(n))
            members = {x for x in under if lo < 0 or lo in below[x]}
            if not members:
                continue
            lowest = [x for x in members if not below[x] & members]
            if hi < n:
                tops = [c for c in covers[hi] if c in members]
                sig = {x: sum(1 << i for i, c in enumerate(tops) if x in below[c] | {c}) for x in members}
                parts = [sig[w] for w in lowest]
            elif lo >= 0:
                parts = [p.beta_masks[c] | 1 << c for c in p.up_cover_lists[lo]]
            else:
                continue
            components = oracles.brute_components(covers, members, below)
            assert _joined(parts) == (len(components) == 1), (covers, lo, hi)
            fr = p.face_ranks + (p.rank() + 1, -1)
            d = fr[hi] - fr[lo]
            seen[graded, len(components) == 1, min(d, 3)] += 1
            if graded and d == 2:
                assert members == set(lowest) == {x for x in members if fr[x] == fr[hi] - 1}
    # every bucket (graded, connected, d == 2 or d >= 3) met over 100 times
    assert len(seen) == 8 and min(seen.values()) > 100, seen


def test_a_poset_too_deep_for_the_recursion_is_refused():
    # the pass checks about n^2 / 2 intervals on a chain of n faces; a chain
    # of MAX_RANK + 1 faces is taken, one face more is refused before any
    # interval is checked
    deepest = chain_poset(MAX_RANK + 1)
    assert not is_k_surface(deepest).holds
    assert border_mask_of(deepest) == deepest.full_mask
    too_deep = chain_poset(MAX_RANK + 2)
    # coherence is decided from face ranks, with no pass
    assert is_coherent(too_deep)
    recognizers = (is_k_surface, border_mask_of, border, is_pcm, is_smooth_pcm)
    for recognizer in recognizers + (classify_recursive,):
        with pytest.raises(DomainError, match=f"rank {MAX_RANK + 1} is above the rank limit"):
            recognizer(too_deep)
    # the bound is on the view the pass runs on: a 3-face view of that chain
    # is decided as its own poset is
    view = restrict(too_deep, [0, 1, 2])
    alone = view.to_poset()
    assert is_pcm(view).rank == 2
    for recognizer in recognizers:
        assert recognizer(view) == recognizer(alone), recognizer.__name__
    assert replace(classify_recursive(view), timings={}) == replace(
        classify_recursive(alone), timings={}
    )


def test_the_pass_does_not_recurse():
    # every recognizer on the deepest chain admitted, with 20 frames to spare
    p = chain_poset(MAX_RANK + 1)
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)
    try:
        assert is_pcm(p).rank == MAX_RANK
        assert not is_smooth_pcm(p).holds and border_mask_of(p) == p.full_mask
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
