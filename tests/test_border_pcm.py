"""Border decomposition, PCM and smooth-PCM recognizers, condition (C)."""

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings

from posurf import (
    DomainError,
    Poset,
    SimplicialComplex,
    SuborderView,
    Verdict,
    annulus,
    border,
    check_condition_C,
    disk,
    is_k_surface,
    is_pcm,
    is_smooth_pcm,
    khalimsky_block,
    pinched_box,
    restrict,
    solid_simplex,
    sphere,
)
from posurf import simplicial
from posurf.surfaces import border_mask_of
from posurf.poset import iter_bits

from .conftest import (
    antichain_poset,
    chain_poset,
    high_dimensional_stars,
    path_complex,
    two_triangles_shared_edge,
    two_triangles_shared_vertex,
    warm_and_fresh,
)
from .test_propositions import check_border_neighborhood_equality
from .test_simplicial import random_complexes
from . import oracles


def test_border_requires_nonempty():
    with pytest.raises(DomainError):
        border(Poset([]))


def test_border_of_rank0_poset_is_empty():
    d = border(antichain_poset(3))
    assert not d.border_faces
    assert d.interior_faces == {0, 1, 2}


def test_border_of_sphere_is_empty():
    for n in range(4):
        assert border(sphere(n).face_poset()).is_empty
    # brute cross-check for the 2-sphere: every neighborhood is a 1-surface
    p = sphere(2).face_poset()
    assert oracles.brute_border(p.cover_lists) == set()


def test_border_of_disk_is_boundary_cycle():
    k = disk(6)
    p = k.face_poset()
    d = border(p)
    expected = oracles.brute_border(p.cover_lists)
    assert d.border_faces == expected
    # one component: the rim m-cycle, a 1-surface
    assert len(d.components) == 1
    faces, verdict = d.components[0]
    assert verdict.holds and verdict.rank == 1
    # the rim is the closure of the edges not touching the apex
    rim = {i for i in range(len(p)) if "6" not in p.label(i).split(",")}
    assert faces == rim


def test_border_of_annulus_is_two_circles():
    p = annulus(6).face_poset()
    d = border(p)
    assert len(d.components) == 2
    for faces, verdict in d.components:
        assert verdict.holds and verdict.rank == 1
        assert len(faces) == 12  # 6 vertices + 6 edges per circle


def test_khalimsky_3x3_border_is_perimeter_ring():
    """The border of the 3x3 cubical block is the closed outer ring."""
    p = khalimsky_block(3, 3)
    d = border(p)
    perimeter = set()
    for i in range(len(p)):
        x, y = map(int, p.label(i).split(","))
        if x in (0, 6) or y in (0, 6):
            perimeter.add(i)
    assert d.border_faces == perimeter
    assert len(d.components) == 1
    _, verdict = d.components[0]
    assert verdict.holds and verdict.rank == 1
    # cross-check a few faces against the brute definition
    assert d.border_faces == oracles.brute_border(p.cover_lists)


# ---------------------------------------------------------------------------
# PCM


def test_pcm_base_cases():
    v = is_pcm(Poset([]))
    assert v.holds and v.rank == -1
    v = is_pcm(Poset([[]]))
    assert v.holds and v.rank == 0
    assert not is_pcm(antichain_poset(2)).holds
    assert not is_pcm(antichain_poset(3)).holds


def test_open_path_is_1_pcm():
    p = path_complex(1).face_poset()  # v - e - v
    v = is_pcm(p)
    assert v.holds and v.rank == 1
    assert oracles.brute_is_pcm(p.cover_lists) == (True, 1)


def test_shared_vertex_pair_is_not_pcm():
    # a face whose strict neighborhood is disconnected is a pinch
    p = two_triangles_shared_vertex().face_poset()
    assert not is_pcm(p).holds
    assert oracles.brute_is_pcm(p.cover_lists) == (False, None)


def test_surface_is_never_pcm(complexes):
    for name, k in complexes:
        p = k.face_poset()
        if len(p) == 0:
            continue
        sv = is_k_surface(p)
        pv = is_pcm(p)
        assert not (sv.holds and pv.holds), name


def test_pcm_matches_brute_oracle(posets, complexes):
    small = [p for _, p in posets if len(p) <= 26]
    small += [k.face_poset() for _, k in complexes if len(k) <= 26]
    for p in small:
        expect = oracles.brute_is_pcm(p.cover_lists)
        got = is_pcm(p)
        assert (got.holds, got.rank) == expect


def test_warm_and_fresh_memos_agree_on_pcms(posets, complexes):
    targets = [p for _, p in posets] + [k.face_poset() for _, k in complexes]
    for p in targets:
        warm, fresh = warm_and_fresh(p, [is_pcm, is_smooth_pcm, border, border_mask_of])
        assert warm == fresh, p


# ---------------------------------------------------------------------------
# smooth PCM


def test_open_paths_are_smooth():
    for edges in (1, 2, 5):
        v = is_smooth_pcm(path_complex(edges).face_poset())
        assert v.holds and v.rank == 1


def test_disk_and_annulus_are_smooth():
    assert is_smooth_pcm(disk(6).face_poset()).rank == 2
    assert is_smooth_pcm(annulus(6).face_poset()).rank == 2


def test_square_disk_smooth():
    v = is_smooth_pcm(two_triangles_shared_edge().face_poset())
    assert v.holds and v.rank == 2


def test_solid_simplices_are_smooth_pcms():
    for n in range(4):
        v = is_smooth_pcm(solid_simplex(n).face_poset())
        assert v.holds and v.rank == n


def test_pinched_box_pcm_but_not_smooth():
    p = pinched_box(6).face_poset()
    assert is_pcm(p).rank == 3
    assert not is_smooth_pcm(p).holds


def test_pcm_and_smooth_verdicts_do_not_depend_on_call_order():
    # the smooth test reads the pass and the border that either call caches
    for order in ((is_smooth_pcm, is_pcm), (is_pcm, is_smooth_pcm)):
        p = pinched_box(6).face_poset()
        got = {recognizer: recognizer(p) for recognizer in order}
        assert got[is_pcm] == Verdict(3)
        assert got[is_smooth_pcm] == Verdict(None)
    # a verdict holds exactly when it has a rank, -1 included
    assert Verdict(-1).holds and not Verdict(None).holds
    with pytest.raises(TypeError):
        Verdict(True, 3)


def _check_smooth_law(p: Poset, members=None) -> bool:
    """Check the smooth PCM law and the steps of its proof on one view.

    ``is_smooth_pcm`` (the law, then condition (C)) must match the
    literal partition oracle and the definition's smooth walk, and
    ``is_pcm`` (the law) the walk that tests each neighborhood whole. On a
    PCM of rank >= 1 that satisfies (C), by its definition, every border face's
    neighborhood must have the neighborhood's trace on the border as its
    own border (``check_border_neighborhood_equality``; the proof's lemma
    M gives it). Returns whether the view was such a PCM.
    """
    covers = p.cover_lists
    view = SuborderView(p, p.full_mask) if members is None else restrict(p, sorted(members))
    got = is_smooth_pcm(view)
    assert (got.holds, got.rank) == oracles.brute_is_smooth_pcm(covers, view.members), covers
    assert got == oracles.smooth_pcm_by_walk(view), (covers, view.members)
    pcm = is_pcm(view)
    assert pcm == oracles.pcm_by_walk(view), (covers, view.members)
    if not pcm.holds or pcm.rank < 1 or not oracles.brute_condition_C(covers, view.members):
        return False
    assert got == pcm, (covers, view.members)
    assert not check_border_neighborhood_equality(view.to_poset()), (covers, view.members)
    return True


def test_smooth_matches_literal_partition_oracle():
    # is_smooth_pcm decides condition (C) after the PCM verdict; the oracle
    # instead enumerates every partition of the border into separated
    # surface parts, verbatim, and the definition's walk tests each
    # border component
    import random

    rng = random.Random(424242)
    view_rng = random.Random(4242)
    pcms_with_C = 0
    for _ in range(400):
        n = rng.randint(0, 8)
        covers = []
        for h in range(n):
            k = rng.randint(0, min(3, h))
            covers.append(sorted(rng.sample(range(h), k)) if h else [])
        p = Poset(covers)
        pcms_with_C += _check_smooth_law(p)
        pcms_with_C += _check_smooth_law(p, iter_bits(view_rng.randrange(1 << n)))
    assert pcms_with_C == 38


def naturally_labelled_covers(n: int):
    """Cover lists of every poset on faces 0..n-1 in which face h covers an
    antichain of 0..h-1; distinct antichains give distinct down-sets, so each
    naturally labelled poset comes once."""

    def extend(covers, below):
        h = len(covers)
        if h == n:
            yield covers
            return
        for size in range(h + 1):
            for cs in combinations(range(h), size):
                if all(b not in below[a] for b, a in combinations(cs, 2)):
                    down = set(cs).union(*(below[c] for c in cs))
                    yield from extend(covers + [list(cs)], below + [down])

    yield from extend([], [])


def test_every_naturally_labelled_poset_up_to_6_faces():
    # the counts pin the enumeration (OEIS A006455); every induced subposet
    # of such a poset is again one, up to relabelling, so this checks every
    # view of at most 6 faces against the literal oracles
    counts, verdicts = [], Counter()
    for n in range(7):
        count = 0
        for covers in naturally_labelled_covers(n):
            p = Poset(covers)
            pv = is_pcm(p)
            assert (pv.holds, pv.rank) == oracles.brute_is_pcm(covers), covers
            with_C = _check_smooth_law(p)
            verdicts[n, "smooth" if is_smooth_pcm(p).holds else "pcm" if pv.holds else "neither"] += 1
            verdicts[n, "(C)"] += with_C
            count += 1
        counts.append(count)
    assert counts == [1, 1, 2, 7, 40, 357, 4824]
    # the 9 surfaces at 6 faces have an empty border: neither
    assert {v: verdicts[6, v] for v in ("smooth", "pcm", "neither", "(C)")} == {
        "smooth": 71, "pcm": 85, "neither": 4668, "(C)": 71,
    }


def test_every_naturally_labelled_poset_with_7_faces():
    # the law for PCMs and condition (C) for smooth PCMs against the walks
    # that test each neighborhood whole, on every view of at most 7 faces
    verdicts = Counter()
    for covers in naturally_labelled_covers(7):
        p = Poset(covers)
        pv, sv = is_pcm(p), is_smooth_pcm(p)
        assert pv == oracles.pcm_by_walk(p), covers
        assert sv == oracles.smooth_pcm_by_walk(p), covers
        verdicts["smooth" if sv.holds else "pcm" if pv.holds else "neither"] += 1
    assert verdicts == {"smooth": 324, "pcm": 616, "neither": 95_488}


def test_cone_over_a_path_needs_condition_C():
    # apex 3 over the path 0 < 2 > 1: a 2-PCM whose every face is a border
    # face, so (C) fails at every face (no theta(h) & B is a 0-surface); the
    # border of theta(2), the ends 0 and 1 of the path 0 - 3 - 1, is not
    # theta(2) & B, the whole path, and likewise at the apex
    covers = [[], [], [0, 1], [0, 1, 2]]
    p = Poset(covers)
    assert is_pcm(p) == Verdict(2)
    assert border_mask_of(p) == p.full_mask
    assert not oracles.brute_condition_C(covers)
    assert check_border_neighborhood_equality(p) == [2, 3]
    assert is_smooth_pcm(p) == oracles.smooth_pcm_by_walk(p) == Verdict(None)
    assert oracles.brute_is_smooth_pcm(covers) == (False, None)


def test_smooth_matches_the_walk_on_named_instances():
    # beyond the 8-face border cap of the partition oracle; is_pcm is
    # checked against the walk that tests each neighborhood whole
    instances = {
        "pinched-box 12": pinched_box(12),
        "disk 60": disk(60),
        "annulus 40": annulus(40),
        "simplex 6": solid_simplex(6),
        "khalimsky 7x5": khalimsky_block(7, 5),
        "khalimsky 34x34": khalimsky_block(34, 34),
    }
    got = {}
    for name, obj in instances.items():
        p = obj if isinstance(obj, Poset) else obj.face_poset()
        walk = oracles.smooth_pcm_by_walk(p)
        fresh = Poset(p.cover_lists)
        got[name] = is_smooth_pcm(fresh)
        assert got[name] == walk, name
        assert is_pcm(fresh) == oracles.pcm_by_walk(p), name
    assert got == {
        "pinched-box 12": Verdict(None),
        "disk 60": Verdict(2),
        "annulus 40": Verdict(2),
        "simplex 6": Verdict(6),
        "khalimsky 7x5": Verdict(2),
        "khalimsky 34x34": Verdict(2),
    }


def test_smooth_oracle_agrees_on_small_corpus(posets, complexes):
    small = [p for _, p in posets if len(p) <= 15]
    small += [k.face_poset() for _, k in complexes if len(k) <= 15]
    for p in small:
        try:
            expect = oracles.brute_is_smooth_pcm(p.cover_lists)
        except RuntimeError:
            continue
        got = is_smooth_pcm(p)
        assert (got.holds, got.rank) == expect


def test_smooth_implies_pcm(posets, complexes):
    targets = [p for _, p in posets] + [k.face_poset() for _, k in complexes]
    for p in targets:
        sm = is_smooth_pcm(p)
        if sm.holds:
            pv = is_pcm(p)
            assert pv.holds and pv.rank == sm.rank


def test_khalimsky_blocks_are_smooth_2_pcms(posets):
    for name, p in posets:
        if name.startswith("khalimsky"):
            v = is_smooth_pcm(p)
            assert v.holds and v.rank == 2, name


# ---------------------------------------------------------------------------
# condition (C)


def test_condition_C_cases():
    assert check_condition_C(annulus(6))
    assert check_condition_C(disk(6))
    assert not check_condition_C(pinched_box(6))


def test_condition_C_fails_exactly_at_apex():
    # the box border contains the apex; its neighborhood inside the border
    # splits into the two rim circles
    k = pinched_box(6)
    p = k.face_poset()
    d = border(p)
    apex = oracles.face_id(k, {12})
    assert apex in d.border_faces
    from posurf import connected_components, restrict, theta_view

    sub = restrict(p, sorted(d.border_faces))
    nbhd = theta_view(sub, apex)
    comps = connected_components(nbhd)
    assert len(comps) == 2
    for c in comps:
        v = is_k_surface(restrict(p, sorted(c)))
        assert v.holds and v.rank == 1


def test_condition_C_preconditions():
    with pytest.raises(DomainError):
        check_condition_C(sphere(0))  # rank < 1
    with pytest.raises(DomainError):
        check_condition_C(sphere(1))  # a 1-surface, not a PCM
    with pytest.raises(DomainError):
        check_condition_C(sphere(2))  # not a PCM
    with pytest.raises(DomainError):
        check_condition_C(two_triangles_shared_vertex())  # boundary, but not normal
    with pytest.raises(DomainError):
        check_condition_C(sphere(2).face_poset())  # not a complex


def _condition_C_three_ways(k) -> bool | None:
    """(C) on the boundary ridges, (C) on the face poset and the recursive
    smoothness verdict, which must agree, on a normal PCM of rank >= 1
    (None on any other input). Also checks that the closure of the boundary
    ridges is the border of the face poset."""
    boundary = SimplicialComplex(k.boundary_ridges())
    if k.dim < 1 or not k.is_normal_pseudomanifold() or not len(boundary):
        return None
    poset = k.face_poset()
    border_faces = {k.faces[h] for h in iter_bits(border_mask_of(poset))}
    assert set(boundary.faces) == border_faces
    smooth = check_condition_C(k)
    assert smooth == oracles.condition_C_by_neighborhoods(k) == is_smooth_pcm(poset).holds
    return smooth


def test_condition_C_decides_smoothness_on_corpora(complexes, big_complexes):
    verdicts = {name: _condition_C_three_ways(k) for name, k in complexes + big_complexes}
    assert [name for name, v in verdicts.items() if v is False] == [
        "pinched-box 4",
        "pinched-box 6",
        "suspension of annulus 4",
        "cone over pinched-box 4",
        "annulus 4 * edge",
    ]
    assert sum(v is True for v in verdicts.values()) >= 8
    # the 1-PCMs are in the three-way check too
    assert verdicts["simplex 1"] is verdicts["path 3"] is True


def test_condition_C_on_high_dimensional_stars():
    pcms = [(n, k) for n, k in high_dimensional_stars() if k.is_normal_pseudomanifold()]
    pcms = {n: k for n, k in pcms if k.boundary_ridges()}
    assert list(pcms) == [
        *(f"pinched-box 4 suspended {t}x" for t in (1, 2, 3)),
        *(f"cone over {n}-sphere prism" for n in range(3, 7)),
    ]
    for name, k in pcms.items():
        assert check_condition_C(k) is oracles.condition_C_by_links(k) is False, name
    # the poset oracle runs the recursion on the face poset, so it checks the
    # two smallest only: the 593-face 2x suspension takes 1.7 s
    for name in ("pinched-box 4 suspended 1x", "cone over 3-sphere prism"):
        assert oracles.condition_C_by_neighborhoods(pcms[name]) is False, name


def test_condition_C_on_2_pcms_builds_no_dual_graph(monkeypatch):
    # a 2-PCM's border is 1-dimensional and has no face of codimension 2,
    # so no star is searched; normality has built the complex's own graph
    ks = [annulus(50), disk(50)]
    assert all(k.is_normal_pseudomanifold() for k in ks)

    def refuse(*args):
        raise AssertionError("dual graph built")

    monkeypatch.setattr(simplicial, "_dual_graph", refuse)
    assert all(check_condition_C(k) for k in ks)


@settings(max_examples=200, deadline=None)
@given(random_complexes())
def test_condition_C_decides_smoothness_on_random_complexes(k):
    # the bound keeps the recursive verdict cheap; draws rarely exceed it
    if len(k) <= 200:
        _condition_C_three_ways(k)
