"""Border decomposition, PCM and smooth-PCM recognizers, condition (C)."""

import pytest
from hypothesis import given, settings

from posurf import (
    DomainError,
    PcmVerdict,
    Poset,
    SimplicialComplex,
    SuborderView,
    annulus,
    border,
    check_condition_C,
    disk,
    is_k_surface,
    is_pcm,
    is_smooth_pcm,
    khalimsky_block,
    pinched_box,
    solid_simplex,
    sphere,
)
from posurf.surfaces import border_mask_of
from posurf.poset import iter_bits

from .conftest import (
    antichain_poset,
    chain_poset,
    memo_on_and_off,
    path_complex,
    two_triangles_shared_edge,
    two_triangles_shared_vertex,
)
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
    assert verdict.is_surface and verdict.rank == 1
    # the rim is the closure of the edges not touching the apex
    rim = {i for i in range(len(p)) if "6" not in p.label(i).split(",")}
    assert faces == rim


def test_border_of_annulus_is_two_circles():
    p = annulus(6).face_poset()
    d = border(p)
    assert len(d.components) == 2
    for faces, verdict in d.components:
        assert verdict.is_surface and verdict.rank == 1
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
    assert verdict.is_surface and verdict.rank == 1
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
        assert not (sv.is_surface and pv.holds), name


def test_pcm_matches_brute_oracle(posets, complexes):
    small = [p for _, p in posets if len(p) <= 26]
    small += [k.face_poset() for _, k in complexes if len(k) <= 26]
    for p in small:
        expect = oracles.brute_is_pcm(p.cover_lists)
        got = is_pcm(p)
        assert (got.holds, got.rank) == expect


def test_memoized_vs_unmemoized_pcm(posets, complexes, monkeypatch):
    targets = [p for _, p in posets] + [k.face_poset() for _, k in complexes]
    for p in targets:
        a, b = memo_on_and_off(monkeypatch, lambda: is_pcm(p))
        assert (a.holds, a.rank) == (b.holds, b.rank)
        c, d = memo_on_and_off(monkeypatch, lambda: is_smooth_pcm(p))
        assert (c.holds, c.rank) == (d.holds, d.rank)
        if len(p):
            e, f = memo_on_and_off(monkeypatch, lambda: border(p))
            assert e == f


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
    # one recursion decides both, over separate memos on the same poset
    for order in ((is_smooth_pcm, is_pcm), (is_pcm, is_smooth_pcm)):
        p = pinched_box(6).face_poset()
        got = {recognizer: recognizer(p) for recognizer in order}
        assert got[is_pcm] == PcmVerdict(True, 3)
        assert got[is_smooth_pcm] == PcmVerdict(False, None)


def test_smooth_matches_literal_partition_oracle():
    # the border condition is implemented via connected components (plus
    # the even-pairing rule at rank 0); the oracle instead enumerates every
    # partition of the border into separated surface parts, verbatim
    import random

    rng = random.Random(424242)
    view_rng = random.Random(4242)
    checked = 0
    for _ in range(400):
        n = rng.randint(0, 8)
        covers = []
        for h in range(n):
            k = rng.randint(0, min(3, h))
            covers.append(sorted(rng.sample(range(h), k)) if h else [])
        p = Poset(covers)
        expect = oracles.brute_is_smooth_pcm(covers)
        got = is_smooth_pcm(p)
        assert (got.holds, got.rank) == expect, covers
        view = SuborderView(p, view_rng.randrange(1 << n))
        got = is_smooth_pcm(view)
        assert (got.holds, got.rank) == oracles.brute_is_smooth_pcm(covers, view.members), covers
        checked += 1
    assert checked == 400


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
        assert v.is_surface and v.rank == 1


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


@settings(max_examples=200, deadline=None)
@given(random_complexes())
def test_condition_C_decides_smoothness_on_random_complexes(k):
    # the bound keeps the recursive verdict cheap; draws rarely exceed it
    if len(k) <= 200:
        _condition_C_three_ways(k)
