"""Poset core: operators, ranks, components, joins, isomorphism, Hasse IO."""

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posurf import (
    DomainError,
    ParseError,
    Poset,
    border,
    classify_recursive,
    connected_components,
    from_hasse,
    is_coherent,
    is_k_surface,
    is_separated_union,
    join,
    khalimsky_block,
    local_sets,
    rank,
    restrict,
    solid_simplex,
    sphere,
    theta_view,
    to_hasse,
)
from posurf import poset as poset_module
from posurf.poset import (
    SuborderView,
    as_view,
    component_masks,
    content_lines,
    iter_bits,
    view_rank,
)

from .conftest import antichain_poset, chain_poset
from . import oracles


def face_of(k, verts):
    return oracles.face_id(k, verts)


# ---------------------------------------------------------------------------
# construction


def test_rejects_cycles():
    with pytest.raises(DomainError):
        Poset([[1], [0]])
    with pytest.raises(DomainError):
        Poset([[0]])
    with pytest.raises(DomainError):
        Poset([[3]])


def test_rejects_non_integer_cover_ids():
    # int() would read 0.7 and "0" as face 0
    with pytest.raises(DomainError, match="integer face ids"):
        Poset([[], [0.7]])
    with pytest.raises(DomainError, match="integer face ids"):
        Poset([[], ["0"]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p, v: Poset([[], [0]], ["a"]), "labels length does not match face count"),
        (lambda p, v: SuborderView(p, 1 << len(p)), "view members outside the ambient poset"),
        (lambda p, v: SuborderView(p, -1), "view members outside the ambient poset"),
        (lambda p, v: as_view(object()), "expected a Poset or SuborderView, got object"),
        (lambda p, v: restrict(v, [0, 2]), "face 2 is not a member of the poset/view"),
        (lambda p, v: theta_view(v, 2), "face 2 is not a member of the poset/view"),
        (lambda p, v: rank(v, 2), "face 2 is not a member of the view"),
        (lambda p, v: p.label(len(p)), "unknown face id 3"),
    ],
    ids=["labels", "mask-above", "mask-negative", "as-view", "restrict", "theta-view", "rank",
         "label"],
)
def test_outside_input_is_refused(call, message):
    # v is the view of faces 0 and 1 of the chain 0 < 1 < 2: face 2 is in
    # the poset but not in the view
    p = chain_poset(3)
    v = SuborderView(p, 0b011)
    with pytest.raises(DomainError) as e:
        call(p, v)
    assert str(e.value) == message


def test_poset_budget_boundary(monkeypatch):
    monkeypatch.setattr(poset_module, "MAX_POSET_FACES", 3)
    assert len(Poset([[], [0], [0]])) == 3
    with pytest.raises(DomainError, match="limit of 3"):
        Poset([[], [0], [0], [1, 2]])
    with pytest.raises(ParseError, match="limit of 3"):
        from_hasse("f 0 :\nf 1 :\nf 2 :\nf 3 :\n")


def test_poset_is_refused_before_its_covers_are_read(monkeypatch):
    monkeypatch.setattr(poset_module, "MAX_POSET_FACES", 3)
    with pytest.raises(DomainError, match="a poset of 4 faces is above the limit of 3"):
        Poset([["x"]] * 4)


def test_listed_covers_below_another_listed_cover_are_dropped():
    p = Poset([[], [0], [0, 1]])
    assert p.covers(2) == (1,)
    assert to_hasse(p).splitlines()[-1] == "f 2 : 1"
    # face 4 drops 0 < 2 and 1 < 3; face 5 keeps 1 and 2, which differ in
    # rank but are incomparable
    p = Poset([[], [], [0], [1], [0, 1, 2, 3], [1, 2]])
    assert p.cover_lists == ((), (), (0,), (1,), (2, 3), (1, 2))
    # the un-reduced chain: each face h > 1 lists h - 1 and 0
    p = Poset([[], [0]] + [[h - 1, 0] for h in range(2, 40)])
    chain = chain_poset(40)
    assert (p.cover_lists, p.up_cover_lists) == (chain.cover_lists, chain.up_cover_lists)
    assert (p.face_ranks, p.co_ranks) == (chain.face_ranks, chain.co_ranks)


def test_from_hasse_refuses_at_the_first_record_above_the_limit(monkeypatch):
    # the refusal comes before the malformed line after it is read
    monkeypatch.setattr(poset_module, "MAX_POSET_FACES", 3)
    chain = "".join(f"f {i} : {i - 1 if i else ''}\n" for i in range(4))
    with pytest.raises(ParseError, match="face record 4 is above the limit of 3") as e:
        from_hasse("# a chain\n" + chain + "f x\n")
    assert e.value.line == 5
    with pytest.raises(ParseError, match="face id is not an integer"):
        from_hasse(chain[: chain.index("f 2")] + "f x :\n")


def test_content_lines_match_splitlines_across_blocks():
    seps = ["\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028"]
    text = "".join(f"{i} 1 # c{i}{seps[i % len(seps)]}" + "\n" * (i % 3 == 0) for i in range(20000))
    assert len(text) > 3 * (1 << 16)
    want = [(no, raw.split("#")[0].strip()) for no, raw in enumerate(text.splitlines(), 1)]
    assert list(content_lines(text)) == [(no, line) for no, line in want if line]
    assert list(content_lines("")) == [] and list(content_lines(" # x\n\n")) == []
    # every line boundary ends a block, so reading the first line of a
    # 100k-line text splits one block of about 64k characters, not the text
    for sep in ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]:
        text = "".join(f"{i} 1{sep}" for i in range(100000))
        want = list(enumerate(text.splitlines(), 1))
        assert len(want) == 100000 and list(content_lines(text)) == want, repr(sep)
        tracemalloc.start()
        try:
            assert next(content_lines(text)) == (1, "0 1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, repr(sep)


def test_empty_poset():
    p = Poset([])
    assert len(p) == 0
    assert p.rank() == -1
    assert connected_components(p) == ()


# ---------------------------------------------------------------------------
# local operator sets


def test_local_sets_chain():
    p = chain_poset(3)  # a < b < c
    assert local_sets(p, 1, "alpha") == {0}
    assert local_sets(p, 1, "theta") == {0, 2}
    assert local_sets(p, 1, "beta") == {2}
    assert local_sets(p, 1, "alpha", strict=False) == {0, 1}
    assert local_sets(p, (0, 2), "theta") == {0, 1, 2}


def test_local_sets_triangle_coface():
    # strict opening of an edge of the full triangle is just the triangle
    from posurf import SimplicialComplex

    k = SimplicialComplex([{1, 2, 3}])
    p = k.face_poset()
    edge = face_of(k, {1, 2})
    tri = face_of(k, {1, 2, 3})
    expected = oracles.brute_local(p.cover_lists, edge, "beta")
    assert expected == {tri}
    assert local_sets(p, edge, "beta") == expected


def test_local_sets_unknown_face():
    p = chain_poset(2)
    with pytest.raises(DomainError):
        local_sets(p, 5, "alpha")
    with pytest.raises(DomainError):
        local_sets(p, 0, "gamma")


def test_operator_algebra_invariants(posets, complexes):
    all_posets = [p for _, p in posets] + [k.face_poset() for _, k in complexes]
    for p in all_posets:
        for h in range(len(p)):
            a = local_sets(p, h, "alpha")
            b = local_sets(p, h, "beta")
            t = local_sets(p, h, "theta")
            assert not a & b
            assert t == a | b
            assert h not in t
            # closures are downward closed, openings upward closed
            for x in a:
                assert local_sets(p, x, "alpha") <= a
            for x in b:
                assert local_sets(p, x, "beta") <= b


# ---------------------------------------------------------------------------
# rank


def test_rank_conventions():
    assert rank(Poset([])) == -1
    assert solid_simplex(2).face_poset().rank() == 2


def test_rank_of_vertex_neighborhood_in_sphere2():
    k = sphere(2)
    p = k.face_poset()
    v = face_of(k, {0})
    nbhd = theta_view(p, v)
    # the link of a vertex in the 2-sphere boundary is a hexagon poset
    assert oracles.brute_rank(p.cover_lists, nbhd.members) == 1
    assert nbhd.rank() == 1


def test_view_ranks_recomputed_not_inherited(posets, complexes):
    all_posets = [p for _, p in posets] + [k.face_poset() for _, k in complexes]
    for p in all_posets:
        for h in range(len(p)):
            nbhd = theta_view(p, h)
            standalone = nbhd.to_poset()
            members = nbhd.members
            for i, m in enumerate(members):
                assert standalone.face_ranks[i] == rank(nbhd, m)


def test_rank_of_a_long_proper_chain_view():
    # each face of a view is placed one level above the highest level that
    # meets its closure, so a 3999-face chain view is ranked in milliseconds;
    # each face's covers are then read off its closure level by level, where
    # testing each comparable pair took 3.5 s, and as long for is_coherent,
    # which materializes any view that is not the whole poset
    view = restrict(chain_poset(4000), range(1, 4000))
    assert rank(view) == view_rank(view.ambient, view.mask) == 3998
    assert rank(view, 3999) == 3998 and rank(view, 1) == 0
    start = time.perf_counter()
    p = view.to_poset()
    assert time.perf_counter() - start < 0.5
    assert p.rank() == 3998 and p.cover_lists[1:] == tuple((i,) for i in range(3998))
    start = time.perf_counter()
    assert is_coherent(view)
    assert time.perf_counter() - start < 0.5


def test_view_covers_match_the_strict_order_on_random_views():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(25)
        covers = [rng.sample(range(h), min(h, rng.randrange(4))) for h in range(n)]
        below = oracles.strict_below(covers)
        view = SuborderView(Poset(covers, [f"f{h}" for h in range(n)]), rng.randrange(1 << n))
        members = view.members
        closures = [below[h] & set(members) for h in members]
        expect = [
            sorted(members.index(x) for x in closure if not any(x in below[y] for y in closure))
            for closure in closures
        ]
        p = view.to_poset()
        assert [list(cs) for cs in p.cover_lists] == expect, (covers, members)
        assert p.labels == tuple(f"f{h}" for h in members)


# ---------------------------------------------------------------------------
# connectivity


def test_components_basics():
    assert len(connected_components(antichain_poset(2))) == 2
    assert len(connected_components(chain_poset(3))) == 1
    two_triangles = Poset(
        [[], [], [], [0, 1], [1, 2], [0, 2], [3, 4, 5]] * 1
    )
    assert len(connected_components(two_triangles)) == 1


def test_components_disjoint_triangles():
    k1 = solid_simplex(2).face_poset()
    # build a disjoint union by hand: second copy offset
    n = len(k1)
    covers = list(k1.cover_lists) + [tuple(c + n for c in cs) for cs in k1.cover_lists]
    p = Poset(covers)
    comps = connected_components(p)
    assert len(comps) == 2
    assert [sorted(c) for c in comps] == [
        sorted(range(n)),
        sorted(range(n, 2 * n)),
    ]
    assert [set(c) for c in oracles.brute_components(p.cover_lists)] == [set(c) for c in comps]


def layered_covers(levels, width, offset=0):
    """Cover lists of ``levels`` levels of ``width`` faces, each face covering
    every face of the level below; ids start at ``offset``."""
    return [
        [offset + (lv - 1) * width + j for j in range(width)] if lv else []
        for lv in range(levels)
        for _ in range(width)
    ]


def assert_components_match_oracle(covers, members=None):
    p = Poset(covers)
    mask = p.full_mask if members is None else sum(1 << h for h in members)
    want = [set(c) for c in oracles.brute_components(covers, members)]
    assert [set(iter_bits(m)) for m in component_masks(p, mask)] == want
    if members is None:
        assert [set(c) for c in connected_components(p)] == want


@pytest.mark.parametrize("levels,width", [(1, 17), (2, 17), (3, 17), (4, 20), (3, 40)])
def test_components_of_layered_posets(levels, width):
    # Frontiers of 17 faces or more reach the search's check within a
    # round, which stops it once the component covers the view.
    covers = layered_covers(levels, width)
    assert_components_match_oracle(covers)
    # two layered blocks side by side: the first covers the first block only
    n = len(covers)
    assert_components_match_oracle(covers + layered_covers(levels, width, offset=n))
    rng = random.Random(levels * 100 + width)
    for keep in (0.2, 0.5, 0.9):
        assert_components_match_oracle(covers, [h for h in range(n) if rng.random() < keep])


def test_components_of_random_hasse_dags_and_views():
    rng = random.Random(2026)
    for _ in range(40):
        n = rng.randint(40, 80)
        density = rng.choice((0.01, 0.03, 0.1, 0.3))
        covers = [[c for c in range(h) if rng.random() < density] for h in range(n)]
        assert_components_match_oracle(covers)
        for keep in (0.3, 0.6, 0.9):
            assert_components_match_oracle(covers, [h for h in range(n) if rng.random() < keep])


def test_recognizers_leave_the_strict_order_tables_unbuilt():
    q = solid_simplex(3).face_poset()
    # each face also lists the faces two ranks below it, which the
    # constructor drops
    unreduced = [list(cs) + [b for c in cs for b in q.cover_lists[c]] for cs in q.cover_lists]
    face = sphere(2).face_poset()
    hasse = from_hasse(to_hasse(khalimsky_block(3, 3)))
    cases = [(face.cover_lists, face), (hasse.cover_lists, hasse), (unreduced, Poset(unreduced))]
    assert cases[2][1].cover_lists == q.cover_lists
    for covers, p in cases:
        classify_recursive(p)
        classify_recursive(SuborderView(p, p.full_mask >> 1))
        is_coherent(p)
        join(p, p)
        assert not {"alpha_masks", "beta_masks", "theta_masks"} & p.__dict__.keys()
        below = oracles.strict_below(covers)
        above = [{g for g, b in enumerate(below) if h in b} for h in range(len(p))]
        assert [set(iter_bits(m)) for m in p.alpha_masks] == below
        assert [set(iter_bits(m)) for m in p.beta_masks] == above
    # the operator algebra reads the closure and opening tables, not theta's
    p = face
    view = SuborderView(p, p.full_mask ^ 1)
    border(view)
    local_sets(p, 0, "theta")
    local_sets(view, [1, 2], "theta", strict=False)
    theta_view(p, 0)
    connected_components(view)
    is_separated_union(p, range(len(p)), [])
    assert "theta_masks" not in p.__dict__
    assert p.theta_masks == tuple(a | b for a, b in zip(p.alpha_masks, p.beta_masks))
    assert "theta_masks" in p.__dict__


# ---------------------------------------------------------------------------
# join


def test_join_identity():
    q = solid_simplex(1).face_poset()
    j = join(Poset([]), q)
    assert oracles.is_isomorphic(j, q)
    j2 = join(q, Poset([]))
    assert oracles.is_isomorphic(j2, q)


def test_join_two_point_posets_gives_1_surface():
    j = join(antichain_poset(2), antichain_poset(2))
    v = is_k_surface(j)
    assert v.holds and v.rank == 1


def test_join_rank_law(posets):
    small = [p for _, p in posets if 0 < len(p) <= 9]
    for p in small:
        for q in small:
            assert join(p, q).rank() == p.rank() + q.rank() + 1


def test_join_theta_factorization():
    # for x in P: strict neighborhood in the join = (strict nbhd in P) union Q
    p = sphere(1).face_poset()
    q = antichain_poset(2)
    j = join(p, q)
    np_ = len(p)
    q_ids = set(range(np_, np_ + len(q)))
    for x in range(np_):
        assert local_sets(j, x, "theta") == local_sets(p, x, "theta") | q_ids
    for y in range(len(q)):
        assert local_sets(j, np_ + y, "theta") == set(range(np_)) | (
            {z + np_ for z in local_sets(q, y, "theta")}
        )


def test_join_surface_law_exhaustive():
    """join is a surface exactly when both factors are, ranks adding as k+l+1.

    Exhaustive over all pairs of suborders (up to 6 faces each) of the
    triangle boundary and of a 4-element mixed poset. The surface
    recursion decides each strict neighborhood by this law, so the join
    and its factors are also decided by the literal theta recursion of
    the brute-force oracle, which does not assume it.
    """
    left = sphere(1).face_poset()
    right = Poset([[], [0], [], []])  # a chain of 2 plus two isolated points
    left_subs = [SuborderView(left, m).to_poset() for m in range(1 << len(left))]
    right_subs = [SuborderView(right, m).to_poset() for m in range(1 << len(right))]
    brute = {id(q): oracles.brute_is_surface(q.cover_lists) for q in left_subs + right_subs}
    for sl in left_subs:
        vl = is_k_surface(sl)
        assert (vl.holds, vl.rank) == brute[id(sl)]
        for sr in left_subs + right_subs:
            vr = is_k_surface(sr)
            vj = is_k_surface(join(sl, sr))
            both = vl.holds and vr.holds
            assert vj.holds == both
            if both:
                assert vj.rank == vl.rank + vr.rank + 1
            (ok_l, k_l), (ok_r, k_r) = brute[id(sl)], brute[id(sr)]
            ok_j, k_j = oracles.brute_is_surface(join(sl, sr).cover_lists)
            assert ok_j == (ok_l and ok_r)
            if ok_j:
                assert k_j == k_l + k_r + 1


# ---------------------------------------------------------------------------
# separated union


def test_separated_union_cases():
    k1 = solid_simplex(2).face_poset()
    n = len(k1)
    covers = list(k1.cover_lists) + [tuple(c + n for c in cs) for cs in k1.cover_lists]
    p = Poset(covers)
    assert is_separated_union(p, range(n), range(n, 2 * n))
    c = chain_poset(3)
    assert not is_separated_union(c, [0], [1, 2])
    with pytest.raises(DomainError):
        is_separated_union(c, [0, 1], [1, 2])
    with pytest.raises(DomainError):
        is_separated_union(c, [0], [2])


def test_separated_union_annulus_border():
    from posurf import annulus, border

    p = annulus(6).face_poset()
    decomposition = border(p)
    a, b = [c for c, _ in decomposition.components]
    sub = restrict(p, sorted(a | b))
    assert is_separated_union(sub, sorted(a), sorted(b))


# ---------------------------------------------------------------------------
# isomorphism oracle


def test_isomorphism_basics():
    p = sphere(1).face_poset()
    assert oracles.is_isomorphic(p, p)
    assert not oracles.is_isomorphic(chain_poset(3), antichain_poset(3))
    assert oracles.is_isomorphic(chain_poset(3), chain_poset(3))


def test_isomorphism_respects_structure_not_ids():
    # same covers listed in a different id order
    p = Poset([[], [], [0, 1]])
    q = Poset([[1, 2], [], []])
    assert oracles.is_isomorphic(p, q)


def test_isomorphism_negative_same_counts():
    # two posets with equal f-vectors but different cover structure
    p = Poset([[], [], [0], [1]])  # two chains of 2
    q = Poset([[], [], [0, 1], []])  # a V plus an isolated point
    assert not oracles.is_isomorphic(p, q)


def test_isomorphism_bound_refused():
    p = sphere(2).face_poset()
    with pytest.raises(DomainError):
        oracles.is_isomorphic(p, p, max_faces=5)


def test_link_coface_isomorphism_on_sphere2():
    k = sphere(2)
    p = k.face_poset()
    v = face_of(k, {0})
    beta = restrict(p, sorted(local_sets(p, v, "beta")))
    lk = k.link({0})
    assert oracles.is_isomorphic(beta, lk.face_poset())


# ---------------------------------------------------------------------------
# Hasse text format


def test_hasse_roundtrip_corpus(posets, complexes):
    all_posets = [p for _, p in posets] + [k.face_poset() for _, k in complexes]
    for p in all_posets:
        text = to_hasse(p)
        q = from_hasse(text)
        assert q.cover_lists == p.cover_lists
        assert q.labels == p.labels


def test_to_hasse_refuses_labels_from_hasse_cannot_read():
    for label in ("", ":", "a b", "a#b"):
        with pytest.raises(DomainError, match="cannot be serialized"):
            to_hasse(Poset([[], [0]], [label, "c"]))
    p = Poset([[], [0]], ["rank", "f"])
    assert from_hasse(to_hasse(p)).labels == p.labels


def test_hasse_parse_errors():
    with pytest.raises(ParseError) as e:
        from_hasse("f 0 :\nf 1 x\n")
    assert "line 2" in str(e.value)
    with pytest.raises(ParseError):
        from_hasse("f 0 :\nf 2 :\n")  # not dense
    with pytest.raises(ParseError):
        from_hasse("rank 3\nf 0 :\n")  # declared rank mismatch
    with pytest.raises(ParseError):
        from_hasse("f 0 :\nf 0 :\n")  # duplicate id
    with pytest.raises(ParseError):
        from_hasse("f 0 : 1\nf 1 : 0\n")  # cyclic
    with pytest.raises(ParseError, match="duplicate rank line") as e:
        from_hasse("rank 5\nrank 1\nf 0 :\nf 1 : 0\n")  # only the last rank holds
    assert "line 2" in str(e.value)
    for text, message in [
        ("f 0 :\nrank 1 2\n", "line 2: malformed rank line"),
        ("f 0 :\n\nrank one\n", "line 3: rank is not an integer: 'one'"),
        ("f 0 :\nf 1\n", "line 2: face record needs at least 'f <id> :'"),
        ("f 0 :\nf 1 : 0 x\n", "line 2: covered ids must be integers"),
        ("f 0 :\n# note\ng 1 :\n", "line 3: unknown record 'g'"),
    ]:
        with pytest.raises(ParseError) as e:
            from_hasse(text)
        assert str(e.value) == message


def test_hasse_comments_and_blanks():
    p = from_hasse("# header\n\nf 0 :  # trailing\nf 1 : 0\nrank 1\n")
    assert len(p) == 2 and p.rank() == 1


# ---------------------------------------------------------------------------
# randomized invariants


@st.composite
def random_covers(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    covers = []
    for h in range(n):
        below = draw(st.sets(st.integers(min_value=0, max_value=max(h - 1, 0)), max_size=3))
        covers.append(sorted(x for x in below if x < h))
    return covers


@settings(max_examples=80, deadline=None)
@given(random_covers())
def test_random_poset_matches_oracles(covers):
    p = Poset(covers)
    below = oracles.strict_below(covers)
    for h in range(len(p)):
        assert local_sets(p, h, "alpha") == below[h]
        # the kept covers are the Hasse relation of the order
        assert set(p.covers(h)) == {c for c in below[h] if not any(c in below[d] for d in below[h])}
        assert rank(p, h) == oracles.brute_face_rank(covers, h)
    assert rank(p) == oracles.brute_rank(covers)
    got = [set(c) for c in connected_components(p)]
    assert got == [set(c) for c in oracles.brute_components(covers)]


@settings(max_examples=50, deadline=None)
@given(random_covers())
def test_random_poset_hasse_roundtrip(covers):
    p = Poset(covers)
    assert from_hasse(to_hasse(p)).cover_lists == p.cover_lists


@settings(max_examples=50, deadline=None)
@given(random_covers(), st.integers(min_value=0, max_value=200))
def test_random_view_rank_matches_oracle(covers, seed):
    p = Poset(covers)
    if not len(p):
        return
    mask = seed % (1 << len(p))
    members = list(iter_bits(mask))
    assert view_rank(p, mask) == oracles.brute_rank(covers, members)
    view = SuborderView(p, mask)
    assert [rank(view, h) for h in members] == [
        oracles.brute_face_rank(covers, h, members) for h in members
    ]
    assert is_coherent(view) == oracles.coherent_by_recursion(covers, members)
    # the whole poset is read through its own cover lists; the drawn lists
    # may name a face below another listed cover, which the constructor drops
    assert is_coherent(p) == oracles.coherent_by_recursion(covers)
    got = [set(iter_bits(m)) for m in component_masks(p, mask)]
    assert got == [set(c) for c in oracles.brute_components(covers, members)]
