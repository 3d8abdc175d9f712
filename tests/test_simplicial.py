"""Simplicial complexes: construction, links, joins, pseudomanifold tests."""

import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posurf import (
    DomainError,
    ParseError,
    PosurfError,
    SimplicialComplex,
    annulus,
    classify_fast,
    disk,
    from_hasse,
    icosahedron,
    is_k_surface,
    local_sets,
    pinched_box,
    pinched_sphere,
    random_pure_complex,
    read_facets,
    restrict,
    simplicial_join,
    solid_simplex,
    sphere,
    write_facets,
)
from posurf import poset as poset_module
from posurf import simplicial
from posurf.cli import main as cli_main

from .conftest import (
    high_dimensional_stars,
    octahedron,
    path_complex,
    three_triangles_shared_edge,
    two_triangles_shared_vertex,
)
from . import oracles


# ---------------------------------------------------------------------------
# construction


def test_from_facets_triangle():
    k = SimplicialComplex([{1, 2, 3}])
    assert len(k) == 7
    assert k.faces == tuple(sorted(oracles.powerset_nonempty({1, 2, 3}), key=lambda s: (len(s), tuple(sorted(s)))))
    assert k.dim == 2


def test_from_facets_sphere2_counts():
    k = sphere(2)
    assert len(k) == 14
    assert k.f_vector() == (4, 6, 4)


def test_two_isolated_vertices():
    k = SimplicialComplex([{1}, {2}])
    assert len(k) == 2 and k.dim == 0


def test_empty_complex():
    k = SimplicialComplex([])
    assert len(k) == 0 and k.dim == -1
    assert k.face_poset().rank() == -1


def test_empty_facet_rejected():
    with pytest.raises(DomainError):
        SimplicialComplex([[]])


def test_constructor_closes_generators(monkeypatch):
    # a family that is not closed under inclusion is closed by the constructor
    k = SimplicialComplex([(1, 2), (2, 3, 4)])
    assert set(k.faces) == oracles.powerset_nonempty({1, 2}) | oracles.powerset_nonempty({2, 3, 4})
    assert k.facets == (frozenset({1, 2}), frozenset({2, 3, 4}))
    assert tuple(k) == k.faces
    assert repr(k) == "SimplicialComplex(9 faces, dim 2)"
    assert repr(k.face_poset()) == "Poset(9 faces, rank 2)"
    # duplicate and non-maximal generators change neither the complex nor its
    # facets, and only the two facets count toward the budget (3 + 7 faces)
    monkeypatch.setattr(simplicial, "MAX_FACES", 10)
    again = SimplicialComplex([(3, 4), (2, 1), (4, 3, 2), (1, 2), (2,), (2, 3, 4), (4,)])
    assert again == k and again.faces == k.faces and again.facets == k.facets
    assert hash(again) == hash(k)
    with pytest.raises(DomainError, match="limit of 10"):
        SimplicialComplex([(1, 2), (2, 3, 4), (5,)])


@st.composite
def generator_lists(draw):
    """A list of simplices on at most 7 vertices, mixed sizes (so the
    complex is rarely pure), with some of their proper faces and repeats."""
    simplex = st.frozensets(st.integers(0, 6), min_size=1, max_size=4)
    gens = draw(st.lists(simplex, max_size=8))
    under = [frozenset(draw(st.sets(st.sampled_from(sorted(g)), min_size=1))) for g in gens]
    return gens + under + gens[:2]


@settings(max_examples=200, deadline=None)
@given(generator_lists(), st.randoms(use_true_random=False))
def test_constructor_matches_the_closure_oracle(gens, rnd):
    k = SimplicialComplex(gens)
    closure = oracles.closure_by_powersets(gens)
    facets = {f for f in closure if not any(f < g for g in closure)}
    key = lambda s: (len(s), tuple(sorted(s)))
    assert k.faces == tuple(sorted(closure, key=key)) and tuple(k) == k.faces
    assert k.facets == tuple(sorted(facets, key=key))
    assert len(k) == len(closure) and k.dim == max(map(len, closure), default=0) - 1
    assert k.f_vector() == tuple(sum(len(f) == d + 1 for f in closure) for d in range(k.dim + 1))
    for s in oracles.powerset_nonempty(range(7)):
        assert (s in k) == (s in closure)
    # any list with the same closure gives an equal complex, with an equal hash
    same = [*facets, *rnd.sample(sorted(closure, key=key), len(closure) // 2)]
    rnd.shuffle(same)
    again = SimplicialComplex(same)
    assert again == k and hash(again) == hash(k) and again.faces == k.faces
    other = SimplicialComplex([*gens, (7,)])
    assert other != k and len(other) == len(k) + 1


def test_fast_path_builds_no_frozenset_faces():
    # parse, the verdict, the face count and the f-vector read the closure's
    # vertex tuples; the canonical frozenset faces are built on first read
    k = read_facets(write_facets(pinched_box(6)))
    cls = classify_fast(k)
    assert cls.is_pcm and not cls.is_smooth_pcm
    assert k.boundary_ridges() and k.is_codim1_connected()
    assert len(k) == 97 and k.f_vector() == (13, 36, 36, 12)
    assert {0, 1, 12} in k and {0, 1, 2, 3} not in k
    assert k == pinched_box(6) and hash(k) == hash(pinched_box(6))
    assert k._faces is None
    assert k.faces == tuple(sorted(oracles.closure_by_powersets(k.facets), key=lambda s: (len(s), tuple(sorted(s)))))
    assert k._faces is k.faces


def test_fast_path_scans_each_complex_once(monkeypatch):
    # purity is checked once per pseudomanifold test, and the boundary
    # ridges are collected once for the border and condition (C)
    pure_calls = []
    is_pure = SimplicialComplex.is_pure
    monkeypatch.setattr(SimplicialComplex, "is_pure", lambda k: pure_calls.append(k) or is_pure(k))
    k = pinched_box(6)
    classify_fast(k)
    assert len(pure_calls) == 1
    assert k._boundary() is k._boundary()
    with pytest.raises(DomainError, match="pure complex"):
        SimplicialComplex([(0, 1, 2), (2, 3)]).is_codim1_connected()


def test_vertices_must_be_integers():
    with pytest.raises(DomainError, match="integer"):
        SimplicialComplex([(1.5, 2.9, 3)])
    assert {"a"} not in sphere(2)
    assert 7 not in sphere(2)
    with pytest.raises(DomainError):
        sphere(2).link({"a"})


def test_intersection_closed(complexes):
    for name, k in complexes:
        faces = set(k.faces)
        for f in faces:
            for g in faces:
                inter = f & g
                if inter:
                    assert inter in faces, name


# ---------------------------------------------------------------------------
# face poset bridge


def test_face_poset_edge():
    p = solid_simplex(1).face_poset()
    assert len(p) == 3
    assert p.cover_lists == ((), (), (0, 1))


def test_face_poset_rank_equals_dimension(complexes):
    for name, k in complexes:
        p = k.face_poset()
        for h, f in enumerate(k.faces):
            assert p.face_ranks[h] == len(f) - 1, name


def test_face_poset_triangle_boundary_is_hexagon():
    v = is_k_surface(sphere(1).face_poset())
    assert v.holds and v.rank == 1


# ---------------------------------------------------------------------------
# links


def test_link_of_vertex_in_triangle():
    k = solid_simplex(2)
    lk = k.link({0})
    assert set(lk.faces) == {frozenset({1}), frozenset({2}), frozenset({1, 2})}


def test_link_of_vertex_in_sphere2_is_cycle():
    k = sphere(2)
    lk = k.link({0})
    v = is_k_surface(lk.face_poset())
    assert v.holds and v.rank == 1
    assert lk.f_vector() == (3, 3)


def test_link_of_pinch_vertex_is_two_cycles():
    k = pinched_sphere()
    lk = k.link({0})
    assert lk.f_vector() == (10, 10)
    from posurf import connected_components

    comps = connected_components(lk.face_poset())
    assert len(comps) == 2
    for c in comps:
        assert len(c) == 10  # 5 vertices + 5 edges


def test_link_unknown_face():
    with pytest.raises(DomainError):
        sphere(1).link({9})


def test_link_coface_isomorphism(complexes):
    for name, k in complexes:
        p = k.face_poset()
        for h, f in enumerate(k.faces):
            beta = restrict(p, sorted(local_sets(p, h, "beta")))
            assert oracles.is_isomorphic(beta, k.link(f).face_poset()), (name, sorted(f))


# ---------------------------------------------------------------------------
# joins


def test_cone_over_triangle_boundary_is_disk_like():
    apex = SimplicialComplex([[99]])
    cone = simplicial_join(sphere(1), apex)
    assert cone.dim == 2
    assert len(cone.facets) == 3
    assert oracles.is_isomorphic(cone.face_poset(), disk(3).face_poset())


def test_suspension_of_triangle_boundary_is_2_sphere():
    k = octahedron()
    assert k.dim == 2
    v = is_k_surface(k.face_poset())
    assert v.holds and v.rank == 2
    assert k.is_normal_pseudomanifold()


def test_join_renumbers_on_collision():
    a = solid_simplex(1)
    b = solid_simplex(1)  # same vertex labels
    j = simplicial_join(a, b)
    assert j.dim == 3
    assert len(j.vertices) == 4


def test_join_budget_fails_fast():
    # the join of two 8-spheres has 1,046,528 faces, 8 times the limit, and
    # annulus 200 with itself 160,000 unions; the closed-form bound refuses
    # both before any union is built
    t0 = time.perf_counter()
    for k in (sphere(8), annulus(200)):
        with pytest.raises(DomainError, match="the join of .* above the limit of"):
            simplicial_join(k, k)
    assert time.perf_counter() - t0 < 0.5


def test_join_refuses_exactly_what_the_constructor_refuses(monkeypatch, complexes):
    # the closed form equals the constructor's sum over the join's facets:
    # at that limit the join is built, one below it is refused
    for name, a in complexes[:12]:
        for b in (sphere(0), solid_simplex(1), sphere(1), a):
            j = simplicial_join(a, b)
            if not (a.facets and b.facets):
                continue
            bound = sum((1 << len(f)) - 1 for f in j.facets)
            monkeypatch.setattr(simplicial, "MAX_FACES", bound)
            assert simplicial_join(a, b) == j, name
            monkeypatch.setattr(simplicial, "MAX_FACES", bound - 1)
            with pytest.raises(DomainError, match="the join of"):
                simplicial_join(a, b)
            with pytest.raises(DomainError, match="above the limit"):
                SimplicialComplex(j.facets)
            monkeypatch.undo()


def test_link_and_join_match_face_family_definitions(complexes, big_complexes):
    empty = SimplicialComplex([])
    for name, k in complexes + big_complexes:
        for f in k.faces:
            assert set(k.link(f).faces) == oracles.link_by_faces(k, f), (name, sorted(f))
        # a cone and a suspension on colliding labels, and an empty side
        others = [solid_simplex(0), sphere(0), empty]
        if len(k) <= 60:
            others.append(k)
        for l in others:
            for a, b in ((k, l), (l, k)):
                j = simplicial_join(a, b)
                assert set(j.faces) == oracles.join_by_faces(a, b), name
                under = {f - {v} for f in j.faces for v in f}
                assert set(j.facets) == set(j.faces) - under, name
    assert len(simplicial_join(empty, empty)) == 0


def test_pinched_box_is_join_of_annulus_and_point():
    box = pinched_box(6)
    assert box.dim == 3
    assert len(box.facets) == len(annulus(6).facets)
    assert all(12 in f for f in box.facets)


# ---------------------------------------------------------------------------
# purity


def test_purity_cases():
    assert sphere(2).is_pure()
    assert SimplicialComplex([[5]]).is_pure()
    mixed = SimplicialComplex([(1, 2, 3), (3, 4)])
    assert not mixed.is_pure()


# ---------------------------------------------------------------------------
# codimension-1 connectivity


def test_codim1_requires_pure():
    mixed = SimplicialComplex([(1, 2, 3), (3, 4)])
    with pytest.raises(DomainError):
        mixed.is_codim1_connected()


def test_codim1_below_dimension_1():
    # the facets are vertices, which share no ridge
    assert SimplicialComplex([]).is_codim1_connected()
    assert SimplicialComplex([[0]]).is_codim1_connected()
    assert not sphere(0).is_codim1_connected()


def test_codim1_cases():
    assert sphere(2).is_codim1_connected()
    assert not two_triangles_shared_vertex().is_codim1_connected()
    assert pinched_sphere().is_codim1_connected()
    disjoint = SimplicialComplex([(0, 1, 2), (3, 4, 5)])
    assert not disjoint.is_codim1_connected()


def test_codim1_matches_definitional_oracle(complexes, big_complexes):
    for name, k in complexes + big_complexes:
        if not k.is_pure() or k.dim < 1:
            continue
        assert k.is_codim1_connected() == oracles.codim1_connected_definitional(k), name


def test_codim1_within_coface_sets(complexes):
    # the coface set of every face of codimension >= 2 in a surface or PCM
    # is connected through ridges; that star connectivity is what the
    # normality test decides, so it holds on all of them, and fails where
    # one coface set splits in two (the pinch vertex of the pinched sphere)
    from posurf import classify_recursive

    checked = 0
    for name, k in complexes:
        if k.dim < 2 or not k.is_pure():
            continue
        if classify_recursive(k).category in ("surface", "pcm"):
            assert k.is_normal_pseudomanifold(), name
            checked += 1
    assert checked >= 8
    assert pinched_sphere().is_pseudomanifold()
    assert not pinched_sphere().is_normal_pseudomanifold()


# ---------------------------------------------------------------------------
# pseudomanifolds


def test_pseudomanifold_cases():
    assert sphere(2).is_pseudomanifold()
    assert pinched_sphere().is_pseudomanifold()
    assert not three_triangles_shared_edge().is_pseudomanifold()
    assert SimplicialComplex([[7]]).is_pseudomanifold()
    assert not sphere(0).is_pseudomanifold()  # two isolated vertices
    assert not SimplicialComplex([]).is_pseudomanifold()


def test_normal_pseudomanifold_cases():
    assert sphere(2).is_normal_pseudomanifold()
    assert sphere(3).is_normal_pseudomanifold()
    assert not pinched_sphere().is_normal_pseudomanifold()
    assert pinched_box(6).is_normal_pseudomanifold()
    assert disk(6).is_normal_pseudomanifold()
    assert path_complex(3).is_normal_pseudomanifold()


def test_normal_pseudomanifold_matches_links_on_corpora(complexes, big_complexes):
    for name, k in complexes + big_complexes:
        assert k.is_normal_pseudomanifold() == oracles.normal_pseudomanifold_by_links(k), name


def test_normal_pseudomanifold_suspended_pinched_sphere():
    # a 3-pseudomanifold whose pinch vertex and its edges to the two
    # suspension points have disconnected stars
    k = simplicial_join(pinched_sphere(), sphere(0))
    assert len(k) == 185 and k.dim == 3
    assert k.is_pseudomanifold()
    assert not k.is_normal_pseudomanifold()
    assert not oracles.normal_pseudomanifold_by_links(k)


def test_normal_pseudomanifold_matches_links_on_high_dimensional_stars():
    verdicts = {}
    for name, k in high_dimensional_stars():
        verdicts[name] = k.is_normal_pseudomanifold()
        assert verdicts[name] == oracles.normal_pseudomanifold_by_links(k), name
    assert [name for name, normal in verdicts.items() if not normal] == [
        "sphere 0",
        "pinched sphere suspended 1x",
        "pinched sphere suspended 2x",
        "pinched sphere suspended 3x",
        *(f"pinched {n}-sphere" for n in range(3, 7)),
    ]


@st.composite
def random_complexes(draw):
    """Seeded random pure complexes of dimension 2-4; optionally made non-pure
    by adding the facets of one of another dimension, or suspended."""
    dim = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    k = random_pure_complex(dim, draw(st.integers(dim + 2, dim + 6)), draw(st.integers(1, 16)), seed)
    shape = draw(st.sampled_from(["pure", "non-pure", "suspended"]))
    if shape == "non-pure":
        other = draw(st.sampled_from([d for d in (1, 2, 3) if d != dim]))
        k = SimplicialComplex(k.facets + random_pure_complex(other, other + 3, 4, seed).facets)
    elif shape == "suspended" and dim <= 3:
        k = simplicial_join(k, sphere(0))
    return k


@settings(max_examples=200, deadline=None)
@given(random_complexes())
def test_normal_pseudomanifold_matches_links_on_random_complexes(k):
    assert k.is_normal_pseudomanifold() == oracles.normal_pseudomanifold_by_links(k)


def test_icosahedron_structure():
    k = icosahedron()
    assert k.f_vector() == (12, 30, 20)
    # every ridge under exactly two triangles
    assert k.is_pseudomanifold() and not len(SimplicialComplex(k.boundary_ridges()))
    assert k.is_normal_pseudomanifold()
    v = is_k_surface(k.face_poset())
    assert v.holds and v.rank == 2
    # the two identified vertices are non-adjacent with disjoint links
    assert frozenset({0, 11}) not in k.faces
    assert not set(k.link({0}).vertices) & set(k.link({11}).vertices)


def test_pinched_sphere_structure():
    k = pinched_sphere()
    assert k.f_vector() == (11, 30, 20)
    # every ridge under exactly two triangles
    assert k.is_pseudomanifold() and not len(SimplicialComplex(k.boundary_ridges()))


# ---------------------------------------------------------------------------
# facet IO


def test_facet_roundtrip(complexes):
    for name, k in complexes:
        assert read_facets(write_facets(k)) == k, name


def test_facet_parse_errors():
    with pytest.raises(ParseError) as e:
        read_facets("1 2\n1 x\n")
    assert "line 2" in str(e.value)
    with pytest.raises(ParseError):
        read_facets("1 1 2\n")


def test_closure_budget_boundary(monkeypatch):
    monkeypatch.setattr(simplicial, "MAX_FACES", 8)
    assert len(SimplicialComplex([(1, 2, 3), (4,)])) == 8
    with pytest.raises(DomainError, match="limit of 8"):
        SimplicialComplex([(1, 2, 3), (4,), (5,)])


def test_read_facets_refuses_at_the_first_line_above_the_limit(monkeypatch):
    # the refusal comes before the malformed line after it is read
    monkeypatch.setattr(simplicial, "MAX_FACES", 10)
    with pytest.raises(DomainError, match="^line 2: a simplex of 4 vertices .* limit of 10$"):
        read_facets("0\n0 1 2 3\nx\n")
    # the 11th distinct simplex; a repeated line is not counted twice
    text = "0\n0\n" + "".join(f"{v}\n" for v in range(1, 11)) + "x\n"
    with pytest.raises(DomainError, match="^line 12: the closure of 11 simplices .* limit of 10$"):
        read_facets(text)
    # both bounds are exact: the constructor admits each of these
    assert len(read_facets("".join(f"{v}\n" for v in range(10)))) == 10
    assert len(read_facets("0 1 2\n0 1\n0\n3\n4\n5\n")) == 10


def test_face_poset_is_refused_before_it_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("face poset built")

    monkeypatch.setattr(poset_module, "MAX_POSET_FACES", 13)
    monkeypatch.setattr(simplicial, "Poset", refuse)
    k = sphere(2)
    with pytest.raises(DomainError, match="a poset of 14 faces is above the limit of 13"):
        k.face_poset()
    assert k._faces is None


def test_closure_budget_admits_annulus_8000():
    facets = annulus(8000).facets
    assert sum(2 ** len(f) - 1 for f in facets) == 112_000 <= simplicial.MAX_FACES


def test_oversized_facet_fails_fast(tmp_path, capsys):
    line = " ".join(str(v) for v in range(18)) + "\n"  # 262,143 faces
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="262143"):
        read_facets(line)
    path = tmp_path / "big.facets"
    path.write_text(line)
    assert cli_main(["classify", str(path)]) == 1
    assert time.perf_counter() - t0 < 2.0
    assert "limit" in capsys.readouterr().err


def test_huge_facet_is_refused_without_printing_its_bound():
    # the bound 2^15000 - 1 has more digits than str() converts
    with pytest.raises(DomainError, match="above the limit of"):
        read_facets(" ".join(str(v) for v in range(15000)) + "\n")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (read_facets, " ".join(map(str, range(2_000_000))), "19 vertices .* above the limit"),
        (read_facets, " ".join(["1"] * 2_000_000), "19 vertices .* above the limit"),
        (from_hasse, "f 0 : " + " ".join(map(str, range(1, 2_000_001))), "ids, above the limit"),
        (read_facets, "1" * 2_000_000, "facet vertices must be integers"),
        (from_hasse, "x" * 2_000_000, "unknown record 'xxx"),
        (from_hasse, "f " + "1" * 2_000_000 + " :", "face id is not an integer: '111"),
        (from_hasse, "rank " + "1" * 2_000_000, "rank is not an integer: '111"),
    ],
    ids=["2M vertices", "2M repeated vertices", "2M covered ids", "long vertex",
         "long record type", "long face id", "long rank"],
)
def test_a_long_line_is_refused_at_the_cost_of_its_text(parse, text, message):
    # splitting every token of such a line took about 18 times its text,
    # and some messages quoted the whole line
    tracemalloc.start()
    try:
        with pytest.raises(PosurfError, match=f"^line 1: .*{message}") as err:
            parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(str(err.value)) < 200
    assert peak < 4 * len(text)


def test_facet_comments_and_empty():
    k = read_facets("# a triangle\n1 2 3\n\n")
    assert k.dim == 2
    assert len(read_facets("")) == 0
