"""Acceptance suite: one test per criterion, printing a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
the benchmark table.
"""

import time

import pytest

from posurf import (
    SimplicialComplex,
    annulus,
    border,
    classify_recursive,
    cross_check,
    disk,
    generate,
    is_k_surface,
    is_pcm,
    is_smooth_pcm,
    khalimsky_block,
    pinched_box,
    pinched_sphere,
    random_pure_complex,
    restrict,
    sphere,
)
from posurf.poset import SuborderView, component_masks, iter_bits
from posurf.surfaces import border_mask_of

from . import oracles
from .conftest import (
    big_complex_corpus,
    complex_corpus,
    joins_and_gluings,
    poset_corpus,
    warm_and_fresh,
)
from .test_propositions import (
    all_posets,
    check_border_neighborhood_equality,
    check_border_neighborhood_inclusion,
    check_closures_are_surfaces,
    check_homogeneous,
    check_interval_surfaces,
    check_pcm_face_sides,
    check_pure,
    pcm_posets,
)
# imported as modules, so that pytest collects their tests only at home
from . import test_propositions, test_simplicial


def _passed(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS ({message})")


def test_criterion_1_golden_verdict_table():
    t0 = time.perf_counter()

    for n in range(4):
        cls = classify_recursive(sphere(n))
        assert cls.category == "surface" and cls.rank == n, f"sphere {n}"
        assert cls.is_surface and not cls.is_pcm
        assert cls.border_empty
        if n >= 1:
            assert cls.is_normal_pseudomanifold, f"sphere {n}"

    cls = classify_recursive(disk(6))
    assert cls.rank == 2 and cls.is_pcm and cls.is_smooth_pcm and not cls.is_surface
    d = border(disk(6).face_poset())
    assert len(d.components) == 1
    assert d.components[0][1].holds and d.components[0][1].rank == 1

    cls = classify_recursive(annulus(6))
    assert cls.rank == 2 and cls.is_pcm and cls.is_smooth_pcm
    d = border(annulus(6).face_poset())
    assert len(d.components) == 2
    assert all(v.holds and v.rank == 1 for _, v in d.components)
    from posurf import is_separated_union

    a, b = (c for c, _ in d.components)
    assert is_separated_union(restrict(annulus(6).face_poset(), sorted(a | b)), sorted(a), sorted(b))

    cls = classify_recursive(pinched_sphere())
    assert cls.is_pseudomanifold and not cls.is_normal_pseudomanifold
    assert not cls.is_surface and not cls.is_pcm

    cls = classify_recursive(pinched_box(6))
    assert cls.rank == 3 and cls.is_pcm and not cls.is_smooth_pcm
    assert cls.is_normal_pseudomanifold and not cls.border_empty

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"golden table took {elapsed:.1f}s"
    _passed(1, f"golden verdicts exact, {elapsed:.2f}s")


def _random_corpus():
    out = []
    i = 0
    for _rep in range(18):
        for dim in (1, 2, 3):
            for bias in (1.0, 0.95, 0.7, 0.5):
                nv = max(5 + (i * 3) % 8, dim + 2)  # 5..12 vertices
                nf = 3 + (i * 5) % 14
                out.append(
                    (
                        f"rand-d{dim}-{i}",
                        random_pure_complex(dim, nv, nf, seed=4200 + i, glue_bias=bias),
                    )
                )
                i += 1
    return out


def test_criterion_2_fast_recursive_equivalence():
    t0 = time.perf_counter()
    instances = _random_corpus()
    assert len(instances) >= 200
    assert all(k.dim <= 3 and len(k.vertices) <= 12 for _, k in instances)
    instances += [
        ("simplex 0", generate("simplex", 0)),
        ("simplex 2", generate("simplex", 2)),
        ("simplex 3", generate("simplex", 3)),
        ("sphere 0", generate("sphere", 0)),
        ("sphere 1", generate("sphere", 1)),
        ("sphere 2", generate("sphere", 2)),
        ("sphere 3", generate("sphere", 3)),
        ("disk 3", generate("disk", 3)),
        ("disk 6", generate("disk", 6)),
        ("annulus 4", generate("annulus", 4)),
        ("annulus 6", generate("annulus", 6)),
        ("pinched-sphere", generate("pinched-sphere")),
        ("pinched-box 4", generate("pinched-box", 4)),
        ("pinched-box 6", generate("pinched-box", 6)),
        ("random-pure 2 8 6 7", generate("random-pure", 2, 8, 6, 7)),
        ("empty", SimplicialComplex([])),
    ] + joins_and_gluings()
    report = cross_check(instances)  # raises on any disagreement
    assert len(report.rows) == len(instances)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"equivalence corpus took {elapsed:.1f}s"
    mix = report.category_counts
    assert set(mix) >= {"surface", "pcm", "neither"}  # both vacuous and not
    _passed(2, f"{len(instances)} instances, 0 disagreements, mix {mix}, {elapsed:.2f}s")


def test_criterion_3_proposition_suite():
    complexes = complex_corpus()
    assert all(len(k) <= 60 for _, k in complexes)

    for name, k in complexes:
        assert not check_closures_are_surfaces(k), name
        assert not check_interval_surfaces(k), name

    n_pcms = 0
    for name, p, n in pcm_posets():
        assert not check_pure(p, n), name
        assert not check_homogeneous(p, n), name
        assert not check_pcm_face_sides(p, n), name
        n_pcms += 1
    assert n_pcms >= 8

    from posurf import is_coherent

    coherent_count = 0
    for name, p in all_posets():
        if len(p) == 0 or not is_coherent(p):
            continue
        assert not check_border_neighborhood_inclusion(p), name
        coherent_count += 1
    assert coherent_count >= 10

    for name, k in complexes:
        p = k.face_poset()
        if len(p) and is_coherent(p):
            assert not check_border_neighborhood_equality(p), name

    test_propositions.test_border_beta_equality_on_simplicial_pcms(complexes)
    test_propositions.test_border_rank_and_closure_on_simplicial_pcms(complexes)
    test_propositions.test_openings_in_simplicial_pcms_split_by_border(complexes)
    test_propositions.test_link_of_border_face_matches_border_of_link(complexes)
    test_simplicial.test_link_coface_isomorphism(complexes)
    test_propositions.test_join_pcm_with_surface_is_pcm_with_border_formula()
    test_propositions.test_join_pcm_with_pcm_is_pcm()

    _passed(3, f"propositions hold on {len(complexes)} complexes and {n_pcms} PCMs")


def test_criterion_4_differential_tests():
    complexes = complex_corpus() + big_complex_corpus()
    assert all(len(k) <= 200 for _, k in complexes)

    # recognition on warm memos vs fresh ones
    recognizers = [is_k_surface, is_pcm, is_smooth_pcm, border, border_mask_of]
    targets = [p for _, p in poset_corpus()] + [k.face_poset() for _, k in complexes]
    checks = 0
    for p in targets:
        warm, fresh = warm_and_fresh(p, recognizers)
        assert warm == fresh, p
        checks += len(warm)
        # every strict neighborhood, one by one
        warm, fresh = warm_and_fresh(p, [lambda q: list(map(oracles.MaskViews(q).surface, q.theta_masks))])
        assert warm == fresh, p

    # dual-graph connectivity vs the path-based definition, all pure inputs
    pure = [(n, k) for n, k in complexes if k.dim >= 1 and k.is_pure()]
    for name, k in pure:
        assert k.is_codim1_connected() == oracles.codim1_connected_definitional(k), name
    disconnected = SimplicialComplex([(0, 1, 2), (3, 4, 5)])
    assert not disconnected.is_codim1_connected()
    assert not oracles.codim1_connected_definitional(disconnected)

    # constructive path repair agrees where the construction applies
    repaired = 0
    for name, k in pure:
        cls = classify_recursive(k)
        facets = k.facets
        if cls.category in ("surface", "pcm"):
            for f in facets[1:]:
                path = oracles.fig7_path_repair(k, facets[0], f)
                assert path is not None, (name, sorted(f))
                assert oracles.is_valid_codim1_path(k, path, facets[0], f), (name, sorted(f))
                repaired += 1
            assert oracles.repair_decides_connected(k) == k.is_codim1_connected(), name
        else:
            # soundness everywhere: a returned path is a genuine one
            for f in facets[1:4]:
                path = oracles.fig7_path_repair(k, facets[0], f)
                if path is not None:
                    assert oracles.is_valid_codim1_path(k, path, facets[0], f), name
    assert repaired >= 40
    _passed(4, f"warm-vs-fresh differential clean ({checks} checks); {repaired} repaired paths validated")


def test_criterion_5_cut_and_glue():
    k = sphere(2)
    p = k.face_poset()
    vertex_triples = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    quads = [((0, 1), (1, 2), (2, 3), (0, 3)), ((0, 1), (1, 3), (2, 3), (0, 2)),
             ((0, 2), (1, 2), (1, 3), (0, 3))]
    cuts = []
    for t in vertex_triples:
        edges = [frozenset(e) for e in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2]))]
        cuts.append(edges)
    for q in quads:
        cuts.append([frozenset(e) for e in q])
    for cut_edges in cuts:
        ids = set()
        for e in cut_edges:
            ids.add(oracles.face_id(k, e))
            for v in e:
                ids.add(oracles.face_id(k, {v}))
        equator = restrict(p, sorted(ids))
        v = is_k_surface(equator)
        assert v.holds and v.rank == 1
        rest = p.full_mask & ~equator.mask
        comps = list(component_masks(p, rest))
        assert len(comps) == 2
        sides = []
        for cm in comps:
            side = SuborderView(p, cm | equator.mask)
            sv = is_smooth_pcm(side)
            assert sv.holds and sv.rank == 2
            pv = is_pcm(side)
            assert pv.holds and pv.rank == 2
            sides.append(side)
        # glue direction: the halves share exactly their common border and
        # their interiors never touch, so the union is the surface again
        a, b = sides
        border_a = frozenset(border(a).border_faces)
        border_b = frozenset(border(b).border_faces)
        shared = frozenset(iter_bits(a.mask & b.mask))
        assert border_a == border_b == shared
        interior_a = a.mask & ~equator.mask
        interior_b = b.mask & ~equator.mask
        reach = 0
        for hh in iter_bits(interior_a):
            reach |= p.theta_masks[hh] | (1 << hh)
        assert not reach & interior_b
        union = SuborderView(p, a.mask | b.mask)
        uv = is_k_surface(union)
        assert uv.holds and uv.rank == 2
    _passed(5, f"{len(cuts)} equatorial cuts, 2 components each, closures smooth 2-PCMs")


def test_criterion_6_benchmark_report():
    instances = [(f"sphere {n}", sphere(n)) for n in range(5)]
    instances += [
        ("annulus 6", annulus(6)),
        ("pinched-box 6", pinched_box(6)),
        ("pinched-sphere", pinched_sphere()),
    ]
    report = cross_check(instances)
    assert len(report.rows) == len(instances)
    for row in report.rows:
        assert row["fast_ms"] >= 0 and row["recursive_ms"] >= 0
    print()
    print(report.table())
    big = [r for r in report.rows if r["instance"] == "sphere 4"][0]
    print(
        f"[acceptance] criterion 6: sphere 4 speedup fast vs recursive: {big['speedup']:.2f}x "
        "(informational, not asserted)"
    )
    _passed(6, "both paths completed on spheres up to rank 4; timings reported")


def test_khalimsky_poset_level_goldens():
    # supporting golden: the cubical block is a smooth 2-PCM whose border is
    # the closed outer ring
    p = khalimsky_block(3, 3)
    assert is_pcm(p).rank == 2
    assert is_smooth_pcm(p).rank == 2
    d = border(p)
    perimeter = {
        i
        for i in range(len(p))
        if int(p.label(i).split(",")[0]) in (0, 6) or int(p.label(i).split(",")[1]) in (0, 6)
    }
    assert d.border_faces == perimeter
    assert len(d.components) == 1 and d.components[0][1].rank == 1
