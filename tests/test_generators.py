"""Generators: determinism, parameter bounds, intended classifications."""

import math

import pytest

from posurf import (
    DomainError,
    Poset,
    SimplicialComplex,
    annulus,
    border,
    classify_recursive,
    disk,
    generate,
    generator_names,
    khalimsky_block,
    pinched_box,
    pinched_sphere,
    random_pure_complex,
    sphere,
    write_facets,
)
from posurf import generators as generators_module

from . import oracles


def test_registry_names():
    assert set(generator_names()) == {
        "simplex",
        "sphere",
        "disk",
        "annulus",
        "pinched-sphere",
        "pinched-box",
        "khalimsky",
        "random-pure",
    }


def test_generate_dispatch():
    assert isinstance(generate("sphere", 2), SimplicialComplex)
    assert isinstance(generate("khalimsky", 2, 2), Poset)
    assert generate("disk", 5) == disk(5)
    r1 = generate("random-pure", 2, 8, 5, 42)
    r2 = generate("random-pure", 2, 8, 5, seed=42)
    assert r1 == r2


def test_generate_errors():
    with pytest.raises(DomainError):
        generate("moebius")
    with pytest.raises(DomainError):
        generate("sphere")  # missing parameter
    with pytest.raises(DomainError):
        generate("disk", 2)  # below the documented bound
    with pytest.raises(DomainError):
        generate("annulus", 3)
    with pytest.raises(DomainError):
        generate("pinched-box", 3)
    with pytest.raises(DomainError):
        generate("khalimsky", 0, 2)
    with pytest.raises(DomainError):
        generate("simplex", -1)


def test_generators_refuse_before_building(monkeypatch):
    # the constructors' bounds in closed form: simplex n has 2^(n+1) - 1
    # faces at most, sphere n (n+2)(2^(n+1) - 1), disk m 7m, annulus m 14m,
    # pinched-box m 30m, and khalimsky w h has (2w+1)(2h+1) cells
    built = []
    for name in ("SimplicialComplex", "simplicial_join", "Poset"):
        monkeypatch.setattr(generators_module, name, lambda *args: built.append(args))
    cases = [
        ("simplex", (16,), [(17,)]),
        ("sphere", (12,), [(13,)]),
        ("disk", (18724,), [(18725,)]),
        ("annulus", (9362,), [(9363,)]),
        ("pinched-box", (4369,), [(4370,)]),
        ("khalimsky", (64, 63), [(65, 63), (64, 64)]),
    ]
    for name, largest, above in cases:
        built.clear()
        generate(name, *largest)
        assert built, name
        for params in above:
            built.clear()
            with pytest.raises(DomainError, match="above the limit of"):
                generate(name, *params)
            assert not built, (name, params)


def test_deterministic_output():
    assert write_facets(generate("annulus", 6)) == write_facets(annulus(6))
    assert write_facets(pinched_sphere()) == write_facets(pinched_sphere())


def test_sphere_counts():
    assert len(sphere(2)) == 14
    assert sphere(2).f_vector() == (4, 6, 4)
    assert sphere(3).f_vector() == (5, 10, 10, 5)
    assert sphere(0).f_vector() == (2,)


def test_annulus_structure():
    k = annulus(6)
    assert k.f_vector() == (12, 24, 12)
    d = border(k.face_poset())
    assert len(d.components) == 2
    for faces, verdict in d.components:
        assert verdict.is_surface and verdict.rank == 1


def test_disk_structure():
    k = disk(6)
    assert k.f_vector() == (7, 12, 6)
    d = border(k.face_poset())
    assert len(d.components) == 1
    assert d.components[0][1].rank == 1


def test_pinched_sphere_counts_frozen():
    # icosahedron with one antipodal pair identified keeps all 30 edges
    k = pinched_sphere()
    assert k.f_vector() == (11, 30, 20)


def test_khalimsky_counts():
    p = khalimsky_block(3, 3)
    assert len(p) == 49
    assert p.rank() == 2
    by_rank = [sum(1 for r in p.face_ranks if r == i) for i in range(3)]
    assert by_rank == [16, 24, 9]


def test_generator_intended_classifications():
    expectations = [
        ("simplex", (0,), "pcm"),
        ("simplex", (2,), "pcm"),
        ("sphere", (1,), "surface"),
        ("sphere", (2,), "surface"),
        ("disk", (4,), "pcm"),
        ("annulus", (4,), "pcm"),
        ("pinched-sphere", (), "neither"),
        ("pinched-box", (4,), "pcm"),
    ]
    for name, params, expected in expectations:
        cls = classify_recursive(generate(name, *params))
        assert cls.category == expected, (name, params)


def test_pinched_box_verdicts():
    cls = classify_recursive(pinched_box(6))
    assert cls.rank == 3
    assert cls.is_pcm and not cls.is_smooth_pcm
    assert cls.is_normal_pseudomanifold and not cls.border_empty


def _random_pure_cases():
    for dim in range(1, 5):
        for n_vertices in (dim + 2, dim + 3, dim + 5, 20, 40):
            for n_facets in (1, 4, 9, 16):
                for bias in (0, 0.5, 0.9, 1):
                    for seed in (n_vertices + n_facets, 1000 + 7 * dim):
                        yield dim, n_vertices, n_facets, seed, bias
    # saturated pools: more facets asked than there are (dim+1)-subsets; the
    # reference spins through all 50 * n_facets attempts, so the ask stays small
    for dim, n_vertices in ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5), (4, 6)):
        for bias in (0, 0.5, 0.9, 1):
            for seed in range(2):
                yield dim, n_vertices, math.comb(n_vertices, dim + 1) + 3, seed, bias


def test_random_pure_draws_the_facets_of_the_recount_reference():
    for case in _random_pure_cases():
        expected = oracles.random_pure_by_recount(*case).facets
        assert random_pure_complex(*case).facets == expected, case

