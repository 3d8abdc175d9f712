"""Shared instance corpus for the test suite."""

from __future__ import annotations

import pytest

from posurf import (
    Poset,
    SimplicialComplex,
    annulus,
    border,
    classify_recursive,
    disk,
    join,
    khalimsky_block,
    pinched_box,
    pinched_sphere,
    simplicial_join,
    solid_simplex,
    sphere,
)
from posurf.surfaces import border_mask_of


def path_complex(edges: int) -> SimplicialComplex:
    """Simple open path with the given number of edges."""
    return SimplicialComplex([(i, i + 1) for i in range(edges)])


def two_triangles_shared_vertex() -> SimplicialComplex:
    return SimplicialComplex([(0, 1, 2), (2, 3, 4)])


def two_triangles_shared_edge() -> SimplicialComplex:
    return SimplicialComplex([(0, 1, 2), (1, 2, 3)])


def three_triangles_shared_edge() -> SimplicialComplex:
    return SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def octahedron() -> SimplicialComplex:
    """Suspension of the triangle boundary: a 2-sphere on 6 vertices."""
    poles = SimplicialComplex([[100], [101]])
    return simplicial_join(sphere(1), poles)


def two_disks_glued_at_a_vertex() -> SimplicialComplex:
    """Two copies of disk 4 that share rim vertex 0 and nothing else."""
    copy = [[v + 5 if v else 0 for v in f] for f in disk(4).facets]
    return SimplicialComplex(list(disk(4).facets) + copy)


def joins_and_gluings() -> list[tuple[str, SimplicialComplex]]:
    """Non-smooth PCMs built by joins, and a non-normal gluing of two disks.

    Each join is a PCM whose border is not a union of separated surfaces.
    The cone over annulus 4 is pinched-box 4, which the corpora list by that
    name.
    """
    return [
        ("suspension of annulus 4", simplicial_join(annulus(4), sphere(0))),
        ("cone over pinched-box 4", simplicial_join(pinched_box(4), solid_simplex(0))),
        ("annulus 4 * edge", simplicial_join(annulus(4), solid_simplex(1))),
        ("two disks glued at a vertex", two_disks_glued_at_a_vertex()),
    ]


def suspended(k: SimplicialComplex, times: int) -> SimplicialComplex:
    for _ in range(times):
        k = simplicial_join(k, sphere(0))
    return k


def sphere_prism(n: int) -> SimplicialComplex:
    """``sphere(n - 1)`` times an interval: the prism over each facet
    v_0 < ... < v_(n-1) is cut into the n simplices v_0..v_i, w_i..w_(n-1),
    where w_j = v_j + n + 1 is the vertex's copy at the other end."""
    facets = []
    for f in sphere(n - 1).facets:
        low = sorted(f)
        high = [v + n + 1 for v in low]
        facets += [low[: i + 1] + high[i:] for i in range(n)]
    return SimplicialComplex(facets)


def high_dimensional_stars() -> list[tuple[str, SimplicialComplex]]:
    """Spheres up to dimension 9; 1-3 suspensions of the pinched sphere and
    of pinched-box 4, up to dimension 6; and, for n = 3..6, the cone over
    ``sphere_prism(n)`` and its boundary, a pinched n-sphere.

    Suspension keeps a pinch: the pinched sphere's suspensions are not
    normal, and pinched-box 4's are normal PCMs that fail (C). The cone
    over a prism is a normal PCM whose border is the pinched n-sphere: both
    ends of the prism coned to one apex. That apex is the only face whose
    star (or border star) is disconnected, at codimension n.
    """
    cones = [(n, simplicial_join(sphere_prism(n), solid_simplex(0))) for n in range(3, 7)]
    return (
        [(f"sphere {n}", sphere(n)) for n in range(10)]
        + [
            (f"{name} suspended {t}x", suspended(base, t))
            for name, base in (("pinched sphere", pinched_sphere()), ("pinched-box 4", pinched_box(4)))
            for t in (1, 2, 3)
        ]
        + [(f"cone over {n}-sphere prism", k) for n, k in cones]
        + [(f"pinched {n}-sphere", SimplicialComplex(k.boundary_ridges())) for n, k in cones]
    )


def warm_and_fresh(p: Poset, recognizers) -> tuple[list, list]:
    """Each recognizer's answer on ``p``, from a copy whose memos
    ``classify_recursive`` and ``border`` have filled, then each from its own
    fresh copy. A memo entry that one recognizer leaves and another misreads
    shows as a difference. The border recognizers skip the empty order."""
    warm = Poset(p.cover_lists, p.labels)
    classify_recursive(warm)
    if len(p):
        border(warm)
    else:
        recognizers = [r for r in recognizers if r not in (border, border_mask_of)]
    return (
        [recognize(warm) for recognize in recognizers],
        [recognize(Poset(p.cover_lists, p.labels)) for recognize in recognizers],
    )


def chain_poset(n: int) -> Poset:
    return Poset([[i - 1] if i else [] for i in range(n)])


def antichain_poset(n: int) -> Poset:
    return Poset([[] for _ in range(n)])


def zero_surface_poset() -> Poset:
    return antichain_poset(2)


def complex_corpus() -> list[tuple[str, SimplicialComplex]]:
    """Simplicial instances, all at most 60 faces."""
    out = [
        ("simplex 0", solid_simplex(0)),
        ("simplex 1", solid_simplex(1)),
        ("simplex 2", solid_simplex(2)),
        ("simplex 3", solid_simplex(3)),
        ("sphere 0", sphere(0)),
        ("sphere 1", sphere(1)),
        ("sphere 2", sphere(2)),
        ("sphere 3", sphere(3)),
        ("disk 3", disk(3)),
        ("disk 4", disk(4)),
        ("disk 6", disk(6)),
        ("annulus 4", annulus(4)),
        ("annulus 5", annulus(5)),
        ("path 1", path_complex(1)),
        ("path 3", path_complex(3)),
        ("two triangles, shared edge", two_triangles_shared_edge()),
        ("two triangles, shared vertex", two_triangles_shared_vertex()),
        ("three triangles, shared edge", three_triangles_shared_edge()),
        ("octahedron", octahedron()),
    ]
    assert all(len(k) <= 60 for _, k in out)
    return out


def poset_corpus() -> list[tuple[str, Poset]]:
    """Poset-only instances (plus face posets come via complex_corpus)."""
    return [
        ("empty", Poset([])),
        ("point", Poset([[]])),
        ("0-surface", zero_surface_poset()),
        ("antichain 3", antichain_poset(3)),
        ("chain 2", chain_poset(2)),
        ("chain 3", chain_poset(3)),
        ("V", Poset([[], [0], [0]])),
        ("4-cycle", join(antichain_poset(2), antichain_poset(2))),
        ("khalimsky 1x1", khalimsky_block(1, 1)),
        ("khalimsky 2x2", khalimsky_block(2, 2)),
        ("khalimsky 3x3", khalimsky_block(3, 3)),
        ("khalimsky 3x1", khalimsky_block(3, 1)),
    ]


def big_complex_corpus() -> list[tuple[str, SimplicialComplex]]:
    """Larger instances, at most 200 faces, for the differentials."""
    return [
        ("pinched sphere", pinched_sphere()),
        ("annulus 6", annulus(6)),
        ("pinched-box 4", pinched_box(4)),
        ("pinched-box 6", pinched_box(6)),
        ("sphere 4", sphere(4)),
    ] + joins_and_gluings()


@pytest.fixture(scope="session")
def complexes():
    return complex_corpus()


@pytest.fixture(scope="session")
def posets():
    return poset_corpus()


@pytest.fixture(scope="session")
def big_complexes():
    return big_complex_corpus()
