"""Dual-path classifier: verdicts, agreement, cross-check machinery."""

import pytest

from posurf import (
    CrossCheckError,
    DomainError,
    SimplicialComplex,
    classify_both,
    classify_fast,
    classify_recursive,
    cross_check,
    disk,
    pinched_box,
    pinched_sphere,
    random_pure_complex,
    sphere,
)

from .conftest import path_complex, two_triangles_shared_vertex


def test_recursive_sphere2():
    c = classify_recursive(sphere(2))
    assert c.rank == 2
    assert c.is_surface and not c.is_pcm
    assert c.is_pseudomanifold and c.is_normal_pseudomanifold
    assert c.border_empty
    assert c.category == "surface"


def test_recursive_disk():
    c = classify_recursive(disk(6))
    assert c.is_pcm and c.is_smooth_pcm and not c.is_surface
    assert c.is_normal_pseudomanifold and not c.border_empty
    assert c.category == "pcm"


def test_recursive_pinched_sphere():
    c = classify_recursive(pinched_sphere())
    assert not c.is_surface and not c.is_pcm
    assert c.is_pseudomanifold and not c.is_normal_pseudomanifold
    assert c.category == "neither"


def test_recursive_on_poset_has_no_pm_fields():
    c = classify_recursive(sphere(2).face_poset())
    assert c.is_pseudomanifold is None and c.is_normal_pseudomanifold is None
    assert c.is_surface


def test_fast_requires_complex():
    with pytest.raises(DomainError):
        classify_fast(sphere(2).face_poset())


def test_fast_sphere4_without_full_recursion():
    k = sphere(4)
    c = classify_fast(k)
    assert c.category == "surface" and c.rank == 4
    poset = k.face_poset()
    surface_memo = poset.memo("surface")
    assert poset.full_mask not in surface_memo


def test_fast_pinched_box():
    c = classify_fast(pinched_box(6))
    assert c.category == "pcm" and c.rank == 3
    assert c.is_smooth_pcm is False
    assert c.is_normal_pseudomanifold and not c.border_empty


def test_fast_path_builds_no_face_poset(monkeypatch):
    def refuse(self):
        raise AssertionError("face poset built")

    monkeypatch.setattr(SimplicialComplex, "face_poset", refuse)
    box = classify_fast(pinched_box(6))
    assert (box.category, box.rank, box.is_smooth_pcm, box.border_empty) == ("pcm", 3, False, False)
    rim = classify_fast(disk(6))
    assert (rim.category, rim.rank, rim.is_smooth_pcm, rim.border_empty) == ("pcm", 2, True, False)


def test_fast_pinched_sphere():
    c = classify_fast(pinched_sphere())
    assert c.category == "neither"
    assert c.border_empty is None  # not evaluated on the fast path


def test_fast_low_rank_falls_back():
    c = classify_fast(path_complex(2))
    assert c.path == "fast"
    assert c.category == "pcm" and c.rank == 1 and c.is_smooth_pcm


def test_empty_complex_report():
    c = classify_fast(SimplicialComplex([]))
    assert c.rank == -1
    assert c.is_surface and c.is_pcm and c.is_smooth_pcm
    assert c.category == "empty"


def test_classify_both_merges():
    c = classify_both(sphere(2))
    assert c.path == "both"
    assert any(k.startswith("fast.") for k in c.timings)
    assert any(k.startswith("recursive.") for k in c.timings)


def test_cross_check_agreement_and_mix(tmp_path):
    instances = [
        ("sphere 2", sphere(2)),
        ("disk 6", disk(6)),
        ("pinched sphere", pinched_sphere()),
        ("shared vertex", two_triangles_shared_vertex()),
    ]
    report = cross_check(instances, dump_dir=tmp_path)
    assert [r.name for r in report.rows] == [n for n, _ in instances]
    assert report.category_counts == {"neither": 2, "pcm": 1, "surface": 1}
    table = report.table()
    assert "sphere 2" in table and "speedup" in table


def test_cross_check_detects_disagreement(tmp_path, monkeypatch):
    # force a fake fast result to prove the failure path dumps and raises
    import posurf.classify as classify_mod

    real = classify_mod.classify_fast

    def broken(k):
        c = real(k)
        c.is_surface, c.is_pcm = c.is_pcm, c.is_surface
        return c

    monkeypatch.setattr(classify_mod, "classify_fast", broken)
    with pytest.raises(CrossCheckError) as err:
        classify_mod.cross_check([("sphere 2", sphere(2))], dump_dir=tmp_path)
    assert err.value.artifact is not None
    dumped = tmp_path / "crosscheck-sphere-2.facets"
    assert dumped.exists()
    assert "1 2 3" in dumped.read_text() or dumped.read_text().strip()


def test_normality_equivalence_directions(complexes, big_complexes):
    # forward: a recursively verified surface or PCM of rank >= 2 that is
    # pure is a normal pseudomanifold; backward: a normal pseudomanifold is
    # a surface or a PCM according to border emptiness
    for name, k in complexes + big_complexes:
        cls = classify_recursive(k)
        if cls.rank >= 2 and cls.category in ("surface", "pcm") and k.is_pure():
            assert k.is_normal_pseudomanifold(), name
        if cls.rank >= 1 and k.is_normal_pseudomanifold():
            expected = "surface" if cls.border_empty else "pcm"
            assert cls.category == expected, name


def test_random_pure_complex_deterministic():
    a = random_pure_complex(2, 8, 6, seed=13)
    b = random_pure_complex(2, 8, 6, seed=13)
    assert a == b
    c = random_pure_complex(2, 8, 6, seed=14)
    assert a.is_pure() and c.is_pure()


def test_random_pure_complex_bounds():
    with pytest.raises(DomainError):
        random_pure_complex(0, 8, 3)
    with pytest.raises(DomainError):
        random_pure_complex(2, 3, 3)
    with pytest.raises(DomainError):
        random_pure_complex(2, 8, 0)
