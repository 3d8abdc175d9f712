"""The public API: each name exported once, from the one module that defines it."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import posurf
from posurf import classify, errors, generators, poset, simplicial, surfaces

SUBMODULES = (classify, errors, generators, poset, simplicial, surfaces)

PUBLIC = {
    "BorderDecomposition", "Classification", "CrossCheckError", "CrossCheckReport",
    "DomainError", "ParseError", "Poset", "PosurfError",
    "SimplicialComplex", "SuborderView", "Verdict", "annulus", "as_view", "border",
    "check_condition_C", "classify_both", "classify_fast", "classify_recursive",
    "connected_components", "cross_check", "disk", "from_hasse", "generate", "generator_names",
    "icosahedron", "is_coherent", "is_k_surface", "is_pcm", "is_separated_union",
    "is_smooth_pcm", "join", "khalimsky_block", "local_sets", "pinched_box", "pinched_sphere",
    "rank", "random_pure_complex", "read_facets", "restrict", "simplicial_join",
    "solid_simplex", "sphere", "theta_view", "to_hasse", "write_facets",
}  # fmt: skip


def test_each_public_name_is_exported_once():
    assert len(posurf.__all__) == len(set(posurf.__all__))
    assert set(posurf.__all__) == PUBLIC
    for name in ("Law", "law_of", "iter_bits", "NOT_HELD", "border_mask_of", "GeneratorSpec"):
        assert name not in posurf.__all__


def test_each_public_name_has_one_home():
    homes = Counter(name for module in SUBMODULES for name in module.__all__)
    assert set(homes) == PUBLIC and set(homes.values()) == {1}
    for module in SUBMODULES:
        for name in module.__all__:
            obj = getattr(posurf, name)
            assert obj is getattr(module, name)
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name
    assert importlib.util.find_spec("posurf.border") is None


def test_no_module_imports_another_modules_private_name():
    for path in Path(posurf.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (path.name, node.module, private)


def test_retired_api_is_gone():
    assert not hasattr(posurf.SuborderView, "restrict")
    assert not hasattr(posurf.SuborderView, "face_rank")
    assert not hasattr(posurf.SimplicialComplex, "face_id")
    assert not hasattr(posurf.sphere(1), "_face_ids")
    for name in ("SurfaceVerdict", "PcmVerdict", "NOT_SURFACE", "NOT_PCM", "_pcm_verdict"):
        assert not hasattr(surfaces, name), name
    assert not hasattr(posurf, "CrossCheckRow") and not hasattr(classify, "CrossCheckRow")
