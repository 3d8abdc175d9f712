"""posurf: discrete surfaces, PCMs, and pseudomanifolds on finite posets.

The package represents finite posets by their covering relation, exposes
the closure/opening/neighborhood operator algebra, and implements the
recursive recognizers for discrete k-surfaces, n-PCMs (poset-based
connected manifolds) and their smooth variant, plus simplicial-complex
level pseudomanifold and normal pseudomanifold tests. A fast classifier
replaces the recursive definitions with the normal-pseudomanifold test on
simplicial inputs and is cross-validated against the by-definition path.
"""

from .border import (
    BorderDecomposition,
    PcmVerdict,
    border,
    check_condition_C,
    is_pcm,
    is_smooth_pcm,
)
from .classify import (
    Classification,
    CrossCheckReport,
    CrossCheckRow,
    classify_both,
    classify_fast,
    classify_recursive,
    cross_check,
)
from .errors import CrossCheckError, DomainError, ParseError, PosurfError
from .generators import (
    GeneratorSpec,
    annulus,
    disk,
    generate,
    generator_names,
    icosahedron,
    khalimsky_block,
    pinched_box,
    pinched_sphere,
    random_pure_complex,
    solid_simplex,
    sphere,
)
from .poset import (
    Poset,
    SuborderView,
    as_view,
    connected_components,
    from_hasse,
    is_separated_union,
    join,
    local_sets,
    rank,
    restrict,
    theta_view,
    to_hasse,
)
from .simplicial import SimplicialComplex, read_facets, simplicial_join, write_facets
from .surfaces import SurfaceVerdict, is_coherent, is_k_surface

__version__ = "0.1.0"

__all__ = [
    "BorderDecomposition",
    "Classification",
    "CrossCheckError",
    "CrossCheckReport",
    "CrossCheckRow",
    "DomainError",
    "GeneratorSpec",
    "ParseError",
    "PcmVerdict",
    "Poset",
    "PosurfError",
    "SimplicialComplex",
    "SuborderView",
    "SurfaceVerdict",
    "annulus",
    "as_view",
    "border",
    "check_condition_C",
    "classify_both",
    "classify_fast",
    "classify_recursive",
    "connected_components",
    "cross_check",
    "disk",
    "from_hasse",
    "generate",
    "generator_names",
    "icosahedron",
    "is_coherent",
    "is_k_surface",
    "is_pcm",
    "is_separated_union",
    "is_smooth_pcm",
    "join",
    "khalimsky_block",
    "local_sets",
    "pinched_box",
    "pinched_sphere",
    "rank",
    "random_pure_complex",
    "read_facets",
    "restrict",
    "simplicial_join",
    "solid_simplex",
    "sphere",
    "theta_view",
    "to_hasse",
    "write_facets",
]
