"""posurf: discrete surfaces, PCMs, and pseudomanifolds on finite posets.

The package represents finite posets by their covering relation, exposes
the closure/opening/neighborhood operator algebra, and implements the
recursive recognizers for discrete k-surfaces, n-PCMs (poset-based
connected manifolds) and their smooth variant, plus simplicial-complex
level pseudomanifold and normal pseudomanifold tests. A fast classifier
replaces the recursive definitions with the normal-pseudomanifold test on
simplicial inputs and is cross-validated against the by-definition path.
"""

from . import classify, errors, generators, poset, simplicial, surfaces
from .classify import *
from .errors import *
from .generators import *
from .poset import *
from .simplicial import *
from .surfaces import *

__version__ = "0.1.0"

# each public name once, from the one submodule that defines it
__all__ = [n for m in (classify, errors, generators, poset, simplicial, surfaces) for n in m.__all__]
