"""Certified edge-slide transformations of connected simple graphs.

Each library module's ``__all__`` is the one list of its public names;
the package exports their union.  The list is read before the star
imports, because ``from .regularize import *`` rebinds ``regularize``
here from the module to its function.
"""

from . import euler, graph, moves, oracle, prescribe, regularize, slides

__all__ = [
    name
    for module in (graph, moves, slides, prescribe, regularize, euler, oracle)
    for name in module.__all__
]

from .graph import *  # noqa: E402,F403
from .moves import *  # noqa: E402,F403
from .slides import *  # noqa: E402,F403
from .prescribe import *  # noqa: E402,F403
from .regularize import *  # noqa: E402,F403
from .euler import *  # noqa: E402,F403
from .oracle import *  # noqa: E402,F403

__version__ = "0.1.0"
