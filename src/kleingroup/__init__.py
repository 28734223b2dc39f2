"""Exact computations in and around the Klein bottle group.

The package covers the group law and its affine picture, the lattice of
infinite cyclic subgroups with commensurability data, the actions on
the plane and on the space of affine lines, isotropy and fixed-set
classification, the symbolic pushout model, and an integer homology
engine; the join model enters only through its homology table.

Each library module's ``__all__`` is the one list of its public names;
the package re-exports all of them.
"""

from . import abelian, core, homology, isotropy, models, plane, simplicial, snf, subgroups, verify
from .abelian import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .homology import *  # noqa: F401,F403
from .isotropy import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .plane import *  # noqa: F401,F403
from .simplicial import *  # noqa: F401,F403
from .snf import *  # noqa: F401,F403
from .subgroups import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

_LIBRARY = (abelian, core, homology, isotropy, models, plane, simplicial, snf, subgroups, verify)
__all__ = [name for module in _LIBRARY for name in module.__all__]
