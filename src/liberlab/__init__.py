"""Numerical workbench for the free entropy and free Fisher information
of a pair of projections, the matrix model behind them, and the flow
that interpolates between a coupled pair and a free one.

The package exports every name in its modules' ``__all__`` lists,
together with the two exception types of ``liberlab.errors``.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import densities, ensemble, entropy, fisher, grassmann, laws, liberation, potentials
from .densities import *  # noqa: F401,F403
from .ensemble import *  # noqa: F401,F403
from .entropy import *  # noqa: F401,F403
from .errors import NumericalError, ValidationError
from .fisher import *  # noqa: F401,F403
from .grassmann import *  # noqa: F401,F403
from .laws import *  # noqa: F401,F403
from .liberation import *  # noqa: F401,F403
from .potentials import *  # noqa: F401,F403

_MODULES = (densities, ensemble, entropy, fisher, grassmann, laws, liberation, potentials)
_NAMES = {"NumericalError", "ValidationError"}.union(*(m.__all__ for m in _MODULES))
__all__ = ["__version__", *sorted(_NAMES)]
