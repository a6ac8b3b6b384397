"""Finite-dimensional matrix *-algebra toolkit.

Subalgebras of M_n with their structure theory, states and quantum
operations on them, and decision procedures for the independence
hierarchy of commuting algebra pairs: product position, faithful
product states, joint extension of states and operations, and spatial
splits through an interpolating tensor factor.

The package re-exports the ``__all__`` of each public module, plus the
numerical ``Tolerances`` and their default; the instance format stays in
``staralg.instances`` (``staralg.instances.load(path)``).
"""

from . import algebra, certificates, channels, errors, independence, instances, sampling, states
from .algebra import *  # noqa: F401,F403
from .certificates import *  # noqa: F401,F403
from .channels import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .independence import *  # noqa: F401,F403
from .numerics import DEFAULT_TOL, Tolerances
from .sampling import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (errors, algebra, channels, states, independence, certificates, sampling)
__all__ = ["__version__", "Tolerances", "DEFAULT_TOL"] + [n for m in _MODULES for n in m.__all__]
