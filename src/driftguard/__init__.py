"""driftguard: keep a symmetric random walk inside a convex box by
discarding steps online, with closed-form bound calculators and exact 1-d
optimality oracles for checking the discard counts.

The package exports each module's ``__all__``, and nothing else but
``__version__``."""

from . import bodies, bounds, harness, metropolis, oracle1d
from .bodies import *
from .bounds import *
from .harness import *
from .metropolis import *
from .oracle1d import *

__version__ = "0.1.0"

__all__ = [
    *bodies.__all__, *metropolis.__all__, *bounds.__all__, *oracle1d.__all__, *harness.__all__,
    "__version__",
]
