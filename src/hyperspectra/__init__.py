"""Adjacency spectra of non-uniform inhomogeneous random hypergraphs.

A model is a vertex count together with classes (size, probability); every
vertex subset of a class's size appears as a hyperedge independently with
that class's probability.  The package provides the closed-form statistics
of the centered, scaled adjacency matrix, exact samplers for the hypergraph
and for its Gaussian surrogate, spectral summaries against the predicted
semicircle law, and a brute-force oracle for models small enough to
enumerate.

Every public name of the library modules is exported here; each module's
``__all__`` is the only list of its names.
"""

from . import errors, gaussian, hypergraph, oracle, spectral, theory
from .errors import *  # noqa: F403
from .gaussian import *  # noqa: F403
from .hypergraph import *  # noqa: F403
from .oracle import *  # noqa: F403
from .spectral import *  # noqa: F403
from .theory import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *gaussian.__all__,
    *hypergraph.__all__,
    *oracle.__all__,
    *spectral.__all__,
    *theory.__all__,
    "__version__",
]
