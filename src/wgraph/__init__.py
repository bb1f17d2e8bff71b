"""Weighted multigraphs as operators: algebra, coverings, orbital spectra.

The core objects are finite weighted multigraphs with a reversal pairing
on their arcs.  Graph operations (scaling, scalar shift, adjoint,
composition) mirror the same operations on the associated matrices
exactly, which makes spectral constructions — deficiency graphs for
two-sided membership tests, covers that transport spectra, orbital graphs
of group actions — checkable at the graph level.
"""

from . import core, covering, errors, fileio, operator, orbital, spectra
from .core import *
from .covering import *
from .errors import *
from .fileio import *
from .operator import *
from .orbital import *
from .spectra import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *operator.__all__, *spectra.__all__, *covering.__all__,
           *orbital.__all__, *fileio.__all__, *errors.__all__, "__version__"]
