"""Shell structure of the 3-dimensional deformed harmonic oscillator.

The deformed oscillator splits the familiar equidistant shells through a
single parameter tau, reordering levels so that large gaps reproduce the
magic numbers observed in alkali metal clusters.  This package exposes
the q-bracket primitive, the spectrum, level-scheme and magic-number
machinery, bundled observational datasets, and a grid-search fit of tau.
"""

from .qmath import *
from .spectrum import *
from .shells import *
from .empirics import *

__version__ = "0.1.0"
