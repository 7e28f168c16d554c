"""Desk-scale simulator of a Sagnac-loop polarization-independent
electro-optic phase shifter: Jones-calculus propagation through the
non-reciprocal loop, the MOSFET/RC driver transient, and the Mach-Zehnder
switch bench built around them.

The package re-exports each module's ``__all__``, which is where every
public name is declared."""

from .bench import *
from .circuit import *
from .config import *
from .elements import *
from .loop import *
from .polarization import *

__version__ = "0.1.0"
