"""Link-rate and RF exposure calculations for on-body wearable radios.

Models a single wearable transmitter near skin: free-space link
budget and Shannon rate on one side, incident power density and
specific absorption rate on the other, plus a solver for the
minimum separation distance that satisfies a regulatory SAR limit.
The package re-exports every name in each module's ``__all__``.
"""

from . import antenna, compliance, exposure, link, scenario
from .antenna import *
from .compliance import *
from .exposure import *
from .link import *
from .scenario import *

__version__ = "0.1.0"

__all__ = [*antenna.__all__, *compliance.__all__, *exposure.__all__, *link.__all__,
           *scenario.__all__, "__version__"]
