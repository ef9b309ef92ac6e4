"""Low-bit floating-point quantization toolkit.

Micro-FP codecs, dual-format quantization with offline grid search,
group-wise Hadamard rotation with a learnable per-channel smoothing
vector, and a bit-exact software model of a LUT-based FP4
multiply-accumulate datapath.  The package re-exports its core modules'
public names (``fpq.quantize`` is the function: it comes after the modules
that import it); ``fpq.synth`` (scipy) and ``fpq.cli`` (click) load on import.
"""

from .formats import *  # noqa: F401,F403
from .galt import *  # noqa: F401,F403
from .hadamard import *  # noqa: F401,F403
from .hwemu import *  # noqa: F401,F403
from .quantize import *  # noqa: F401,F403
from .tensorfile import *  # noqa: F401,F403

__version__ = "0.1.0"
