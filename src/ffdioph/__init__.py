"""ffdioph: exact Diophantine approximation experiments over F_q((1/X)).

Subpackages mirror the pipeline: ffield (exact arithmetic and Haar-measure
grids), ultracalc (difference quotients and skew gradients), cells (the
cell engine: labelled sweeps and packed center evaluation), goodfn
(sublevel-set measures and (C, alpha)-goodness), dioph
(approximability measures), latdyn (lattice encoding and reduction), ubiq
(resonant-set witnesses and divergence sums), xcli (experiment driver and
command line).
"""

from .errors import FieldMismatchError, PrecisionError
from .ffield import (
    AbsValue,
    Ball,
    FieldSpec,
    GridSpec,
    Laurent,
    Poly,
    enumerate_shell,
    parse_laurent,
    parse_poly,
    shell_count,
)

__all__ = [
    "AbsValue",
    "Ball",
    "FieldSpec",
    "FieldMismatchError",
    "GridSpec",
    "Laurent",
    "Poly",
    "PrecisionError",
    "enumerate_shell",
    "parse_laurent",
    "parse_poly",
    "shell_count",
]

__version__ = "0.1.0"
