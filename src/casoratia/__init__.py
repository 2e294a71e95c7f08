"""casoratia: verification engine for multi-indexed cH/W/AW orthogonal polynomials."""

from .families import FAMILIES, ParamSet, draw_params, params_from_values
from .miop import IndexSet, build_miop, ell_degree, shifted_params
from .numkernel import DEFAULT_BITS, pochhammer, q_pochhammer

__version__ = "0.4.0"

__all__ = [
    "FAMILIES", "ParamSet", "draw_params", "params_from_values",
    "IndexSet", "build_miop", "ell_degree", "shifted_params",
    "DEFAULT_BITS", "pochhammer", "q_pochhammer",
    "__version__",
]
