"""Counting functions for similarity sublattices of the 4D hypercubic lattices
and similarity submodules of the Hurwitz, icosian, and cubian quaternion
orders, with an independent brute-force oracle and numeric asymptotics checks.
"""

import os as _os
import sys as _sys

# Only the census's small float64 matmuls call BLAS, and one thread serves
# them, but OpenBLAS starts a worker thread for each core but one when NumPy
# loads, and each spins for about 0.1 s of CPU before it sleeps.  OpenBLAS reads its thread
# count once, at load, so the variable is set only around the first import
# of NumPy; a user who set either variable keeps their own count.
if "numpy" not in _sys.modules and not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .asymptotics import (estimate_constant, l_value_at_one, target_constant,
                          zeta_special_value_check)
from .counting import (CrossCheckFailure, Target, coeff, g,
                       series, ssm_count, summatory)
from .dirichlet import (CoeffSeq, coeff_seq, convolve, dilate,
                        dirichlet_inverse, from_multiplicative,
                        is_multiplicative, ones, partial_sum, shift)
from .lattice import LatticeKey
from .oracle import (CUBIAN, D4STAR, ICOSIAN, Z4, count_ssl_bruteforce,
                     enumerate_ssm_cubian, enumerate_ssm_icosian, is_similar_sublattice)
from .orders import Order, OrderElement, element, module_lattice
from .quadfield import QuadInt, Ring, is_representable_index
from .quat import Quat

__all__ = [
    "CUBIAN", "CoeffSeq", "CrossCheckFailure", "D4STAR",
    "ICOSIAN", "LatticeKey", "Order", "OrderElement", "Quat", "QuadInt",
    "Ring", "Target", "Z4", "coeff", "coeff_seq", "convolve",
    "count_ssl_bruteforce", "dilate", "dirichlet_inverse",
    "element", "enumerate_ssm_cubian", "enumerate_ssm_icosian",
    "estimate_constant", "from_multiplicative", "g", "is_multiplicative",
    "is_representable_index", "is_similar_sublattice", "l_value_at_one", "module_lattice",
    "ones", "partial_sum", "series", "shift",
    "ssm_count", "summatory", "target_constant", "zeta_special_value_check",
]
