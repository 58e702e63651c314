"""Numerical laboratory for vector-valued Bergman-type reproducing-kernel spaces.

Concrete model regions (weighted disc, Gaussian plane, bidisc) carry component
spaces of square-summable sequences.  The package builds quadrature rules,
orthonormal coefficient bases, Toeplitz and translation operators, and the
compactness and localization diagnostics used by the batch CLI.

Importing the package loads no numpy: the computational submodules are
registered lazily and execute on first attribute access, and the names below
resolve through a module-level ``__getattr__`` (PEP 562).
This lets ``berglab --threads N`` set the BLAS thread variables before numpy
first loads.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "spaces": ("SpaceSpec", "bidisc_space", "disc_space", "fock_space",
               "involution", "kernel_eval", "kernel_norm", "metric",
               "normalized_kernel_eval", "normalized_pairing"),
    "quadrature": ("MatrixKernelSample", "QuadratureRule", "build_rule",
                   "discretized_norm", "rudin_forelli", "schur_test"),
    "coeffs": ("BasisSpec", "CoeffFunction", "kernel_coeff_vector",
               "random_coeff_function", "random_polynomial",
               "scalar_basis_matrix"),
    "operators": ("BallPart", "MatrixSymbol", "OperatorMatrix",
                  "ball_indicator_symbol", "constant_symbol",
                  "conjugate_operator", "identity_operator",
                  "poly_symbol", "pullback_symbol", "rank_one",
                  "rank_one_toeplitz_sum", "toeplitz_matrix",
                  "translation_certificate", "translation_matrix"),
    "analysis": ("axiom_checks", "berezin", "berezin_decay_profile",
                 "berezin_injectivity_probe", "essential_norm_estimate",
                 "hankel_rkt_check", "rkt_boundedness_check",
                 "rkt_product_check", "rkt_toeplitz_symbol_check"),
    "covering": ("Covering", "build_covering", "localization_error"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def _register_lazily(module: str) -> None:
    # The module object sits in sys.modules (and on the package) from the
    # start, as an eager import would leave it, so code that walks the loaded
    # berglab modules sees all of them; its body runs on first attribute access.
    name = f"{__name__}.{module}"
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    globals()[module] = mod
    spec.loader.exec_module(mod)


for _module in _EXPORTS:
    _register_lazily(_module)
del _module


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
