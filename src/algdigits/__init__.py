"""Exact digit systems over algebraic bases: backward-division
dynamics, periodic-point certification, rational-base digit sets and
carry automata, zero-word automata, and digit-cardinality
classification.

Every submodule except ``cli`` is registered lazily: its module object
sits in ``sys.modules`` and on the package from the start, and its code
is compiled on first attribute access.  A CLI call therefore compiles
only the layers its subcommand runs.  The public names below are served
from their modules on first use.  On Python 3.11 a lazy load is not
thread-safe, so a threaded program should import the layers it uses
(``import algdigits.digits`` loads one) before it starts its threads.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# Submodule -> the public names the package serves from it.
_LAYERS = {
    "base": ("AlgebraicBase", "CardBounds", "Classification", "card_bounds",
             "make_base"),
    "catalog": ("F2Analysis", "F2Verdict", "FIndexReport", "SweepRow",
                "all_conjugates_gt", "classify_f_index", "f2_analysis",
                "kovacs_sufficient", "m1_obstruction", "quadratic_cns",
                "sweep_quadratic"),
    "digits": ("BoundsReport", "Cycle", "DigitSet", "ExpansionRecord",
               "HeightReduction", "PeriodicSet", "Terminated", "Truncated",
               "as_digit_set", "height_reduce", "is_number_system", "j_step",
               "orbit", "orbit_bound", "periodic_points", "spans_ring",
               "validate_crs"),
    "errors": ("AlgdigitsError", "DEFAULT_MAX_STATES", "DigitSetError",
               "InvalidPolynomialError", "PolynomialSyntaxError",
               "PrecisionError", "ResourceCapError", "UnitCircleError",
               "UnsupportedBaseError"),
    "factoring": (),
    "intervals": (),
    "jsonio": (),
    "polynomials": ("IntPolynomial", "divides_over_q", "parse_polynomial"),
    "rational": ("AdditionTransducer", "RationalDigitSet", "Regime",
                 "digit_set_rational", "expand_all", "expand_int",
                 "transduce", "value_of", "verify_digit_properties"),
    "record": (),
    "roots": (),
    "zero_automaton": ("MinHeightReport", "WordSearchResult", "ZeroAutomaton",
                       "build_zero_automaton", "min_height"),
}
_OWNER = {name: layer for layer, names in _LAYERS.items() for name in names}
__all__ = sorted(_OWNER)


def _register(layer: str) -> None:
    """Put a lazily loaded module for the submodule into sys.modules and
    onto the package (the importlib "Implementing lazy imports" recipe)."""
    spec = find_spec(f"{__name__}.{layer}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[layer] = module


for _layer in _LAYERS:
    _register(_layer)
del _layer


def __getattr__(name: str):
    layer = _OWNER.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
