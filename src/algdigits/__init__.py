"""Exact digit systems over algebraic bases: backward-division
dynamics, periodic-point certification, rational-base digit sets and
carry automata, zero-word automata, and digit-cardinality
classification."""

from .base import AlgebraicBase, CardBounds, Classification, card_bounds, make_base
from .catalog import (F2Analysis, F2Verdict, FIndexReport, SweepRow,
                      all_conjugates_gt, classify_f_index, f2_analysis,
                      kovacs_sufficient, m1_obstruction, quadratic_cns,
                      sweep_quadratic)
from .digits import (BoundsReport, Cycle, DigitSet, ExpansionRecord,
                     HeightReduction, PeriodicSet, Terminated, Truncated,
                     as_digit_set, height_reduce, is_number_system, j_step,
                     orbit, orbit_bound, periodic_points, spans_ring,
                     validate_crs)
from .errors import (AlgdigitsError, DigitSetError, InvalidPolynomialError,
                     PolynomialSyntaxError, PrecisionError, ResourceCapError,
                     UnitCircleError, UnsupportedBaseError)
from .polynomials import IntPolynomial, divides_over_q, parse_polynomial
from .rational import (AdditionTransducer, RationalDigitSet, Regime,
                       digit_set_rational, expand_all, expand_int, transduce,
                       value_of, verify_digit_properties)
from .zero_automaton import (DEFAULT_MAX_STATES, MinHeightReport,
                             WordSearchResult, ZeroAutomaton,
                             build_zero_automaton, min_height)

__version__ = "0.1.0"

__all__ = [
    "AdditionTransducer", "AlgdigitsError", "AlgebraicBase", "BoundsReport",
    "CardBounds", "Classification", "Cycle", "DEFAULT_MAX_STATES",
    "DigitSet", "DigitSetError", "ExpansionRecord", "F2Analysis",
    "F2Verdict", "FIndexReport", "HeightReduction", "IntPolynomial",
    "InvalidPolynomialError", "MinHeightReport", "PeriodicSet",
    "PolynomialSyntaxError", "PrecisionError", "RationalDigitSet", "Regime",
    "ResourceCapError", "SweepRow", "Terminated", "Truncated",
    "UnitCircleError", "UnsupportedBaseError", "WordSearchResult",
    "ZeroAutomaton", "all_conjugates_gt", "as_digit_set",
    "build_zero_automaton", "card_bounds", "classify_f_index",
    "digit_set_rational", "divides_over_q", "expand_all", "expand_int",
    "f2_analysis", "height_reduce", "is_number_system", "j_step",
    "kovacs_sufficient", "m1_obstruction", "make_base", "min_height",
    "orbit", "orbit_bound", "parse_polynomial", "periodic_points",
    "quadratic_cns", "spans_ring", "sweep_quadratic",
    "transduce", "validate_crs", "value_of", "verify_digit_properties",
]
