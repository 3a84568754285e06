"""Closed-form number-system criteria and the digit-cardinality
classifier.

For an algebraic base alpha with minimal polynomial M, the minimal
number of digits needed to write every element of Z[alpha] as a
nonnegative-power digit polynomial is pinned down by a handful of
criteria: residue counting from below, the expanding-integer window
from above, the |M(1)| = 1 obstruction, the all-conjugates-beyond-2
criterion, exact values for rational bases, and exact value 2 for roots
of unity."""

from enum import Enum
from fractions import Fraction

from .base import Classification, card_bounds, make_base
from .digits import is_number_system, spans_ring
from .errors import (DEFAULT_CANDIDATE_CAP, InvalidPolynomialError,
                     PrecisionError, ResourceCapError, UnsupportedBaseError)
from .polynomials import IntPolynomial, parse_polynomial
from .record import Record


def quadratic_cns(a1: int, a2: int) -> bool:
    """Whether x^2 + a1*x + a2 with digits {0, ..., a2-1} is a number
    system: exactly when a2 >= 2 and -1 <= a1 <= a2."""
    return a2 >= 2 and -1 <= a1 <= a2


def kovacs_sufficient(poly) -> bool:
    """Sufficient condition for x^d + a_1 x^{d-1} + ... + a_d with
    digits {0, ..., a_d - 1} to be a number system: d >= 2 and
    1 <= a_1 <= a_2 <= ... <= a_d with a_d >= 2."""
    poly = parse_polynomial(poly)
    if poly.is_zero or not poly.is_monic:
        raise UnsupportedBaseError("the chain condition applies to monic "
                                   "polynomials only")
    d = poly.degree
    if d < 2:
        return False
    chain = [poly.coeffs[d - i] for i in range(1, d + 1)]
    if chain[0] < 1 or chain[-1] < 2:
        return False
    return all(x <= y for x, y in zip(chain, chain[1:]))


def m1_obstruction(base) -> bool:
    """|M(1)| = 1.  When it holds, no digit set of the minimal size
    |M(0)| can reach every ring element: backward division then has a
    nonzero fixed point."""
    base = make_base(base)
    return abs(base.min_poly(1)) == 1


def all_conjugates_gt(base, threshold) -> bool:
    """Certified strict comparison of every conjugate modulus against
    the threshold.  The intervals are refined until each one clears or
    fails (a degree-one modulus is exact and decides at once), and a
    modulus that may equal the threshold exactly raises PrecisionError."""
    base = make_base(base)
    t = Fraction(threshold)
    for _ in range(16):
        moduli = base.conjugate_moduli()
        if all(lo > t for lo, _hi in moduli):
            return True
        if any(hi <= t for _lo, hi in moduli):
            return False
        base.refine()
    raise PrecisionError(
        f"a conjugate modulus of {base.min_poly} cannot be separated from "
        f"{t}; it may equal it exactly")


class F2Verdict(str, Enum):
    IN_F2 = "InF2"
    POSSIBLY_IN_F2 = "PossiblyInF2"
    EXCLUDED_BY_M1 = "ExcludedByM1"
    EXCLUDED_BY_NECESSARY = "ExcludedByNecessaryCondition"


class F2Analysis(Record):
    __slots__ = ("verdict", "reason", "witness_digits")
    _defaults = {"witness_digits": None}


def f2_analysis(base) -> F2Analysis:
    """Can two digits suffice?  Membership needs all conjugates of
    modulus 1 or an expanding integer with |M(0)| = 2; roots of unity
    and the rationals -2, -1, 1 are in; |M(1)| = 1 excludes when
    |M(0)| = 2."""
    base = make_base(base)
    m0 = base.residue_modulus
    if base.classification is Classification.ROOT_OF_UNITY:
        return F2Analysis(F2Verdict.IN_F2,
                          "roots of unity admit the digit set {0, 1}",
                          (0, 1))
    if base.degree == 1:
        if base.alpha_fraction == -2:
            return F2Analysis(F2Verdict.IN_F2,
                              "-2 is the only non-unit rational with a "
                              "two-element digit set", (0, 1))
        if m0 == 2 and m1_obstruction(base):
            return F2Analysis(F2Verdict.EXCLUDED_BY_M1,
                              "|M(1)| = 1 rules out digit sets of size "
                              "|M(0)| = 2")
        return F2Analysis(F2Verdict.EXCLUDED_BY_NECESSARY,
                          f"a rational base a/b needs at least |M(0)| = "
                          f"{m0} digits")
    if m0 > 2:
        return F2Analysis(F2Verdict.EXCLUDED_BY_NECESSARY,
                          f"every digit set contains a complete residue "
                          f"system of {m0} > 2 elements")
    if base.classification in (Classification.EXPANDING_INTEGER,
                               Classification.UNIMODULAR):
        if m1_obstruction(base):
            return F2Analysis(F2Verdict.EXCLUDED_BY_M1,
                              "|M(1)| = 1 rules out digit sets of size "
                              "|M(0)| = 2")
        return F2Analysis(F2Verdict.POSSIBLY_IN_F2,
                          "necessary conditions hold (|M(0)| = 2 and the "
                          "conjugates are all beyond or all on the unit "
                          "circle); no obstruction applies")
    return F2Analysis(F2Verdict.EXCLUDED_BY_NECESSARY,
                      "two digits require all conjugates of modulus 1 or "
                      "an expanding algebraic integer")


class FIndexReport(Record):
    __slots__ = ("lower", "upper", "exact", "certificates")

    def to_json_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "certificates": [list(c) for c in self.certificates],
        }


def _deep_expansion(base, m0: int) -> tuple:
    """(exact, certificate) of the deep-expansion criterion on a base
    whose conjugate moduli all exceed 2.  exact is |M(0)| only where the
    periodic points confirm that the canonical digits span Z[alpha], and
    None otherwise, also when that scan hits a cap."""
    canonical = "the canonical digits {0, ..., |M(0)|-1}"
    try:
        spans = spans_ring(base)
    except (ResourceCapError, PrecisionError) as exc:
        return None, ("deep-expansion", "undecided",
                      f"all conjugate moduli exceed 2, but the check that "
                      f"{canonical} span Z[alpha] stopped: {exc}")
    if spans:
        return m0, ("deep-expansion", f"Card(S) = {m0}",
                    f"all conjugate moduli exceed 2, and the periodic points "
                    f"of {canonical}, enumerated exactly, confirm that they "
                    f"span Z[alpha]")
    return None, ("deep-expansion", "not applied",
                  f"all conjugate moduli exceed 2, but {canonical} have a "
                  f"nonzero periodic point, so they do not span Z[alpha]")


def classify_f_index(base) -> FIndexReport:
    """Bounds, and where a criterion applies the exact value, of the
    minimal digit-set cardinality for the base.  Certificates list each
    applied criterion as (name, verdict, justification)."""
    base = make_base(base)
    bounds = card_bounds(base)
    m0 = base.residue_modulus
    lower: int = bounds.lower
    upper: int | None = bounds.upper
    exact: int | None = None
    certs = [(
        "residue-cardinality",
        f"Card(S) >= {lower}",
        "a valid digit set contains a complete residue system modulo alpha "
        "and never has fewer than two elements",
    )]
    if upper is not None:
        certs.append((
            "expanding-integer-window",
            f"Card(S) <= {upper}",
            "an expanding algebraic integer admits the symmetric digit set "
            "{0, +-1, ..., +-(|M(0)|-1)}",
        ))
    if base.classification is Classification.ROOT_OF_UNITY:
        exact = 2
        certs.append((
            "root-of-unity",
            "Card(S) = 2",
            "powers of a root of unity cycle, so {0, 1} reaches every "
            "ring element",
        ))
    if m1_obstruction(base):
        certs.append((
            "unit-evaluation-obstruction",
            f"no digit set of size {m0} works",
            "|M(1)| = 1 yields a nonzero fixed point of backward division "
            "for every digit set of minimal size",
        ))
        if lower == m0 and m0 >= 2:
            lower = m0 + 1
    elif 1 < (k := abs(base.min_poly(1))) < m0 and m0 % k == 0:
        # -k/(alpha - 1) = +-Q(alpha) for Q = (M - M(1))/(x - 1)
        sign = 1 if base.min_poly(1) > 0 else -1
        point = IntPolynomial([sign * sum(base.min_poly.coeffs[i + 1:])
                               for i in range(base.degree)])
        certs.append((
            "fixed-point-obstruction", f"no digit set of size {m0} works",
            f"|M(1)| = {k} divides |M(0)|, so the integer digit d of class "
            f"{k} mod alpha is a multiple of {k}, and -d/(alpha - 1) is a "
            f"nonzero fixed point of backward division: "
            f"{str(point).replace('x', 'alpha')} for d = {k}"))
        lower = m0 + 1
    if (base.classification is Classification.EXPANDING_INTEGER
            and base.degree >= 2):
        try:
            deep = all_conjugates_gt(base, 2)
        except PrecisionError:
            deep = False
            certs.append((
                "deep-expansion",
                "undecided",
                "a conjugate modulus may equal 2 exactly; the criterion "
                "is not applied",
            ))
        if deep:
            exact, cert = _deep_expansion(base, m0)
            certs.append(cert)
    if base.degree == 1 and base.classification in (
            Classification.EXPANDING_INTEGER, Classification.RATIONAL):
        a, b = base.rational_view
        if a == b + 1:
            exact = 2 * a - 1
            certs.append((
                "rational-degenerate",
                f"Card(S) = {2 * a - 1}",
                "for a/b with a = b + 1 every residue system of size a has "
                "a nonzero fixed point, and the symmetric set of size "
                "2a - 1 reaches every integer",
            ))
        else:
            exact = a
            certs.append((
                "rational-generic",
                f"Card(S) = {a}",
                "for a/b with a != b + 1 an integer digit set of size a "
                "with finite expansions exists",
            ))
    if base.classification is Classification.UNIMODULAR:
        certs.append((
            "nonintegral-digits",
            "any minimal-size digit set leaves Z",
            "when all conjugates have modulus 1 and the digit count equals "
            "|M(0)|, the digits cannot all be rational integers",
        ))
    if exact is None and lower == upper:
        exact = lower
        certs.append((
            "bounds-meet",
            f"Card(S) = {lower}",
            f"after the criteria above, Card(S) >= {lower} and "
            f"Card(S) <= {upper}",
        ))
    if exact is not None:
        if lower > exact:
            raise AssertionError("criteria conflict: lower bound exceeds "
                                 "an exact value")
        upper = exact
    return FIndexReport(lower, upper, exact, tuple(certs))


class SweepRow(Record):
    __slots__ = ("a1", "a2", "criterion", "brute_force")

    @property
    def agree(self) -> bool:
        return self.criterion == self.brute_force


def sweep_quadratic(a2_max: int, *,
                    candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> list:
    """Compare the quadratic criterion against periodic-point brute
    force over every irreducible expanding x^2 + a1*x + a2 with
    2 <= a2 <= a2_max and -3 <= a1 <= a2 + 2."""
    rows = []
    for a2 in range(2, a2_max + 1):
        for a1 in range(-3, a2 + 3):
            poly = IntPolynomial((a2, a1, 1))
            try:
                base = make_base(poly)
            except InvalidPolynomialError:
                continue
            if base.classification is not Classification.EXPANDING_INTEGER:
                continue
            verdict = is_number_system(base, candidate_cap=candidate_cap)
            rows.append(SweepRow(a1, a2, quadratic_cns(a1, a2), verdict))
    return rows
