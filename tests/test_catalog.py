"""Cardinality bounds, membership criteria, and the quadratic sweep."""

import itertools
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from algdigits import (
    F2Verdict,
    InvalidPolynomialError,
    PrecisionError,
    UnsupportedBaseError,
    all_conjugates_gt,
    card_bounds,
    classify_f_index,
    f2_analysis,
    kovacs_sufficient,
    m1_obstruction,
    make_base,
    periodic_points,
    quadratic_cns,
    spans_ring,
    sweep_quadratic,
    validate_crs,
)
from algdigits.base import Classification
from algdigits.polynomials import IntPolynomial


class TestQuadraticCriterion:
    def test_table(self):
        assert quadratic_cns(-1, 2)
        assert quadratic_cns(0, 2)
        assert quadratic_cns(2, 2)
        assert quadratic_cns(3, 3)
        assert not quadratic_cns(3, 2)
        assert not quadratic_cns(-2, 3)
        assert not quadratic_cns(0, 1)
        assert not quadratic_cns(-2, 2)


class TestChainCriterion:
    def test_holds(self):
        assert kovacs_sufficient("x^3 + x^2 + x + 2")
        assert kovacs_sufficient("x^2 + 2x + 2")
        assert kovacs_sufficient("x^4 + x^3 + 2x^2 + 3x + 3")

    def test_fails(self):
        assert not kovacs_sufficient("x^2 + 3x + 2")   # chain decreases
        assert not kovacs_sufficient("x^2 + 2x + 1")   # a_d < 2
        assert not kovacs_sufficient("x^2 + 2")        # a_1 = 0
        assert not kovacs_sufficient("x - 2")          # degree 1

    def test_non_monic(self):
        with pytest.raises(UnsupportedBaseError):
            kovacs_sufficient("2x^2 + 2x + 2")


class TestUnitEvaluation:
    def test_obstruction(self):
        assert m1_obstruction(make_base("x - 2"))
        assert m1_obstruction(make_base("x^2 - 2"))
        assert m1_obstruction(make_base("2x^2 - 3x + 2"))
        assert not m1_obstruction(make_base("x^2 + 2x + 2"))
        assert not m1_obstruction(make_base("x + 2"))


class TestConjugateComparison:
    def test_linear_exact(self):
        base = make_base("x - 2")
        assert all_conjugates_gt(base, 1)
        assert not all_conjugates_gt(base, 2)
        assert all_conjugates_gt(base, "3/2")  # Fraction-parseable thresholds

    def test_quadratic(self):
        assert all_conjugates_gt(make_base("x^2 + 6"), 2)
        assert not all_conjugates_gt(make_base("x^2 + 2"), 2)

    def test_exact_boundary_resolves(self):
        # both moduli equal 2 exactly and the enclosures collapse
        assert not all_conjugates_gt(make_base("x^2 + 4"), 2)

    def test_irrational_boundary_raises(self):
        # moduli equal 2 exactly but the enclosures never collapse
        with pytest.raises(PrecisionError):
            all_conjugates_gt(make_base("x^2 + x + 4"), 2)


CLASSIFY_CASES = [
    ("x - 2", 3, 3, 3),
    ([-3, 2], 4, 5, 5),
    ("x - 5", 5, 5, 5),
    ("x + 2", 2, 2, 2),
    ("2x^2 - 3x + 2", 3, None, None),
    ("x^2 + 2x + 2", 2, 3, None),
    ("x^2 + x + 1", 2, 2, 2),
    ("x^2 + 6", 6, 6, 6),
    ("x^2 - 2", 3, 3, 3),
    ("x^2 + x + 4", 4, 7, None),
    # Every conjugate modulus exceeds 2 on these six, and exact = |M(0)|
    # only where the canonical digits span the ring.  On x^2 - 4x + 6 the
    # fixed-point obstruction also lifts the lower bound.
    ("x^2 - 4x + 6", 7, 11, None),
    ("x^2 - 5", 5, 9, None),
    ("x^2 - 3x + 7", 7, 13, None),
    ("x^2 + x + 7", 7, 7, 7),
    ("x^2 + 3x + 5", 5, 5, 5),
    # |M(1)| divides |M(0)|: no digit set of size |M(0)| works
    ("x^2 + 3x - 6", 7, 11, None),
    ("x^2 - 5x + 8", 9, 15, None),
    ("x^2 - 6x + 10", 11, 19, None),
]


class TestClassify:
    @pytest.mark.parametrize("poly,lower,upper,exact", CLASSIFY_CASES)
    def test_bounds(self, poly, lower, upper, exact):
        report = classify_f_index(make_base(poly))
        assert report.lower == lower
        assert report.upper == upper
        assert report.exact == exact

    def test_certificates(self):
        report = classify_f_index(make_base("x - 2"))
        names = [c[0] for c in report.certificates]
        assert names[0] == "residue-cardinality"
        assert "unit-evaluation-obstruction" in names
        assert "rational-degenerate" in names
        for cert in report.certificates:
            assert len(cert) == 3
            assert all(isinstance(part, str) for part in cert)

    # Both moduli of x^2 + x + 4 equal 2, and its roots are not dyadic,
    # so the criterion is neither met nor refuted.  On x^2 + 10000019 the
    # canonical digit set is past its cap, so the check cannot run.
    @pytest.mark.parametrize("poly, verdict", [
        ("x^2 + 6", "Card(S) = 6"), ("x^2 + x + 7", "Card(S) = 7"),
        ("x^2 + 3x + 5", "Card(S) = 5"), ("x^2 + x + 4", "undecided"),
        ("x^2 - 4x + 6", "not applied"), ("x^2 - 5", "not applied"),
        ("x^2 - 3x + 7", "not applied"), ("x^2 + 10000019", "undecided")])
    def test_deep_expansion_certificate(self, poly, verdict):
        report = classify_f_index(make_base(poly))
        certs = [c for c in report.certificates if c[0] == "deep-expansion"]
        assert [c[1] for c in certs] == [verdict]
        if verdict.startswith("Card"):
            assert "periodic points" in certs[0][2]
            assert "confirm that they span Z[alpha]" in certs[0][2]

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(a1=st.integers(-12, 12), a2=st.integers(-12, 12))
    def test_deep_expansion_exact_only_where_canonical_digits_span(self, a1,
                                                                   a2):
        try:
            base = make_base([a2, a1, 1])
        except ValueError:
            assume(False)
        assume(base.classification is Classification.EXPANDING_INTEGER)
        try:
            deep = all_conjugates_gt(base, 2)
        except PrecisionError:
            deep = False
        assume(deep)
        report = classify_f_index(base)
        assert (report.exact is not None) == spans_ring(base)

    def test_bounds_meet_certificate(self):
        # x^2 - 2: the |M(1)| = 1 obstruction lifts the lower bound to
        # the window's upper bound 3; x^2 + 6 is exact by deep expansion
        names = [c[0] for c in
                 classify_f_index(make_base("x^2 - 2")).certificates]
        assert names[-2:] == ["unit-evaluation-obstruction", "bounds-meet"]
        names = [c[0] for c in
                 classify_f_index(make_base("x^2 + 6")).certificates]
        assert "bounds-meet" not in names

    def test_unimodular_certificate(self):
        report = classify_f_index(make_base("2x^2 - 3x + 2"))
        assert any(c[0] == "nonintegral-digits" for c in report.certificates)

    def test_json_round(self):
        payload = classify_f_index(make_base("x + 2")).to_json_dict()
        assert payload["lower"] == payload["upper"] == payload["exact"] == 2
        assert isinstance(payload["certificates"], list)


def _fixed_point(a1: int, a2: int, d: int):
    """The p = u + v*alpha of Z[alpha] with (alpha - 1) p = -d, over
    alpha^2 = -a1*alpha - a2, or None when no such p exists:
    (alpha - 1)(u + v*alpha) = -(u + a2*v) + (u - (1 + a1) v) alpha."""
    v, rest = divmod(d, 1 + a1 + a2)
    return None if rest else ((1 + a1) * v, v)


class TestFixedPointObstruction:
    """When 1 < |M(1)| < |M(0)| = m and |M(1)| divides m, the integer
    digit of class |M(1)| in any m-digit set is a multiple of M(1), so
    -d/(alpha - 1) is a nonzero fixed point of backward division and
    lower = m + 1.  Checked by brute force on every expanding monic
    quadratic x^2 + a1*x + a2 with a1, a2 in [-8, 8]."""

    def test_expanding_monic_quadratics(self):
        rng = random.Random(33)
        fired = []
        for a1, a2 in itertools.product(range(-8, 9), repeat=2):
            try:
                base = make_base([a2, a1, 1])
            except ValueError:
                continue
            if base.classification is not Classification.EXPANDING_INTEGER:
                continue
            m, k = abs(a2), abs(1 + a1 + a2)
            report = classify_f_index(base)
            certs = {c[0]: c for c in report.certificates}
            if not (1 < k < m and m % k == 0):
                assert "fixed-point-obstruction" not in certs
                # the lower bound of residue counting and |M(1)| = 1
                assert report.lower == (m + 1 if k == 1 else max(2, m))
                continue
            fired.append((a1, a2))
            assert report.lower == m + 1
            assert report.exact is None or report.exact > m
            point = str(IntPolynomial(_fixed_point(a1, a2, k)))
            assert certs["fixed-point-obstruction"][2].endswith(
                f"{point.replace('x', 'alpha')} for d = {k}")
            systems = [range(m)] + [
                [r + m * rng.randrange(-1, 2) for r in range(m)]
                for _ in range(8)]
            for digits in systems:
                ds = validate_crs(base, digits)
                d = ds.digits[k][0]  # the integer digit of class k
                p = _fixed_point(a1, a2, d)
                assert p is not None and p != (0, 0)
                assert ds.step(p) == (ds.digits[k], p)
                assert p in periodic_points(base, ds).elements
        assert len(fired) == 9
        assert {(-4, 6), (-5, 8), (3, -6)} <= set(fired)


F2_CASES = [
    ("x + 1", F2Verdict.IN_F2),
    ("x^2 + x + 1", F2Verdict.IN_F2),
    ("x + 2", F2Verdict.IN_F2),
    ("x - 2", F2Verdict.EXCLUDED_BY_M1),
    ("x - 3", F2Verdict.EXCLUDED_BY_NECESSARY),
    ([-3, 2], F2Verdict.EXCLUDED_BY_NECESSARY),
    ("x^2 - 2", F2Verdict.EXCLUDED_BY_M1),
    ("2x^2 - 3x + 2", F2Verdict.EXCLUDED_BY_M1),
    ("2x^2 + x + 2", F2Verdict.POSSIBLY_IN_F2),
    ("x^3 + 2", F2Verdict.POSSIBLY_IN_F2),
    ("x^2 + 3", F2Verdict.EXCLUDED_BY_NECESSARY),
    ("x^2 - x - 1", F2Verdict.EXCLUDED_BY_NECESSARY),
]


class TestF2:
    @pytest.mark.parametrize("poly,verdict", F2_CASES)
    def test_verdicts(self, poly, verdict):
        analysis = f2_analysis(make_base(poly))
        assert analysis.verdict is verdict
        assert analysis.reason

    def test_witness_digits(self):
        analysis = f2_analysis(make_base("x + 2"))
        assert analysis.witness_digits == (0, 1)
        assert f2_analysis(make_base("x - 2")).witness_digits is None

    def test_value_is_string(self):
        assert f2_analysis(make_base("x + 1")).verdict.value == "InF2"

    def test_agrees_with_classify(self):
        """Over every base of degree <= 3 with coefficients in [-4, 4] and
        leading coefficient 1 or 2: InF2 exactly when classify gives
        exact 2, an exclusion exactly when its lower bound exceeds 2, and
        height reduction exactly off Mixed and where card_bounds holds."""
        verdicts = set()
        for degree, lead in itertools.product((1, 2, 3), (1, 2)):
            for low in itertools.product(range(-4, 5), repeat=degree):
                try:
                    base = make_base([*low, lead])
                except InvalidPolynomialError:
                    continue
                reducing = base.supports_height_reduction
                assert reducing == (base.classification
                                    is not Classification.MIXED), low
                try:
                    report = classify_f_index(base)
                except UnsupportedBaseError:
                    with pytest.raises(UnsupportedBaseError):
                        card_bounds(base)
                    assert not reducing, low
                    continue
                assert reducing, low
                card_bounds(base)
                verdict = f2_analysis(base).verdict
                verdicts.add(verdict)
                assert (verdict is F2Verdict.IN_F2) == (report.exact == 2), low
                assert verdict.value.startswith("Excluded") == (
                    report.lower > 2), (low, lead, verdict, report.lower)
        assert verdicts == set(F2Verdict)


class TestSweep:
    def test_small_sweep(self):
        rows = sweep_quadratic(3)
        assert len(rows) == 12
        assert all(row.agree for row in rows)
        pairs = {(row.a1, row.a2) for row in rows}
        assert (3, 2) not in pairs      # reducible, skipped
        assert (4, 2) not in pairs      # mixed, skipped
        by_pair = {(row.a1, row.a2): row for row in rows}
        assert by_pair[(-2, 2)].criterion is False
        assert by_pair[(-2, 2)].brute_force is False
        assert by_pair[(2, 2)].criterion is True
        assert by_pair[(2, 2)].brute_force is True

    def test_repeat_sweep_agrees(self):
        assert sweep_quadratic(2) == sweep_quadratic(2)
