from __future__ import annotations

from math import inf

import numpy as np
import pytest

from helpers import random_euclidean, random_ultrametric
from negtype import (
    averaging_identity,
    discrete_space,
    gamma_discrete,
    gamma_xi,
    gap_exact,
    p_distance_matrix,
    scale_space,
    spectral_bounds,
    upper_bound_diameter,
    upper_bound_mean,
    validate_metric,
    xi_enlargement,
)
from negtype.errors import NonzeroDiagonal, NotStrict, TooFewPoints, TooManyPoints, ZeroGap


def dp_of(space, p=1.0):
    return p_distance_matrix(space, p)


class TestGammaDiscrete:
    def test_values(self):
        assert gamma_discrete(2) == 1.0
        assert gamma_discrete(3) == pytest.approx(0.75, abs=1e-15)
        assert gamma_discrete(7) == pytest.approx(7.0 / 24.0, abs=1e-15)

    def test_matches_even_odd_closed_forms(self):
        for n in range(2, 13):
            expected = 2.0 / n if n % 2 == 0 else 2.0 / (n - 1.0 / n)
            assert gamma_discrete(n) == pytest.approx(expected, abs=1e-12)

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            gamma_discrete(1)

    def test_complement_coefficient(self):
        assert gamma_xi(3) == pytest.approx(0.25, abs=1e-15)
        for n in range(2, 10):
            assert gamma_xi(n) == pytest.approx(1.0 - gamma_discrete(n), abs=1e-15)


class TestMeanBound:
    def test_discrete_is_tight(self):
        for n in (3, 5, 8):
            assert upper_bound_mean(dp_of(discrete_space(n))) == pytest.approx(
                gamma_discrete(n), abs=1e-12
            )

    def test_example_value(self, example78):
        # off-diagonal sum of the seven-point matrix is 120 over 42 entries
        assert upper_bound_mean(dp_of(example78)) == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_two_point(self):
        space = scale_space(discrete_space(2), 2.0)
        assert upper_bound_mean(dp_of(space)) == pytest.approx(2.0, abs=1e-12)

    def test_sum_above_the_float_range(self):
        # the two entries sum to 2e308, above the float range; the mean is 1e308
        space = validate_metric(["a", "b"], [[0, 1e308], [1e308, 0]])
        assert upper_bound_mean(dp_of(space)) == 1e308
        many = scale_space(discrete_space(20), 1e308)
        assert upper_bound_mean(dp_of(many)) == pytest.approx(
            1e308 * gamma_discrete(20), rel=1e-15, abs=0.0
        )

    def test_equals_the_plain_mean_where_finite(self, example78):
        rng = np.random.default_rng(3)
        for space in (example78, random_euclidean(rng, 9), random_ultrametric(rng, 12)):
            for p in (0.5, 1.0, 1.5, 7.3):
                dp = dp_of(space, p)
                off = dp.entries[~np.eye(dp.n, dtype=bool)]
                assert upper_bound_mean(dp) == float(off.mean()) * gamma_discrete(dp.n)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints, match="the mean bound needs at least two points"):
            upper_bound_mean(dp_of(discrete_space(1)))


class TestDiameterBound:
    def test_scaled_discrete_tight(self):
        for n, scale, p in [(4, 2.0, 1.0), (5, 1.5, 2.0)]:
            bound = upper_bound_diameter(dp_of(scale_space(discrete_space(n), scale), p))
            assert bound.tight
            assert bound.value == pytest.approx(scale**p * gamma_discrete(n), rel=1e-12)

    def test_example_not_tight(self, example78):
        bound = upper_bound_diameter(dp_of(example78))
        assert not bound.tight
        assert bound.value == pytest.approx(7.0 / 6.0, abs=1e-12)

    def test_three_point_line(self, line3):
        bound = upper_bound_diameter(dp_of(line3))
        assert bound.value == pytest.approx(1.5, abs=1e-12)
        assert not bound.tight

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints, match="the diameter bound needs at least two points"):
            upper_bound_diameter(dp_of(discrete_space(1)))

    def test_tight_iff_discrete(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            discrete = scale_space(discrete_space(n), float(rng.uniform(0.5, 2.0)))
            bound = upper_bound_diameter(dp_of(discrete))
            assert bound.tight
            assert gap_exact(dp_of(discrete)).gamma == pytest.approx(bound.value, rel=1e-12)
            # shrinking one distance strictly breaks equality
            d = discrete.dist.copy()
            d[0, 1] = d[1, 0] = d[0, 1] * 0.6
            perturbed = validate_metric(discrete.labels, d)
            bound = upper_bound_diameter(dp_of(perturbed))
            assert not bound.tight
            assert gap_exact(dp_of(perturbed)).gamma < bound.value - 1e-12


class TestBoundChain:
    def test_gap_below_mean_below_diameter(self, corpus):
        for space in corpus[:40]:
            for p in (0.5, 1.0, 2.0):
                dp = dp_of(space, p)
                gamma = gap_exact(dp).gamma
                mean_bound = upper_bound_mean(dp)
                diam_bound = upper_bound_diameter(dp).value
                assert gamma <= mean_bound + 1e-9
                assert mean_bound <= diam_bound + 1e-9


class TestSpectralBounds:
    def test_three_point_discrete_sharp(self):
        bounds = spectral_bounds(dp_of(discrete_space(3)))
        assert bounds.upper == pytest.approx(1.0, abs=1e-10)
        assert bounds.row_sum_factor == pytest.approx(1.0, abs=1e-10)
        assert bounds.lower == pytest.approx(0.75, abs=1e-10)
        assert bounds.constant_row_sum

    def test_scaled_discrete(self):
        for n, scale, p in [(4, 2.0, 1.0), (6, 1.5, 2.0)]:
            bounds = spectral_bounds(dp_of(scale_space(discrete_space(n), scale), p))
            assert bounds.upper == pytest.approx(scale**p, rel=1e-10)
            assert bounds.lower == pytest.approx(scale**p * gamma_discrete(n), rel=1e-10)

    def test_factor_at_most_one(self, corpus):
        for space in corpus[:40]:
            bounds = spectral_bounds(dp_of(space))
            assert bounds.row_sum_factor <= 1.0 + 1e-9

    def test_sandwich_contains_exact_gap(self, corpus):
        for space in corpus[:40]:
            for p in (0.5, 1.0, 2.0):
                dp = dp_of(space, p)
                gamma = gap_exact(dp).gamma
                bounds = spectral_bounds(dp)
                assert bounds.lower - 1e-9 <= gamma <= bounds.upper + 1e-9

    def test_factor_one_iff_constant_row_sums(self):
        bounds = spectral_bounds(dp_of(scale_space(discrete_space(5), 2.0)))
        assert bounds.constant_row_sum
        assert abs(bounds.row_sum_factor - 1.0) <= 1e-9
        uneven = validate_metric(
            ["a", "b", "c"], [[0, 1.0, 1.6], [1.0, 0, 1.0], [1.6, 1.0, 0]]
        )
        bounds = spectral_bounds(dp_of(uneven))
        assert not bounds.constant_row_sum
        assert bounds.row_sum_factor < 1.0 - 1e-9

    def test_requires_strict(self, line3):
        with pytest.raises(NotStrict):
            spectral_bounds(dp_of(line3, 2.0))

    def test_too_few_points(self):
        # a single point is strict, so the size check is the one that fires
        with pytest.raises(TooFewPoints, match="spectral bounds need at least two points"):
            spectral_bounds(dp_of(discrete_space(1)))


class TestXi:
    def test_zero_gap_limit(self, example78):
        assert xi_enlargement(dp_of(example78), 0.0).xi == 0.0

    def test_discrete_ratio_one_unbounded(self):
        assert xi_enlargement(dp_of(discrete_space(4)), gamma_discrete(4)).xi == inf

    def test_three_point_line_finite_positive(self, line3):
        dp = dp_of(line3)
        result = xi_enlargement(dp, gap_exact(dp).gamma)
        assert result.gamma_xi_n == pytest.approx(0.25, abs=1e-15)
        assert 0.0 < result.xi < inf

    def test_independent_of_the_unit_of_distance(self, example78, line3):
        # line3 is strict exactly for exponents below 2, so at p = 1 xi is 1
        for space, p in [(line3, 1.0), (example78, 1.0), (example78, 2.0)]:
            dp = dp_of(space, p)
            unit = xi_enlargement(dp, gap_exact(dp).gamma).xi
            if space is line3:
                assert unit == pytest.approx(1.0, rel=1e-12)
            for k in range(-6, 7):
                dp = dp_of(scale_space(space, 10.0**k), p)
                xi = xi_enlargement(dp, gap_exact(dp).gamma).xi
                assert xi == pytest.approx(unit, rel=1e-12, abs=0.0), (space.n, p, k)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            xi_enlargement(dp_of(discrete_space(2)), 1.0)

    def test_negative_gap_rejected(self, example78):
        with pytest.raises(ZeroGap):
            xi_enlargement(dp_of(example78), -0.1)

    def test_nan_gap_rejected(self, example78):
        with pytest.raises(ZeroGap, match="^gap must be nonnegative, got nan$"):
            xi_enlargement(dp_of(example78), float("nan"))


class TestAveragingIdentity:
    def test_all_ones_minus_identity_n4(self):
        b = np.ones((4, 4)) - np.eye(4)
        result = averaging_identity(b)
        assert result.rhs == pytest.approx(-4.0, abs=1e-14)
        assert result.lhs == pytest.approx(-4.0, abs=1e-12)
        assert result.sample_count == 6

    def test_zero_matrix(self):
        result = averaging_identity(np.zeros((5, 5)))
        assert result.lhs == 0.0
        assert result.rhs == 0.0
        assert result.sample_count == 10

    def test_random_odd(self):
        rng = np.random.default_rng(13)
        b = rng.standard_normal((5, 5))
        b = 0.5 * (b + b.T)
        np.fill_diagonal(b, 0.0)
        result = averaging_identity(b)
        assert result.lhs == pytest.approx(result.rhs, abs=1e-12 * max(1.0, abs(result.rhs)))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(NonzeroDiagonal):
            averaging_identity(np.eye(3))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            averaging_identity(np.zeros((2, 3)))

    def test_one_point_rejected(self):
        with pytest.raises(TooFewPoints, match="^need at least two points$"):
            averaging_identity(np.zeros((1, 1)))

    def test_more_than_twenty_points_rejected(self):
        # the enumeration is direct, so the oracle stops at 20 points
        averaging_identity(np.zeros((20, 20)))
        with pytest.raises(TooManyPoints, match="^21 points exceeds the enumeration cap of 20$") as info:
            averaging_identity(np.zeros((21, 21)))
        assert (info.value.n, info.value.cap) == (21, 20)

    def test_random_sizes(self):
        rng = np.random.default_rng(29)
        for n in range(2, 9):
            b = rng.standard_normal((n, n))
            b = 0.5 * (b + b.T)
            np.fill_diagonal(b, 0.0)
            result = averaging_identity(b)
            assert result.lhs == pytest.approx(result.rhs, abs=1e-12 * max(1.0, abs(result.rhs)))
