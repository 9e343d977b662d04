from __future__ import annotations

from math import inf

import numpy as np
import pytest

from helpers import random_ultrametric
from negtype import gap
from negtype import (
    GlueClassification,
    GlueSpec,
    certify,
    discrete_space,
    gap_exact,
    glue_gap_bounds,
    glue_spaces,
    glue_type_condition,
    glued_hat_form,
    glued_inverse,
    mp_ultrametric_properties,
    p_distance_matrix,
    scale_space,
    validate_metric,
)
from negtype.errors import BoundaryOrWorse, BridgeTooShort, LabelCollision, NotStrict


def relabel(space, prefix):
    return validate_metric([f"{prefix}{x}" for x in space.labels], space.dist)


def dp_of(space, p=1.0):
    return p_distance_matrix(space, p)


@pytest.fixture(scope="module")
def pair_x2():
    return relabel(discrete_space(2), "L"), relabel(discrete_space(2), "R")


def bridged(rng, left, right, p):
    """Glue at a random c between 1.05 and 1.6 times the least strict one."""
    diam = max(left.dist.max(), right.dist.max())
    m_total = certify(dp_of(left, p)).m_p + certify(dp_of(right, p)).m_p
    c_floor = max(diam / 2.0, (m_total / 2.0) ** (1.0 / p)) or 1.0  # 0 for two points
    return GlueSpec(left=left, right=right, c=float(c_floor * rng.uniform(1.05, 1.6)))


def random_glue_pairs(count, seed=20240815):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        left = relabel(random_ultrametric(rng, int(rng.integers(2, 6))), "L")
        right = relabel(random_ultrametric(rng, int(rng.integers(1, 6))), "R")
        p = float(rng.choice([0.5, 1.0, 2.0]))
        pairs.append((bridged(rng, left, right, p), p))
    return pairs


class TestGlueSpaces:
    def test_two_pairs_give_discrete_four(self, pair_x2):
        left, right = pair_x2
        glued = glue_spaces(GlueSpec(left=left, right=right, c=1.0))
        assert np.array_equal(glued.dist, discrete_space(4).dist)

    def test_example_block(self, example78):
        left = example78.restrict(range(4))   # a b c d
        right = example78.restrict([4, 5])    # e f
        glued = glue_spaces(GlueSpec(left=left, right=right, c=3.0))
        assert np.array_equal(glued.dist, example78.dist[:6, :6])
        assert glued.labels == example78.labels[:6]

    def test_single_points(self):
        left = validate_metric(["x"], [[0.0]])
        right = validate_metric(["y"], [[0.0]])
        glued = glue_spaces(GlueSpec(left=left, right=right, c=5.0))
        assert np.array_equal(glued.dist, [[0.0, 5.0], [5.0, 0.0]])

    def test_bridge_too_short(self, example78):
        with pytest.raises(BridgeTooShort):
            GlueSpec(left=example78, right=relabel(discrete_space(2), "R"), c=1.0)
        for c in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="bridge distance must be positive"):
                GlueSpec(left=discrete_space(1), right=relabel(discrete_space(1), "R"), c=c)
        with pytest.raises(ValueError, match="^bridge distance must be finite, got inf$"):
            GlueSpec(left=discrete_space(2), right=relabel(discrete_space(2), "R"), c=inf)

    def test_label_collision(self):
        with pytest.raises(LabelCollision):
            GlueSpec(left=discrete_space(2), right=discrete_space(2), c=1.0)


class TestTypeCondition:
    def test_two_pairs_margin_one(self, pair_x2):
        left, right = pair_x2
        result = glue_type_condition(GlueSpec(left=left, right=right, c=1.0), 1.0)
        assert result.classification is GlueClassification.STRICT
        assert result.margin == pytest.approx(1.0, abs=1e-12)
        assert result.m_p_left == pytest.approx(0.5, abs=1e-12)

    def test_exact_boundary(self, pair_x2):
        left, right = pair_x2
        # bridging distance chosen so twice its p-power equals the M sum
        result = glue_type_condition(GlueSpec(left=left, right=right, c=0.5), 1.0)
        assert result.classification is GlueClassification.NON_STRICT_BOUNDARY
        assert result.margin == pytest.approx(0.0, abs=1e-12)

    def test_single_points_margin(self):
        left = validate_metric(["x"], [[0.0]])
        right = validate_metric(["y"], [[0.0]])
        result = glue_type_condition(GlueSpec(left=left, right=right, c=1.0), 1.0)
        assert result.classification is GlueClassification.STRICT
        assert result.margin == pytest.approx(2.0, abs=1e-12)

    def test_component_not_strict(self, line3):
        with pytest.raises(NotStrict):
            glue_type_condition(
                GlueSpec(left=line3, right=relabel(discrete_space(2), "R"), c=2.0), 2.0
            )

    def test_negative_margin_is_not_negative_type(self):
        # five-point blocks are heavy enough that a short bridge fails
        left = relabel(discrete_space(5), "L")
        right = relabel(discrete_space(5), "R")
        spec = GlueSpec(left=left, right=right, c=0.5)
        result = glue_type_condition(spec, 1.0)
        assert result.classification is GlueClassification.NOT_NEGATIVE_TYPE
        assert result.margin == pytest.approx(-0.6, abs=1e-12)
        # agrees with direct certification of the glued space
        glued_cert = certify(dp_of(glue_spaces(spec)))
        assert glued_cert.classification.value == "NotNegativeType"

    def test_margin_reads_the_cross_entry_of_the_glued_matrix(self):
        # at c = 7, p = 1.5, Python's 7 ** 1.5 is one unit in the last place
        # above the array power that builds D_p
        left, right = relabel(discrete_space(5), "L"), relabel(discrete_space(5), "R")
        spec = GlueSpec(left=left, right=right, c=7.0)
        entries = dp_of(glue_spaces(spec), 1.5).entries
        result = glue_type_condition(spec, 1.5)
        assert result.margin == 2.0 * entries[0, 5] - result.m_p_left - result.m_p_right

    def test_margin_increases_with_c(self, pair_x2):
        left, right = pair_x2
        margins = [
            glue_type_condition(GlueSpec(left=left, right=right, c=c), 1.0).margin
            for c in (0.6, 0.8, 1.0, 1.5, 2.0)
        ]
        assert all(b > a for a, b in zip(margins, margins[1:]))


class TestGluedInverse:
    def test_two_pairs_match_direct_inverse(self, pair_x2):
        left, right = pair_x2
        inv = glued_inverse(dp_of(left), dp_of(right), 1.0)
        direct = np.linalg.inv(discrete_space(4).dist)
        assert np.abs(inv - direct).max() <= 1e-12

    def test_bordered_case_matches_direct(self):
        left = relabel(discrete_space(3), "L")
        right = validate_metric(["y"], [[0.0]])
        inv = glued_inverse(dp_of(left), dp_of(right), 1.0)
        glued = glue_spaces(GlueSpec(left=left, right=right, c=1.0))
        direct = np.linalg.inv(glued.dist)
        assert np.abs(inv - direct).max() <= 1e-12

    def test_point_first_swaps_cleanly(self):
        left = validate_metric(["y"], [[0.0]])
        right = relabel(discrete_space(3), "R")
        inv = glued_inverse(dp_of(left), dp_of(right), 1.0)
        glued = glue_spaces(GlueSpec(left=left, right=right, c=1.0))
        direct = np.linalg.inv(glued.dist)
        assert np.abs(inv - direct).max() <= 1e-12

    def test_both_single_points(self):
        left = validate_metric(["x"], [[0.0]])
        right = validate_metric(["y"], [[0.0]])
        inv = glued_inverse(dp_of(left, 2.0), dp_of(right, 2.0), 3.0)
        assert np.allclose(inv, [[0.0, 1.0 / 9.0], [1.0 / 9.0, 0.0]], atol=1e-15)

    def test_multiply_back_on_random_pairs(self):
        for spec, p in random_glue_pairs(20):
            inv = glued_inverse(dp_of(spec.left, p), dp_of(spec.right, p), spec.c)
            glued_dp = dp_of(glue_spaces(spec), p).entries
            residual = np.abs(inv @ glued_dp - np.eye(glued_dp.shape[0])).max()
            assert residual <= 1e-8

    @pytest.mark.parametrize("point", ["left", "right", "both"])
    def test_single_points_match_direct_inverse_at_every_scale(self, point):
        # one expression for every size: a single point on either side or both
        rng = np.random.default_rng({"left": 1, "right": 2, "both": 3}[point])
        for _ in range(6):
            sides = [relabel(random_ultrametric(rng, int(rng.integers(2, 6))), side)
                     for side in "LR"]
            if point != "right":
                sides[0] = validate_metric(["L1"], [[0.0]])
            if point != "left":
                sides[1] = validate_metric(["R1"], [[0.0]])
            for p in (0.5, 1.0, 2.0):
                spec = bridged(rng, *sides, p)
                unit = glued_inverse(dp_of(spec.left, p), dp_of(spec.right, p), spec.c)
                for k in (-12, -6, 0, 6, 12):
                    s = 10.0**k
                    left, right = scale_space(spec.left, s), scale_space(spec.right, s)
                    inv = glued_inverse(dp_of(left, p), dp_of(right, p), spec.c * s)
                    glued = glue_spaces(GlueSpec(left=left, right=right, c=spec.c * s))
                    direct = np.linalg.inv(dp_of(glued, p).entries)
                    size = np.abs(direct).max()
                    assert np.abs(inv - direct).max() <= 1e-12 * size
                    assert np.abs(inv - unit / s**p).max() <= 1e-12 * size

    @pytest.mark.parametrize("p", [16.0, 30.0])
    def test_bridge_powers_near_the_float_limit(self, p):
        # every entry is finite, but c^2p is not: M_p is formed without it
        left, right = relabel(discrete_space(3), "L"), relabel(discrete_space(2), "R")
        inv = glued_inverse(dp_of(left, p), dp_of(right, p), 1e10)
        glued = glue_spaces(GlueSpec(left=left, right=right, c=1e10))
        direct = np.linalg.inv(dp_of(glued, p).entries)
        assert np.abs(inv - direct).max() <= 1e-15 * np.abs(direct).max()

    def test_boundary_rejected(self, pair_x2):
        left, right = pair_x2
        with pytest.raises(BoundaryOrWorse):
            glued_inverse(dp_of(left), dp_of(right), 0.5)

    def test_component_not_strict_rejected(self, line3):
        right = relabel(discrete_space(2), "R")
        with pytest.raises(NotStrict):
            glued_inverse(dp_of(line3, 2.0), dp_of(right, 2.0), 5.0)

    def test_exponent_mismatch_rejected(self, pair_x2):
        left, right = pair_x2
        with pytest.raises(ValueError, match="different exponent"):
            glued_inverse(dp_of(left, 2.0), dp_of(right), 1.0)


@pytest.mark.parametrize(
    "call, inverses",
    [
        pytest.param("glued_inverse", {3: 1, 7: 1}, id="glued_inverse"),
        pytest.param("glued_hat_form", {3: 1, 7: 1, 10: 1}, id="glued_hat_form"),
        pytest.param("mp_ultrametric_properties", {}, id="mp_ultrametric_properties"),
    ],
)
def test_every_factor_belongs_to_a_certificate(call, inverses, example78, factorization_calls):
    # D_p is factored only by ``certify``, which computes the eigenvalues alone
    # once per LU solve, and inverted only by ``hat_matrix``, once per hat
    # matrix the call reads
    left = relabel(discrete_space(3), "L")
    spec = GlueSpec(left=left, right=example78, c=20.0)
    if call == "glued_inverse":
        glued_inverse(dp_of(left), dp_of(example78), spec.c)
    elif call == "glued_hat_form":
        glued_hat_form(dp_of(left), dp_of(example78), spec.c, np.ones(10))
    else:
        mp_ultrametric_properties(dp_of(example78))
    assert factorization_calls["lu_factor"] > 0
    assert factorization_calls["lu_factor"] == factorization_calls["eigenvalues"]
    assert factorization_calls["eigenpairs"] == 0
    assert factorization_calls["inv"] == inverses


@pytest.mark.parametrize(
    "call, sizes",
    [
        pytest.param("glued_inverse", [], id="glued_inverse"),
        pytest.param("glued_hat_form", [5], id="glued_hat_form"),
        pytest.param("glue_type_condition", [3, 2], id="glue_type_condition"),
        pytest.param("glue_gap_bounds", [3, 2, 3, 2], id="glue_gap_bounds"),
    ],
)
def test_certify_calls_per_glue_function(monkeypatch, call, sizes):
    # the component matrices are certified before counting starts: the
    # functions that take them read their certificates, and only a new
    # matrix is certified; the ones that take a GlueSpec build their own
    # (bench/test_bench.py pins the 9 calls of the glue command)
    left, right = relabel(discrete_space(3), "L"), relabel(discrete_space(2), "R")
    dp1, dp2 = dp_of(left), dp_of(right)
    assert dp1.certificate.strict and dp2.certificate.strict
    real, seen = gap.certify, []
    monkeypatch.setattr(gap, "certify", lambda dp: seen.append(dp.n) or real(dp))
    spec = GlueSpec(left=left, right=right, c=1.0)
    if call == "glued_inverse":
        glued_inverse(dp1, dp2, 1.0)
    elif call == "glued_hat_form":
        glued_hat_form(dp1, dp2, 1.0, np.ones(5))
    elif call == "glue_type_condition":
        glue_type_condition(spec, 1.0)
    else:
        glue_gap_bounds(spec, 1.0, 1.0, 1.0)
    assert seen == sizes


class TestGluedHatForm:
    def test_matched_coupling_drops_cross_term(self, pair_x2):
        left, right = pair_x2
        # u_p is uniform on each pair, so equal-mean halves cancel exactly
        z = np.array([1.0, -1.0, 1.0, -1.0])
        form = glued_hat_form(dp_of(left), dp_of(right), 1.0, z)
        assert form.cross_term == pytest.approx(0.0, abs=1e-12)
        assert form.direct == pytest.approx(form.decomposition, rel=1e-10)

    def test_alternating_signs(self, pair_x2):
        left, right = pair_x2
        z = np.array([1.0, -1.0, -1.0, 1.0])
        form = glued_hat_form(dp_of(left), dp_of(right), 1.0, z)
        assert form.direct == pytest.approx(form.decomposition, rel=1e-10)

    def test_ones_vector_gives_zero(self, pair_x2):
        left, right = pair_x2
        form = glued_hat_form(dp_of(left), dp_of(right), 1.0, np.ones(4))
        assert abs(form.direct) <= 1e-10
        assert abs(form.decomposition) <= 1e-10

    def test_wrong_length_rejected(self, pair_x2):
        left, right = pair_x2
        for z in (np.ones(3), np.ones((2, 5))):
            with pytest.raises(ValueError, match="expected vectors of length 4"):
                glued_hat_form(dp_of(left), dp_of(right), 1.0, z)

    def test_random_vectors_agree(self):
        rng = np.random.default_rng(43)
        for spec, p in random_glue_pairs(8, seed=7):
            n = spec.left.n + spec.right.n
            for _ in range(50):
                z = rng.standard_normal(n)
                form = glued_hat_form(dp_of(spec.left, p), dp_of(spec.right, p), spec.c, z)
                scale = max(1.0, abs(form.direct))
                assert abs(form.direct - form.decomposition) <= 1e-8 * scale


class TestGlueGapBounds:
    def test_two_pairs(self, pair_x2):
        left, right = pair_x2
        spec = GlueSpec(left=left, right=right, c=1.0)
        bounds = glue_gap_bounds(spec, 1.0, 1.0, 1.0)
        assert bounds.upper == pytest.approx(0.5, abs=1e-12)
        assert bounds.alpha == pytest.approx(2.0, abs=1e-12)
        assert bounds.lower == pytest.approx(0.25, abs=1e-12)
        exact = gap_exact(dp_of(glue_spaces(spec))).gamma
        assert exact == pytest.approx(0.5, abs=1e-12)  # upper bound is tight here

    def test_example_top_split(self, example78):
        left = example78.restrict(range(6))
        right = validate_metric(["g"], [[0.0]])
        spec = GlueSpec(left=left, right=right, c=4.0)
        for p in (1.0, 2.0):
            gamma_left = gap_exact(dp_of(left, p)).gamma
            bounds = glue_gap_bounds(spec, p, gamma_left, inf)
            gamma = gap_exact(dp_of(example78, p)).gamma
            assert bounds.lower - 1e-9 <= gamma <= bounds.upper + 1e-9
            # correction stays under the size-over-diameter cap
            assert bounds.alpha <= 7.0 / 4.0**p + 1e-12

    def test_single_points_out_of_hypothesis(self):
        left = validate_metric(["x"], [[0.0]])
        right = validate_metric(["y"], [[0.0]])
        spec = GlueSpec(left=left, right=right, c=1.0)
        bounds = glue_gap_bounds(spec, 1.0, inf, inf)
        assert bounds.out_of_hypothesis
        assert bounds.upper == inf
        assert bounds.alpha == pytest.approx(1.0, abs=1e-12)
        assert bounds.lower == pytest.approx(1.0, abs=1e-12)
        exact = gap_exact(dp_of(glue_spaces(spec))).gamma
        assert exact == pytest.approx(1.0, abs=1e-12)  # lower bound tight

    @pytest.mark.parametrize(
        "gammas, name, value",
        [
            pytest.param((float("nan"), 1.0), "gamma_left", "nan", id="nan"),
            pytest.param((1.0, float("nan")), "gamma_right", "nan", id="nan-right"),
            pytest.param((-1.0, 1.0), "gamma_left", "-1.0", id="negative"),
            pytest.param((1.0, 0.0), "gamma_right", "0.0", id="zero"),
            pytest.param((-inf, inf), "gamma_left", "-inf", id="minus-inf"),
        ],
    )
    def test_refuses_component_gaps_that_are_not_gaps(self, pair_x2, gammas, name, value):
        left, right = pair_x2
        spec = GlueSpec(left=left, right=right, c=2.0)
        with pytest.raises(ValueError, match=f"^{name} must be positive, got {value}$"):
            glue_gap_bounds(spec, 1.0, *gammas)

    def test_containment_on_random_pairs(self):
        for spec, p in random_glue_pairs(25, seed=99):
            gamma_left = gap_exact(dp_of(spec.left, p)).gamma
            gamma_right = gap_exact(dp_of(spec.right, p)).gamma
            bounds = glue_gap_bounds(spec, p, gamma_left, gamma_right)
            gamma = gap_exact(dp_of(glue_spaces(spec), p)).gamma
            assert bounds.lower - 1e-9 <= gamma <= bounds.upper + 1e-9

    def test_glued_m_constant_consistency(self):
        for spec, p in random_glue_pairs(10, seed=5):
            glued_dp = dp_of(glue_spaces(spec), p)
            cert = certify(glued_dp)
            assert cert.strict
            # the certificate's constant must match an independent solve
            b = np.linalg.solve(glued_dp.entries, np.ones(glued_dp.n))
            assert cert.m_p == pytest.approx(1.0 / b.sum(), rel=1e-8)
