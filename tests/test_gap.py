from __future__ import annotations

import itertools
import math
import re
import warnings
from dataclasses import replace
from math import inf

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from helpers import (
    caterpillar,
    example_space,
    line_space,
    random_dendrogram,
    random_euclidean,
    random_graph_metric,
    random_ultrametric,
    reference_refined_solve,
    reference_sign_maximum,
    repeated_height_ultrametric,
    singular_crossing,
)
from negtype import (
    Classification,
    GapMethod,
    GlueSpec,
    certify,
    discrete_space,
    gamma_discrete,
    gap_definition_check,
    gap_exact,
    gap_numeric_oracle,
    glue_spaces,
    glue_type_condition,
    hat_matrix,
    p_distance_matrix,
    scale_space,
    spectral_bounds,
    validate_metric,
)
from negtype import gap, spectral
from negtype.errors import (
    NegTypeError,
    NotInF0,
    NotNegativeType,
    NotStrict,
    ToleranceFailure,
    TooManyPoints,
)
from negtype.gap import _sign_maximum


def dp_of(space, p=1.0):
    return p_distance_matrix(space, p)


def brute_force_values(hat):
    """(hat z | z) for every sign vector z with first sign +1, in lexicographic
    order (-1 < +1), and those vectors as rows."""
    n = hat.shape[0]
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n - 1)))
    z = np.hstack([np.ones((len(signs), 1)), signs])
    return ((z @ hat) * z).sum(axis=1), z


@pytest.fixture(scope="module")
def boundary_space():
    # two unit pairs bridged at exactly the non-strict boundary distance
    d = np.array(
        [
            [0.0, 1.0, 0.5, 0.5],
            [1.0, 0.0, 0.5, 0.5],
            [0.5, 0.5, 0.0, 1.0],
            [0.5, 0.5, 1.0, 0.0],
        ]
    )
    return validate_metric(["a", "b", "c", "d"], d)


def collinear_space(n=6):
    x = np.arange(n, dtype=float)
    return validate_metric([f"x{i}" for i in range(n)], np.abs(x[:, None] - x[None, :]))


# the complete bipartite graph K_{2,3}, not of 1-negative type
K23 = validate_metric(
    list("abcde"),
    [[0, 2, 1, 1, 1], [2, 0, 1, 1, 1], [1, 1, 0, 2, 2], [1, 1, 2, 0, 2], [1, 1, 2, 2, 0]],
)

# (id, space, p) not of p-negative type, on every branch that finds it:
# (b | 1) < 0 (line3), two positive eigenvalues, and a singular D_p with 1
# outside its range (the crossings)
NOT_NEGATIVE_TYPE = [
    ("line3-p3", line_space(), 3.0),
    ("collinear4-p3", collinear_space(4), 3.0),  # tied largest magnitudes
    ("K23-p1", K23, 1.0),
    *((f"euclidean8-p{p:g}", random_euclidean(np.random.default_rng(5), 8), p)
      for p in (2.5, 3.0, 4.0, 8.0)),
    *((f"graph{seed}-p2", random_graph_metric(np.random.default_rng(100 + seed), 8), 2.0)
      for seed in range(3)),
    *((f"crossing{seed}", *singular_crossing(seed)) for seed in range(8)),
]


def assert_witness(dp, cert):
    """The witness is zero-sum, 1-normalized, signed by its largest-magnitude
    entry, and the form the certificate keeps is positive at it."""
    w = cert.witness
    assert cert.classification is Classification.NOT_NEGATIVE_TYPE
    assert np.abs(w).sum() == pytest.approx(1.0, abs=1e-14)
    assert abs(w.sum()) <= 1e-10
    assert w[np.abs(w).argmax()] > 0
    assert cert.witness_form == float(w @ dp.entries @ w) > 0


class TestCertify:
    def test_discrete_spaces_are_strict(self):
        for n in (2, 3, 5, 8):
            for p in (0.5, 1.0, 2.0, 5.0):
                cert = certify(dp_of(discrete_space(n), p))
                assert cert.classification is Classification.STRICT_NEGATIVE_TYPE

    def test_example_is_strict(self, example78):
        cert = certify(dp_of(example78))
        assert cert.strict

    def test_the_matrix_holds_one_certificate(self, example78, monkeypatch):
        # every analysis of one matrix reads the certificate it holds, made by
        # one call of the module attribute; certify itself caches nothing
        made = []
        monkeypatch.setattr(gap, "certify", lambda dp: made.append(dp) or certify(dp))
        dp = dp_of(example78)
        gap_exact(dp)
        hat_matrix(dp)
        gap_numeric_oracle(dp, restarts=4)
        spectral_bounds(dp)
        assert len(made) == 1 and made[0] is dp
        assert dp.certificate is dp.certificate
        assert certify(dp) is not dp.certificate
        assert dp_of(example78).certificate is not dp.certificate

    def test_two_point_constants(self):
        cert = certify(dp_of(discrete_space(2)))
        assert cert.strict
        assert cert.m_p == pytest.approx(0.5, abs=1e-14)
        assert np.allclose(cert.u_p, [0.5, 0.5], atol=1e-14)

    def test_line_p1_strict(self, line3):
        assert certify(dp_of(line3, 1.0)).strict

    def test_line_p2_non_strict_boundary(self, line3):
        cert = certify(dp_of(line3, 2.0))
        assert cert.classification is Classification.NEGATIVE_TYPE_NON_STRICT
        assert cert.boundary_warning
        assert cert.b_dot_one == pytest.approx(0.0, abs=1e-12)
        assert cert.m_p == inf

    def test_line_p3_not_negative_type(self, line3):
        dp = dp_of(line3, 3.0)
        cert = certify(dp)
        assert cert.b_dot_one < 0  # so the witness is built from b
        assert_witness(dp, cert)
        assert np.allclose(cert.witness, [-0.25, 0.5, -0.25], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize(
        "space, p", [pytest.param(space, p, id=name) for name, space, p in NOT_NEGATIVE_TYPE]
    )
    @pytest.mark.parametrize("flipped", [slice(None), slice(-1, None), slice(-2, -1)])
    def test_witness_from_the_eigenpairs(self, monkeypatch, space, p, flipped):
        # LAPACK may return either sign of each eigenvector; the witness does
        # not depend on it
        dp = dp_of(space, p)
        cert = certify(dp)
        assert_witness(dp, cert)
        real = spectral.sym_eigen

        def negated(a):
            spectrum = real(a)
            vectors = spectrum.eigenvectors.copy()
            vectors[:, flipped] *= -1.0
            return replace(spectrum, eigenvectors=vectors)

        monkeypatch.setattr(spectral, "sym_eigen", negated)
        assert np.array_equal(certify(dp).witness, cert.witness)

    def test_witness_with_a_form_not_above_zero_fails(self, monkeypatch):
        # eigenvectors in the wrong columns make w from two negative directions
        real = spectral.sym_eigen
        monkeypatch.setattr(
            spectral, "sym_eigen",
            lambda a: replace(real(a), eigenvectors=real(a).eigenvectors[:, ::-1]),
        )
        with pytest.raises(ToleranceFailure, match=r"witness form value -\S+ is not above limit 0"):
            certify(dp_of(K23, 1.0))

    def test_nan_u_p_residual_fails_its_own_check(self):
        # at p = 102 the products D_p u_p of this 30-point ultrametric overflow
        # and cancel to NaN; the residual check refuses it, not the sum check
        d = random_dendrogram(np.random.default_rng(1), 30, lo=500, hi=1000)
        dp = dp_of(validate_metric([f"x{i}" for i in range(30)], d), 102.0)
        with pytest.raises(ToleranceFailure, match=r"^u_p residual nan exceeds limit \S+$"):
            certify(dp)

    @pytest.mark.parametrize("seed", range(8))
    def test_singular_crossing_has_no_b(self, seed):
        space, p = singular_crossing(seed)
        cert = certify(dp_of(space, p))
        assert cert.classification is Classification.NOT_NEGATIVE_TYPE
        assert abs(cert.lambda_penultimate) <= cert.zero_tol
        assert cert.b is None

    @pytest.mark.parametrize(
        "space, p, classification, lu_calls",
        [
            pytest.param(line_space(), 1.0, "StrictNegativeType", 1, id="strict"),
            pytest.param(line_space(), 2.0, "NegativeTypeNonStrict", 1, id="boundary"),
            pytest.param(collinear_space(), 2.0, "NegativeTypeNonStrict", 0,
                         id="singular-non-strict"),
            pytest.param(K23, 1.0, "NotNegativeType", 0, id="two-positive-eigenvalues"),
            pytest.param(line_space(), 3.0, "NotNegativeType", 1, id="b-dot-one-negative"),
            pytest.param(*singular_crossing(0), "NotNegativeType", 0, id="singular-without-b"),
            pytest.param(example_space(), 1.0, "StrictNegativeType", 1, id="ultrametric"),
        ],
    )
    def test_one_eigendecomposition_on_every_path(
        self, factorization_calls, space, p, classification, lu_calls
    ):
        assert certify(dp_of(space, p)).classification.value == classification
        assert factorization_calls == {"sym_eigen": 1, "lu_factor": lu_calls, "inv": {}}

    def test_single_point(self):
        cert = certify(dp_of(validate_metric(["x"], [[0.0]])))
        assert cert.strict
        assert cert.m_p == 0.0
        assert np.array_equal(cert.u_p, [1.0])

    def test_relabeling_invariance(self, example78, line3):
        rng = np.random.default_rng(3)
        for space, p in [(example78, 1.0), (line3, 1.0), (line3, 2.0), (line3, 3.0)]:
            base = certify(dp_of(space, p)).classification
            perm = rng.permutation(space.n)
            shuffled = validate_metric(
                [space.labels[i] for i in perm], space.dist[np.ix_(perm, perm)]
            )
            assert certify(dp_of(shuffled, p)).classification is base

    def test_b_dot_one_independent_of_solution_choice(self, boundary_space):
        # the compared value is invariant under which solution the solver picks
        base = certify(dp_of(boundary_space))
        assert np.abs(base.eigenvalues).min() < base.zero_tol
        for perm in ([2, 3, 0, 1], [1, 3, 0, 2], [3, 2, 1, 0]):
            permuted = validate_metric(
                [boundary_space.labels[i] for i in perm],
                boundary_space.dist[np.ix_(perm, perm)],
            )
            other = certify(dp_of(permuted))
            lhs, rhs = base.b_dot_one, other.b_dot_one
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("which", ["boundary", "collinear"])
    def test_singular_b_is_least_residual_off_the_null_space(self, boundary_space, which):
        # a singular D_p is solved from its eigenpairs, without an LU factor
        space, p = (boundary_space, 1.0) if which == "boundary" else (collinear_space(), 2.0)
        dp = dp_of(space, p)
        cert = certify(dp)
        assert cert.classification is Classification.NEGATIVE_TYPE_NON_STRICT
        spectrum = spectral.sym_eigen(dp.entries)
        null = spectrum.eigenvectors[:, np.abs(spectrum.eigenvalues) < cert.zero_tol]
        assert null.shape[1] > 0
        assert np.linalg.norm(dp.entries @ cert.b - 1.0) <= cert.zero_tol * np.sqrt(dp.n)
        assert np.abs(null.T @ cert.b).max() <= 1e-12 * max(1.0, np.linalg.norm(cert.b))

    def test_certificate_thresholds_at_moderate_exponents(self, corpus):
        # the spectral evidence in a strict certificate clears the tolerance
        # thresholds when the matrix entries are moderately scaled
        for space in corpus[:20]:
            if space.n < 2:
                continue
            cert = certify(dp_of(space, 1.0))
            assert cert.strict
            assert cert.lambda_penultimate < -cert.zero_tol
            assert cert.lambda_max > cert.zero_tol
            assert cert.b_dot_one > cert.zero_tol

    def test_tolerance_failure_states_value_and_limit(self, example78, monkeypatch):
        real = spectral.lu_factor

        def perturbed(a):
            b = real(a)
            return b * (1 + 1e-4 * np.arange(len(b)))

        monkeypatch.setattr(spectral, "lu_factor", perturbed)
        dp = dp_of(example78)
        b = perturbed(dp.entries)
        m_p = 1.0 / b.sum()
        residual = np.abs(dp.entries @ (b / b.sum()) - m_p).max()
        with pytest.raises(ToleranceFailure) as info:
            certify(dp)
        assert f"{residual:.3g}" in str(info.value)
        assert f"{1e-8 * m_p:.3g}" in str(info.value)

    def test_keeps_every_certificate_of_the_scipy_solve(self, corpus, monkeypatch):
        # Reference: b from scipy's LU solve with up to three refinement sweeps.
        # Every case it certifies keeps its class and M_p, and every failure
        # is a NegTypeError (an exception of any other type fails the test).
        def reference(a):
            return reference_refined_solve(a, np.ones(a.shape[0]), lu_factor(a))

        rng = np.random.default_rng(11)
        spaces = [random_ultrametric(rng, n, lo=1.0, hi=hi)
                  for n in (10, 20, 30, 60) for hi in (10.0, 100.0) for _ in range(3)]
        certified = 0
        for space in spaces + corpus[:40]:
            for p in (0.5, 1.0, 2.0, 4.0, 8.0, 10.0, 12.0, 14.0, 16.0, 20.0):
                dp = dp_of(space, p)
                try:
                    cert = certify(dp)
                except NegTypeError:
                    cert = None
                with monkeypatch.context() as patch, warnings.catch_warnings():
                    # scipy warns of an exactly zero pivot, then its solve rejects the NaNs
                    warnings.simplefilter("ignore")
                    patch.setattr(spectral, "lu_factor", reference)
                    try:
                        expected = certify(dp)
                    except (NegTypeError, ValueError):
                        continue
                certified += 1
                assert cert is not None, (space.n, p)
                assert cert.classification is expected.classification, (space.n, p)
                assert cert.m_p == pytest.approx(expected.m_p, rel=1e-9, abs=0.0), (space.n, p)
        assert certified > 600  # of 640 cases

    def test_m_p_upper_bound_over_sum_one_vectors(self, example78):
        rng = np.random.default_rng(5)
        for space, p in [(example78, 1.0), (discrete_space(5), 2.0)]:
            dp = dp_of(space, p)
            cert = certify(dp)
            x = rng.standard_normal((10_000, space.n))
            x += (1.0 - x.sum(axis=1, keepdims=True)) / space.n  # project onto sum one
            forms = np.einsum("ij,ij->i", x @ dp.entries, x)
            assert (forms <= cert.m_p + 1e-9).all()


def unit_summary(s, corpus):
    """Classification, M_p / s^p and gamma / s^p (None when undefined) of line3
    at p = 1, 2 and 3, of the corpus at p = 1, and of a glued pair (margin in
    place of M_p), every distance multiplied by s."""
    two = validate_metric(["y1", "y2"], [[0.0, 1.0], [1.0, 0.0]])
    out = []
    for space, p in [(line_space(), 1.0), (line_space(), 2.0), (line_space(), 3.0)] + [
        (space, 1.0) for space in corpus
    ]:
        dp = dp_of(scale_space(space, s), p)
        cert = dp.certificate
        defined = cert.classification is not Classification.NOT_NEGATIVE_TYPE
        gamma = gap_exact(dp).gamma / s**p if defined else None
        out.append((cert.classification, cert.m_p / s**p, gamma))
    spec = GlueSpec(scale_space(discrete_space(3), s), scale_space(two, s), s)
    glued = glue_type_condition(spec, 1.0)
    gamma = gap_exact(dp_of(glue_spaces(spec))).gamma / s
    out.append((glued.classification, glued.margin / s, gamma))
    return out


@pytest.fixture(scope="module")
def unit_base(corpus):
    return unit_summary(1.0, corpus)


class TestUnitOfDistance:
    @pytest.mark.parametrize("k", range(-12, 13))
    def test_decisions_do_not_depend_on_the_unit(self, corpus, unit_base, k):
        for (kind, m_p, gamma), (kind0, m_p0, gamma0) in zip(
            unit_summary(10.0**k, corpus), unit_base, strict=True
        ):
            assert kind is kind0
            assert m_p == pytest.approx(m_p0, rel=1e-9, abs=0.0)
            assert gamma == (None if gamma0 is None else pytest.approx(gamma0, rel=1e-9, abs=0.0))


class TestMConstant:
    def test_three_point_discrete(self):
        assert certify(dp_of(discrete_space(3))).m_p == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_single_point(self):
        assert certify(dp_of(validate_metric(["x"], [[0.0]]))).m_p == 0.0

    def test_discrete_formula_meets_diameter_bound(self):
        for n in range(2, 10):
            value = certify(dp_of(discrete_space(n))).m_p
            assert value == pytest.approx((n - 1) / n, abs=1e-12)

    def test_infinite_for_non_negative_type(self, line3):
        assert certify(dp_of(line3, 3.0)).m_p == inf


class TestHatMatrix:
    def test_two_point_closed_form(self):
        for d, p in [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (3.0, 0.5)]:
            space = scale_space(discrete_space(2), d)
            hat = hat_matrix(dp_of(space, p))
            v = 1.0 / (2.0 * d**p)
            assert np.allclose(hat, [[v, -v], [-v, v]], atol=1e-12 * v)

    def test_three_point_discrete(self):
        hat = hat_matrix(dp_of(discrete_space(3)))
        assert np.allclose(hat, np.eye(3) - np.ones((3, 3)) / 3.0, atol=1e-12)

    def test_annihilates_ones(self, example78):
        rng = np.random.default_rng(9)
        spaces = [example78] + [random_ultrametric(rng, 6) for _ in range(5)]
        for space in spaces:
            hat = hat_matrix(dp_of(space))
            assert np.abs(hat @ np.ones(space.n)).max() <= 1e-10 * np.abs(hat).max()

    def test_requires_strict(self, line3):
        with pytest.raises(NotStrict):
            hat_matrix(dp_of(line3, 2.0))

    def test_reuses_the_certificate_factor(self, example78, factorization_calls):
        # b comes from the certificate: hat_matrix makes the one inverse and
        # neither solves for b again nor decomposes D_p
        dp = dp_of(example78)
        assert dp.certificate.strict
        assert factorization_calls == {"sym_eigen": 1, "lu_factor": 1, "inv": {}}
        hat_matrix(dp)
        assert factorization_calls == {"sym_eigen": 1, "lu_factor": 1, "inv": {7: 1}}

    def test_non_finite_inverse_is_a_tolerance_failure(self):
        # b is finite, but D_p^-1 holds +-1 / 1e-309, which overflows
        eps = 1e-309
        dp = dp_of(validate_metric(["a", "b", "c"], [[0, eps, 1], [eps, 0, 1], [1, 1, 0]]))
        cert = dp.certificate
        assert cert.strict and np.isfinite(cert.b).all()
        message = r"^D_p\^-1 \(3x3\) has 6 non-finite entries, limit 0$"
        with pytest.raises(ToleranceFailure, match=message):
            hat_matrix(dp)

    def test_row_sum_residual_above_its_limit_fails(self, example78, monkeypatch):
        # a refined inverse off by 1e-3 on its diagonal leaves hat 1 = -1e-3 1
        dp = dp_of(example78)
        refined = spectral.refined_solve
        monkeypatch.setattr(
            spectral, "refined_solve", lambda *args: refined(*args) + 1e-3 * np.eye(dp.n)
        )
        message = r"^hat row-sum residual 0\.001 exceeds limit \d\.\d\de-\d\d$"
        with pytest.raises(ToleranceFailure, match=message):
            hat_matrix(dp)

    def test_bitwise_equal_to_refined_explicit_inverse(self, example78):
        # Reference: LU inverse of D_p refined by up to three residual sweeps.
        for p in (0.5, 1.0, 2.0):
            dp = dp_of(example78, p)
            cert = dp.certificate
            a, eye = dp.entries, np.eye(dp.n)
            lu = lu_factor(a)
            inv = lu_solve(lu, eye)
            for _ in range(3):
                r = eye - a @ inv
                if not np.abs(r).any():
                    break
                inv = inv + lu_solve(lu, r)
            expected = np.outer(cert.b, cert.u_p) - inv
            expected = 0.5 * (expected + expected.T)
            assert np.array_equal(hat_matrix(dp), expected)

    @pytest.mark.parametrize("s", [1e-10, 1e10])
    @pytest.mark.parametrize("p", [16.0, 30.0])
    def test_rank_one_term_stays_in_the_float_range(self, s, p):
        # b_i b_j would be 1e+-320 and more, outside the float range; the
        # discrete three-point gap is 3/4 of the distance power at every scale
        dp = dp_of(scale_space(discrete_space(3), s), p)
        hat = hat_matrix(dp)
        assert np.isfinite(hat).all()
        assert np.abs(hat @ np.ones(3)).max() <= 1e-12 * np.abs(hat).max()
        assert gap_exact(dp).gamma == pytest.approx(0.75 * s**p, rel=1e-15, abs=0.0)


class TestGapExact:
    @pytest.mark.parametrize("beta, shown", [(0.0, "0"), (-0.25, "-0.25")])
    def test_sign_maximum_not_above_zero_fails(self, monkeypatch, beta, shown):
        monkeypatch.setattr(gap, "_sign_maximum", lambda hat: (np.ones(hat.shape[0]), beta, 1))
        message = f"^sign maximum {shown} on a strict space is not above 0$"
        with pytest.raises(ToleranceFailure, match=message):
            gap_exact(dp_of(discrete_space(3)))

    def test_gap_above_its_definition_bound_fails(self):
        # a = e_a - e_b bounds gamma by d(a, b) = 1e-308; the hat matrix of
        # this valid ultrametric is inaccurate, and its sign maximum gives 1.25e-293
        space = validate_metric(["a", "b", "e"], [[0, 1e-308, 1], [1e-308, 0, 1], [1, 1, 0]])
        message = (
            "exact gamma 1.25260522501e-293 lies outside its definition bound [0, 1e-308],"
            " relative slack 1e-09"
        )
        with pytest.raises(ToleranceFailure, match=f"^{re.escape(message)}$"):
            gap_exact(dp_of(space))

    def test_gap_above_the_mean_bound_fails(self, monkeypatch):
        # the discrete 3-point gap 0.75 equals its mean bound; a bound of 0.5 is below it
        monkeypatch.setattr(gap, "upper_bound_mean", lambda dp: 0.5)
        message = (
            "exact gamma 0.75 lies outside its definition bound [0, 0.5], relative slack 1e-09"
        )
        with pytest.raises(ToleranceFailure, match=f"^{re.escape(message)}$"):
            gap_exact(dp_of(discrete_space(3)))

    def test_gap_within_the_slack_of_its_bound_passes(self, monkeypatch):
        monkeypatch.setattr(gap, "upper_bound_mean", lambda dp: 0.75 / (1.0 + 0.9e-9))
        assert gap_exact(dp_of(discrete_space(3))).gamma == pytest.approx(0.75, rel=1e-15)

    def test_hat_sum_above_the_float_range_fails_before_any_value(self, monkeypatch):
        # every entry is finite, the sum is not; no value may be formed with
        # an infinite tie tolerance, and no floating-point warning is raised
        def forms(block, z):
            raise AssertionError("a value was formed")

        monkeypatch.setattr(gap, "_forms", forms)
        message = "sum|hat_ij| = inf exceeds the float limit 1.8e+308"
        for n in (4, 13):  # one product of all vectors, and the tables
            with pytest.raises(ToleranceFailure, match=f"^{re.escape(message)}$"):
                _sign_maximum(np.full((n, n), 2e307))

    def test_two_point(self):
        for d, p in [(1.0, 1.0), (2.0, 1.0), (2.0, 3.0)]:
            result = gap_exact(dp_of(scale_space(discrete_space(2), d), p))
            assert result.gamma == pytest.approx(d**p, rel=1e-12)
            assert result.beta == pytest.approx(2.0 / d**p, rel=1e-12)
            assert result.z_star is not None
            assert np.array_equal(result.z_star, [1.0, -1.0])

    def test_discrete_formula(self):
        for n in range(2, 13):
            for p in (0.5, 1.0, 2.0):
                result = gap_exact(dp_of(discrete_space(n), p))
                assert result.gamma == pytest.approx(gamma_discrete(n), abs=1e-12)

    def test_scaled_discrete(self):
        for n, scale, p in [(4, 2.0, 1.0), (5, 3.0, 2.0), (6, 0.5, 0.5)]:
            result = gap_exact(dp_of(scale_space(discrete_space(n), scale), p))
            assert result.gamma == pytest.approx(scale**p * gamma_discrete(n), rel=1e-12)

    def test_scaling_law(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            space = random_ultrametric(rng, int(rng.integers(3, 8)))
            alpha = float(rng.uniform(0.2, 4.0))
            p = float(rng.choice([0.5, 1.0, 2.0]))
            base = gap_exact(dp_of(space, p)).gamma
            scaled = gap_exact(dp_of(scale_space(space, alpha), p)).gamma
            assert scaled == pytest.approx(alpha**p * base, rel=1e-10)

    def test_gamma_beta_product(self, example78):
        result = gap_exact(dp_of(example78))
        assert result.gamma * result.beta == pytest.approx(2.0, rel=1e-12)

    def test_z_star_reproduces_beta(self, example78):
        dp = dp_of(example78)
        result = gap_exact(dp)
        hat = hat_matrix(dp)
        assert result.z_star @ hat @ result.z_star == pytest.approx(result.beta, abs=1e-10)

    def test_single_point_unbounded(self):
        result = gap_exact(dp_of(validate_metric(["x"], [[0.0]])))
        assert result.gamma == inf
        assert result.method is GapMethod.SINGLE_POINT

    def test_non_strict_gap_is_zero(self, line3):
        result = gap_exact(dp_of(line3, 2.0))
        assert result.gamma == 0.0
        assert result.method is GapMethod.DEFINITION_ZERO

    def test_not_negative_type_raises(self, line3):
        with pytest.raises(NotNegativeType):
            gap_exact(dp_of(line3, 3.0))

    def test_cap(self, example78):
        with pytest.raises(TooManyPoints):
            gap_exact(dp_of(example78), cap=5)

    def test_every_sign_vector_bounds_gamma(self):
        rng = np.random.default_rng(23)
        space = random_ultrametric(rng, 7)
        dp = dp_of(space)
        result = gap_exact(dp)
        hat = hat_matrix(dp)
        attained = False
        for signs in itertools.product([1.0, -1.0], repeat=space.n - 1):
            z = np.array((1.0,) + signs)
            value = z @ hat @ z
            if value > 0:
                assert 2.0 / value >= result.gamma - 1e-12
            if abs(value - result.beta) <= 1e-12 * result.beta:
                attained = True
        assert attained

    @pytest.mark.parametrize("n", [17, 18])
    @pytest.mark.parametrize(
        "make_space",
        [random_euclidean, random_ultrametric, repeated_height_ultrametric,
         lambda rng, n: discrete_space(n)],
        ids=["random_euclidean", "random_ultrametric", "repeated_height_ultrametric",
             "discrete_space"],
    )
    def test_matches_brute_force(self, n, make_space):
        dp = dp_of(make_space(np.random.default_rng(n), n))
        result = gap_exact(dp)
        hat = hat_matrix(dp)
        values, z = brute_force_values(hat)
        tol = 4 * n * np.finfo(float).eps * np.abs(hat).sum()
        tied = np.flatnonzero(values >= values.max() - tol)
        assert result.beta == pytest.approx(values.max(), rel=1e-12)
        assert np.array_equal(result.z_star, z[tied[0]])
        assert result.evaluated >= len(tied)

    def test_matches_reference_enumerator(self, example78):
        # the exhaustive enumerator that the pruned one replaced, bit for bit
        hat78 = hat_matrix(dp_of(example78))
        values78, _ = brute_force_values(hat78)
        assert np.count_nonzero(values78 >= values78.max() * (1 - 1e-12)) == 8
        hats = [hat78] + [hat_matrix(dp_of(discrete_space(n))) for n in range(2, 21)]
        rng = np.random.default_rng(43)
        for n in range(16, 23):
            hats += [hat_matrix(dp_of(random_euclidean(rng, n), p)) for p in (1.0, 1.5)]
            hats.append(hat_matrix(dp_of(random_ultrametric(rng, n))))
            labels = [f"x{i}" for i in range(n)]
            hats.append(hat_matrix(dp_of(validate_metric(labels, caterpillar(n)))))
        for hat in hats:
            z_star, beta, _ = _sign_maximum(hat)
            reference = reference_sign_maximum(hat)
            assert np.array_equal(z_star, reference[0])
            assert beta == reference[1]

    @pytest.mark.parametrize("n", [17, 21])
    def test_attained_bounds_keep_every_tie(self, n):
        # no coupling between the three coordinate blocks, so a pair's bound
        # equals its best value, and integer entries make the ties exact
        a = min(7, (n - 1) // 2)
        hat = np.zeros((n, n))
        for block in (slice(0, n - 2 * a), slice(n - 2 * a, n - a), slice(n - a, n)):
            hat[block, block] = -1.0
        z_star, beta, _ = _sign_maximum(hat)
        values, z = brute_force_values(hat)
        assert beta == values.max() == -3.0  # each block is odd, so one sign is left over
        assert np.array_equal(z_star, z[np.flatnonzero(values == beta)[0]])
        reference = reference_sign_maximum(hat)
        assert np.array_equal(z_star, reference[0])
        assert beta == reference[1]

    def test_blocking_does_not_change_result(self):
        rng = np.random.default_rng(31)
        spaces = (discrete_space(14), random_ultrametric(rng, 15), random_euclidean(rng, 17),
                  repeated_height_ultrametric(rng, 19))
        for space in spaces:
            hat = hat_matrix(dp_of(space))
            reference = reference_sign_maximum(hat)
            half = min(7, (space.n - 1) // 2)  # signs in each low block
            for rows in (1, 2, 3, 1 << 19):
                z_star, beta, _ = _sign_maximum(hat, rows << 2 * half)
                assert np.array_equal(z_star, reference[0])
                assert beta == reference[1]

    def test_evaluated_counts_the_pruned_search(self):
        for n in (2, 7, 12):
            assert gap_exact(dp_of(discrete_space(n))).evaluated == 2 ** (n - 1)
        euclidean = gap_exact(dp_of(random_euclidean(np.random.default_rng(20), 20)))
        assert 0 < euclidean.evaluated < 2**19 / 4
        # every balanced vector ties in a discrete space, so none can be pruned
        hat = hat_matrix(dp_of(discrete_space(18)))
        values, _ = brute_force_values(hat)
        tol = 4 * 18 * np.finfo(float).eps * np.abs(hat).sum()
        tied = np.count_nonzero(values >= values.max() - tol)
        assert tied == math.comb(18, 9) // 2
        assert gap_exact(dp_of(discrete_space(18))).evaluated >= tied

    def test_frozen_rational_oracle_values(self, example78):
        # expected values computed once with exact fraction arithmetic
        # (Gauss-Jordan inverse and full sign enumeration over rationals)
        assert gap_exact(dp_of(example78, 1.0)).gamma == pytest.approx(
            245.0 / 633.0, rel=1e-12
        )
        assert gap_exact(dp_of(example78, 2.0)).gamma == pytest.approx(
            17296.0 / 39241.0, rel=1e-12
        )
        assert gap_exact(dp_of(example78, 25.0)).gamma == pytest.approx(
            0.49999999254941946, rel=1e-8
        )

    def test_frozen_rational_oracle_m_constant(self, example78):
        assert certify(dp_of(example78, 1.0)).m_p == pytest.approx(656.0 / 245.0, rel=1e-12)


class TestDefinitionCheck:
    def test_tight_at_gap(self):
        dp = dp_of(discrete_space(2))
        assert gap_definition_check(dp, 1.0, [0.5, -0.5])

    def test_fails_above_gap(self):
        dp = dp_of(discrete_space(2))
        assert not gap_definition_check(dp, 1.01, [0.5, -0.5])

    def test_zero_gamma_holds_for_negative_type(self, example78, line3):
        rng = np.random.default_rng(31)
        for space, p in [(example78, 1.0), (line3, 2.0)]:
            dp = dp_of(space, p)
            for _ in range(50):
                x = rng.standard_normal(space.n)
                x -= x.mean()
                assert gap_definition_check(dp, 0.0, x)

    def test_rejects_vectors_off_the_hyperplane(self, example78):
        with pytest.raises(NotInF0):
            gap_definition_check(dp_of(example78), 1.0, np.ones(7))

    def test_rejects_zero_vector(self, example78):
        with pytest.raises(NotInF0):
            gap_definition_check(dp_of(example78), 1.0, np.zeros(7))

    def test_holds_at_exact_gap_and_fails_just_above(self, example78):
        rng = np.random.default_rng(37)
        dp = dp_of(example78)
        gamma = gap_exact(dp).gamma
        x = rng.standard_normal((10_000, 7))
        x -= x.mean(axis=1, keepdims=True)
        for row in x[:200]:
            assert gap_definition_check(dp, gamma, row)
        oracle = gap_numeric_oracle(dp, restarts=200, seed=0)
        assert not gap_definition_check(dp, gamma * 1.001, oracle.minimizer)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_limit_does_not_depend_on_the_unit(self, example78, p):
        # the inequality is tight at the gap for x = hat z*, at every scale
        for k in range(-12, 13):
            dp = dp_of(scale_space(example78, 10.0**k), p)
            result = gap_exact(dp)
            x = hat_matrix(dp) @ result.z_star
            assert gap_definition_check(dp, result.gamma, x)
            assert not gap_definition_check(dp, result.gamma * (1.0 + 1e-6), x)


class TestNumericOracle:
    @staticmethod
    def assert_form_identity(dp, oracle):
        x = oracle.minimizer
        form = -float(x @ dp.entries @ x) / float(np.abs(x).sum()) ** 2
        assert oracle.gamma == pytest.approx(2.0 * form, rel=1e-12, abs=0.0)

    def assert_matches_exact(self, dp, rel=1e-12, **kwargs):
        oracle = gap_numeric_oracle(dp, **kwargs)
        assert oracle.gamma == pytest.approx(gap_exact(dp).gamma, rel=rel, abs=0.0)
        self.assert_form_identity(dp, oracle)
        assert oracle.iterations < kwargs.get("max_iterations", 600)
        return oracle

    def test_three_point_discrete(self):
        oracle = gap_numeric_oracle(dp_of(discrete_space(3)), restarts=100, seed=1)
        assert oracle.gamma == pytest.approx(0.75, abs=1e-6)

    def test_two_point(self):
        oracle = gap_numeric_oracle(dp_of(scale_space(discrete_space(2), 2.0)), restarts=50, seed=2)
        assert oracle.gamma == pytest.approx(2.0, abs=1e-6)

    def test_example_within_recursive_interval(self, example78):
        oracle = self.assert_matches_exact(dp_of(example78), restarts=200, seed=3)
        assert 4.0 / 33.0 - 1e-6 <= oracle.gamma <= 2.0 / 5.0 + 1e-6

    @pytest.mark.parametrize("p, rel", [(0.5, 1e-12), (1.0, 1e-12), (2.0, 1e-12), (25.0, 1e-9)])
    def test_matches_exact_on_example(self, example78, p, rel):
        # at p = 25 the bordered inverse loses digits to the matrix's dynamic range
        self.assert_matches_exact(dp_of(example78, p), rel=rel)

    def test_never_undershoots_exact(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            space = random_euclidean(rng, int(rng.integers(3, 7)))
            dp = dp_of(space)
            exact = gap_exact(dp).gamma
            oracle = gap_numeric_oracle(dp, restarts=60, seed=4)
            assert oracle.gamma >= exact - 1e-6

    def test_requires_strict(self, line3):
        with pytest.raises(NotStrict):
            gap_numeric_oracle(dp_of(line3, 2.0))

    def test_matches_exact_on_corpus(self, corpus):
        for index, space in enumerate(corpus):
            self.assert_matches_exact(dp_of(space), restarts=50, seed=index, max_iterations=150)

    @pytest.mark.parametrize("n, p", [(18, 1.0), (19, 1.5), (20, 1.0), (21, 1.5)])
    def test_matches_exact_on_euclidean(self, n, p):
        space = random_euclidean(np.random.default_rng(n), n)
        self.assert_matches_exact(dp_of(space, p))

    def test_independent_of_hat_matrix_and_enumeration(self, monkeypatch):
        dp = dp_of(random_euclidean(np.random.default_rng(20), 20), 1.5)
        exact = gap_exact(dp).gamma

        def disabled(*args, **kwargs):
            raise AssertionError("the oracle must not call this")

        monkeypatch.setattr(gap, "hat_matrix", disabled)
        monkeypatch.setattr(gap, "_sign_maximum", disabled)
        monkeypatch.setattr(spectral, "refined_solve", disabled)
        monkeypatch.setattr(spectral, "lu_factor", disabled)
        oracle = gap_numeric_oracle(dp)
        assert oracle.gamma == pytest.approx(exact, rel=1e-12, abs=0.0)
        self.assert_form_identity(dp, oracle)

    @pytest.mark.parametrize(
        "restarts, max_iterations", [(200, 0), (1, 0), (1, 1), (1, 10), (1, 20), (1, 600)]
    )
    def test_truncated_search_is_an_upper_bound(self, example78, restarts, max_iterations):
        # two points: half of all single starts are constant, where K z = 0
        spaces = [(example78, 1.0), (random_euclidean(np.random.default_rng(18), 18), 1.5),
                  (discrete_space(2), 1.0), (discrete_space(3), 2.0)]
        for space, p in spaces:
            dp = dp_of(space, p)
            exact = gap_exact(dp).gamma
            for seed in range(4):
                kwargs = dict(restarts=restarts, seed=seed, max_iterations=max_iterations)
                oracle = gap_numeric_oracle(dp, **kwargs)
                assert oracle.gamma >= exact * (1.0 - 1e-12)
                assert oracle.iterations <= max_iterations
                self.assert_form_identity(dp, oracle)
                assert gap_definition_check(dp, oracle.gamma, oracle.minimizer)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"restarts": 0}, "restarts must be at least 1, got 0"),
            ({"max_iterations": -1}, "max_iterations must be at least 0, got -1"),
            ({"seed": -1}, "seed must be at least 0, got -1"),
        ],
    )
    def test_rejects_bad_arguments(self, example78, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            gap_numeric_oracle(dp_of(example78), **kwargs)
