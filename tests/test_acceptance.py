"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
per-criterion runtimes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from helpers import (
    EXAMPLE_EDGES,
    EXAMPLE_MATRIX,
    random_euclidean,
    random_ultrametric,
)
from negtype import (
    GlueClassification,
    GlueSpec,
    averaging_identity,
    build_graph,
    certify,
    decompose,
    discrete_space,
    gap_definition_check,
    gap_exact,
    gap_numeric_oracle,
    glue_gap_bounds,
    glue_spaces,
    glue_type_condition,
    glued_hat_form,
    glued_inverse,
    mp_ultrametric_properties,
    p_distance_matrix,
    recursive_gap_bounds,
    spectral_bounds,
    strictly_ultrametric_check,
    ultrametric_from_graph,
    upper_bound_diameter,
    upper_bound_mean,
    validate_metric,
)


@contextmanager
def criterion(number: int, limit: float, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        print(f"criterion {number:2d}: FAIL  ({elapsed:6.2f}s) {description}")
        raise
    elapsed = time.perf_counter() - started
    verdict = "PASS" if elapsed < limit else "FAIL"
    print(f"criterion {number:2d}: {verdict}  ({elapsed:6.2f}s, limit {limit:g}s) {description}")
    assert elapsed < limit, f"runtime {elapsed:.2f}s exceeded the {limit:g}s limit"


def dp_of(space, p=1.0):
    return p_distance_matrix(space, p)


def test_criterion_01_discrete_gap_formula():
    with criterion(1, 1.0, "discrete-space gap matches the closed form"):
        for n in range(2, 13):
            expected = 2.0 / n if n % 2 == 0 else 2.0 / (n - 1.0 / n)
            for p in (0.5, 1.0, 2.0):
                gamma = gap_exact(dp_of(discrete_space(n), p)).gamma
                assert abs(gamma - expected) <= 1e-12


def test_criterion_02_seven_point_example():
    with criterion(2, 1.0, "seven-point example: matrix, splits, interval"):
        space = ultrametric_from_graph(build_graph(EXAMPLE_EDGES))
        assert np.array_equal(space.dist, EXAMPLE_MATRIX)

        tree = decompose(space)
        split_distances = [node.split_distance for node in tree.walk() if not node.is_leaf]
        assert split_distances == [4.0, 3.0, 2.0]

        rec = recursive_gap_bounds(space, 1.0)
        assert abs(rec.lower_reciprocal - 2.5) <= 1e-12
        assert abs(rec.upper_reciprocal - 33.0 / 4.0) <= 1e-12

        gamma = gap_exact(dp_of(space)).gamma
        assert 4.0 / 33.0 - 1e-12 <= gamma <= 2.0 / 5.0 + 1e-12


def test_criterion_03_asymptotic_limit(example78):
    with criterion(3, 5.0, "large-p limit one half and reciprocal decay rate"):
        gamma_25 = gap_exact(dp_of(example78, 25.0)).gamma
        assert abs(gamma_25 - 0.5) <= 1e-5

        def residual(p):
            return abs(1.0 / gap_exact(dp_of(example78, p)).gamma - 2.0)

        constant = residual(5.0) * 2.0**5
        for p in (8.0, 12.0, 16.0):
            assert residual(p) <= constant * 2.0**-p + 1e-9


def test_criterion_04_spectral_sandwich(corpus):
    with criterion(4, 30.0, "spectral sandwich and row-sum factor on the corpus"):
        for space in corpus:
            for p in (0.5, 1.0, 2.0):
                dp = dp_of(space, p)
                gamma = gap_exact(dp).gamma
                bounds = spectral_bounds(dp)
                assert bounds.lower - 1e-9 <= gamma <= bounds.upper + 1e-9
                assert bounds.row_sum_factor <= 1.0 + 1e-9
                factor_is_one = abs(bounds.row_sum_factor - 1.0) <= 1e-9
                assert factor_is_one == bounds.constant_row_sum


def test_criterion_05_bound_chain(corpus):
    with criterion(5, 10.0, "gap <= mean bound <= diameter bound; tight iff discrete"):
        for space in corpus:
            for p in (0.5, 1.0, 2.0):
                dp = dp_of(space, p)
                gamma = gap_exact(dp).gamma
                mean_bound = upper_bound_mean(dp)
                diam = upper_bound_diameter(dp)
                assert gamma <= mean_bound + 1e-9
                assert mean_bound <= diam.value + 1e-9
                off = space.dist[~np.eye(space.n, dtype=bool)]
                is_discrete = bool((off == off.max()).all())
                assert diam.tight == is_discrete
                if is_discrete:
                    assert abs(gamma - diam.value) <= 1e-12 * max(1.0, diam.value)
                else:
                    assert gamma < diam.value - 1e-12 * diam.value


def test_criterion_06_glue_algebra():
    with criterion(6, 60.0, "block inverse, hat decomposition, glued-gap bounds"):
        rng = np.random.default_rng(20240816)
        pairs = []
        while len(pairs) < 50:
            left = random_ultrametric(rng, int(rng.integers(2, 6)))
            right = random_ultrametric(rng, int(rng.integers(1, 6)))
            right = validate_metric([f"r_{x}" for x in right.labels], right.dist)
            p = float(rng.choice([0.5, 1.0, 2.0]))
            diam = max(left.dist.max(), right.dist.max())
            m_total = certify(dp_of(left, p)).m_p + certify(dp_of(right, p)).m_p
            c_floor = max(diam / 2.0, (m_total / 2.0) ** (1.0 / p))
            c = float(c_floor * rng.uniform(1.05, 1.6))
            pairs.append((GlueSpec(left=left, right=right, c=c), p))

        for spec, p in pairs:
            glued = glue_spaces(spec)
            glued_dp = dp_of(glued, p)

            inv = glued_inverse(dp_of(spec.left, p), dp_of(spec.right, p), spec.c)
            residual = np.abs(inv @ glued_dp.entries - np.eye(glued.n)).max()
            assert residual <= 1e-8

            z = rng.standard_normal((1000, glued.n))
            form = glued_hat_form(dp_of(spec.left, p), dp_of(spec.right, p), spec.c, z)
            scale = np.maximum(1.0, np.abs(form.direct))
            assert (np.abs(form.direct - form.decomposition) <= 1e-8 * scale).all()

            gamma_left = gap_exact(dp_of(spec.left, p)).gamma
            gamma_right = gap_exact(dp_of(spec.right, p)).gamma
            bounds = glue_gap_bounds(spec, p, gamma_left, gamma_right)
            gamma = gap_exact(glued_dp).gamma
            assert bounds.lower - 1e-9 <= gamma <= bounds.upper + 1e-9

        # exactly constructed boundary: two unit pairs bridged so the margin is zero
        left = discrete_space(2)
        right = validate_metric(["y1", "y2"], discrete_space(2).dist)
        boundary = glue_type_condition(GlueSpec(left=left, right=right, c=0.5), 1.0)
        assert boundary.classification is GlueClassification.NON_STRICT_BOUNDARY


def test_criterion_07_oracle_agreement():
    with criterion(7, 60.0, "numeric oracle agrees with exact gap to 1e-4"):
        rng = np.random.default_rng(20240817)
        spaces = []
        for k in range(20):
            n = int(rng.integers(3, 9))
            if k % 2 == 0:
                spaces.append(random_ultrametric(rng, n))
            else:
                spaces.append(random_euclidean(rng, n))
        for index, space in enumerate(spaces):
            dp = dp_of(space)
            exact = gap_exact(dp).gamma
            oracle = gap_numeric_oracle(dp, restarts=200, seed=index)
            assert abs(oracle.gamma - exact) <= 1e-4
            assert oracle.gamma >= exact - 1e-6


def test_criterion_08_definitional_suite(corpus):
    with criterion(8, 30.0, "defining inequality tight at the exact gap"):
        rng = np.random.default_rng(20240818)
        for space in corpus:
            dp = dp_of(space)
            gamma = gap_exact(dp).gamma

            x = rng.standard_normal((10_000, space.n))
            x -= x.mean(axis=1, keepdims=True)
            norms = np.abs(x).sum(axis=1)
            forms = np.einsum("ij,ij->i", x @ dp.entries, x)
            lhs = 0.5 * gamma * norms**2 + forms
            assert (lhs <= 1e-12 * norms**2 * max(1.0, gamma)).all()
            for row in x[:100]:
                assert gap_definition_check(dp, gamma, row)

            oracle = gap_numeric_oracle(dp, restarts=200, seed=space.n)
            assert not gap_definition_check(dp, gamma * 1.001, oracle.minimizer)


def test_criterion_09_averaging_identity():
    with criterion(9, 10.0, "balanced-average identity matches closed form"):
        rng = np.random.default_rng(20240819)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            b = rng.standard_normal((n, n))
            b = 0.5 * (b + b.T)
            np.fill_diagonal(b, 0.0)
            result = averaging_identity(b)
            assert abs(result.lhs - result.rhs) <= 1e-12 * max(1.0, abs(result.rhs))


def test_criterion_10_ultrametric_lemmas(corpus):
    with criterion(10, 30.0, "ultrametric strictness, shifted matrix, inverse positivity"):
        for space in corpus:
            off = space.dist[~np.eye(space.n, dtype=bool)]
            is_discrete = bool((off == off.max()).all())
            for p in (0.5, 1.0, 2.0):
                dp = dp_of(space, p)
                cert = certify(dp)
                assert cert.strict
                diam_p = float(space.dist.max()) ** p
                shifted = diam_p * np.ones((space.n, space.n)) - dp.entries
                assert strictly_ultrametric_check(shifted)
                assert (cert.b > 0).all()
                report = mp_ultrametric_properties(dp)
                bound = (space.n - 1) / space.n * diam_p
                assert cert.m_p <= bound + 1e-10
                assert report.mp_bound_satisfied
                if is_discrete:
                    assert abs(cert.m_p - bound) <= 1e-10 * max(1.0, bound)
