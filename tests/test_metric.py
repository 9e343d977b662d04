from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    EXAMPLE_EDGES,
    EXAMPLE_LABELS,
    EXAMPLE_MATRIX,
    brute_is_ultrametric,
    brute_minimax,
    brute_parse_matrix_text,
    brute_triangle_violation,
    caterpillar,
    example_space,
    random_connected_graph,
    random_dendrogram,
    random_euclidean,
    random_ultrametric,
    tree_path_max_weight,
    ultrametric_corpus,
)
from negtype import cli, metric
from negtype import (
    GlueSpec,
    asymptotic_gap_limit,
    certify,
    coteries,
    decompose,
    discrete_space,
    gap_exact,
    gap_numeric_oracle,
    glue_spaces,
    glued_hat_form,
    is_ultrametric,
    mp_ultrametric_properties,
    p_distance_matrix,
    parse_edge_list_text,
    parse_matrix_text,
    recursive_gap_bounds,
    scale_space,
    space_stats,
    sym_eigen,
    ultrametric_from_graph,
    validate_metric,
)
from negtype.errors import (
    AsymmetricMatrix,
    DisconnectedGraph,
    LabelCollision,
    NonpositiveExponent,
    NonpositiveOffDiagonal,
    NonpositiveScale,
    NonzeroDiagonal,
    ParseError,
    SinglePoint,
    TriangleViolation,
)


class TestValidateMetric:
    def test_two_point_space(self):
        space = validate_metric(["a", "b"], [[0, 2], [2, 0]])
        assert space.n == 2
        assert space.dist[0, 1] == 2.0

    def test_repr_names_size_and_labels(self):
        space = validate_metric(["a", "b"], [[0, 2], [2, 0]])
        assert repr(space) == "FiniteMetricSpace(n=2, labels=['a', 'b'])"

    def test_example_matrix_is_valid_and_ultrametric(self, example78):
        assert example78.n == 7
        assert is_ultrametric(example78)

    def test_triangle_violation_names_indices(self):
        with pytest.raises(TriangleViolation) as err:
            validate_metric(["a", "b", "c"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert (err.value.i, err.value.j, err.value.k) == (0, 2, 1)

    def test_triangle_sums_above_the_float_range(self):
        # 1e308 + 1.5e308 overflows to an infinite slack, which holds; the
        # suite turns numpy's overflow warning into an error
        big = validate_metric("abc", [[0, 1e308, 1.5e308], [1e308, 0, 1e308], [1.5e308, 1e308, 0]])
        assert big.dist[0, 2] == 1.5e308
        with pytest.raises(TriangleViolation) as err:
            validate_metric("abc", [[0, 5e307, 1.7e308], [5e307, 0, 5e307], [1.7e308, 5e307, 0]])
        assert (err.value.i, err.value.j, err.value.k) == (0, 2, 1)

    def test_asymmetric(self):
        with pytest.raises(AsymmetricMatrix):
            validate_metric(["a", "b"], [[0, 1], [2, 0]])

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal):
            validate_metric(["a", "b"], [[1, 1], [1, 0]])

    def test_nonpositive_off_diagonal(self):
        with pytest.raises(NonpositiveOffDiagonal):
            validate_metric(["a", "b"], [[0, 0], [0, 0]])

    @pytest.mark.parametrize(
        "labels, raw, error, message",
        [
            pytest.param(["a", "a"], [[0, 1], [1, 0]], LabelCollision, "duplicate point labels",
                         id="duplicate-labels"),
            pytest.param(["a", "b", "c"], [[0, 1], [1, 0]], ValueError,
                         r"expected a 3x3 matrix, got shape \(2, 2\)", id="wrong-shape"),
            pytest.param(["a", "b"], [0, 1], ValueError,
                         r"expected a 2x2 matrix, got shape \(2,\)", id="one-dimensional"),
            pytest.param(["a", "b"], [[0, np.inf], [np.inf, 0]], ValueError,
                         "distance matrix contains non-finite entries", id="infinite"),
            pytest.param(["a", "b"], [[0, np.nan], [np.nan, 0]], ValueError,
                         "distance matrix contains non-finite entries", id="nan"),
        ],
    )
    def test_rejects_before_the_matrix_checks(self, labels, raw, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            validate_metric(labels, raw)

    def test_single_point_is_valid(self):
        space = validate_metric(["x"], [[0.0]])
        assert space.n == 1

    def test_empty_space_is_refused(self, example78):
        message = "^a metric space needs at least one point$"
        with pytest.raises(ValueError, match=message):
            validate_metric([], np.zeros((0, 0)))
        with pytest.raises(ValueError, match=message):
            example78.restrict([])

    def test_idempotent(self, example78):
        again = validate_metric(example78.labels, example78.dist)
        assert np.array_equal(again.dist, example78.dist)

    def test_first_violation_matches_full_cubic_scan(self):
        # n = 60 and 130 span several row blocks of the triangle check.
        rng = np.random.default_rng(11)
        for n in (4, 9, 60, 130):
            for _ in range(3):
                d = random_euclidean(rng, n).dist.copy()
                i, j = rng.choice(n, size=2, replace=False)
                d[i, j] = d[j, i] = 3.0 * d[i, j]
                expected = brute_triangle_violation(d)
                with pytest.raises(TriangleViolation) as err:
                    validate_metric([str(x) for x in range(n)], d)
                assert (err.value.i, err.value.j, err.value.k) == expected

    def test_outcome_matches_cubic_scan_on_both_branches(self):
        # The scan is skipped exactly when d is within tolerance of its
        # subdominant ultrametric; both branches must agree with the full scan.
        rng = np.random.default_rng(12)
        matrices = [space.dist for space in ultrametric_corpus()]
        matrices += [random_euclidean(rng, int(rng.integers(3, 30))).dist for _ in range(40)]
        for _ in range(150):
            d = random_dendrogram(rng, int(rng.integers(3, 20)))
            i, j = rng.choice(d.shape[0], size=2, replace=False)
            tol = metric.METRIC_RTOL * float(d.max())
            kind = int(rng.integers(3))
            if kind == 0:  # near the tolerance, either side
                step = float(rng.choice([0.3, 0.9, 1.1, 3.0])) * tol
                d[i, j] += float(rng.choice([-1.0, 1.0])) * step
            elif kind == 1:  # a visible move that usually keeps the triangles
                d[i, j] *= float(rng.uniform(0.6, 1.4))
            else:  # past the shortest detour, or just inside its tolerance
                others = np.setdiff1d(np.arange(d.shape[0]), [i, j])
                detour = float((d[i, others] + d[others, j]).min())
                d[i, j] = detour + float(rng.choice([0.5, 2.0, 1e6])) * tol
            d[j, i] = d[i, j]
            matrices.append(d)
        # Points closer than the tolerance: d_ac exceeds its subdominant d_ab = d_bc
        # by c * tol and breaks the triangle through b exactly when c > 1 + h.
        tol = metric.METRIC_RTOL
        for h in (1.0, 0.01):
            for c in (0.5, 1.0, 1.02, 1.5, 2.5):
                d = np.ones((4, 4))
                np.fill_diagonal(d, 0.0)
                d[0, 1] = d[1, 0] = d[1, 2] = d[2, 1] = h * tol
                d[0, 2] = d[2, 0] = (h + c) * tol
                matrices.append(d)
        seen = set()
        for d in matrices:
            labels = [str(x) for x in range(d.shape[0])]
            expected = brute_triangle_violation(d)
            if expected is None:
                space = validate_metric(labels, d)
                assert np.array_equal(space.dist, d)
                seen.add(("skip" if is_ultrametric(space) else "scan", "accept"))
            else:
                with pytest.raises(TriangleViolation) as err:
                    validate_metric(labels, d)
                assert (err.value.i, err.value.j, err.value.k) == expected
                seen.add(("scan", "reject"))
        assert seen == {("skip", "accept"), ("scan", "accept"), ("scan", "reject")}

    def test_space_owns_its_matrix(self):
        d = caterpillar(6)
        space = validate_metric([f"x{i}" for i in range(6)], d)
        assert d.flags.writeable
        assert not space.dist.flags.writeable
        d[0, 5] = d[5, 0] = 0.5  # would break the strong triangle inequality
        assert np.array_equal(space.dist, caterpillar(6))
        assert is_ultrametric(space)

    def test_one_spanning_tree_pass_per_space(self, spanning_tree_calls):
        space = validate_metric(EXAMPLE_LABELS, EXAMPLE_MATRIX)
        certify(p_distance_matrix(space, 1.0))
        assert is_ultrametric(space)
        decompose(space)
        coteries(space)
        recursive_gap_bounds(space, 1.0)
        asymptotic_gap_limit(space)
        mp_ultrametric_properties(p_distance_matrix(space, 1.0))
        assert spanning_tree_calls == [7]

    def test_memory_stays_quadratic(self):
        n = 400
        d = random_dendrogram(np.random.default_rng(3), n)
        labels = [f"x{i + 1}" for i in range(n)]
        edges = random_connected_graph(np.random.default_rng(4), n)
        tracemalloc.start()
        try:
            validate_metric(labels, d)
            ultrametric_from_graph(edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # n x n arrays: the subdominant, whose excess is taken in place, then
        # the space's copy; the graph's weights and its subdominant
        assert peak < 2.6 * (8 * n * n)


class TestPDistanceMatrix:
    def test_p_one_identity(self):
        space = validate_metric(["a", "b"], [[0, 2], [2, 0]])
        dp = p_distance_matrix(space, 1.0)
        assert np.array_equal(dp.entries, space.dist)

    def test_p_two_squares(self):
        space = validate_metric(["a", "b"], [[0, 2], [2, 0]])
        dp = p_distance_matrix(space, 2.0)
        assert np.array_equal(dp.entries, [[0, 4], [4, 0]])

    def test_example_p_one(self, example78):
        dp = p_distance_matrix(example78, 1.0)
        assert np.array_equal(dp.entries, EXAMPLE_MATRIX)

    def test_nonpositive_exponent(self, example78):
        with pytest.raises(NonpositiveExponent):
            p_distance_matrix(example78, 0.0)

    def test_infinite_exponent_rejected(self, example78):
        with pytest.raises(ValueError, match="^exponent must be finite, got inf$"):
            p_distance_matrix(example78, float("inf"))
        with pytest.raises(NonpositiveExponent, match="^exponent must be positive, got -inf$"):
            p_distance_matrix(example78, float("-inf"))

    def test_overflowing_exponent_rejected(self, example78):
        with pytest.raises(ValueError):
            p_distance_matrix(example78, 4000.0)

    def test_bit_reproducible(self, example78):
        first = p_distance_matrix(example78, 1.7).entries
        second = p_distance_matrix(example78, 1.7).entries
        assert np.array_equal(first, second)

    def test_power_of_a_held_space_holds_one_n_by_n_array(self):
        # the power, and the zero counts' boolean masks of n x n bytes; a
        # float copy of the positive entries would add one more n x n array
        n = 400
        space = validate_metric([f"x{i}" for i in range(n)], random_dendrogram(np.random.default_rng(5), n))
        tracemalloc.start()
        try:
            p_distance_matrix(space, 1.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * (8 * n * n)

    def test_zero_distances_are_not_an_underflow(self):
        # the diagonal's zeros stay zeros; a positive power that reaches 0 is refused
        space = validate_metric(["a", "b"], [[0, 1e-200], [1e-200, 0]])
        assert p_distance_matrix(space, 1.5).entries[0, 1] == 1e-300
        with pytest.raises(ValueError, match="^distance powers underflow to zero at exponent 2.0$"):
            p_distance_matrix(space, 2.0)


def _pair(labels="ab"):
    return validate_metric(labels, [[0, 2], [2, 0]])


# each builds a fresh record equal, field by field, to the one before
RECORDS_WITH_ARRAYS = {
    "FiniteMetricSpace": _pair,
    "PDistanceMatrix": lambda: p_distance_matrix(_pair(), 1.5),
    "NegTypeCertificate": lambda: certify(p_distance_matrix(_pair(), 1.5)),
    "Spectrum": lambda: sym_eigen(p_distance_matrix(_pair(), 1.5).entries),
    "GapResult": lambda: gap_exact(p_distance_matrix(_pair(), 1.5)),
    "OracleResult": lambda: gap_numeric_oracle(p_distance_matrix(_pair(), 1.5), restarts=4),
    "GluedHatForm": lambda: glued_hat_form(
        p_distance_matrix(_pair("ab"), 1.0), p_distance_matrix(_pair("cd"), 1.0), 2.0, np.eye(4)
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS_WITH_ARRAYS))
def test_records_with_arrays_compare_and_hash_by_identity(name):
    # a generated __eq__ would compare the array fields and raise
    a, b = RECORDS_WITH_ARRAYS[name](), RECORDS_WITH_ARRAYS[name]()
    assert type(a).__name__ == name
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == object.__hash__(a)
    assert {a: 1}[a] == 1 and b not in {a: 1}


def test_scalar_records_keep_value_equality():
    assert space_stats(_pair()) == space_stats(_pair())


ULTRA3 = [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
LINE3 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

# every way to build a space from a matrix, and whether the result is an ultrametric
CONSTRUCTIONS = {
    "validate-1": (lambda: validate_metric("a", [[0]]), True),
    "validate-2": (_pair, True),
    "validate-3-ultrametric": (lambda: validate_metric("abc", ULTRA3), True),
    "validate-3-line": (lambda: validate_metric("abc", LINE3), False),
    "restrict": (lambda: example_space().restrict([6, 0, 3, 2]), True),
    "scale_space": (lambda: scale_space(validate_metric("abc", LINE3), 2.5), False),
    "discrete_space": (lambda: discrete_space(4, 3.0), True),
    "glue_spaces": (lambda: glue_spaces(GlueSpec(_pair("ab"), _pair("cd"), 2.0)), True),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_every_space_is_built_with_the_fit_of_its_matrix(name):
    build, ultrametric = CONSTRUCTIONS[name]
    space = build()
    assert space.fit == metric._ultrametric_fit(space.dist)
    assert is_ultrametric(space) == ultrametric


def test_graph_space_is_built_with_the_fit_of_its_matrix():
    # the graph's own pass gives the path that a pass over its matrix gives
    space = ultrametric_from_graph(EXAMPLE_EDGES)
    assert space.fit[1] == 0.0
    assert space.fit == metric._ultrametric_fit(space.dist)


class TestDiscreteAndScale:
    def test_discrete_two_points(self):
        assert np.array_equal(discrete_space(2, 1.0).dist, [[0, 1], [1, 0]])

    def test_discrete_three_points_pattern(self):
        d = discrete_space(3, 1.0).dist
        assert np.array_equal(d, np.ones((3, 3)) - np.eye(3))

    def test_discrete_scaled(self):
        d = discrete_space(4, 2.0).dist
        off = d[~np.eye(4, dtype=bool)]
        assert (off == 2.0).all()

    def test_scale_doubles(self):
        space = scale_space(discrete_space(2, 1.0), 2.0)
        assert space.dist[0, 1] == 2.0

    def test_scale_identity_is_bitwise(self, example78):
        assert np.array_equal(scale_space(example78, 1.0).dist, example78.dist)

    def test_scale_half(self):
        space = scale_space(discrete_space(3, 1.0), 0.5)
        assert (space.dist[~np.eye(3, dtype=bool)] == 0.5).all()

    def test_nonpositive_scale(self, example78):
        with pytest.raises(NonpositiveScale):
            scale_space(example78, -1.0)
        for scale in (0.0, -1.0, float("nan")):
            with pytest.raises(NonpositiveScale, match="scale must be positive"):
                discrete_space(3, scale)

    def test_discrete_needs_a_point(self):
        with pytest.raises(ValueError, match="need at least one point, got 0"):
            discrete_space(0)

    def test_scale_then_power_within_four_ulp(self, example78):
        for alpha, p in [(2.0, 1.5), (0.3, 0.5), (7.0, 2.0)]:
            scaled = p_distance_matrix(scale_space(example78, alpha), p).entries
            direct = alpha**p * p_distance_matrix(example78, p).entries
            gap = np.abs(scaled - direct)
            assert (gap <= 4 * np.spacing(np.maximum(np.abs(scaled), np.abs(direct)))).all()


class TestIsUltrametric:
    def test_example(self, example78):
        assert is_ultrametric(example78)

    def test_line_is_not(self):
        space = validate_metric(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert not is_ultrametric(space)

    def test_discrete_always(self):
        assert is_ultrametric(discrete_space(5, 3.0))

    def test_matches_cubic_oracle(self, corpus):
        rng = np.random.default_rng(5)
        spaces = list(corpus)
        spaces += [random_euclidean(rng, int(rng.integers(2, 25))) for _ in range(60)]
        for _ in range(30):
            edges = random_connected_graph(rng, int(rng.integers(2, 20)))
            spaces.append(ultrametric_from_graph(edges))
        for space in spaces:
            assert is_ultrametric(space) == brute_is_ultrametric(space)

    def test_single_perturbation_matches_cubic_oracle(self):
        # Moves of one entry well below, near and well above the tolerance.
        rng = np.random.default_rng(6)
        outcomes = set()
        for _ in range(120):
            space = random_ultrametric(rng, int(rng.integers(3, 16)))
            tol = metric.METRIC_RTOL * float(space.dist.max())
            d = space.dist.copy()
            i, j = rng.choice(space.n, size=2, replace=False)
            step = float(rng.choice([0.01, 0.5, 2.0, 100.0, 1e6])) * tol
            d[i, j] = d[j, i] = d[i, j] + float(rng.choice([-1.0, 1.0])) * step
            perturbed = validate_metric(space.labels, d)
            verdict = is_ultrametric(perturbed)
            assert verdict == brute_is_ultrametric(perturbed)
            outcomes.add(verdict)
        assert outcomes == {True, False}


class TestSpaceStats:
    def test_example(self, example78):
        stats = space_stats(example78)
        assert stats.diameter == 4.0
        assert stats.min_positive == 1.0
        assert stats.ratio == 4.0

    def test_discrete(self):
        stats = space_stats(discrete_space(6, 1.0))
        assert (stats.diameter, stats.min_positive, stats.ratio) == (1.0, 1.0, 1.0)

    def test_two_point(self):
        stats = space_stats(validate_metric(["a", "b"], [[0, 2], [2, 0]]))
        assert (stats.diameter, stats.min_positive, stats.ratio) == (2.0, 2.0, 1.0)

    def test_single_point(self):
        with pytest.raises(SinglePoint):
            space_stats(validate_metric(["x"], [[0.0]]))


class TestMinimaxGraph:
    def test_example_graph_reproduces_matrix(self):
        space = ultrametric_from_graph(EXAMPLE_EDGES)
        assert space.labels == EXAMPLE_LABELS
        assert np.array_equal(space.dist, EXAMPLE_MATRIX)

    def test_single_edge(self):
        space = ultrametric_from_graph([("a", "b", 3.0)])
        assert space.dist[0, 1] == 3.0

    def test_triangle_routes_around_heavy_edge(self):
        # Oracle: enumerate both simple paths between the heavy edge's ends.
        edges = [("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 5.0)]
        direct = 5.0
        around = max(1.0, 2.0)
        expected = min(direct, around)
        space = ultrametric_from_graph(edges)
        i, j = space.labels.index("a"), space.labels.index("c")
        assert space.dist[i, j] == expected == 2.0

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraph):
            ultrametric_from_graph([("a", "b", 1.0), ("c", "d", 1.0)])

    def test_directly_built_graph(self):
        edges = [("b", "c", 1.0), ("a", "c", 5.0), ("a", "b", 2.0)]
        space = ultrametric_from_graph(edges, vertices=("a", "b", "c"))
        assert space.labels == ("a", "b", "c")
        assert np.array_equal(space.dist, [[0, 2, 2], [2, 0, 1], [2, 1, 0]])

    @pytest.mark.parametrize(
        "vertices, edges, error, message",
        [
            pytest.param(("a", "b", "c"), (("a", "b", 1.0),), DisconnectedGraph,
                         "need a connected graph", id="isolated-vertex"),
            pytest.param((), (), ValueError, "graph has no vertices", id="no-vertices"),
            *(pytest.param(("a", "b", "c"), (("a", "b", w), ("b", "c", 1.0)), ValueError,
                           rf"edge \(a, b\) has nonpositive weight {w}", id=f"weight-{w}")
              for w in (0.0, -1.0, float("nan"))),
            pytest.param(("a", "b", "c"), (("a", "b", float("inf")), ("b", "c", 1.0)), ValueError,
                         r"edge \(a, b\) has non-finite weight inf", id="weight-inf"),
            pytest.param(("a", "b"), (("a", "b", 1.0), ("b", "b", 1.0)), ValueError,
                         "self-loop at vertex 'b'", id="self-loop"),
        ],
    )
    def test_directly_built_graph_is_checked(self, vertices, edges, error, message):
        with pytest.raises(error, match=message):
            ultrametric_from_graph(edges, vertices)

    def test_matches_floyd_warshall_oracle(self):
        rng = np.random.default_rng(8)
        for k in range(60):
            edges = random_connected_graph(rng, int(rng.integers(2, 25)))
            if k % 2:  # integer weights: many equal heights
                edges = [(u, v, float(np.ceil(w))) for u, v, w in edges]
            space = ultrametric_from_graph(edges)
            assert np.array_equal(space.dist, brute_minimax(space.labels, edges))

    def test_single_vertex(self):
        space = ultrametric_from_graph([], vertices=["solo"])
        assert space.n == 1 and space.dist[0, 0] == 0.0
        with pytest.raises(ValueError, match="graph has no vertices"):
            ultrametric_from_graph([])

    def test_given_vertices_come_first_then_endpoints_by_first_appearance(self):
        # vertex order shows only on a connected space, so c has an edge
        edges = [("d", "a", 1), ("b", "d", 2.5), ("e", "a", 3), (np.str_("c"), "e", np.int64(2))]
        for vertices in (["b", "c", "b"], np.array(["b", "c", "b"])):
            space = ultrametric_from_graph(edges, vertices=vertices)
            assert space.labels == ("b", "c", "d", "a", "e")
            assert all(type(label) is str for label in space.labels)
            assert np.array_equal(space.dist, [[0, 3, 2.5, 2.5, 3], [3, 0, 3, 3, 2],
                                               [2.5, 3, 0, 1, 3], [2.5, 3, 1, 0, 3],
                                               [3, 2, 3, 3, 0]])

    def test_one_spanning_tree_pass_per_graph(self, spanning_tree_calls):
        space = ultrametric_from_graph(EXAMPLE_EDGES)
        assert is_ultrametric(space)
        decompose(space)
        coteries(space)
        recursive_gap_bounds(space, 1.0)
        assert spanning_tree_calls == [7]

    def test_graph_space_agrees_with_its_validated_matrix(self):
        # the graph-built space keeps the tree of the minimax pass; the same
        # matrix validated from scratch runs its own pass and must agree
        rng = np.random.default_rng(20)
        for k in range(80):
            edges = random_connected_graph(rng, int(rng.integers(2, 30)))
            if k % 2:  # integer weights: many equal heights
                edges = [(u, v, float(np.ceil(w))) for u, v, w in edges]
            space = ultrametric_from_graph(edges)
            fresh = validate_metric(space.labels, space.dist)
            assert is_ultrametric(fresh)
            for full_split in (False, True):
                assert decompose(space, full_split) == decompose(fresh, full_split)
            assert coteries(space) == coteries(fresh)
            assert recursive_gap_bounds(space, 1.0) == recursive_gap_bounds(fresh, 1.0)

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 12))
    def test_minimax_is_ultrametric(self, seed, n):
        rng = np.random.default_rng(seed)
        edges = random_connected_graph(rng, n)
        space = ultrametric_from_graph(edges)
        assert brute_is_ultrametric(space)  # not is_ultrametric: it reads the pass's own tree

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 10))
    def test_tree_minimax_matches_path_maximum(self, seed, n):
        rng = np.random.default_rng(seed)
        tree_edges = random_connected_graph(rng, n)[: n - 1]  # spanning tree only
        space = ultrametric_from_graph(tree_edges)
        for u, v in itertools.combinations(space.labels, 2):
            expected = tree_path_max_weight(tree_edges, u, v)
            i, j = space.labels.index(u), space.labels.index(v)
            assert space.dist[i, j] == expected


SPECIAL_TOKENS = ("0", "0.0", "-0.0", "1e3", "1000", "inf", "nan", "1_0")


@st.composite
def matrix_texts(draw):
    """Matrix-file texts whose rows mix repeated and distinct tokens; now and
    then a row is one entry short or long, a token does not parse, or the
    row count is off by one."""
    n = draw(st.integers(1, 8))
    tokens = st.one_of(st.sampled_from(SPECIAL_TOKENS), st.floats().map(repr),
                       st.just("x") if draw(st.integers(0, 19)) == 0 else st.nothing())
    lines = [str(n)]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, 1)), "labels: " + " ".join(f"p{i}" for i in range(n)))
    off_by_one = st.sampled_from((0,) * 18 + (-1, 1))
    for _ in range(n + draw(off_by_one)):
        width = max(1, n + draw(off_by_one))
        distinct = draw(st.lists(tokens, min_size=1, max_size=width))
        lines.append(" ".join(draw(st.lists(st.sampled_from(distinct),
                                            min_size=width, max_size=width))))
    return "\n".join(lines) + "\n"


def _parse_outcome(parse, text):
    try:
        labels, matrix = parse(text)
    except ParseError as exc:
        return exc.line, str(exc)
    return labels, matrix.dtype, matrix.shape, matrix.tobytes()


class TestParsers:
    def test_matrix_with_labels_first(self):
        labels, matrix = parse_matrix_text("labels: a b\n2\n0 1\n1 0\n")
        assert labels == ["a", "b"]
        assert np.array_equal(matrix, [[0, 1], [1, 0]])

    def test_matrix_with_labels_after_count(self):
        labels, matrix = parse_matrix_text("2\nlabels: a b\n0 1\n1 0\n")
        assert labels == ["a", "b"]

    def test_matrix_default_labels_and_comments(self):
        labels, matrix = parse_matrix_text("# comment\n2\n0 1\n1 0\n")
        assert labels == ["x1", "x2"]

    def test_matrix_row_width_error(self):
        with pytest.raises(ParseError):
            parse_matrix_text("2\n0 1 5\n1 0\n")

    def test_matrix_missing_rows(self):
        with pytest.raises(ParseError):
            parse_matrix_text("3\n0 1 1\n1 0 1\n")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            pytest.param("2\n0 x 1\n1 0\n", 2, "bad matrix row: '0 x 1'", id="bad-before-width"),
            pytest.param("1\n0\n0 1\n", 3, "expected 1 entries, found 2", id="width-before-extra"),
            pytest.param("1\n0\n0\n", 3, "more rows than the declared count", id="extra-row"),
            pytest.param("1\n0\nx\n", 3, "bad matrix row: 'x'", id="bad-before-extra"),
            pytest.param("labels: a\n# c\nlabels: a\n1\n0\n", 3, "duplicate labels line",
                         id="duplicate-labels-line"),
            pytest.param("labels: a\ntwo\n0\n", 2, "expected point count, got 'two'",
                         id="bad-count"),
            pytest.param("2.0\n0 1\n1 0\n", 1, "expected point count, got '2.0'",
                         id="fractional-count"),
            pytest.param("0\n", 1, "point count must be at least 1", id="count-below-one"),
            pytest.param("# only\nlabels: a\n", 0, "missing point count", id="missing-count"),
            pytest.param("labels: a b c\n2\n0 1\n1 0\n", 0, "3 labels for 2 points",
                         id="label-count-mismatch"),
        ],
    )
    def test_matrix_row_errors_keep_their_order(self, text, line, message):
        for parse in (parse_matrix_text, brute_parse_matrix_text):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert (info.value.line, str(info.value)) == (line, f"line {line}: {message}")

    def test_huge_count_fails_on_the_first_row(self):
        cases = [
            ("100000000\n0 1 1\n", "line 2: expected 100000000 entries, found 3", 1 << 20),
            # a full first row: an n x n matrix here would take 298 GiB
            ("200000\n" + "0 " * 200000 + "\n", "line 0: expected 200000 rows, found 1", 1 << 25),
        ]
        for text, message, limit in cases:
            tracemalloc.start()
            try:
                with pytest.raises(ParseError, match=f"^{message}$"):
                    parse_matrix_text(text)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit

    @pytest.mark.parametrize(
        "matrix",
        [
            pytest.param(random_dendrogram(np.random.default_rng(3), 40), id="dendrogram"),
            pytest.param(random_euclidean(np.random.default_rng(3), 20).dist, id="euclidean"),
            pytest.param([["1", "1", "2", "3"]] * 4, id="repeats-across-rows"),
        ],
    )
    def test_each_distinct_token_of_a_file_is_converted_once(self, float_calls, matrix):
        rows = [" ".join(map(str, row)) for row in np.asarray(matrix).tolist()]
        text = f"{len(rows)}\n" + "".join(row + "\n" for row in rows)
        labels, parsed = parse_matrix_text(text)
        distinct = {tok for row in rows for tok in row.split()}
        assert sorted(float_calls) == sorted(distinct)
        assert parsed.tobytes() == brute_parse_matrix_text(text)[1].tobytes()

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(text=matrix_texts())
    def test_matches_the_reference_reader(self, text):
        assert _parse_outcome(parse_matrix_text, text) == _parse_outcome(
            brute_parse_matrix_text, text
        )

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_first_content_line_is_the_parsers(self, monkeypatch, tmp_path, brk):
        # the ultra loader reads lines until the first content line, picks the
        # format from it and hands the parser those lines and then the rest;
        # a comment or a break may straddle the file's read buffers
        seen = []

        def recorder(fmt):
            def parse(lines):
                seen.append((fmt, "".join(lines)))
                raise ParseError(0, "recorded")
            return parse

        monkeypatch.setattr(cli, "parse_matrix_text", recorder("matrix"))
        monkeypatch.setattr(cli, "parse_edge_list_text", recorder("edges"))
        path = tmp_path / "space.txt"
        for size in (0, 1000, 1023, 1024, 8191, 8192, 17000):
            for head in ("#" * size + brk, " " * size + brk, "#" * size + "\r", "\n" * size):
                for body in (f"3 # c{brk}0 1 1", "labels: a b", "", "# c" + brk):
                    text = head + brk + "\x0c" + body
                    path.write_text(text, encoding="utf-8", newline="")
                    with pytest.raises(ParseError):
                        cli._load_ultra_space(str(path))
                    fmt, fed = seen.pop()
                    first = next(metric._content_lines(text), (0, ""))[1]
                    matrix = first.startswith("labels:") or len(first.split()) == 1
                    assert fmt == ("matrix" if matrix else "edges")
                    assert list(metric._content_lines(fed)) == list(metric._content_lines(text))

    def test_edge_list(self):
        edges = parse_edge_list_text("# c\na b 2\nb c 1.5\n")
        assert edges == [("a", "b", 2.0), ("b", "c", 1.5)]
        assert ultrametric_from_graph(edges).labels == ("a", "b", "c")

    @pytest.mark.parametrize(
        "parse, text, line, message",
        [
            pytest.param(parse_matrix_text,
                         "# head\n\nlabels: a b c\n  # c\n3\n\n0 1 1\n1 x 1 # c\n1 1 0\n",
                         8, "bad matrix row: '1 x 1'", id="matrix"),
            pytest.param(parse_edge_list_text, "# head\n\na b 1\n   \n# c\nb c # w\n",
                         6, "expected 'u v w', got 'b c'", id="edge-list"),
        ],
    )
    def test_error_line_counts_comment_and_blank_lines(self, parse, text, line, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {message}"

    def test_edge_list_bad_weight(self):
        with pytest.raises(ParseError):
            parse_edge_list_text("a b zero\n")

    def test_edge_list_nonpositive_weight(self):
        with pytest.raises(ParseError):
            parse_edge_list_text("a b 0\n")

    @pytest.mark.parametrize(
        "line, edge",
        [
            pytest.param("b b 2", ("b", "b", 2.0), id="self-loop"),
            pytest.param("b c -1", ("b", "c", -1.0), id="negative-weight"),
            pytest.param("b c nan", ("b", "c", float("nan")), id="nan-weight"),
            pytest.param("b c inf", ("b", "c", float("inf")), id="inf-weight"),
        ],
    )
    def test_edge_list_rejects_edges_by_the_graph_rule(self, line, edge):
        # the parser and ultrametric_from_graph apply one rule; the parser adds the line
        with pytest.raises(ValueError) as direct:
            ultrametric_from_graph([("a", "b", 1.0), edge])
        with pytest.raises(ParseError) as info:
            parse_edge_list_text(f"a b 1\n# c\n{line}\n")
        assert info.value.line == 3
        assert str(info.value) == f"line 3: {direct.value}"
