from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_decompose,
    brute_minimax,
    brute_strictly_ultrametric,
    caterpillar,
    random_connected_graph,
    random_dendrogram,
    random_euclidean,
    repeated_height_ultrametric,
)
from negtype import (
    FiniteMetricSpace,
    GlueSpec,
    asymptotic_gap_limit,
    certify,
    coteries,
    decompose,
    discrete_space,
    gamma_discrete,
    gap_exact,
    glue_spaces,
    is_ultrametric,
    mp_ultrametric_properties,
    p_distance_matrix,
    recursive_gap_bounds,
    scale_space,
    strictly_ultrametric_check,
    ultrametric_from_graph,
    validate_metric,
)
from negtype import gap
from negtype.errors import NotSymmetric, NotUltrametric, TooFewPoints
from negtype.metric import _spanning_tree, _ultrametric_fit


def dp_of(space, p=1.0):
    return p_distance_matrix(space, p)


def reference_spaces(corpus):
    """The corpus, spaces with repeated heights, and graph-derived spaces,
    half of them with integer weights, whose heights tie. A graph space
    keeps the edges of the pass over its weights, which need not be graph
    edges."""
    rng = np.random.default_rng(10)
    spaces = list(corpus)
    for _ in range(20):
        spaces.append(repeated_height_ultrametric(rng, int(rng.integers(2, 24))))
        edges = random_connected_graph(rng, int(rng.integers(2, 20)))
        spaces.append(ultrametric_from_graph(edges))
        edges = random_connected_graph(rng, int(rng.integers(2, 30)))
        spaces.append(ultrametric_from_graph([(u, v, float(np.ceil(w))) for u, v, w in edges]))
    return spaces


def minimum_distance_classes(space):
    """Cubic oracle: the minimum positive distance, and the classes of points
    at that distance holding two or more points, by smallest index."""
    d, n = space.dist, space.n
    alpha = d[~np.eye(n, dtype=bool)].min()
    at_alpha = (d == alpha) | np.eye(n, dtype=bool)
    classes = sorted({tuple(np.flatnonzero(row).tolist()) for row in at_alpha})
    return alpha, [c for c in classes if len(c) > 1]


@st.composite
def tied_spaces(draw):
    """One space with integer heights in 1..4, which tie at many heights, as
    (matrix route, graph route). A random dendrogram becomes the matrix, and
    its complete graph the graph; a random connected graph, with vertices in
    a drawn order, becomes the graph, and its minimax matrix the matrix."""
    n = draw(st.integers(2, 14))
    labels = [f"v{i}" for i in range(n)]
    if draw(st.booleans()):
        clusters = [[i] for i in range(n)]
        d = np.zeros((n, n))
        for height in sorted(draw(st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1))):
            i = draw(st.integers(0, len(clusters) - 1))
            j = draw(st.integers(0, len(clusters) - 2))
            a, b = clusters[i], clusters.pop(j + (j >= i))
            d[np.ix_(a, b)] = d[np.ix_(b, a)] = height
            a += b
        edges = [(labels[i], labels[j], d[i, j]) for i in range(n) for j in range(i)]
        return validate_metric(labels, d), ultrametric_from_graph(edges, labels)
    edges = [(v, draw(st.integers(0, v - 1)), draw(st.integers(1, 4))) for v in range(1, n)]
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 4))
    edges += [(u, v, w) for u, v, w in draw(st.lists(extra, max_size=2 * n)) if u != v]
    order = draw(st.permutations(labels))
    graph = ultrametric_from_graph([(labels[u], labels[v], w) for u, v, w in edges], order)
    return validate_metric(graph.labels, graph.dist), graph


class TestStrictlyUltrametricCheck:
    def test_shifted_example_matrix(self, example78):
        for p in (0.5, 1.0, 2.0):
            dp = dp_of(example78, p)
            shifted = 4.0**p * np.ones((7, 7)) - dp.entries
            assert strictly_ultrametric_check(shifted)

    def test_identity(self):
        assert strictly_ultrametric_check(np.eye(4))

    def test_all_ones_fails(self):
        assert not strictly_ultrametric_check(np.ones((3, 3)))

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            strictly_ultrametric_check([[1.0, 0.5], [0.4, 1.0]])

    def test_negative_entry(self):
        with pytest.raises(ValueError, match="^matrix has a negative entry$"):
            strictly_ultrametric_check([[1.0, -0.1], [-0.1, 1.0]])

    def test_not_square(self):
        for a in (np.ones((2, 3)), np.ones(3)):
            with pytest.raises(ValueError, match="expected a square matrix"):
                strictly_ultrametric_check(a)

    def test_empty_matrix_is_refused(self):
        with pytest.raises(ValueError, match=r"^expected a nonempty matrix, got shape \(0, 0\)$"):
            strictly_ultrametric_check(np.zeros((0, 0)))

    def test_matches_detour_oracle(self, corpus):
        rng = np.random.default_rng(9)
        matrices = []
        for space in corpus:
            diam = float(space.dist.max())
            shifted = diam * np.ones((space.n, space.n)) - space.dist
            matrices += [shifted, shifted + np.diag(rng.uniform(-0.5, 0.5, space.n)).clip(0)]
        for _ in range(300):
            n = int(rng.integers(1, 7))
            a = rng.integers(0, 3, (n, n)).astype(float)  # small integers: many ties
            matrices.append(np.maximum(a, a.T) + rng.integers(0, 4) * np.eye(n))
        outcomes = {True: 0, False: 0}
        for a in matrices:
            verdict = strictly_ultrametric_check(a)
            assert verdict == brute_strictly_ultrametric(a)
            outcomes[verdict] += 1
        assert min(outcomes.values()) >= 50


class TestSpanningTree:
    def test_subdominant_never_exceeds_the_weights(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            d = random_euclidean(rng, int(rng.integers(2, 20))).dist
            _, sub = _spanning_tree(d)
            assert (sub <= d).all()
            assert np.array_equal(_spanning_tree(sub)[1], sub)

    def test_edges_are_the_prim_path_and_give_the_minimax_distances(self):
        # in Prim order, the minimax distance of u_i and u_j (i < j) is the
        # largest key of u_(i+1), ..., u_j, also where heights tie
        rng = np.random.default_rng(13)
        for k in range(40):
            n = int(rng.integers(2, 30))
            edges = random_connected_graph(rng, n)
            if k % 2:
                edges = [(u, v, float(np.ceil(w))) for u, v, w in edges]
            labels = [f"v{i}" for i in range(n)]
            expected = brute_minimax(labels, edges)
            w = np.full((n, n), np.inf)
            for u, v, weight in edges:
                i, j = labels.index(u), labels.index(v)
                w[i, j] = w[j, i] = min(w[i, j], weight)
            path, sub = _spanning_tree(w)
            assert np.array_equal(sub, expected)
            order = [0] + [v for _, _, v in path]
            assert sorted(order) == list(range(n))
            assert [prev for _, prev, _ in path] == order[:-1]
            keys = [h for h, _, _ in path]
            for i in range(n):
                reach = np.maximum.accumulate(keys[i:])
                assert np.array_equal(sub[order[i], order[i + 1:]], reach)

    def test_no_n_by_n_array_besides_the_result(self):
        n = 400
        w = random_dendrogram(np.random.default_rng(14), n)
        tracemalloc.start()
        try:
            _spanning_tree(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * (8 * n * n)


class TestDecompose:
    def test_example_tree(self, example78):
        tree = decompose(example78)
        assert tree.split_distance == 4.0
        first, second = tree.children
        assert first.labels == ("a", "b", "c", "d", "e", "f")
        assert second.labels == ("g",)
        assert first.split_distance == 3.0
        abcd, ef = first.children
        assert abcd.labels == ("a", "b", "c", "d")
        assert ef.labels == ("e", "f")
        assert ef.is_leaf and ef.split_distance == 1.0
        assert abcd.split_distance == 2.0
        ab, cd = abcd.children
        assert ab.labels == ("a", "b")
        assert cd.labels == ("c", "d")
        assert ab.is_leaf and ab.split_distance == 2.0
        assert cd.is_leaf and cd.split_distance == 1.0

    @pytest.mark.parametrize("full_split", [False, True])
    def test_matches_the_reference_decomposition(self, corpus, full_split):
        def keys(tree):
            return [(n.labels, n.indices, n.split_distance, n.is_leaf) for n in tree.walk()]

        for space in reference_spaces(corpus):
            assert np.array_equal(_spanning_tree(space.dist)[1], space.dist)
            tree = decompose(space, full_split)
            reference = brute_decompose(space, full_split)
            assert tree.serialize() == reference.serialize()
            assert keys(tree) == keys(reference)

    def test_pairs_joined_at_one_height_chain_without_recursion(self):
        # 1000 pairs at distance 1 joined at 2: 999 nested splits at one height
        n = 2000
        d = np.full((n, n), 2.0)
        even, odd = np.arange(0, n, 2), np.arange(1, n, 2)
        d[even, odd] = d[odd, even] = 1.0
        np.fill_diagonal(d, 0.0)
        tree = decompose(validate_metric([f"x{i}" for i in range(n)], d))
        expected = "".join(f"(split=2 [x{k} x{k + 1} @ 1] " for k in range(0, n - 2, 2))
        expected += f"[x{n - 2} x{n - 1} @ 1]" + ")" * (n // 2 - 1)
        assert tree.serialize() == expected

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(routes=tied_spaces())
    def test_tied_heights_match_the_references_on_both_routes(self, routes):
        matrix_space, graph_space = routes
        assert np.array_equal(matrix_space.dist, graph_space.dist)
        for space in routes:
            for full_split in (False, True):
                assert decompose(space, full_split) == brute_decompose(space, full_split)
            alpha, classes = minimum_distance_classes(space)
            result = coteries(space)
            assert result.alpha == alpha
            assert result.coteries == tuple(tuple(space.labels[j] for j in c) for c in classes)

    def test_path_whose_heights_fall_and_rise(self):
        # minimax of the path x0 -3- x1 -1- x2 -2- x3 -1- x4 -3- x5, which is
        # also its Prim order: the node at 2 closes before the root at 3
        keys = [3.0, 1.0, 2.0, 1.0, 3.0]
        d = np.zeros((6, 6))
        for i in range(6):
            for j in range(i + 1, 6):
                d[i, j] = d[j, i] = max(keys[i:j])
        space = validate_metric([f"x{i}" for i in range(6)], d)
        assert [(h, prev, v) for h, prev, v in space.fit[0]] == [
            (3.0, 0, 1), (1.0, 1, 2), (2.0, 2, 3), (1.0, 3, 4), (3.0, 4, 5)
        ]
        tree = decompose(space)
        assert tree.serialize() == "(split=3 [x0 x5 @ 3] (split=2 [x1 x2 @ 1] [x3 x4 @ 1]))"
        assert decompose(space, full_split=True).serialize() == (
            "(split=3 (split=3 [x0 @ 0] [x5 @ 0])"
            " (split=2 (split=1 [x1 @ 0] [x2 @ 0]) (split=1 [x3 @ 0] [x4 @ 0])))"
        )
        for full_split in (False, True):
            assert decompose(space, full_split) == brute_decompose(space, full_split)
        assert coteries(space).coteries == (("x1", "x2"), ("x3", "x4"))

    def test_example_serialization(self, example78):
        tree = decompose(example78)
        assert tree.serialize() == "(split=4 (split=3 (split=2 [a b @ 2] [c d @ 1]) [e f @ 1]) [g @ 0])"

    def test_two_point_space_is_leaf_block(self):
        tree = decompose(scale_space(discrete_space(2), 3.0))
        assert tree.is_leaf
        assert tree.split_distance == 3.0

    def test_two_point_space_full_split(self):
        tree = decompose(scale_space(discrete_space(2), 3.0), full_split=True)
        assert not tree.is_leaf
        left, right = tree.children
        assert left.size == right.size == 1

    def test_discrete_space_is_leaf_block(self):
        tree = decompose(discrete_space(5))
        assert tree.is_leaf
        assert tree.split_distance == 1.0

    def test_not_ultrametric(self, line3):
        with pytest.raises(NotUltrametric, match=r"by 1, limit 2e-09"):
            decompose(line3)

    def test_large_tree_memory_stays_quadratic(self):
        n = 2000
        d = random_dendrogram(np.random.default_rng(2), n)
        tracemalloc.start()
        try:
            labels = tuple(f"x{i + 1}" for i in range(n))
            space = FiniteMetricSpace(labels, d, n, _ultrametric_fit(d))
            ultrametric = is_ultrametric(space)
            tree = decompose(space)
            cots = coteries(space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (8 * n * n)
        assert ultrametric
        assert tree.size == n and tree.split_distance == d.max()
        assert cots.alpha == d[~np.eye(n, dtype=bool)].min()

    def test_caterpillar_deeper_than_the_recursion_limit(self):
        # n - 2 nested splits; validation, the tree and the walk take no recursion.
        n = 1500
        space = validate_metric([f"x{i}" for i in range(n)], caterpillar(n))
        tree = decompose(space)
        splits = [node for node in tree.walk() if not node.is_leaf]
        assert [node.split_distance for node in splits] == list(range(n, 2, -1))
        assert [node.size for node in splits] == list(range(n, 2, -1))
        expected = "[x0 x1 @ 2]"
        for k in range(2, n):
            expected = f"(split={k + 1} {expected} [x{k} @ 0])"
        assert tree.serialize() == expected
        rec = recursive_gap_bounds(space, 1.0)
        assert len(rec.splits) == n - 2 and len(rec.leaves) == n - 1
        assert rec.lower_reciprocal == 1.0 / (2.0 * gamma_discrete(2))
        assert rec.upper_reciprocal == pytest.approx(rec.lower_reciprocal + n - 2, rel=1e-12)

    def test_deep_tree_prints_compares_and_hashes(self):
        n = 1500
        labels = [f"x{i}" for i in range(n)]
        tree = decompose(validate_metric(labels, caterpillar(n)))
        again = decompose(validate_metric(labels, caterpillar(n)))
        assert repr(tree) == "UltrametricTree(size=1500, split_distance=1500, split)"
        assert repr(tree.children[1]) == "UltrametricTree(size=1, split_distance=0, leaf)"
        assert tree == again and tree is not again
        assert hash(tree) == hash(again)
        assert tree.__eq__(tree.labels) is NotImplemented
        assert tree != tree.labels and not tree == "tree"
        # x700 joins the points before it at 701.5 instead of 701: one split differs
        d = caterpillar(n)
        d[:700, 700] = d[700, :700] = 701.5
        other = decompose(validate_metric(labels, d))
        assert tree != other
        ours, theirs = ([node.split_distance for node in t.walk()] for t in (tree, other))
        assert [k for k in range(len(ours)) if ours[k] != theirs[k]] == [n - 701]  # pre-order

    def test_cross_distances_equal_split(self, corpus):
        for space in corpus[:30]:
            tree = decompose(space)
            for node in tree.walk():
                if node.is_leaf:
                    continue
                left, right = node.children
                cross = space.dist[np.ix_(left.indices, right.indices)]
                assert (cross == node.split_distance).all()
                for child in node.children:
                    assert child.split_distance <= node.split_distance

    def test_round_trip_glueing(self, corpus):
        for space in corpus[:20]:
            tree = decompose(space)
            for node in tree.walk():
                if node.is_leaf:
                    continue
                left_node, right_node = node.children
                glued = glue_spaces(
                    GlueSpec(
                        left=space.restrict(left_node.indices),
                        right=space.restrict(right_node.indices),
                        c=node.split_distance,
                    )
                )
                order = left_node.indices + right_node.indices
                assert np.array_equal(glued.dist, space.dist[np.ix_(order, order)])


class TestRecursiveBounds:
    def test_example_interval_p1(self, example78):
        rec = recursive_gap_bounds(example78, 1.0)
        assert rec.lower_reciprocal == pytest.approx(2.5, abs=1e-12)
        assert rec.upper_reciprocal == pytest.approx(33.0 / 4.0, abs=1e-12)
        assert rec.gamma_lower == pytest.approx(4.0 / 33.0, abs=1e-12)
        assert rec.gamma_upper == pytest.approx(0.4, abs=1e-12)
        gamma = gap_exact(dp_of(example78)).gamma
        assert rec.gamma_lower - 1e-9 <= gamma <= rec.gamma_upper + 1e-9

    def test_example_split_terms(self, example78):
        rec = recursive_gap_bounds(example78, 1.0)
        caps = sorted(term.alpha_cap for term in rec.splits)
        assert caps == pytest.approx([7.0 / 4.0, 2.0, 2.0], abs=1e-12)
        for term in rec.splits:
            assert term.alpha_exact <= term.alpha_cap + 1e-12

    def test_two_point_space_exact_on_both_sides(self):
        for d, p in [(1.0, 1.0), (2.0, 1.0), (2.0, 3.0)]:
            rec = recursive_gap_bounds(scale_space(discrete_space(2), d), p)
            assert rec.lower_reciprocal == pytest.approx(1.0 / d**p, rel=1e-12)
            assert rec.upper_reciprocal == pytest.approx(1.0 / d**p, rel=1e-12)

    def test_full_split_still_contains_gap(self, example78):
        rec = recursive_gap_bounds(example78, 1.0, full_split=True)
        gamma = gap_exact(dp_of(example78)).gamma
        assert rec.gamma_lower - 1e-9 <= gamma
        assert gamma <= rec.gamma_upper + 1e-9

    def test_containment_on_corpus(self, corpus):
        for space in corpus[:40]:
            for p in (0.5, 1.0, 2.0):
                rec = recursive_gap_bounds(space, p)
                gamma = gap_exact(dp_of(space, p)).gamma
                assert rec.gamma_lower - 1e-9 <= gamma <= rec.gamma_upper + 1e-9

    @pytest.mark.parametrize("full_split", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 1e100])
    def test_denominator_is_the_margin_of_the_certified_children(self, corpus, scale, full_split):
        # each child's M_p from certify on the child alone, not from the tree;
        # at scale 1e100 and p = 2, c^p is near 1e200 and (c^p)^2 overflows
        def child_m_p(child, space, p):
            index = list(child.indices)
            return certify(dp_of(validate_metric(child.labels, space.dist[np.ix_(index, index)]), p)).m_p

        checked = 0
        for space in (scale_space(space, scale) for space in corpus):
            nodes = [node for node in decompose(space, full_split).walk() if not node.is_leaf]
            for p in (0.5, 1.0, 2.0):
                rec = recursive_gap_bounds(space, p, full_split)
                assert [term.labels for term in rec.splits] == [node.labels for node in nodes]
                for term, node in zip(rec.splits, nodes):
                    margin = 2.0 * node.split_distance**p - sum(
                        child_m_p(child, space, p) for child in node.children
                    )
                    assert np.isfinite(term.denominator)
                    assert term.denominator == pytest.approx(margin, rel=1e-12, abs=0.0)
                    assert term.alpha_exact == 2.0 / term.denominator
                    assert term.alpha_exact <= term.alpha_cap
                    checked += 1
        assert checked > 250

    @pytest.mark.parametrize("p", [0.0, -1.0, float("nan")])
    def test_rejects_a_nonpositive_exponent(self, example78, p):
        with pytest.raises(ValueError, match=f"^exponent must be positive, got {p}$"):
            recursive_gap_bounds(example78, p)

    def test_rejects_an_infinite_exponent(self):
        # at p = inf the recursion returned 0.75 for the 3-point discrete space
        with pytest.raises(ValueError, match="^exponent must be finite, got inf$"):
            recursive_gap_bounds(discrete_space(3), float("inf"))
        with pytest.raises(ValueError, match="^exponent must be positive, got -inf$"):
            recursive_gap_bounds(discrete_space(3), float("-inf"))

    def test_powers_out_of_the_float_range_are_errors(self):
        def space(small, large):
            return validate_metric(
                ["a", "b", "c"],
                np.array([[0.0, small, large], [small, 0.0, large], [large, large, 0.0]]),
            )

        # 1e154**2 is finite, but the margin, near 2e308, is not
        cases = [
            (space(1.0, 1e10), 400.0, "distance powers overflow at exponent 400.0"),
            (space(1.0, 1e154), 2.0, "distance powers overflow at exponent 2.0"),
            (space(1e-10, 1.0), 33.0, "distance powers underflow to zero at exponent 33.0"),
            (space(1e-10, 1.0), 31.0, "reciprocal gap bounds overflow at exponent 31.0"),
        ]
        for metric_space, p, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                recursive_gap_bounds(metric_space, p)
        assert np.isfinite(recursive_gap_bounds(space(1.0, 1e154), 1.99).splits[0].denominator)

    def test_every_power_is_its_p_distance_entry(self, corpus):
        # the tree pass raises each split distance to p as D_p does, bit for bit
        checked = 0
        for space in corpus[:40]:
            index = {label: i for i, label in enumerate(space.labels)}
            splits = [node for node in decompose(space).walk() if not node.is_leaf]
            for p in (1.5, 2.5, 3.0, 7.3):
                entries = dp_of(space, p).entries
                rec = recursive_gap_bounds(space, p)
                for leaf in rec.leaves:
                    if leaf.size > 1:
                        entry = entries[index[leaf.labels[0]], index[leaf.labels[1]]]
                        assert leaf.gamma == entry * gamma_discrete(leaf.size)
                        checked += 1
                for term, node in zip(rec.splits, splits, strict=True):
                    left, right = node.children
                    entry = entries[left.indices[0], right.indices[0]]
                    assert term.alpha_cap == term.size / entry
                    checked += 1
        assert checked == 660

    def test_alpha_cap_bound_per_node(self, corpus):
        for space in corpus[:40]:
            for p in (0.5, 2.0):
                rec = recursive_gap_bounds(space, p)
                for term in rec.splits:
                    assert term.alpha_exact <= term.size / term.split_distance**p + 1e-12


class TestCoteries:
    def test_example(self, example78):
        result = coteries(example78)
        assert result.alpha == 1.0
        assert result.e == 2
        assert result.coteries == (("c", "d"), ("e", "f"))

    def test_discrete_space_single_coterie(self):
        result = coteries(discrete_space(5))
        assert result.e == 1
        assert result.coteries[0] == tuple(f"x{i + 1}" for i in range(5))

    def test_two_points(self):
        result = coteries(discrete_space(2))
        assert result.e == 1
        assert len(result.coteries[0]) == 2

    def test_not_ultrametric(self, line3):
        with pytest.raises(NotUltrametric):
            coteries(line3)

    def test_two_runs_at_the_smallest_height_are_listed_by_index(self):
        # Prim order x0 x3 x4 x1 x2 with heights 2, 1, 3, 1: the run that
        # joins x3 and x4 comes first, yet the coteries go by smallest index
        d = np.array(
            [
                [0, 3, 3, 2, 2],
                [3, 0, 1, 3, 3],
                [3, 1, 0, 3, 3],
                [2, 3, 3, 0, 1],
                [2, 3, 3, 1, 0],
            ],
            dtype=float,
        )
        space = validate_metric([f"x{i}" for i in range(5)], d)
        assert [h for h, _, _ in space.fit[0]] == [2.0, 1.0, 3.0, 1.0]
        assert [v for _, _, v in space.fit[0]] == [3, 4, 1, 2]
        result = coteries(space)
        assert result.alpha == 1.0 and result.e == 2
        assert result.coteries == (("x1", "x2"), ("x3", "x4"))

    def test_matches_the_minimum_distance_classes(self, corpus):
        for space in reference_spaces(corpus):
            alpha, classes = minimum_distance_classes(space)
            result = coteries(space)
            assert result.alpha == alpha
            assert result.coteries == tuple(tuple(space.labels[j] for j in c) for c in classes)
            assert result.e == len(classes)
            limit = 1.0 / sum(1.0 / gamma_discrete(len(c)) for c in classes)
            assert asymptotic_gap_limit(space) == limit


class TestAsymptoticLimit:
    def test_example(self, example78):
        assert asymptotic_gap_limit(example78) == pytest.approx(0.5, abs=1e-12)

    def test_discrete(self):
        for n in (2, 3, 6, 9):
            assert asymptotic_gap_limit(discrete_space(n)) == pytest.approx(
                gamma_discrete(n), abs=1e-12
            )
        # the normalized gap is constant in p on discrete spaces
        gamma = gap_exact(dp_of(discrete_space(5), 4.0)).gamma
        assert gamma == pytest.approx(gamma_discrete(5), abs=1e-12)

    def test_two_points(self):
        assert asymptotic_gap_limit(discrete_space(2)) == pytest.approx(1.0, abs=1e-15)
        space = scale_space(discrete_space(2), 2.0)
        for p in (1.0, 3.0):
            assert gap_exact(dp_of(space, p)).gamma == pytest.approx(2.0**p, rel=1e-12)


class TestDiagnostics:
    def test_example(self, example78):
        report = mp_ultrametric_properties(dp_of(example78))
        assert report.inverse_entries_positive
        assert report.mp_bound_satisfied

    def test_discrete_meets_bound_with_equality(self):
        for n in (2, 5, 9):
            report = mp_ultrametric_properties(dp_of(discrete_space(n)))
            assert report.m_p == pytest.approx(report.bound, rel=1e-12)
            assert report.mp_bound_satisfied

    def test_two_point_squared(self):
        space = scale_space(discrete_space(2), 3.0)
        report = mp_ultrametric_properties(dp_of(space, 2.0))
        assert report.m_p == pytest.approx(4.5, abs=1e-12)
        assert report.bound == pytest.approx(4.5, abs=1e-12)

    def test_not_ultrametric(self, line3):
        with pytest.raises(NotUltrametric):
            mp_ultrametric_properties(dp_of(line3))

    def test_single_point(self):
        with pytest.raises(TooFewPoints, match="diagnostics need at least two points"):
            mp_ultrametric_properties(dp_of(discrete_space(1)))

    def test_bound_holds_at_every_scale(self, example78, corpus):
        # the tolerance is 1e-12 of the bound, so it carries the unit d^p
        for space in [example78, *corpus[:20]]:
            for p in (0.5, 1.0, 2.0):
                for k in range(-12, 13):
                    report = mp_ultrametric_properties(dp_of(scale_space(space, 10.0**k), p))
                    assert report.inverse_entries_positive
                    assert report.mp_bound_satisfied

    def test_mp_above_the_bound_fails_at_small_scale(self, example78, monkeypatch):
        space = scale_space(example78, 1e-13)
        bound = mp_ultrametric_properties(dp_of(space)).bound
        above = bound * (1.0 + 1e-9)
        real = gap.certify
        monkeypatch.setattr(gap, "certify", lambda dp: replace(real(dp), m_p=above))
        report = mp_ultrametric_properties(dp_of(space))
        assert report.m_p == above
        assert not report.mp_bound_satisfied


class TestUltrametricLemmas:
    def test_strictness_across_exponents(self, corpus):
        for space in corpus[:30]:
            for p in (0.5, 1.0, 2.0, 5.0):
                assert certify(dp_of(space, p)).strict

    def test_shifted_matrix_strictly_ultrametric(self, corpus):
        for space in corpus[:30]:
            for p in (0.5, 1.0, 2.0):
                dp = dp_of(space, p)
                diam_p = float(space.dist.max()) ** p
                assert strictly_ultrametric_check(diam_p * np.ones((space.n, space.n)) - dp.entries)

    def test_inverse_row_sums_positive_and_u_norm_one(self, corpus):
        for space in corpus[:30]:
            for p in (0.5, 1.0, 2.0):
                cert = certify(dp_of(space, p))
                assert (cert.b > 0).all()
                assert abs(np.abs(cert.u_p).sum() - 1.0) <= 1e-10

    def test_mp_diameter_bound(self, corpus):
        for space in corpus[:30]:
            for p in (0.5, 1.0, 2.0):
                report = mp_ultrametric_properties(dp_of(space, p))
                assert report.mp_bound_satisfied


class TestConvergenceRate:
    def test_example_rate_constant(self, example78):
        def reciprocal_residual(p):
            gamma = gap_exact(dp_of(example78, p)).gamma
            return abs(1.0 / gamma - 2.0)

        constant = reciprocal_residual(5.0) * 2.0**5
        for p in (8.0, 12.0, 16.0):
            assert reciprocal_residual(p) <= constant * 2.0**-p + 1e-9
