"""Graph construction, closeness, entropy, and CDF behavior."""

from __future__ import annotations

import math
import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabmetrics import netmetrics
from collabmetrics.collab import CollaborationDyad
from collabmetrics.corpus import CommentTable
from collabmetrics.netmetrics import (
    AttentionGraph,
    CollabGraph,
    build_attention_graph,
    build_collab_graph,
    closeness,
    commenter_entropy,
    entropy_cdf,
)

from .conftest import make_comment, make_video


def dyad(host, guest, n_videos=1):
    return CollaborationDyad(
        host=host, guest=guest, videos=tuple(f"{host}{guest}{i}" for i in range(n_videos)),
        dyad_type="M-M",
    )


def graph_from_edges(nodes, edges):
    return CollabGraph(
        nodes=frozenset(nodes),
        edges={(min(a, b), max(a, b)): 1 for a, b in edges},
    )


def bfs_distances(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nbr in adj[node]:
            if nbr not in dist:
                dist[nbr] = dist[node] + 1
                queue.append(nbr)
    return dist


def reference_closeness(graph):
    """Closeness from one dict BFS per node: the reference for ``closeness``."""
    adj = graph.adjacency()
    n = len(graph.nodes)
    values = {}
    for node in sorted(graph.nodes):
        dist = bfs_distances(adj, node)
        k = len(dist)
        total = sum(dist.values())
        if n <= 1 or k <= 1 or total == 0:
            values[node] = 0.0
        else:
            values[node] = ((k - 1) / (n - 1)) * ((k - 1) / total)
    return values


# Around the 64-bit word boundary and past two words.
NODE_COUNTS = (0, 1, 2, 63, 64, 65, 130)


@st.composite
def sparse_graphs(draw):
    """Random sparse graphs with isolated nodes and several components.

    When ``twin`` is drawn, the second half of the nodes copies the first
    half's edges, so the largest components come in equal-size pairs and
    the largest-component tie-break decides. Names are shuffled, so either
    copy may hold the smallest id.
    """
    n = draw(st.sampled_from(NODE_COUNTS) | st.integers(min_value=0, max_value=24))
    twin = n >= 2 and n % 2 == 0 and draw(st.booleans())
    base = n // 2 if twin else n
    index = st.integers(min_value=0, max_value=max(base - 1, 0))
    pairs = draw(st.lists(st.tuples(index, index), max_size=2 * base)) if base else []
    edges = {(a, b) for a, b in pairs if a != b}
    if twin:
        copy = draw(st.permutations(range(base, n)))
        edges |= {(copy[a], copy[b]) for a, b in edges}
    names = draw(st.permutations([f"v{i:03d}" for i in range(n)]))
    return graph_from_edges(names, [(names[a], names[b]) for a, b in edges])


class TestBuildCollabGraph:
    def test_reciprocal_dyads_merge(self):
        dyads = [dyad("A", "B", 2), dyad("B", "A", 1)]
        graph = build_collab_graph(dyads, ["A", "B"])
        assert graph.edges == {("A", "B"): 3}

    def test_registry_defines_isolated_nodes(self):
        graph = build_collab_graph([], [f"C{i}" for i in range(50)])
        assert len(graph.nodes) == 50 and graph.edges == {}

    def test_single_edge_degrees(self):
        graph = build_collab_graph([dyad("A", "B")], ["A", "B", "C"])
        assert {node: len(adj) for node, adj in graph.adjacency().items()} == {"A": 1, "B": 1, "C": 0}

    def test_no_self_loops(self):
        graph = build_collab_graph([dyad("A", "B")], ["A", "B"])
        assert all(a != b for a, b in graph.edges)


class TestCloseness:
    def test_path_graph(self):
        graph = graph_from_edges("ABC", [("A", "B"), ("B", "C")])
        values = closeness(graph).closeness
        assert values["B"] == pytest.approx(1.0, abs=1e-12)
        assert values["A"] == pytest.approx(2 / 3, abs=1e-12)
        assert values["C"] == pytest.approx(2 / 3, abs=1e-12)

    def test_complete_graph(self):
        nodes = "ABCD"
        edges = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
        values = closeness(graph_from_edges(nodes, edges)).closeness
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in values.values())

    def test_isolated_node_scores_zero(self):
        graph = graph_from_edges("ABCZ", [("A", "B"), ("B", "C")])
        assert closeness(graph).closeness["Z"] == 0.0

    def test_single_node_graph(self):
        graph = graph_from_edges("A", [])
        assert closeness(graph).closeness["A"] == 0.0

    def test_connected_reduces_to_classic_formula(self):
        # star on 5 nodes: center (n-1)/sum = 4/4 = 1; leaf 4/(1+2*3) = 4/7
        edges = [("Z", c) for c in "ABCD"]
        values = closeness(graph_from_edges("ABCDZ", edges)).closeness
        assert values["Z"] == pytest.approx(1.0, abs=1e-12)
        assert values["A"] == pytest.approx(4 / 7, abs=1e-12)

    def test_attribute_grouping_and_median(self):
        graph = graph_from_edges("ABCZ", [("A", "B"), ("B", "C")])
        summary = closeness(graph, {"A": "M", "B": "M", "C": "W", "Z": "W"})
        # C sits in a 3-node component of a 4-node graph: (2/3) * (2/3) = 4/9
        assert summary.by_attribute["W"].median == pytest.approx((0 + 4 / 9) / 2)
        assert summary.by_attribute["M"].values == tuple(
            sorted([summary.closeness["A"], summary.closeness["B"]])
        )

    def test_relabeling_invariance(self):
        rnd = random.Random(7)
        nodes = [f"n{i}" for i in range(9)]
        edges = [(a, b) for a in nodes for b in nodes if a < b and rnd.random() < 0.3]
        graph = graph_from_edges(nodes, edges)
        values = closeness(graph).closeness
        mapping = {n: f"z{(i * 5) % 9}" for i, n in enumerate(nodes)}
        relabeled = graph_from_edges(
            [mapping[n] for n in nodes], [(mapping[a], mapping[b]) for a, b in edges]
        )
        values2 = closeness(relabeled).closeness
        for n in nodes:
            assert values[n] == pytest.approx(values2[mapping[n]], abs=1e-12)

    def test_edge_addition_within_component_does_not_decrease_endpoints(self):
        rnd = random.Random(11)
        for _ in range(25):
            n = rnd.randint(3, 9)
            nodes = [f"n{i}" for i in range(n)]
            edges = {(a, b) for a in nodes for b in nodes if a < b and rnd.random() < 0.4}
            graph = graph_from_edges(nodes, edges)
            before = closeness(graph).closeness
            adj = graph.adjacency()
            # candidate edges joining nodes already in one component
            candidates = [
                (a, b)
                for a in nodes
                for b in nodes
                if a < b and (a, b) not in edges and b in bfs_distances(adj, a)
            ]
            if not candidates:
                continue
            a, b = rnd.choice(candidates)
            after = closeness(graph_from_edges(nodes, edges | {(a, b)})).closeness
            assert after[a] >= before[a] - 1e-12
            assert after[b] >= before[b] - 1e-12

    @settings(max_examples=80, deadline=None)
    @given(graph=sparse_graphs(), block=st.sampled_from([1, 3, 64, netmetrics._SOURCE_BLOCK]))
    @example(graph=graph_from_edges([], []), block=64)
    @example(graph=graph_from_edges(["A"], []), block=64)
    @example(  # two 3-node components, BFS run in blocks of two sources
        graph=graph_from_edges("abcdef", [("b", "c"), ("c", "d"), ("a", "e"), ("e", "f")]), block=2
    )
    def test_equals_per_source_bfs(self, graph, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(netmetrics, "_SOURCE_BLOCK", block)
            assert closeness(graph).closeness == reference_closeness(graph)

    def test_matches_networkx_wf_improved(self):
        nx = pytest.importorskip("networkx")
        rnd = random.Random(800)
        nodes = [f"c{i:03d}" for i in range(800)]
        # a sparse random core, 25 four-node paths, and 100 isolated nodes
        edges = {tuple(rnd.sample(nodes[:600], 2)) for _ in range(700)}
        edges |= {(nodes[i], nodes[i + 1]) for i in range(600, 700) if i % 4 != 3}
        reference = nx.Graph(edges)
        reference.add_nodes_from(nodes)
        expected = nx.closeness_centrality(reference, wf_improved=True)
        values = closeness(graph_from_edges(nodes, edges)).closeness
        assert values.keys() == expected.keys()
        assert max(abs(values[v] - expected[v]) for v in nodes) == 0.0


class TestAttentionGraph:
    def test_counts_raw_comments(self):
        videos = [make_video("v1", "A"), make_video("v2", "A"), make_video("v3", "B")]
        comments = CommentTable.from_rows([
            make_comment("c1", "v1", "u1"),
            make_comment("c2", "v2", "u1"),
            make_comment("c3", "v3", "u1"),
            make_comment("c4", "v3", "u2"),
        ])
        graph = build_attention_graph(videos, comments)
        assert graph.weights[("u1", "A")] == 2
        assert graph.weights[("u1", "B")] == 1
        assert graph.commenters == {"u1", "u2"}

    def test_min_comments_threshold(self):
        videos = [make_video("v1", "A")]
        rows = [make_comment(f"c{i}", "v1", "u1") for i in range(3)]
        rows.append(make_comment("c9", "v1", "u2"))
        graph = build_attention_graph(videos, CommentTable.from_rows(rows), min_comments=2)
        assert graph.commenters == {"u1"}

    def test_edges_between_partitions_only(self):
        videos = [make_video("v1", "A")]
        comments = CommentTable.from_rows([make_comment("c1", "v1", "u1")])
        graph = build_attention_graph(videos, comments)
        channels = {v.channel_id for v in videos}
        for author, channel in graph.weights:
            assert author in graph.commenters and channel in channels


def reference_attention_graph(videos, comments, min_comments=1):
    """The per-comment walk that ``build_attention_graph`` replaced by counting."""
    owner = {v.video_id: v.channel_id for v in videos}
    weights = {}
    totals = {}
    for video_id, author_id in zip(comments.video_ids, comments.author_ids):
        channel = owner.get(video_id)
        if channel is None:
            continue
        key = (author_id, channel)
        weights[key] = weights.get(key, 0) + 1
        totals[author_id] = totals.get(author_id, 0) + 1
    if min_comments > 1:
        keep = frozenset(a for a, t in totals.items() if t >= min_comments)
        weights = {k: w for k, w in weights.items() if k[0] in keep}
    else:
        keep = frozenset(totals)
    return AttentionGraph(commenters=keep, weights=weights)


@st.composite
def attention_tables(draw):
    """Videos owned by three channels, and comments by five authors on them
    and on a video missing from ``videos`` (``gone``)."""
    owners = draw(st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=5))
    videos = [make_video(f"v{i}", channel) for i, channel in enumerate(owners)]
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from([v.video_id for v in videos] + ["gone"]), st.sampled_from(["u0", "u1", "u2", "u3", "u4"])),
            max_size=40,
        )
    )
    return videos, CommentTable.from_rows(make_comment(f"c{i}", video, author) for i, (video, author) in enumerate(rows))


class TestCountedAttentionGraph:
    """``build_attention_graph`` gives the per-comment walk's graph: the same
    commenters, and the same weights in the same order."""

    @settings(max_examples=200, deadline=None)
    @given(attention_tables(), st.sampled_from([1, 2, 3]))
    def test_equals_per_comment_walk(self, table, min_comments):
        videos, comments = table
        got = build_attention_graph(videos, comments, min_comments=min_comments)
        want = reference_attention_graph(videos, comments, min_comments=min_comments)
        assert got.commenters == want.commenters
        assert list(got.weights.items()) == list(want.weights.items())
        assert commenter_entropy(got) == commenter_entropy(want)

    def test_comment_on_a_missing_video_counts_nowhere(self):
        videos = [make_video("v1", "A")]
        comments = CommentTable.from_rows([make_comment("c1", "v1", "u1"), make_comment("c2", "gone", "u2")])
        graph = build_attention_graph(videos, comments)
        assert graph.commenters == {"u1"}
        assert dict(graph.weights) == {("u1", "A"): 1}

    def test_empty_table(self):
        graph = build_attention_graph([make_video("v1", "A")], CommentTable.from_rows([]))
        assert graph.commenters == frozenset() and dict(graph.weights) == {}


class TestEntropy:
    def entropy_of(self, weights):
        graph = AttentionGraph(
            commenters=frozenset({"u"}),
            weights={("u", f"ch{i}"): w for i, w in enumerate(weights)},
        )
        return commenter_entropy(graph)["u"]

    def test_loyal_commenter_zero(self):
        assert self.entropy_of([7]) == 0.0

    def test_uniform_four_channels(self):
        assert self.entropy_of([1, 1, 1, 1]) == pytest.approx(2.0, abs=1e-12)

    def test_weights_2_1_1(self):
        assert self.entropy_of([2, 1, 1]) == pytest.approx(1.5, abs=1e-12)

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=8), st.randoms())
    def test_permutation_invariant(self, weights, rnd):
        shuffled = list(weights)
        rnd.shuffle(shuffled)
        assert self.entropy_of(weights) == pytest.approx(self.entropy_of(shuffled), abs=1e-12)

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=8))
    def test_bounded_by_log_support(self, weights):
        assert self.entropy_of(weights) <= math.log2(len(weights)) + 1e-12

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=6))
    def test_uniform_is_maximal(self, weights):
        uniform = self.entropy_of([1] * len(weights))
        assert self.entropy_of(weights) <= uniform + 1e-12

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=8))
    def test_grouping_monotone(self, weights):
        merged = [weights[0] + weights[1], *weights[2:]]
        assert self.entropy_of(merged) <= self.entropy_of(weights) + 1e-12

    @settings(max_examples=100)
    @given(
        st.dictionaries(
            st.tuples(st.sampled_from(["u1", "u2", "u10", "w"]), st.sampled_from(["A", "B", "a", "ch10", "ch2"])),
            st.integers(min_value=0, max_value=40),
        )
    )
    def test_same_floats_as_per_commenter_sums(self, weights):
        # Each commenter's channels in sorted order, as a mapping per commenter.
        per_commenter: dict[str, dict[str, int]] = {}
        for (author, channel), w in weights.items():
            per_commenter.setdefault(author, {})[channel] = w
        want = {}
        for author in sorted(per_commenter):
            total = sum(per_commenter[author].values())
            if total:
                h = 0.0
                for channel in sorted(per_commenter[author]):
                    if per_commenter[author][channel]:
                        p = per_commenter[author][channel] / total
                        h -= p * math.log2(p)
                want[author] = max(h, 0.0)
        got = commenter_entropy(AttentionGraph(commenters=frozenset(per_commenter), weights=weights))
        assert list(got.items()) == list(want.items())


def reference_entropy_cdf(entropy, grid=None):
    """The threshold walk that ``entropy_cdf`` replaced by a bisection."""
    values = sorted(entropy.values())
    thresholds = sorted(set(grid)) if grid is not None else sorted(set(values))
    n = len(values)
    points = []
    idx = 0
    for t in thresholds:
        while idx < n and values[idx] <= t:
            idx += 1
        points.append((t, idx / n))
    return points


class TestEntropyCdf:
    def dist_of(self, values):
        return {f"u{i}": v for i, v in enumerate(values)}

    def test_point_mass(self):
        assert entropy_cdf(self.dist_of([0.0])) == [(0.0, 1.0)]

    def test_hand_counted_grid(self):
        points = entropy_cdf(self.dist_of([0.0, 1.0, 2.0]), grid=[0.5, 1.5, 2.5])
        assert points == [
            (0.5, pytest.approx(1 / 3)),
            (1.5, pytest.approx(2 / 3)),
            (2.5, 1.0),
        ]

    def test_monotone_and_reaches_one(self):
        points = entropy_cdf(self.dist_of([0.3, 0.1, 2.2, 1.7, 0.3]))
        fractions = [f for _, f in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_empty_distribution_warns(self, caplog):
        with caplog.at_level("WARNING"):
            assert entropy_cdf(self.dist_of([])) == []
        assert any("empty" in rec.message for rec in caplog.records)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.584962500721156]) | st.floats(0.0, 8.0), min_size=1, max_size=30),
        st.none() | st.lists(st.floats(-1.0, 9.0), max_size=10),
    )
    def test_equals_threshold_walk(self, values, grid):
        entropy = self.dist_of(values)
        assert entropy_cdf(entropy, grid) == reference_entropy_cdf(entropy, grid)
