"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned in the assertions below.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from fractions import Fraction

from collabmetrics import collab, synergy
from collabmetrics.collab import CollaborationDyad
from collabmetrics.corpus import CommentTable, Corpus, VideoTable, build_corpus
from collabmetrics.discourse import aggregate_discourse
from collabmetrics.netmetrics import (
    AttentionGraph,
    CollabGraph,
    build_attention_graph,
    closeness,
    commenter_entropy,
    entropy_cdf,
)
from collabmetrics.report import ABSENT, RunConfig, run_report
from collabmetrics.simgen import (
    CommunitySpec,
    compute_oracle_metrics,
    compute_pipeline_metrics,
    generate,
    preset,
    simulate_to_dir,
)

from .conftest import KeyedScorer, make_channel, make_comment, make_video


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _tiny_spec(seed: int, **overrides) -> CommunitySpec:
    params = dict(
        community="fixture",
        n_channels=5,
        attribute_ratios={"M": 3, "W": 2},
        seed=seed,
        videos_per_channel=4,  # 20 videos total
        collab_rate=0.2,
        two_way_share=1.0,
        audience_size=0,
        pair_rank_affinity=0.5,
    )
    params.update(overrides)
    return CommunitySpec(**params)


def _scale_views(corpus: Corpus, factor: int) -> Corpus:
    videos = VideoTable.from_records(
        dataclasses.replace(v, view_count=v.view_count * factor) for v in corpus.videos
    )
    return Corpus(corpus.registry, videos, corpus.comments, corpus.community)


def test_criterion_1_shapley_oracle_equivalence():
    """Pipeline contribution math matches the brute-force oracle exactly."""
    start = time.perf_counter()
    compared = 0
    for seed in range(50):
        corpus, _ = generate(_tiny_spec(seed))
        pipeline = compute_pipeline_metrics(corpus)
        oracle = compute_oracle_metrics(corpus)
        assert pipeline.baselines == oracle.baselines
        assert pipeline.shap2 == oracle.shap2
        assert pipeline.shapn == oracle.shapn
        compared += len(pipeline.shap2)
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        elapsed < 5.0,
        f"50 fixtures, {compared} dyads matched exactly in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_scale_equivariance():
    """Multiplying all views by 7 scales shap2 by 7 and leaves shapn unchanged."""
    for seed in range(20):
        corpus, _ = generate(_tiny_spec(seed, videos_per_channel=6, collab_rate=0.25))
        base = compute_pipeline_metrics(corpus)
        scaled = compute_pipeline_metrics(_scale_views(corpus, 7))
        assert set(base.shap2) == set(scaled.shap2)
        for pair in base.shap2:
            assert scaled.shap2[pair][0] == 7 * base.shap2[pair][0]
            assert scaled.shap2[pair][1] == 7 * base.shap2[pair][1]
            assert scaled.shapn[pair] == base.shapn[pair]
    _verdict(2, True, "shap2 x7 exact and shapn invariant on 20 seeded fixtures")


def test_criterion_3_entropy_identities():
    def entropy_of(weights):
        graph = AttentionGraph(
            commenters=frozenset({"u"}),
            weights={("u", f"c{i}"): w for i, w in enumerate(weights)},
        )
        return commenter_entropy(graph)["u"]

    ok = entropy_of([5]) == 0.0
    for k in (2, 4, 8, 16):
        ok = ok and abs(entropy_of([1] * k) - math.log2(k)) <= 1e-12
    ok = ok and abs(entropy_of([2, 1, 1]) - 1.5) <= 1e-12
    _verdict(3, ok, "H=0 single channel, log2 k uniform (k=2,4,8,16), 1.5 bits for (2,1,1)")


def test_criterion_4_closeness_correctness():
    def graph_of(nodes, edges):
        return CollabGraph(
            nodes=frozenset(nodes), edges={(min(a, b), max(a, b)): 1 for a, b in edges}
        )

    p3 = closeness(graph_of("ABC", [("A", "B"), ("B", "C")])).closeness
    ok = (
        abs(p3["A"] - 2 / 3) <= 1e-12
        and abs(p3["B"] - 1.0) <= 1e-12
        and abs(p3["C"] - 2 / 3) <= 1e-12
    )

    k4_edges = [(a, b) for i, a in enumerate("ABCD") for b in "ABCD"[i + 1:]]
    k4 = closeness(graph_of("ABCD", k4_edges)).closeness
    ok = ok and all(abs(v - 1.0) <= 1e-12 for v in k4.values())

    lonely = closeness(graph_of("ABCZ", [("A", "B"), ("B", "C")])).closeness
    ok = ok and lonely["Z"] == 0.0

    # random graphs vs an all-pairs (Floyd-Warshall) oracle
    rnd = random.Random(2024)
    max_diff = 0.0
    for _ in range(30):
        n = rnd.randint(2, 12)
        nodes = [f"n{i}" for i in range(n)]
        edges = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:] if rnd.random() < 0.3]
        values = closeness(graph_of(nodes, edges)).closeness
        inf = float("inf")
        dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
        for a, b in edges:
            i, j = nodes.index(a), nodes.index(b)
            dist[i][j] = dist[j][i] = 1
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if dist[i][k] + dist[k][j] < dist[i][j]:
                        dist[i][j] = dist[i][k] + dist[k][j]
        for i, node in enumerate(nodes):
            reach = [d for d in dist[i] if d < inf]
            k_size, total = len(reach), sum(reach)
            expected = 0.0
            if n > 1 and k_size > 1 and total > 0:
                expected = ((k_size - 1) / (n - 1)) * ((k_size - 1) / total)
            max_diff = max(max_diff, abs(values[node] - expected))
    ok = ok and max_diff <= 1e-9
    _verdict(4, ok, f"P3/K4/isolated exact; 30 random graphs within {max_diff:.1e} of oracle")


def test_criterion_5_planted_ranking_recovery():
    def ranking_spec(seed: int) -> CommunitySpec:
        return CommunitySpec(
            community="valorant-like",
            n_channels=50,
            attribute_ratios={"M": 42, "W": 8},
            seed=seed,
            videos_per_channel=8,
            viewership_exponent=0.8,
            collab_rate=0.25,
            two_way_share=1.0,
            dyad_propensity={"M-M": 0.3, "M-W": 0.3, "W-M": 0.2, "W-W": 0.2},
            synergy_multipliers={"M-M": 6.75, "W-M": 4.5, "W-W": 3.0, "M-W": 2.0},
            videos_per_dyad=2,
            pair_rank_affinity=1.0,
            audience_size=0,
        )

    start = time.perf_counter()
    hits = 0
    for seed in range(100):
        corpus, truth = generate(ranking_spec(seed))
        partition = collab.partition_videos(corpus)
        dyads, _ = collab.detect_collaborations(corpus, "gender", partition)
        baselines = synergy.channel_baselines(corpus, partition)
        synergies, _ = synergy.compute_synergies(dyads, corpus, baselines)
        report = synergy.aggregate_by_dyad_type(synergies)
        assert all(agg.dyad_count >= 8 for agg in report.rows.values())
        measured = tuple(sorted(report.rows, key=lambda t: -report.rows[t].shapn_host))
        if measured == truth.type_ranking:
            hits += 1
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        hits >= 95 and elapsed < 60.0,
        f"planted host-contribution ranking recovered in {hits}/100 seeds in {elapsed:.1f}s",
    )


def test_criterion_6_table_structure_three_communities(tmp_path):
    dirs = []
    for name in ("valorant", "animal-crossing", "dead-by-daylight"):
        out = tmp_path / name
        simulate_to_dir(preset(name, seed=5), out)
        dirs.append(str(out))
    run_report(RunConfig(community_dirs=tuple(dirs), out_dir=str(tmp_path / "rep")))
    for side in ("host", "guest"):
        lines = (tmp_path / "rep" / f"synergy_{side}.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["community", "statistic", "W-W", "W-M", "M-W", "M-M"]
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert set(rows) == {"valorant", "animal-crossing", "dead-by-daylight"}
        dbd = dict(zip(header, rows["dead-by-daylight"]))
        assert dbd["W-W"] == ABSENT
        for cell in rows["valorant"][2:]:
            float(cell)  # every valorant cell is numeric
    _verdict(6, True, "rows per community, W-W/W-M/M-W/M-M columns, em dash for absent W-W")


def test_criterion_7_share_statistics_exact():
    spec = preset("valorant", seed=9)  # plants a 0.696 two-way share among 250 collab videos
    corpus, truth = generate(spec)
    _, stats = collab.detect_collaborations(corpus, "gender", collab.partition_videos(corpus))
    measured = Fraction(stats.two_way_videos, stats.two_way_videos + stats.multi_way_videos)
    ok = measured == Fraction("0.696") == truth.two_way_share
    _verdict(7, ok, f"measured two-way share {measured} equals planted 87/125 exactly")


def test_criterion_8_determinism_byte_identical(tmp_path):
    corpus_dir = tmp_path / "corpus"
    simulate_to_dir(preset("valorant", seed=3), corpus_dir)
    out = tmp_path / "rep"
    config = RunConfig(
        community_dirs=(str(corpus_dir),),
        out_dir=str(out),
        formats=("csv", "json", "table"),
    )
    run_report(config)
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    run_report(config)
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    ok = first == second and len(first) >= 8
    _verdict(8, ok, f"two runs produced byte-identical bundles ({len(first)} files)")


def test_criterion_9_loyalty_entropy_dominance():
    def loyal_spec(loyalty: float, seed: int) -> CommunitySpec:
        return CommunitySpec(
            community="loyalty",
            n_channels=20,
            attribute_ratios={"M": 12, "W": 8},
            seed=seed,
            videos_per_channel=5,
            collab_rate=0.0,
            audience_size=300,
            comments_per_commenter=5.0,
            loyalty=loyalty,
        )

    grid = [0.25 * i for i in range(0, 21)]
    worst_gap = 1.0
    for seed in range(20):
        cdfs = {}
        for loyalty in (0.9, 0.3):
            corpus, _ = generate(loyal_spec(loyalty, seed))
            attention = build_attention_graph(corpus.videos, corpus.comments)
            cdfs[loyalty] = entropy_cdf(commenter_entropy(attention), grid)
        for (t, high), (_, low) in zip(cdfs[0.9], cdfs[0.3]):
            worst_gap = min(worst_gap, high - low)
            assert high >= low, f"dominance violated at threshold {t} (seed {seed})"
    _verdict(9, True, f"loyalty-0.9 CDF dominates loyalty-0.3 at every grid point (min gap {worst_gap:.3f})")


def test_criterion_10_discourse_report_integrity():
    registry = [
        make_channel("A", "hosta", gender="M"),
        make_channel("B", "guestb", gender="M"),
        make_channel("C", "hostc", gender="W"),
    ]
    videos = [
        make_video("mm", "A", description="with @guestb"),
        make_video("wm", "C", description="with @hosta", offset_hours=1),
        make_video("solo", "B", offset_hours=2),
    ]
    # Each comment's text is its id, which the scorer below keys its score by.
    comments = CommentTable.from_rows(make_comment(f"c{i}", vid, f"u{i}", f"c{i}") for i, vid in enumerate(
        ["mm", "mm", "wm", "wm", "wm", "wm", "solo", "solo", "solo", "solo"]
    ))
    corpus = build_corpus(registry, videos, comments)
    dyads = [
        CollaborationDyad("A", "B", ("mm",), "M-M"),
        CollaborationDyad("C", "A", ("wm",), "W-M"),
    ]
    injected_scores = {
        "c0": 0.25, "c1": 0.75,                      # M-M mean: 0.5
        "c2": 0.5, "c3": 0.25, "c4": 0.25, "c5": 1.0,  # W-M mean: 0.5
        "c6": 0.125, "c7": 0.375, "c8": 0.25, "c9": 0.25,  # baseline mean: 0.25
    }
    labels_by_id = {
        "c0": "gameplay", "c1": "appearance",
        "c2": "gameplay", "c3": "food", "c4": "environment", "c5": "other",
        "c6": "other", "c7": "other", "c8": "gameplay", "c9": "food",
    }
    report = aggregate_discourse(comments, dyads, corpus, scorer=KeyedScorer(injected_scores), labels=labels_by_id)
    ok = (
        report.by_dyad_type["M-M"].mean_sentiment == 0.5
        and report.by_dyad_type["W-M"].mean_sentiment == 0.5
        and report.baseline.mean_sentiment == 0.25
    )
    for row in [*report.by_dyad_type.values(), report.baseline]:
        ok = ok and abs(sum(row.topic_proportions.values()) - 1.0) <= 1e-12
    expected_mm = {"gameplay": 0.5, "appearance": 0.5, "environment": 0.0, "food": 0.0, "other": 0.0}
    ok = ok and dict(report.by_dyad_type["M-M"].topic_proportions) == expected_mm
    _verdict(10, ok, "proportions sum to 1 within 1e-12; 10-comment means reproduced exactly")
