"""Generator determinism, planted parameters, and oracle cross-checks."""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabmetrics import collab
from collabmetrics.corpus import attribute_histogram, write_corpus
from collabmetrics.errors import InfeasibleSpecError
from collabmetrics.simgen import (
    CommunitySpec,
    DiscourseProfile,
    _cdf,
    compare_metrics,
    compute_oracle_metrics,
    compute_pipeline_metrics,
    generate,
    oracle_check,
    preset,
    simulate_to_dir,
    spec_from_dict,
)


def small_spec(seed=0, **overrides):
    params = dict(
        community="minigame",
        n_channels=8,
        attribute_ratios={"M": 5, "W": 3},
        seed=seed,
        videos_per_channel=6,
        collab_rate=0.15,
        audience_size=40,
        comments_per_commenter=3.0,
        loyalty=0.6,
    )
    params.update(overrides)
    return CommunitySpec(**params)


class TestGenerate:
    def test_zero_collab_rate_no_mentions(self):
        corpus, truth = generate(small_spec(collab_rate=0.0))
        index = collab.HandleIndex(corpus.registry)
        assert not any(index.scan(v) for v in corpus.videos)
        assert truth.two_way_videos == 0

    def test_attribute_histogram_exact(self):
        spec = preset("valorant", seed=3)
        corpus, _ = generate(spec)
        assert dict(attribute_histogram(corpus.registry, "gender")) == {"M": 42, "W": 8}

    def test_fixed_seed_byte_identical_files(self, tmp_path):
        spec = small_spec(seed=11)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        corpus_a, _ = generate(spec)
        corpus_b, _ = generate(spec)
        write_corpus(corpus_a, dir_a)
        write_corpus(corpus_b, dir_b)
        for name in ("registry.jsonl", "videos.jsonl", "comments.jsonl"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_different_seeds_differ(self):
        corpus_a, _ = generate(small_spec(seed=1))
        corpus_b, _ = generate(small_spec(seed=2))
        assert [v.view_count for v in corpus_a.videos] != [v.view_count for v in corpus_b.videos]

    def test_collab_descriptions_carry_guest_handle(self):
        corpus, truth = generate(small_spec(seed=5))
        partition = collab.partition_videos(corpus)
        assert len(partition.two_way) == truth.two_way_videos

    def test_two_way_share_of_all_videos_exact_at_scale(self):
        # 50 channels x 200 videos; a planted 4.43% two-way share over all
        # videos is measured back exactly
        spec = CommunitySpec(
            community="sharegame",
            n_channels=50,
            attribute_ratios={"M": 42, "W": 8},
            seed=17,
            videos_per_channel=200,
            collab_rate=0.0443,
            two_way_share=1.0,
            audience_size=0,
        )
        corpus, _ = generate(spec)
        _, stats = collab.detect_collaborations(corpus)
        assert stats.two_way_share == Fraction("0.0443")
        assert stats.two_way_videos == 443 and stats.total_videos == 10_000
        assert sum(stats.share_by_dyad_type.values()) == stats.two_way_share

    def test_planted_upstream_bias_shows_in_reciprocity(self):
        from collabmetrics import synergy

        guest_fracs = []
        for seed in range(3):
            spec = small_spec(
                seed=seed,
                n_channels=20,
                attribute_ratios={"M": 12, "W": 8},
                videos_per_channel=10,
                collab_rate=0.25,
                upstream_bias=0.8,
                audience_size=0,
            )
            corpus, _ = generate(spec)
            partition = collab.partition_videos(corpus)
            dyads, _ = collab.detect_collaborations(corpus, "gender", partition)
            baselines = synergy.channel_baselines(corpus, partition)
            stats = synergy.reciprocity(dyads, baselines)
            guest_fracs.append(stats.guest_greater)
        assert all(f > Fraction(1, 2) for f in guest_fracs)

    def test_realized_share_recorded(self):
        spec = small_spec(collab_rate=0.25, two_way_share=0.5)
        corpus, truth = generate(spec)
        assert truth.two_way_videos + truth.multi_way_videos == round(0.25 * 48)
        _, stats = collab.detect_collaborations(corpus)
        measured = Fraction(stats.two_way_videos, stats.two_way_videos + stats.multi_way_videos)
        assert measured == truth.two_way_share

    def test_every_channel_keeps_a_solo_video(self):
        corpus, _ = generate(small_spec(seed=9, collab_rate=0.3))
        partition = collab.partition_videos(corpus)
        collab_ids = partition.collaboration_videos()
        for channel_videos in corpus.videos_by_channel().values():
            assert any(v.video_id not in collab_ids for v in channel_videos)

    def test_infeasible_pair_ceiling(self):
        # one W channel: W-W has zero ordered pairs
        spec = small_spec(
            attribute_ratios={"M": 7, "W": 1},
            collab_rate=0.5,
            dyad_propensity={"W-W": 1.0},
        )
        with pytest.raises(InfeasibleSpecError, match="pair ceiling"):
            generate(spec)

    def test_dash_in_attribute_value_rejected(self):
        spec = small_spec(attribute_ratios={"non-binary": 2, "M": 6})
        with pytest.raises(InfeasibleSpecError, match="'-'"):
            generate(spec)

    def test_infeasible_host_capacity(self):
        spec = small_spec(videos_per_channel=2, collab_rate=0.9)
        with pytest.raises(InfeasibleSpecError):
            generate(spec)

    def test_invalid_loyalty_rejected(self):
        with pytest.raises(InfeasibleSpecError):
            generate(small_spec(loyalty=1.5))

    def test_spec_round_trip_from_dict(self):
        raw = {
            "community": "x",
            "n_channels": 6,
            "attribute_ratios": {"M": 1, "W": 1},
            "seed": 4,
            "collab_rate": 0.1,
            "videos_per_channel": 5,
            "discourse_profiles": {
                "baseline": {"mean_sentiment": 0.2, "topic_weights": {"other": 1.0}}
            },
        }
        spec = spec_from_dict(raw)
        assert spec.discourse_profiles["baseline"] == DiscourseProfile(0.2, {"other": 1.0})
        generate(spec)  # must be a usable spec

    def test_powerlaw_rank_size_slope(self):
        spec = preset("valorant", seed=13)
        _, truth = generate(spec)
        targets = sorted(truth.baseline_targets.values(), reverse=True)
        ranks = np.log(np.arange(1, len(targets) + 1))
        sizes = np.log(np.array(targets))
        slope = np.polyfit(ranks, sizes, 1)[0]
        assert abs(-slope - spec.viewership_exponent) <= 0.2 * spec.viewership_exponent

    def test_realized_median_views_track_targets(self):
        corpus, truth = generate(small_spec(seed=21, collab_rate=0.0, videos_per_channel=30))
        for channel_id, videos in corpus.videos_by_channel().items():
            views = sorted(v.view_count for v in videos)
            median = views[len(views) // 2]
            target = truth.baseline_targets[channel_id]
            assert 0.5 * target <= median <= 2.0 * target


class TestWeightedDraw:
    """``bisect_right(_cdf(p), rng.random())`` is ``Generator.choice(n, p=p)``:
    same index, same stream position, for the installed numpy."""

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6)), min_size=1, max_size=12
        ).filter(any),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(weights=[0.0, 0.0, 3.5, 0.0], seed=0)  # a single nonzero weight
    @example(weights=[0.0, 2.0], seed=7)  # a leading zero weight
    def test_cached_cdf_draw_matches_choice(self, weights, seed):
        w = np.array(weights)
        p = w / w.sum()
        cdf = _cdf(p)
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            index = bisect_right(cdf, ours.random())
            assert index == int(numpys.choice(len(w), p=p))
            assert w[index] > 0
        assert ours.random() == numpys.random()

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_zero_popularity_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            generate(small_spec(viewership_scale=0, collab_rate=0.0))


class TestOracle:
    def test_generated_corpus_has_no_mismatches(self):
        corpus, truth = generate(small_spec(seed=3, videos_per_channel=25, collab_rate=0.1))
        report = oracle_check(corpus, truth)
        assert report.ok, report.mismatches

    def test_empty_corpus_trivially_passes(self):
        corpus, truth = generate(small_spec(seed=1, collab_rate=0.0, audience_size=0))
        report = oracle_check(corpus, truth)
        assert report.ok

    def test_mutated_pipeline_detected(self):
        corpus, _ = generate(small_spec(seed=3))
        pipeline = compute_pipeline_metrics(corpus)
        oracle = compute_oracle_metrics(corpus)
        assert compare_metrics(pipeline, oracle).ok
        # off-by-one corruption of one baseline median
        channel = sorted(pipeline.baselines)[0]
        pipeline.baselines[channel] += 1
        report = compare_metrics(pipeline, oracle)
        assert not report.ok
        assert any(m.metric == "baseline" and channel in m.key for m in report.mismatches)

    def test_share_check_against_truth(self):
        corpus, truth = generate(small_spec(seed=6, collab_rate=0.2, two_way_share=0.75))
        assert oracle_check(corpus, truth).ok


class TestSimulateToDir:
    def test_writes_corpus_and_truth(self, tmp_path):
        paths = simulate_to_dir(small_spec(seed=2), tmp_path / "out")
        for key in ("registry", "videos", "comments", "truth"):
            assert paths[key].exists()

    def test_csv_format(self, tmp_path):
        paths = simulate_to_dir(small_spec(seed=2), tmp_path / "out", fmt="csv")
        assert paths["videos"].suffix == ".csv"


class TestPresets:
    @pytest.mark.parametrize("name", ["valorant", "animal-crossing", "dead-by-daylight"])
    def test_presets_generate(self, name):
        spec = preset(name, seed=1)
        corpus, truth = generate(spec)
        assert len(corpus.registry) == 50
        assert truth.type_ranking[0] == max(
            truth.type_multipliers, key=lambda t: truth.type_multipliers[t]
        )

    def test_dead_by_daylight_has_no_ww(self):
        corpus, _ = generate(preset("dead-by-daylight", seed=1))
        dyads, _ = collab.detect_collaborations(corpus)
        assert all(d.dyad_type != "W-W" for d in dyads)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("chess")


def test_loyalty_monotone_in_mean_entropy():
    """Higher loyalty lowers mean commenter entropy (seed-ensemble check)."""
    from collabmetrics import netmetrics

    def mean_entropy(loyalty, seed):
        corpus, _ = generate(
            small_spec(seed=seed, audience_size=120, comments_per_commenter=4.0, loyalty=loyalty)
        )
        att = netmetrics.build_attention_graph(corpus.videos, corpus.comments)
        values = list(netmetrics.commenter_entropy(att).entropy.values())
        return sum(values) / len(values)

    for seed in range(5):
        assert mean_entropy(0.9, seed) < mean_entropy(0.3, seed)
