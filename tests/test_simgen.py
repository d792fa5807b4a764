"""Generator determinism, planted parameters, and oracle cross-checks."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import re
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabmetrics import collab
from collabmetrics.corpus import attribute_histogram
from collabmetrics.errors import InfeasibleSpecError
from collabmetrics.simgen import (
    CommunitySpec,
    DiscourseProfile,
    _cdf,
    _Draws,
    compare_metrics,
    compute_oracle_metrics,
    compute_pipeline_metrics,
    generate,
    oracle_check,
    preset,
    simulate_to_dir,
    spec_from_dict,
)


def videos_by_channel(corpus):
    """Each registry channel's videos, by channel id in registry order."""
    return {ch.channel_id: [v for v in corpus.videos if v.channel_id == ch.channel_id] for ch in corpus.registry}


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
        simulate_to_dir(spec, dir_a)
        simulate_to_dir(spec, dir_b)
        for name in ("registry.jsonl", "videos.jsonl", "comments.jsonl", "truth.json"):
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
        _, stats = collab.detect_collaborations(corpus, "gender", collab.partition_videos(corpus))
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
        _, stats = collab.detect_collaborations(corpus, "gender", collab.partition_videos(corpus))
        measured = Fraction(stats.two_way_videos, stats.two_way_videos + stats.multi_way_videos)
        assert measured == truth.two_way_share

    def test_every_channel_keeps_a_solo_video(self):
        corpus, _ = generate(small_spec(seed=9, collab_rate=0.3))
        partition = collab.partition_videos(corpus)
        collab_ids = partition.collaboration_videos()
        for channel_videos in videos_by_channel(corpus).values():
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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(n_channels=2, videos_per_channel=10), "multi-way collaborations need >= 3 channels"),
            (dict(n_channels=3, videos_per_channel=2, collab_rate=1.0), "hosts out of capacity for multi-way videos"),
        ],
    )
    def test_infeasible_multi_way(self, overrides, message):
        spec = small_spec(**{"collab_rate": 0.5, "two_way_share": 0.0, **overrides})
        with pytest.raises(InfeasibleSpecError, match=f"^{message}$"):
            generate(spec)

    def test_invalid_loyalty_rejected(self):
        with pytest.raises(InfeasibleSpecError):
            generate(small_spec(loyalty=1.5))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(n_channels=1), "need at least 2 channels"),
            (dict(attribute_ratios={}), "attribute_ratios must be nonnegative and nonempty"),
            (dict(attribute_ratios={"M": 3, "W": -1}), "attribute_ratios must be nonnegative and nonempty"),
            (dict(attribute_ratios={"M": 0, "W": 0}), "attribute_ratios must have positive total weight"),
            (dict(collab_rate=1.5), "collab_rate must lie in [0, 1]"),
            (dict(collab_rate=-0.1), "collab_rate must lie in [0, 1]"),
            (dict(two_way_share=1.1), "two_way_share must lie in [0, 1]"),
            (dict(videos_per_channel=0), "videos_per_channel and videos_per_dyad must be >= 1"),
            (dict(videos_per_dyad=0), "videos_per_channel and videos_per_dyad must be >= 1"),
            (dict(synergy_multipliers={"M-M": 2.0, "W-W": 0.0}), "synergy multipliers must be positive"),
            (dict(upstream_bias=1.5), "upstream_bias must lie in [-1, 1]"),
            (dict(upstream_bias=-1.01), "upstream_bias must lie in [-1, 1]"),
            *(
                (dict(attribute_key=key),
                 "attribute_key must not be a registry field: channel_id, handles, display_name, community, attributes")
                for key in ("channel_id", "handles", "display_name", "community", "attributes")
            ),
        ],
    )
    def test_validate_refuses(self, overrides, message):
        spec = dataclasses.replace(preset("valorant"), **overrides)
        with pytest.raises(InfeasibleSpecError, match=f"^{re.escape(message)}$"):
            spec.validate()

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
        for channel_id, videos in videos_by_channel(corpus).items():
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

    def test_zero_popularity_is_rejected(self):
        for scale in (0, -5):
            with pytest.raises(InfeasibleSpecError, match="viewership_scale must be positive"):
                generate(small_spec(viewership_scale=scale, collab_rate=0.0))

    def test_negative_probability_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            _cdf([-1.0, 2.0])


_BOUNDS = (1, 2, 3, 50, 600, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)


class TestDraws:
    """``_Draws`` gives what ``Generator.random``/``integers`` give, value for
    value, and leaves the bit generator where they leave it, so its draws and
    the Generator's own methods interleave into one stream."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        ops=st.lists(st.sampled_from(("random", "poisson", *_BOUNDS)), max_size=60),
    )
    @example(seed=0, ops=[3 * 2**30] * 40)  # about one draw in four is rejected
    @example(seed=1, ops=[2**31 + 1] * 41 + ["poisson"])  # about one in two; odd uint32 count
    @example(seed=2, ops=[50, "poisson", 50, "random", 1, 2**32, 2**32 - 1])
    def test_same_values_and_state_as_the_generator(self, seed, ops):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = _Draws(ours)
        for op in ops:
            if op == "random":
                assert draws.random() == numpys.random()
            elif op == "poisson":
                assert ours.poisson(3.5) == numpys.poisson(3.5)
            else:
                assert draws.below(op) == int(numpys.integers(op))
        # the whole state, with PCG64's buffered half-word (has_uint32, uinteger)
        assert ours.bit_generator.state == numpys.bit_generator.state

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
    def test_bound_outside_32_bits_raises(self, n):
        with pytest.raises(ValueError, match=r"below\(\) needs 1 <= n <= 2\*\*32"):
            _Draws(np.random.default_rng(0)).below(n)

    def test_keeps_its_bit_generator_alive(self):
        draws = _Draws(np.random.default_rng(9))  # the only reference to that Generator
        gc.collect()
        numpys = np.random.default_rng(9)
        assert [draws.below(600) for _ in range(50)] == [int(numpys.integers(600)) for _ in range(50)]


# Specs for paths no preset takes: six labels under another attribute key with
# one video per dyad and a multi-way share; pair weights that all underflow to
# 0, so every pair is drawn from the uniform fallback; and a corpus with no
# collaborations and no comments.
PINNED_SPECS = {
    "regions": CommunitySpec(
        community="regions",
        n_channels=60,
        attribute_ratios={f"r{k}": 1 for k in range(6)},
        attribute_key="region",
        videos_per_channel=10,
        collab_rate=0.15,
        two_way_share=0.9,
        videos_per_dyad=1,
        pair_rank_affinity=0.0,
        audience_size=200,
    ),
    "flat": CommunitySpec(
        community="flat", n_channels=12, attribute_ratios={"M": 1, "W": 1}, collab_rate=0.2, pair_rank_affinity=1e6
    ),
    "quiet": CommunitySpec(
        community="quiet", n_channels=5, attribute_ratios={"M": 3, "W": 2}, collab_rate=0.0, audience_size=0
    ),
}

# SHA-256 of every file ``simulate_to_dir`` writes for each preset and each
# of ``PINNED_SPECS`` at seed 0.
PINNED_SHA256 = {
    ("animal-crossing", "csv"): {
        "comments.csv": "01d3cd32de83d3254d9e315f87587fb51be26498bd1a540703e9fe50877b65dc",
        "registry.csv": "078fe02d1ac4cb9066f6ae5803f6421e7d5cbdf0f3f28d09ca25bd69b37a15bf",
        "truth.json": "b322cc7b79d744de7f01d5df63c730447f23ea02e5f128f755aea9173c93a22a",
        "videos.csv": "5d92e750e57c651cc1822b9e477d7156e3d03da9802a94f69db2e859ff4aa696",
    },
    ("animal-crossing", "jsonl"): {
        "comments.jsonl": "2a00ec26c975f9c1acec52a4be211c7da812e38158e0e7803e5bf92cdb5414e3",
        "registry.jsonl": "8d12f078956cc6bf5ea48057b3cb3e8ef95182162d1e2436506353cde5564493",
        "truth.json": "b322cc7b79d744de7f01d5df63c730447f23ea02e5f128f755aea9173c93a22a",
        "videos.jsonl": "97e36228d1b70ed738f7e89e239f9831d724cb7ccfe5806539299299523a4b1d",
    },
    ("dead-by-daylight", "csv"): {
        "comments.csv": "27b757edea94be653b485a5d4cae13cfb953f63f29ad86e1f01a99d4c1f81ab5",
        "registry.csv": "57c907eb69247df981c5cfe3b400d05f6681d578091784edd081dcb70e89d8a0",
        "truth.json": "04a02feae771bb5a5c691aa6d82324c45bcc736b341b256f1f1722bfebe35678",
        "videos.csv": "7e393fc898f2c2de1f5addd73b7caf1ed8c32aa89aaed79d8e8085cda92d2e84",
    },
    ("dead-by-daylight", "jsonl"): {
        "comments.jsonl": "821063888e4707087bc0943696143513779c3f69667f4b4a8ba6643697fdc189",
        "registry.jsonl": "b36027e39207cd49ba2e84eae7e8b817aed6fccf6acbf661a494b56c7a5aded2",
        "truth.json": "04a02feae771bb5a5c691aa6d82324c45bcc736b341b256f1f1722bfebe35678",
        "videos.jsonl": "b56eddd2ab4af0ab4f2ade740cbc81859ddaa790f75e07380f615630d11ec643",
    },
    ("valorant", "csv"): {
        "comments.csv": "0bd5cf199bf64be2a7c15583f1eb805e5e31ec3fd7e26871b285d3502436a72b",
        "registry.csv": "3e7ae99a7daf15c8bedb7f1ab2efc2b6c0663472d536808d287785f476d6a88f",
        "truth.json": "65c768fdb15ac7414cd1d48c19f7e1d01c7ad851b2c13a9f922a9d9f2d9718f9",
        "videos.csv": "904a94699d0b9ae1f6bf8c8bd6bef5b4029dfad2a29e29b1582289c3b7b9771e",
    },
    ("valorant", "jsonl"): {
        "comments.jsonl": "8fe7dbe364f96eefafce613aed20570e48e1dbf44596ffb1c2f9ac361efb0c2f",
        "registry.jsonl": "a9f349e6e6d394381a652bc535d238011b41ff0bfe6dd5bcca764f44ddfae368",
        "truth.json": "65c768fdb15ac7414cd1d48c19f7e1d01c7ad851b2c13a9f922a9d9f2d9718f9",
        "videos.jsonl": "11db23b9de14c56d7374b449095d8964d9cdc013189956e4548110cf304845f7",
    },
    ("flat", "csv"): {
        "comments.csv": "b45cbdb6b26833da331050cfa7416a95ce5e40f1bf62442822967f775f08a7c5",
        "registry.csv": "06fc5ccaa3103542191659ada216cfc8d9db96b09085aefcdb26985441dde348",
        "truth.json": "d4b4f3e4d00ff973d30e012b19fda674e745dd81726606669c46ce5ce661296c",
        "videos.csv": "66c5d7136a93ebf88b03c9e3dacaf0b8b6b1b0b76c1a324d531d94e384365dd6",
    },
    ("flat", "jsonl"): {
        "comments.jsonl": "f7ff76157998d752b2d9726406e0f8abc62feddd7e1223ac5a53756430ffcccd",
        "registry.jsonl": "6f8b34171daf6307ab3a16d07681132e8ee2529a57c80646357e4363eb9fcf5b",
        "truth.json": "d4b4f3e4d00ff973d30e012b19fda674e745dd81726606669c46ce5ce661296c",
        "videos.jsonl": "dc09ca1fedd64a549ce3e9a84101cf55b516ef92e90e28cd69822fa5f6221718",
    },
    ("quiet", "csv"): {
        "comments.csv": "e46b31c6261779052af4c4d57fd2059231c430cfbf5f4051f497a47b99027c88",
        "registry.csv": "885eaaeb18f8dfbb54eb96ba18250be2e965b99657afe9f07212660d770a5c48",
        "truth.json": "89dc46419e37a5d9c7456f110004a5f0617411ace1dcb5defa31c40197ef7345",
        "videos.csv": "e24f192a54176584606966691b9db176116a2a3be319050daa9fdf4b688c2613",
    },
    ("quiet", "jsonl"): {
        "comments.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "registry.jsonl": "2934055340447c890890c48049c0a19cc1b53e6c6ef64c9e23b9cc9080f729de",
        "truth.json": "89dc46419e37a5d9c7456f110004a5f0617411ace1dcb5defa31c40197ef7345",
        "videos.jsonl": "d245fb14bfdd1d33c2102f6721dacf376b02e831578888ad3e72f87ae0bbc627",
    },
    ("regions", "csv"): {
        "comments.csv": "4cef1dc66e21877aa2ee0fb3e959be3557b25eb1fa96eb5bc6449defd246f85e",
        "registry.csv": "899736d25d47b3cb67dbacd5209e68bb8751ae3479e20736eca36c9c5fc1de16",
        "truth.json": "5410f3426b212cd9fd6e3cc36dde24ca9b75bc9592aba0bd27802e4259058895",
        "videos.csv": "e8097219e3003a562a4ddddcd9f69f4674d8527d47a26abccb94f84f12f5b1f9",
    },
    ("regions", "jsonl"): {
        "comments.jsonl": "513f3d67193fa9cd1947c51d94b0566c7156a1f20baa854254d0ae559be0eaef",
        "registry.jsonl": "efca6107e0fef74fefbb6da3a264f274102cb5c8a4f6b34e360fcb23c8b20d81",
        "truth.json": "5410f3426b212cd9fd6e3cc36dde24ca9b75bc9592aba0bd27802e4259058895",
        "videos.jsonl": "537c564221373791f18ec371462400c72eb3a673794839ba347a90f760fe3240",
    },
}


class TestPinnedOutput:
    """A change to any byte the generator or the corpus writers produce fails
    here, by file; two runs of the same code cannot show it."""

    @staticmethod
    def _digests(spec, tmp_path, fmt):
        paths = simulate_to_dir(spec, tmp_path, fmt=fmt)
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths.values()}

    @pytest.mark.parametrize("name, fmt", sorted(k for k in PINNED_SHA256 if k[0] not in PINNED_SPECS))
    def test_preset_files_at_seed_0(self, tmp_path, name, fmt):
        assert self._digests(preset(name, seed=0), tmp_path, fmt) == PINNED_SHA256[name, fmt]

    @pytest.mark.parametrize("name, fmt", sorted(k for k in PINNED_SHA256 if k[0] in PINNED_SPECS))
    def test_spec_files_at_seed_0(self, tmp_path, name, fmt):
        assert self._digests(PINNED_SPECS[name], tmp_path, fmt) == PINNED_SHA256[name, fmt]


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
        """Each corrupted number is one mismatch that names its metric and key."""
        corpus, truth = generate(small_spec(seed=3))
        pipeline = compute_pipeline_metrics(corpus)
        oracle = compute_oracle_metrics(corpus)
        assert compare_metrics(pipeline, oracle).ok
        channel = sorted(pipeline.baselines)[0]
        author = sorted(pipeline.entropy)[0]
        total, two, multi = pipeline.share
        mutations = [
            # off-by-one corruption of one baseline median
            ("baseline", channel, {"baselines": {**pipeline.baselines, channel: pipeline.baselines[channel] + 1}}),
            ("closeness", channel, {"closeness": {**pipeline.closeness, channel: pipeline.closeness[channel] + 0.5}}),
            ("entropy", author, {"entropy": {**pipeline.entropy, author: pipeline.entropy[author] + 0.5}}),
            ("share", "corpus", {"share": (total, two + 1, multi)}),
        ]
        for metric, key, change in mutations:
            report = compare_metrics(dataclasses.replace(pipeline, **change), oracle)
            assert [(m.metric, m.key) for m in report.mismatches] == [(metric, key)]
        wrong_truth = dataclasses.replace(truth, two_way_share=truth.two_way_share + 1)
        report = oracle_check(corpus, wrong_truth)
        assert [(m.metric, m.key) for m in report.mismatches] == [("two_way_share", "corpus")]

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
        dyads, _ = collab.detect_collaborations(corpus, "gender", collab.partition_videos(corpus))
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
        values = list(netmetrics.commenter_entropy(att).values())
        return sum(values) / len(values)

    for seed in range(5):
        assert mean_entropy(0.9, seed) < mean_entropy(0.3, seed)
