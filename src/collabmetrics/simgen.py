"""Seeded synthetic creator communities with planted ground truth.

The generator plants every quantity the analytics later measure: attribute
ratios, a rank-size power law for baseline viewership, collaboration rate
and dyad-type mix, per-type synergy multipliers applied to the geometric
mean of the pair's baselines (a scale-free choice: scaling all views by c
scales collaboration views by c too), audience loyalty, and per-dyad-type
discourse profiles. All randomness derives from one seed via fixed
substreams per entity class (channels, videos, pairs, comments, text), so
output is byte-stable regardless of platform.

The module also carries deliberately naive re-implementations of the
pipeline math (full-sort medians, direct formula evaluation,
Floyd-Warshall shortest paths) used to cross-check pipeline output.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from collabmetrics import report
from collabmetrics.corpus import (
    ChannelRecord,
    CommentRecord,
    Corpus,
    VideoRecord,
    build_corpus,
    write_corpus,
    write_json,
)
from collabmetrics.errors import InfeasibleSpecError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DiscourseProfile",
    "CommunitySpec",
    "PlantedTruth",
    "Mismatch",
    "OracleReport",
    "generate",
    "preset",
    "PRESET_NAMES",
    "oracle_check",
    "compute_pipeline_metrics",
    "compute_oracle_metrics",
    "compare_metrics",
    "write_truth",
    "spec_from_dict",
]

_EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)

# Generator vocabulary. Sentiment words come from the bundled valence
# lexicon and topic phrases only hit their own keyword category, so the
# default discourse stages can read the planted profiles back.
_POSITIVE_WORDS = (
    "awesome", "amazing", "great", "wonderful", "fantastic",
    "excellent", "brilliant", "epic", "wholesome", "lovely",
)
_NEGATIVE_WORDS = (
    "terrible", "awful", "boring", "annoying", "bad",
    "disappointing", "laggy", "cringe", "toxic", "bland",
)
_TOPIC_PHRASES = {
    "gameplay": ("that aim", "the gameplay", "your strategy", "that clutch play", "the ranked match"),
    "environment": ("the stream setup", "your lighting", "that background", "your desk", "the mic quality"),
    "food": ("the ramen", "that pizza", "your coffee", "the snacks", "that recipe"),
    "appearance": ("your hair", "that outfit", "the makeup", "your glasses", "that hoodie"),
    "other": ("this video", "the upload", "this one", "the edit"),
}
_TOPICS = tuple(sorted(_TOPIC_PHRASES))  # the order topic weights are drawn in
_SOLO_DESCRIPTIONS = (
    "Solo session today, enjoy the run!",
    "Back again with another upload.",
    "New video is live, thanks for watching.",
    "Grinding through the queue tonight.",
)
_COLLAB_TEMPLATES = (
    "Duo queue with @{guest}! Hope you enjoy.",
    "Playing with @{guest} today, go check them out.",
    "Big collab with @{guest} - had a blast.",
    "Teaming up with @{guest} for this one.",
)
_MULTI_TEMPLATES = (
    "Squad up with @{g1} and @{g2}!",
    "Full lobby featuring @{g1} and @{g2}.",
)


@dataclass(frozen=True)
class DiscourseProfile:
    """Comment generation profile for one dyad type (or the baseline pool)."""

    mean_sentiment: float  # in [-1, 1]; P(positive word) = (1 + m) / 2
    topic_weights: Mapping[str, float]


_NEUTRAL_PROFILE = DiscourseProfile(0.0, {"gameplay": 0.4, "environment": 0.15, "food": 0.1, "appearance": 0.1, "other": 0.25})


@dataclass(frozen=True)
class CommunitySpec:
    """Parameters of a synthetic community. Everything derives from ``seed``."""

    community: str
    n_channels: int
    attribute_ratios: Mapping[str, float]
    seed: int = 0
    attribute_key: str = "gender"
    videos_per_channel: int = 20
    viewership_exponent: float = 0.8  # rank-size (Zipf) slope of channel baselines
    viewership_scale: int = 50_000
    viewership_noise: float = 0.25  # lognormal sigma on solo video views
    collab_rate: float = 0.05  # fraction of all videos that are collaborations
    two_way_share: float = 1.0  # fraction of collaboration videos with one guest
    dyad_propensity: Mapping[str, float] | None = None  # default: uniform
    synergy_multipliers: Mapping[str, float] | None = None  # default: 1.0 each
    synergy_noise: float = 0.1
    videos_per_dyad: int = 2  # target videos per distinct ordered pair
    pair_rank_affinity: float = 0.9  # 1 = pair similar-popularity channels, 0 = uniform
    upstream_bias: float = 0.0  # P(host is the less popular side) = 0.5 + bias / 2
    audience_size: int = 500
    comments_per_commenter: float = 4.0  # mean; every commenter writes >= 1
    loyalty: float = 0.7  # P(a comment targets the commenter's home channel)
    discourse_profiles: Mapping[str, DiscourseProfile] = field(default_factory=dict)

    def validate(self) -> None:
        if self.n_channels < 2:
            raise InfeasibleSpecError("need at least 2 channels")
        if not self.attribute_ratios or any(w < 0 for w in self.attribute_ratios.values()):
            raise InfeasibleSpecError("attribute_ratios must be nonnegative and nonempty")
        if sum(self.attribute_ratios.values()) <= 0:
            raise InfeasibleSpecError("attribute_ratios must have positive total weight")
        if any("-" in label for label in self.attribute_ratios):
            raise InfeasibleSpecError("attribute values must not contain '-', the dyad-type separator")
        if not 0.0 <= self.loyalty <= 1.0:
            raise InfeasibleSpecError("loyalty must lie in [0, 1]")
        if not 0.0 <= self.collab_rate <= 1.0:
            raise InfeasibleSpecError("collab_rate must lie in [0, 1]")
        if not 0.0 <= self.two_way_share <= 1.0:
            raise InfeasibleSpecError("two_way_share must lie in [0, 1]")
        if not self.viewership_scale > 0:
            raise InfeasibleSpecError("viewership_scale must be positive")
        if self.videos_per_channel < 1 or self.videos_per_dyad < 1:
            raise InfeasibleSpecError("videos_per_channel and videos_per_dyad must be >= 1")
        if self.synergy_multipliers and any(m <= 0 for m in self.synergy_multipliers.values()):
            raise InfeasibleSpecError("synergy multipliers must be positive")
        if not -1.0 <= self.upstream_bias <= 1.0:
            raise InfeasibleSpecError("upstream_bias must lie in [-1, 1]")


@dataclass(frozen=True)
class PlantedTruth:
    """Ground truth realized by one generation run."""

    community: str
    seed: int
    type_multipliers: Mapping[str, float]  # planted, observed types only
    type_ranking: tuple[str, ...]  # planted multipliers, descending
    multipliers_by_dyad: Mapping[tuple[str, str], float]  # realized geometric means
    two_way_share: Fraction  # realized share among collaboration videos
    two_way_videos: int
    multi_way_videos: int
    baseline_targets: Mapping[str, float]


def _apportion(total: int, weights: Mapping[str, float]) -> dict[str, int]:
    """Largest-remainder apportionment; deterministic under ties."""
    keys = sorted(weights)
    denom = Fraction(sum(Fraction(weights[k]) for k in keys))
    quotas = {k: Fraction(weights[k]) / denom * total for k in keys}
    counts = {k: int(quotas[k]) for k in keys}
    leftover = total - sum(counts.values())
    by_remainder = sorted(keys, key=lambda k: (quotas[k] - counts[k], k), reverse=True)
    for k in by_remainder[:leftover]:
        counts[k] += 1
    return counts


def _split_type(dyad_type: str) -> tuple[str, str]:
    host_label, _, guest_label = dyad_type.partition("-")
    return host_label, guest_label


def generate(spec: CommunitySpec) -> tuple[Corpus, PlantedTruth]:
    """Generate a corpus plus its planted truth, deterministically from the seed."""
    # numpy is imported here, not at module level, so that commands which
    # only read a corpus (``report`` and the stage subcommands) never load it.
    import numpy as np

    spec.validate()
    streams = np.random.SeedSequence(spec.seed).spawn(5)
    rng_channels = np.random.default_rng(streams[0])
    rng_videos = np.random.default_rng(streams[1])
    rng_pairs = np.random.default_rng(streams[2])
    rng_comments = np.random.default_rng(streams[3])
    rng_text = np.random.default_rng(streams[4])

    # --- channels: labels, popularity ranks, baseline targets -------------
    label_counts = _apportion(spec.n_channels, spec.attribute_ratios)
    labels: list[str] = []
    for label in sorted(label_counts):
        labels.extend([label] * label_counts[label])
    labels_arr = np.array(labels, dtype=object)
    rng_channels.shuffle(labels_arr)
    ranks = rng_channels.permutation(spec.n_channels) + 1

    channel_ids = [f"{spec.community}-c{i:03d}" for i in range(spec.n_channels)]
    handles = {cid: f"creator{i:03d}" for i, cid in enumerate(channel_ids)}
    baseline_targets = {
        cid: spec.viewership_scale * float(ranks[i]) ** (-spec.viewership_exponent)
        for i, cid in enumerate(channel_ids)
    }
    label_of = {cid: str(labels_arr[i]) for i, cid in enumerate(channel_ids)}
    registry = [
        ChannelRecord(
            channel_id=cid,
            handles=(handles[cid],),
            display_name=f"Creator {i:03d}",
            attributes={spec.attribute_key: label_of[cid]},
            community=spec.community,
        )
        for i, cid in enumerate(channel_ids)
    ]

    # --- video slots, initially all solo -----------------------------------
    total_videos = spec.n_channels * spec.videos_per_channel
    slot_views: dict[str, list[int]] = {}
    for cid in channel_ids:
        noise = np.exp(rng_videos.normal(0.0, spec.viewership_noise, spec.videos_per_channel))
        slot_views[cid] = [max(0, round(baseline_targets[cid] * f)) for f in noise]

    # --- collaboration plan -------------------------------------------------
    n_collab = round(spec.collab_rate * total_videos)
    n_two = round(spec.two_way_share * n_collab)
    n_multi = n_collab - n_two
    propensity = dict(spec.dyad_propensity) if spec.dyad_propensity else {
        f"{a}-{b}": 1.0
        for a in sorted(label_counts)
        for b in sorted(label_counts)
    }
    propensity = {t: w for t, w in propensity.items() if w > 0}
    multipliers = dict(spec.synergy_multipliers or {})

    type_videos = _apportion(n_two, propensity) if n_two and propensity else {}
    channel_labels = labels_arr.astype(str)
    host_capacity = spec.videos_per_channel - 1  # always keep >= 1 solo video
    host_load = np.zeros(spec.n_channels, dtype=np.int64)  # by channel index
    targets = np.array([baseline_targets[cid] for cid in channel_ids])
    if type_videos:  # only pair weights take logs; a zero target is fine without pairs
        log_targets = np.array([math.log(t) for t in targets.tolist()])

    dyad_plan: list[tuple[str, str, str, int]] = []  # (host, guest, dyad_type, n_videos)
    for dyad_type in sorted(type_videos):
        videos_wanted = type_videos[dyad_type]
        if videos_wanted == 0:
            continue
        host_label, guest_label = _split_type(dyad_type)
        hosts = np.flatnonzero(channel_labels == host_label)
        guests = np.flatnonzero(channel_labels == guest_label)
        # ordered pairs (h, g), h != g, host-major, as channel indices
        pair_host = np.repeat(hosts, len(guests))
        pair_guest = np.tile(guests, len(hosts))
        distinct = pair_host != pair_guest
        pair_host, pair_guest = pair_host[distinct], pair_guest[distinct]
        ceiling = len(pair_host)
        n_dyads = math.ceil(videos_wanted / spec.videos_per_dyad)
        if n_dyads > ceiling:
            raise InfeasibleSpecError(
                f"dyad type {dyad_type}: {videos_wanted} videos need {n_dyads} distinct "
                f"ordered pairs but only {ceiling} exist (pair ceiling)"
            )
        # per-dyad video loads, heaviest first
        base, extra = divmod(videos_wanted, n_dyads)
        loads = [base + 1] * extra + [base] * (n_dyads - extra)
        # pair weights: similar-popularity affinity plus host-popularity bias
        # (1 + bias for a less popular host, 1 - bias for a more popular one)
        gaps = np.abs(log_targets[pair_host] - log_targets[pair_guest])
        bias = 1.0 - spec.upstream_bias * np.sign(targets[pair_host] - targets[pair_guest])
        base_weights = np.exp(-4.0 * spec.pair_rank_affinity * gaps) * bias
        available = np.ones(ceiling, dtype=bool)
        for load in loads:
            eligible = available & (host_load[pair_host] + load <= host_capacity)
            if not eligible.any():
                raise InfeasibleSpecError(
                    f"dyad type {dyad_type}: hosts out of capacity "
                    f"(videos_per_channel={spec.videos_per_channel} too small)"
                )
            weights = np.where(eligible, base_weights, 0.0)
            weights_sum = weights.sum()
            if weights_sum <= 0:  # degenerate affinity weights; fall back to uniform
                weights = eligible.astype(float)
                weights_sum = weights.sum()
            idx = int(rng_pairs.choice(ceiling, p=weights / weights_sum))
            host, guest = int(pair_host[idx]), int(pair_guest[idx])
            available[idx] = False
            host_load[host] += load
            dyad_plan.append((channel_ids[host], channel_ids[guest], dyad_type, load))

    # --- multi-way plan -----------------------------------------------------
    multi_plan: list[tuple[str, str, str]] = []  # (host, guest1, guest2)
    if n_multi:
        if spec.n_channels < 3:
            raise InfeasibleSpecError("multi-way collaborations need >= 3 channels")
        for _ in range(n_multi):
            eligible_hosts = np.flatnonzero(host_load + 1 <= host_capacity)
            if not len(eligible_hosts):
                raise InfeasibleSpecError("hosts out of capacity for multi-way videos")
            host = int(eligible_hosts[int(rng_pairs.integers(len(eligible_hosts)))])
            # guests are drawn among the other channels: index k skips the host
            pick = rng_pairs.choice(spec.n_channels - 1, size=2, replace=False)
            g1, g2 = (k + (k >= host) for k in map(int, pick))
            multi_plan.append((channel_ids[host], channel_ids[g1], channel_ids[g2]))
            host_load[host] += 1

    # --- assemble videos ----------------------------------------------------
    next_slot = {cid: spec.videos_per_channel - 1 for cid in channel_ids}

    def take_slot(cid: str) -> int:
        slot = next_slot[cid]
        next_slot[cid] -= 1
        return slot

    collab_videos: dict[tuple[str, int], tuple[str, str, int]] = {}  # (host, slot) -> (kind, dyad_type|'', views)
    descriptions: dict[tuple[str, int], str] = {}
    realized: dict[tuple[str, str], list[float]] = {}
    for host, guest, dyad_type, load in dyad_plan:
        gm = math.sqrt(baseline_targets[host] * baseline_targets[guest])
        mult = multipliers.get(dyad_type, 1.0)
        for _ in range(load):
            slot = take_slot(host)
            views = max(0, round(mult * gm * math.exp(rng_videos.normal(0.0, spec.synergy_noise))))
            collab_videos[(host, slot)] = ("two-way", dyad_type, views)
            template = _COLLAB_TEMPLATES[int(rng_text.integers(len(_COLLAB_TEMPLATES)))]
            descriptions[(host, slot)] = template.format(guest=handles[guest])
            realized.setdefault((host, guest), []).append(views / gm if gm else 0.0)
    for host, g1, g2 in multi_plan:
        slot = take_slot(host)
        gm = math.sqrt(baseline_targets[host] * baseline_targets[g1])
        views = max(0, round(gm * math.exp(rng_videos.normal(0.0, spec.synergy_noise))))
        collab_videos[(host, slot)] = ("multi-way", "", views)
        template = _MULTI_TEMPLATES[int(rng_text.integers(len(_MULTI_TEMPLATES)))]
        descriptions[(host, slot)] = template.format(g1=handles[g1], g2=handles[g2])

    videos: list[VideoRecord] = []
    counter = 0
    video_bucket: dict[str, str] = {}  # video_id -> dyad_type or "baseline"
    for i, cid in enumerate(channel_ids):
        for slot in range(spec.videos_per_channel):
            video_id = f"{spec.community}-v{i:03d}-{slot:04d}"
            published = _EPOCH + timedelta(hours=counter)
            counter += 1
            if (cid, slot) in collab_videos:
                kind, dyad_type, views = collab_videos[(cid, slot)]
                description = descriptions[(cid, slot)]
                title = f"Collab session {slot}"
                video_bucket[video_id] = dyad_type if kind == "two-way" else "baseline"
            else:
                views = slot_views[cid][slot]
                description = _SOLO_DESCRIPTIONS[(i + slot) % len(_SOLO_DESCRIPTIONS)]
                title = f"Session {slot}"
                video_bucket[video_id] = "baseline"
            videos.append(
                VideoRecord(
                    video_id=video_id,
                    channel_id=cid,
                    published_at=published,
                    title=title,
                    description=description,
                    view_count=views,
                    like_count=views // 100,
                    comment_count=0,
                )
            )

    # --- comments -----------------------------------------------------------
    comments: list[CommentRecord] = []
    if spec.audience_size > 0:
        videos_of: dict[str, list[VideoRecord]] = {cid: [] for cid in channel_ids}
        for v in videos:
            videos_of[v.channel_id].append(v)
        popularity = targets / targets.sum()
        home_cdf = _cdf(popularity)
        away_cdfs: dict[int, list[float]] = {}  # home channel -> CDF without its own weight
        text_draws: dict[str, tuple[list[float] | None, float]] = {}  # video bucket -> _text_draws
        lam = max(0.0, spec.comments_per_commenter - 1.0)
        comment_seq = 0
        for j in range(spec.audience_size):
            author = f"user{j:05d}"
            home = bisect_right(home_cdf, rng_comments.random())
            n_comments = 1 + int(rng_comments.poisson(lam))
            for _ in range(n_comments):
                if spec.n_channels > 1 and rng_comments.random() >= spec.loyalty:
                    if home not in away_cdfs:
                        away = popularity.copy()
                        away[home] = 0.0
                        away_cdfs[home] = _cdf(away / away.sum())
                    target = bisect_right(away_cdfs[home], rng_comments.random())
                else:
                    target = home
                target_videos = videos_of[channel_ids[target]]
                video = target_videos[int(rng_comments.integers(len(target_videos)))]
                bucket = video_bucket[video.video_id]
                if bucket not in text_draws:
                    text_draws[bucket] = _text_draws(spec.discourse_profiles, bucket)
                text = _comment_text(*text_draws[bucket], rng_text)
                comments.append(
                    CommentRecord(
                        comment_id=f"{spec.community}-m{comment_seq:07d}",
                        video_id=video.video_id,
                        author_id=author,
                        text=text,
                        published_at=video.published_at + timedelta(minutes=comment_seq % 600 + 1),
                        like_count=int(rng_comments.integers(0, 50)),
                    )
                )
                comment_seq += 1

    corpus = build_corpus(registry, videos, comments, spec.community)

    observed_types = sorted({t for _, _, t, _ in dyad_plan})
    type_multipliers = {t: multipliers.get(t, 1.0) for t in observed_types}
    ranking = tuple(sorted(type_multipliers, key=lambda t: (-type_multipliers[t], t)))
    per_dyad = {
        pair: math.exp(sum(math.log(m) for m in ms) / len(ms)) if all(m > 0 for m in ms) else 0.0
        for pair, ms in sorted(realized.items())
    }
    truth = PlantedTruth(
        community=spec.community,
        seed=spec.seed,
        type_multipliers=type_multipliers,
        type_ranking=ranking,
        multipliers_by_dyad=per_dyad,
        two_way_share=Fraction(n_two, n_collab) if n_collab else Fraction(0),
        two_way_videos=n_two,
        multi_way_videos=n_multi,
        baseline_targets=baseline_targets,
    )
    return corpus, truth


def _cdf(p: Sequence[float] | np.ndarray) -> list[float]:
    """The cumulative table that ``Generator.choice(len(p), p=p)`` searches.

    ``choice`` draws one ``random()`` u and returns
    ``cdf.searchsorted(u, side="right")``, so ``bisect_right(_cdf(p),
    rng.random())`` takes the same index from the same stream position.
    """
    import numpy as np

    p = np.asarray(p, dtype=float)
    if not (p >= 0).all():
        raise ValueError("probabilities must be non-negative numbers")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _text_draws(profiles: Mapping[str, DiscourseProfile], bucket: str) -> tuple[list[float] | None, float]:
    """A bucket's topic CDF over ``_TOPICS`` (None: no weight, always "other") and P(positive word)."""
    profile = profiles.get(bucket) or profiles.get("baseline") or _NEUTRAL_PROFILE
    weights = {t: max(0.0, profile.topic_weights.get(t, 0.0)) for t in _TOPIC_PHRASES}
    total = sum(weights.values())
    topic_cdf = _cdf([weights[t] / total for t in _TOPICS]) if total != 0 else None
    p_positive = (1.0 + max(-1.0, min(1.0, profile.mean_sentiment))) / 2.0
    return topic_cdf, p_positive


def _comment_text(topic_cdf: list[float] | None, p_positive: float, rng: np.random.Generator) -> str:
    topic = "other" if topic_cdf is None else _TOPICS[bisect_right(topic_cdf, rng.random())]
    phrase = _TOPIC_PHRASES[topic][int(rng.integers(len(_TOPIC_PHRASES[topic])))]
    if rng.random() < p_positive:
        word = _POSITIVE_WORDS[int(rng.integers(len(_POSITIVE_WORDS)))]
    else:
        word = _NEGATIVE_WORDS[int(rng.integers(len(_NEGATIVE_WORDS)))]
    shape = int(rng.integers(3))
    if shape == 0:
        return f"{phrase} is {word}"
    if shape == 1:
        return f"{word}, {phrase}"
    return f"honestly {phrase} is so {word}"


# ---------------------------------------------------------------------------
# Presets


PRESET_NAMES = ("valorant", "animal-crossing", "dead-by-daylight")


def preset(name: str, seed: int = 0) -> CommunitySpec:
    """Bundled community presets mirroring three observed community shapes."""
    if name == "valorant":
        return CommunitySpec(
            community="valorant",
            n_channels=50,
            attribute_ratios={"M": 42, "W": 8},
            seed=seed,
            videos_per_channel=50,
            viewership_exponent=0.8,
            collab_rate=0.1,
            two_way_share=0.696,
            dyad_propensity={"M-M": 0.40, "M-W": 0.22, "W-M": 0.20, "W-W": 0.18},
            synergy_multipliers={"M-M": 6.75, "W-M": 4.5, "W-W": 3.0, "M-W": 2.0},
            upstream_bias=0.6,
            audience_size=400,
            loyalty=0.85,
            discourse_profiles={
                "baseline": DiscourseProfile(0.14, {"gameplay": 0.45, "environment": 0.15, "food": 0.05, "appearance": 0.10, "other": 0.25}),
                "M-M": DiscourseProfile(0.15, {"gameplay": 0.50, "environment": 0.15, "food": 0.05, "appearance": 0.05, "other": 0.25}),
                "M-W": DiscourseProfile(0.20, {"gameplay": 0.35, "environment": 0.15, "food": 0.08, "appearance": 0.17, "other": 0.25}),
                "W-M": DiscourseProfile(0.25, {"gameplay": 0.33, "environment": 0.15, "food": 0.08, "appearance": 0.19, "other": 0.25}),
                "W-W": DiscourseProfile(0.30, {"gameplay": 0.20, "environment": 0.20, "food": 0.10, "appearance": 0.30, "other": 0.20}),
            },
        )
    if name == "animal-crossing":
        return CommunitySpec(
            community="animal-crossing",
            n_channels=50,
            attribute_ratios={"M": 15, "W": 35},
            seed=seed,
            videos_per_channel=50,
            viewership_exponent=0.8,
            collab_rate=0.044,
            two_way_share=0.7,
            dyad_propensity={"M-W": 0.45, "W-W": 0.25, "W-M": 0.15, "M-M": 0.15},
            synergy_multipliers={"W-W": 6.75, "W-M": 4.5, "M-W": 3.0, "M-M": 2.0},
            upstream_bias=-0.6,
            audience_size=400,
            loyalty=0.55,
            discourse_profiles={
                "baseline": DiscourseProfile(0.29, {"gameplay": 0.30, "environment": 0.20, "food": 0.15, "appearance": 0.10, "other": 0.25}),
                "M-M": DiscourseProfile(0.21, {"gameplay": 0.45, "environment": 0.15, "food": 0.08, "appearance": 0.07, "other": 0.25}),
                "M-W": DiscourseProfile(0.28, {"gameplay": 0.30, "environment": 0.20, "food": 0.12, "appearance": 0.13, "other": 0.25}),
                "W-M": DiscourseProfile(0.31, {"gameplay": 0.28, "environment": 0.20, "food": 0.12, "appearance": 0.15, "other": 0.25}),
                "W-W": DiscourseProfile(0.34, {"gameplay": 0.18, "environment": 0.22, "food": 0.15, "appearance": 0.25, "other": 0.20}),
            },
        )
    if name == "dead-by-daylight":
        return CommunitySpec(
            community="dead-by-daylight",
            n_channels=50,
            attribute_ratios={"M": 42, "W": 8},
            seed=seed,
            videos_per_channel=50,
            viewership_exponent=0.8,
            collab_rate=0.043,
            two_way_share=0.7,
            dyad_propensity={"M-M": 0.70, "M-W": 0.20, "W-M": 0.10},
            synergy_multipliers={"M-W": 6.75, "M-M": 4.5, "W-M": 3.0},
            upstream_bias=0.6,
            audience_size=400,
            loyalty=0.35,
            discourse_profiles={
                "baseline": DiscourseProfile(0.18, {"gameplay": 0.40, "environment": 0.15, "food": 0.05, "appearance": 0.10, "other": 0.30}),
                "M-M": DiscourseProfile(0.16, {"gameplay": 0.48, "environment": 0.15, "food": 0.05, "appearance": 0.07, "other": 0.25}),
                "M-W": DiscourseProfile(0.24, {"gameplay": 0.35, "environment": 0.15, "food": 0.08, "appearance": 0.17, "other": 0.25}),
                "W-M": DiscourseProfile(0.27, {"gameplay": 0.33, "environment": 0.15, "food": 0.08, "appearance": 0.19, "other": 0.25}),
            },
        )
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def spec_from_dict(raw: Mapping) -> CommunitySpec:
    """Build a spec from parsed JSON (profiles as nested objects)."""
    data = dict(raw)
    profiles = {
        key: DiscourseProfile(float(p["mean_sentiment"]), dict(p["topic_weights"]))
        for key, p in data.pop("discourse_profiles", {}).items()
    }
    return CommunitySpec(discourse_profiles=profiles, **data)


def write_truth(truth: PlantedTruth, path: str | Path) -> None:
    payload = {
        "community": truth.community,
        "seed": truth.seed,
        "type_multipliers": dict(truth.type_multipliers),
        "type_ranking": list(truth.type_ranking),
        "multipliers_by_dyad": {f"{h}|{g}": m for (h, g), m in truth.multipliers_by_dyad.items()},
        "two_way_share": str(truth.two_way_share),
        "two_way_videos": truth.two_way_videos,
        "multi_way_videos": truth.multi_way_videos,
        "baseline_targets": dict(truth.baseline_targets),
    }
    write_json(path, payload)


def simulate_to_dir(spec: CommunitySpec, out_dir: str | Path, fmt: str = "jsonl") -> dict[str, Path]:
    """Generate and write the three corpus files plus the truth file."""
    corpus, truth = generate(spec)
    out_dir = Path(out_dir)
    paths = write_corpus(corpus, out_dir, fmt=fmt)
    truth_path = out_dir / "truth.json"
    write_truth(truth, truth_path)
    paths["truth"] = truth_path
    return paths


# ---------------------------------------------------------------------------
# Independent oracle


@dataclass(frozen=True)
class Mismatch:
    metric: str
    key: str
    pipeline: str
    oracle: str


@dataclass(frozen=True)
class OracleReport:
    mismatches: tuple[Mismatch, ...]
    checks: int

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class _Metrics:
    baselines: dict[str, Fraction]
    shap2: dict[tuple[str, str], tuple[Fraction, Fraction]]
    shapn: dict[tuple[str, str], tuple[Fraction | None, Fraction | None]]
    share: tuple[int, int, int]  # total, two-way, multi-way
    closeness: dict[str, float]
    entropy: dict[str, float]


def compute_pipeline_metrics(corpus: Corpus, attribute_key: str = "gender") -> _Metrics:
    """Collect the numbers the ``report`` pipeline computes for a corpus."""
    config = report.RunConfig(community_dirs=(), out_dir="", attribute_key=attribute_key)
    pipeline = report.CommunityPipeline(corpus, config)
    synergies, _ = pipeline.synergies
    stats = pipeline.stats
    return _Metrics(
        baselines=dict(pipeline.baselines),
        shap2={(s.dyad.host, s.dyad.guest): (s.shap2_host, s.shap2_guest) for s in synergies},
        shapn={(s.dyad.host, s.dyad.guest): (s.shapn_host, s.shapn_guest) for s in synergies},
        share=(stats.total_videos, stats.two_way_videos, stats.multi_way_videos),
        closeness=dict(pipeline.centrality.closeness),
        entropy=dict(pipeline.entropy.entropy),
    )


def _naive_bounded_find(description: str, handle: str) -> bool:
    """Whether ``handle`` occurs in ``description.lower()``, optionally after one ``@``, with no
    ``str.isalnum`` character just before it (and its ``@``) or just after it. The pipeline
    scans all handles at once; it agrees when no handle occurs, bounded, inside another.
    """
    lowered = description.lower()
    start = 0
    while True:
        pos = lowered.find(handle, start)
        if pos < 0:
            return False
        before = pos - 1
        if before >= 0 and lowered[before] == "@":
            before -= 1
        left_ok = before < 0 or not lowered[before].isalnum()
        end = pos + len(handle)
        right_ok = end >= len(lowered) or not lowered[end].isalnum()
        if left_ok and right_ok:
            return True
        start = pos + 1


def _naive_median(values: list[int]) -> Fraction:
    ordered = list(values)
    # selection sort: deliberately primitive, shares nothing with the pipeline
    for i in range(len(ordered)):
        smallest = i
        for j in range(i + 1, len(ordered)):
            if ordered[j] < ordered[smallest]:
                smallest = j
        ordered[i], ordered[smallest] = ordered[smallest], ordered[i]
    n = len(ordered)
    if n % 2 == 1:
        return Fraction(ordered[n // 2])
    return (Fraction(ordered[n // 2 - 1]) + Fraction(ordered[n // 2])) / 2


def compute_oracle_metrics(corpus: Corpus, attribute_key: str = "gender") -> _Metrics:
    """Recompute everything with naive routines, independent of the pipeline."""
    channels = [rec.channel_id for rec in corpus.registry]
    handles_of = {rec.channel_id: rec.handles for rec in corpus.registry}

    mentioned: dict[str, set[str]] = {}
    for video in corpus.videos:
        found: set[str] = set()
        for cid in channels:
            if cid == video.channel_id:
                continue
            if any(_naive_bounded_find(video.description, h) for h in handles_of[cid]):
                found.add(cid)
        mentioned[video.video_id] = found

    two_way = {vid: next(iter(m)) for vid, m in mentioned.items() if len(m) == 1}
    multi = [vid for vid, m in mentioned.items() if len(m) > 1]
    collab_video_ids = set(two_way) | set(multi)

    baselines: dict[str, Fraction] = {}
    for cid in channels:
        views = [
            v.view_count
            for v in corpus.videos
            if v.channel_id == cid and v.video_id not in collab_video_ids
        ]
        if views:
            baselines[cid] = _naive_median(views)

    owner = {v.video_id: v.channel_id for v in corpus.videos}
    views_of = {v.video_id: v.view_count for v in corpus.videos}
    pair_videos: dict[tuple[str, str], list[str]] = {}
    for vid, guest in two_way.items():
        pair_videos.setdefault((owner[vid], guest), []).append(vid)

    shap2: dict[tuple[str, str], tuple[Fraction, Fraction]] = {}
    shapn: dict[tuple[str, str], tuple[Fraction | None, Fraction | None]] = {}
    for (host, guest), vids in pair_videos.items():
        if host not in baselines or guest not in baselines:
            continue
        mean = Fraction(sum(views_of[v] for v in vids), len(vids))
        xa, xb = baselines[host], baselines[guest]
        s2_host = mean - xb
        s2_guest = mean - xa
        shap2[(host, guest)] = (s2_host, s2_guest)
        shapn[(host, guest)] = (
            s2_host / xb - 1 if xb != 0 else None,
            s2_guest / xa - 1 if xa != 0 else None,
        )

    # closeness via Floyd-Warshall over the undirected dyad graph
    n = len(channels)
    index = {cid: i for i, cid in enumerate(channels)}
    inf = float("inf")
    dist = [[0.0 if i == j else inf for j in range(n)] for i in range(n)]
    for host, guest in pair_videos:
        i, j = index[host], index[guest]
        dist[i][j] = dist[j][i] = 1.0
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    closeness: dict[str, float] = {}
    for cid in channels:
        i = index[cid]
        reachable = [d for d in dist[i] if d < inf]
        k = len(reachable)
        total = sum(reachable)
        if n <= 1 or k <= 1 or total == 0:
            closeness[cid] = 0.0
        else:
            closeness[cid] = ((k - 1) / (n - 1)) * ((k - 1) / total)

    counts: dict[str, dict[str, int]] = {}
    for comment in corpus.comments:
        channel = owner.get(comment.video_id)
        if channel is None:
            continue
        counts.setdefault(comment.author_id, {}).setdefault(channel, 0)
        counts[comment.author_id][channel] += 1
    entropy: dict[str, float] = {}
    for author, channel_counts in counts.items():
        total = sum(channel_counts.values())
        h = 0.0
        for channel in sorted(channel_counts):
            p = channel_counts[channel] / total
            h -= p * math.log2(p)
        entropy[author] = max(h, 0.0)

    return _Metrics(
        baselines=baselines,
        shap2=shap2,
        shapn=shapn,
        share=(len(corpus.videos), len(two_way), len(multi)),
        closeness=closeness,
        entropy=entropy,
    )


def compare_metrics(
    pipeline: _Metrics, oracle: _Metrics, float_tol: float = 1e-9
) -> OracleReport:
    mismatches: list[Mismatch] = []
    checks = 0

    def check_exact(metric: str, a: Mapping, b: Mapping) -> None:
        nonlocal checks
        for key in sorted(set(a) | set(b), key=str):
            checks += 1
            va, vb = a.get(key), b.get(key)
            if va != vb:
                mismatches.append(Mismatch(metric, str(key), repr(va), repr(vb)))

    def check_float(metric: str, a: Mapping[str, float], b: Mapping[str, float]) -> None:
        nonlocal checks
        for key in sorted(set(a) | set(b)):
            checks += 1
            va, vb = a.get(key), b.get(key)
            if va is None or vb is None or abs(va - vb) > float_tol:
                mismatches.append(Mismatch(metric, key, repr(va), repr(vb)))

    check_exact("baseline", pipeline.baselines, oracle.baselines)
    check_exact("shap2", pipeline.shap2, oracle.shap2)
    check_exact("shapn", pipeline.shapn, oracle.shapn)
    checks += 1
    if pipeline.share != oracle.share:
        mismatches.append(Mismatch("share", "corpus", repr(pipeline.share), repr(oracle.share)))
    check_float("closeness", pipeline.closeness, oracle.closeness)
    check_float("entropy", pipeline.entropy, oracle.entropy)
    return OracleReport(tuple(mismatches), checks)


def oracle_check(
    corpus: Corpus,
    truth: PlantedTruth | None = None,
    attribute_key: str = "gender",
) -> OracleReport:
    """Cross-check pipeline output against the naive implementations.

    When the planted truth is supplied, the measured two-way share is also
    compared to the share the generator realized.
    """
    pipeline = compute_pipeline_metrics(corpus, attribute_key)
    oracle = compute_oracle_metrics(corpus, attribute_key)
    result = compare_metrics(pipeline, oracle)
    if truth is not None:
        total, two, multi = pipeline.share
        measured = Fraction(two, two + multi) if (two + multi) else Fraction(0)
        if measured != truth.two_way_share:
            result = OracleReport(
                result.mismatches
                + (Mismatch("two_way_share", "corpus", str(measured), str(truth.two_way_share)),),
                result.checks + 1,
            )
        else:
            result = OracleReport(result.mismatches, result.checks + 1)
    return result
