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
from array import array
from bisect import bisect_right
from copy import deepcopy
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import ne
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from collabmetrics import PRESET_NAMES, report
from collabmetrics.corpus import (
    _REGISTRY_FIXED,
    ChannelRecord,
    CommentTable,
    Corpus,
    VideoTable,
    build_corpus,
    write_corpus,
    write_json,
)
from collabmetrics.errors import ConfigurationError, InfeasibleSpecError

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

_EPOCH_US = 1_704_067_200_000_000  # 2024-01-01 UTC, in microseconds since 1970-01-01
_MINUTE_US = 60_000_000
_HOUR_US = 60 * _MINUTE_US
_FLOAT_TOL = 1e-9  # how far the pipeline's closeness and entropy may stray from the oracle's

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
    viewership_scale: float = 50_000
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
        registry_fields = (*_REGISTRY_FIXED, "attributes")  # a CSV registry cannot load an attribute column so named
        if self.attribute_key in registry_fields:
            raise InfeasibleSpecError(f"attribute_key must not be a registry field: {', '.join(registry_fields)}")
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
        if not (self.viewership_noise >= 0 and self.synergy_noise >= 0):
            raise InfeasibleSpecError("viewership_noise and synergy_noise must be >= 0")
        if self.videos_per_channel < 1 or self.videos_per_dyad < 1:
            raise InfeasibleSpecError("videos_per_channel and videos_per_dyad must be >= 1")
        if self.synergy_multipliers and any(m <= 0 for m in self.synergy_multipliers.values()):
            raise InfeasibleSpecError("synergy multipliers must be positive")
        if not -1.0 <= self.upstream_bias <= 1.0:
            raise InfeasibleSpecError("upstream_bias must lie in [-1, 1]")


@dataclass(frozen=True)
class PlantedTruth:
    """Ground truth realized by one generation run, and what only the comments file holds:
    each comment's time (UTC microseconds since 1970-01-01) and like count, in table order."""

    community: str
    seed: int
    type_multipliers: Mapping[str, float]  # planted, observed types only
    type_ranking: tuple[str, ...]  # planted multipliers, descending
    multipliers_by_dyad: Mapping[tuple[str, str], float]  # realized geometric means
    two_way_share: Fraction  # realized share among collaboration videos
    two_way_videos: int
    multi_way_videos: int
    baseline_targets: Mapping[str, float]
    comment_published_us: array = field(repr=False)  # array('q')
    comment_like_counts: bytes = field(repr=False)


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


def _view_count(views: float) -> int:
    """A drawn view count, rounded and at least 0; one beyond the float range makes the spec infeasible."""
    try:
        return max(0, round(views))
    except OverflowError:
        raise InfeasibleSpecError(
            "a drawn view count is beyond the float range; lower viewership_scale, the noise or the synergy multipliers"
        ) from None


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
    text = _Draws(np.random.default_rng(streams[4]))

    # --- channels, by index: labels, popularity ranks, baseline targets ----
    label_counts = _apportion(spec.n_channels, spec.attribute_ratios)
    labels = np.array([label for label in sorted(label_counts) for _ in range(label_counts[label])], dtype=object)
    rng_channels.shuffle(labels)
    ranks = (rng_channels.permutation(spec.n_channels) + 1).tolist()
    try:
        targets = [spec.viewership_scale * float(rank) ** (-spec.viewership_exponent) for rank in ranks]
        in_range = math.isfinite(sum(targets))  # the comment popularity divides by the sum
    except OverflowError:  # a power beyond the float range
        in_range = False
    if not in_range:
        raise InfeasibleSpecError(
            f"viewership_scale {spec.viewership_scale:g} and viewership_exponent {spec.viewership_exponent:g} "
            "put the baseline targets beyond the float range"
        )

    channel_ids = [f"{spec.community}-c{i:03d}" for i in range(spec.n_channels)]
    handles = [f"creator{i:03d}" for i in range(spec.n_channels)]
    baseline_targets = dict(zip(channel_ids, targets))
    registry = [
        ChannelRecord(
            channel_id=cid,
            handles=(handles[i],),
            display_name=f"Creator {i:03d}",
            attributes={spec.attribute_key: labels[i]},
            community=spec.community,
        )
        for i, cid in enumerate(channel_ids)
    ]

    # --- video slots, initially all solo: slots[i][s] = (bucket, views, title, description)
    slots: list[list[tuple[str, int, str, str]]] = []
    for i, target in enumerate(targets):
        noise = np.exp(rng_videos.normal(0.0, spec.viewership_noise, spec.videos_per_channel))
        slots.append([
            ("baseline", _view_count(target * f), f"Session {s}", _SOLO_DESCRIPTIONS[(i + s) % len(_SOLO_DESCRIPTIONS)])
            for s, f in enumerate(noise.tolist())
        ])

    # --- collaboration plan: each picked slot is written at once -----------
    total_videos = spec.n_channels * spec.videos_per_channel
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
    type_videos = {t: n for t, n in type_videos.items() if n}
    # A host's collaboration videos fill its slots from the last one down, so
    # its load is also the count of slots it has used.
    host_capacity = spec.videos_per_channel - 1  # always keep >= 1 solo video
    host_load = np.zeros(spec.n_channels, dtype=np.int64)
    target_arr = np.array(targets)
    if type_videos:  # only pair weights take logs; a zero target is fine without pairs
        if min(targets) == 0.0:
            raise InfeasibleSpecError(
                f"viewership_exponent {spec.viewership_exponent} underflows a baseline target to 0; "
                "two-way collaborations need every target positive"
            )
        log_targets = np.array([math.log(t) for t in targets])
    channels_of = {label: np.flatnonzero(labels == label) for label in label_counts}
    no_channels = np.zeros(0, dtype=np.intp)  # for a label that no channel has

    realized: dict[tuple[str, str], list[float]] = {}  # (host id, guest id) -> views / gm
    for dyad_type in sorted(type_videos):
        videos_wanted = type_videos[dyad_type]
        host_label, _, guest_label = dyad_type.partition("-")
        hosts = channels_of.get(host_label, no_channels)
        guests = channels_of.get(guest_label, no_channels)
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
        bias = 1.0 - spec.upstream_bias * np.sign(target_arr[pair_host] - target_arr[pair_guest])
        base_weights = np.exp(-4.0 * spec.pair_rank_affinity * gaps) * bias
        mult = multipliers.get(dyad_type, 1.0)
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
            gm = math.sqrt(targets[host] * targets[guest])
            ratios = realized[channel_ids[host], channel_ids[guest]] = []
            for _ in range(load):
                views = _view_count(mult * gm * math.exp(rng_videos.normal(0.0, spec.synergy_noise)))
                description = _COLLAB_TEMPLATES[text.below(len(_COLLAB_TEMPLATES))].format(guest=handles[guest])
                slot = host_capacity - int(host_load[host])
                slots[host][slot] = (dyad_type, views, f"Collab session {slot}", description)
                host_load[host] += 1
                ratios.append(views / gm if gm else 0.0)

    # --- multi-way plan: one video each, counted in the baseline bucket ------
    if n_multi:
        if spec.n_channels < 3:
            raise InfeasibleSpecError("multi-way collaborations need >= 3 channels")
        pairs = _Draws(rng_pairs)
        for _ in range(n_multi):
            eligible_hosts = np.flatnonzero(host_load + 1 <= host_capacity)
            if not len(eligible_hosts):
                raise InfeasibleSpecError("hosts out of capacity for multi-way videos")
            host = int(eligible_hosts[pairs.below(len(eligible_hosts))])
            # guests are drawn among the other channels: index k skips the host
            pick = rng_pairs.choice(spec.n_channels - 1, size=2, replace=False)
            g1, g2 = (k + (k >= host) for k in map(int, pick))
            gm = math.sqrt(targets[host] * targets[g1])
            views = _view_count(gm * math.exp(rng_videos.normal(0.0, spec.synergy_noise)))
            description = _MULTI_TEMPLATES[text.below(len(_MULTI_TEMPLATES))].format(g1=handles[g1], g2=handles[g2])
            slot = host_capacity - int(host_load[host])
            slots[host][slot] = ("baseline", views, f"Collab session {slot}", description)
            host_load[host] += 1

    # --- videos, channel-major: channel i's slot s is row i * videos_per_channel + s, each
    # row the fields of a VideoRecord in order, laid out as the table's columns
    videos = VideoTable.from_columns([zip(*(
        (
            f"{spec.community}-v{i:03d}-{s:04d}",
            cid,
            _EPOCH_US + (i * spec.videos_per_channel + s) * _HOUR_US,
            title,
            description,
            views,
            views // 100,
            0,
        )
        for i, cid in enumerate(channel_ids)
        for s, (_, views, title, description) in enumerate(slots[i])
    ))])

    # --- comments: the table's rows, and each one's time and like count beside them
    comment_us, comment_likes = array("q"), bytearray()

    def comment_rows() -> Iterator[tuple[str, str, str, str]]:
        if spec.audience_size <= 0:
            return
        popularity = target_arr / target_arr.sum()
        home_cdf = _cdf(popularity)
        away_cdfs: dict[int, list[float]] = {}  # home channel -> CDF without its own weight
        text_draws: dict[str, tuple[list[float] | None, float]] = {}  # video bucket -> _text_draws
        lam = max(0.0, spec.comments_per_commenter - 1.0)
        comments = _Draws(rng_comments)
        random, below = comments.random, comments.below
        comment_seq = 0
        for j in range(spec.audience_size):
            author = f"user{j:05d}"
            home = bisect_right(home_cdf, random())
            n_comments = 1 + int(rng_comments.poisson(lam))
            for _ in range(n_comments):
                if random() >= spec.loyalty:
                    if home not in away_cdfs:
                        away = popularity.copy()
                        away[home] = 0.0
                        away_cdfs[home] = _cdf(away / away.sum())
                    target = bisect_right(away_cdfs[home], random())
                else:
                    target = home
                slot = below(spec.videos_per_channel)
                row = target * spec.videos_per_channel + slot
                bucket = slots[target][slot][0]
                if bucket not in text_draws:
                    text_draws[bucket] = _text_draws(spec.discourse_profiles, bucket)
                comment_us.append(videos.published_us[row] + (comment_seq % 600 + 1) * _MINUTE_US)
                comment_likes.append(below(50))
                yield (
                    f"{spec.community}-m{comment_seq:07d}",
                    videos.video_ids[row],
                    author,
                    _comment_text(*text_draws[bucket], text),
                )
                comment_seq += 1

    corpus = build_corpus(registry, videos, CommentTable.from_rows(comment_rows()), spec.community)

    type_multipliers = {t: multipliers.get(t, 1.0) for t in sorted(type_videos)}
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
        comment_published_us=comment_us,
        comment_like_counts=bytes(comment_likes),
    )
    return corpus, truth


class _Draws:
    """Scalar draws that read a ``Generator``'s bit generator directly.

    ``below(n)`` returns what ``rng.integers(n)`` would and ``random()``
    what ``rng.random()`` would, value for value, and each leaves the bit
    generator in the same state, so draws made here and draws made on
    ``rng`` itself (``poisson``, ``choice``, ...) interleave into one
    stream. They exist because the generator makes several scalar draws
    per comment, and most of the cost of ``Generator.integers`` is its
    Python-level argument handling.

    ``below`` is numpy's bounded draw for a range that fits 32 bits
    (Lemire, "Fast Random Integer Generation in an Interval", 2019): one
    ``next_uint32`` times ``n``, redrawn while its low 32 bits fall below
    ``(2**32 - n) % n``, and the high 32 bits returned. ``next_uint32`` is
    the bit generator's own, so a buffered half of a 64-bit output (PCG64
    ``has_uint32``) is used and kept just as ``integers`` would.

    The calls bypass the lock that ``Generator`` methods take, which is
    safe only because ``generate`` draws from one thread.
    """

    __slots__ = ("_bit_generator", "random", "_next_uint32")

    def __init__(self, rng: np.random.Generator) -> None:
        # The ctypes interface holds raw addresses only; this reference keeps
        # the state they point into alive.
        self._bit_generator = rng.bit_generator
        native = self._bit_generator.ctypes
        self.random = partial(native.next_double, native.state_address)
        self._next_uint32 = partial(native.next_uint32, native.state_address)

    def below(self, n: int) -> int:
        """A uniform int in ``[0, n)``, as ``rng.integers(n)``; ``1 <= n <= 2**32``."""
        if n == 1:  # integers(1) is 0 and draws nothing
            return 0
        if not 1 < n <= 1 << 32:
            raise ValueError(f"below() needs 1 <= n <= 2**32, got {n}")
        m = self._next_uint32() * n
        if m & 0xFFFFFFFF < n:  # (2**32 - n) % n < n: no other low word is rejected
            threshold = ((1 << 32) - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next_uint32() * n
        return m >> 32


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


def _comment_text(topic_cdf: list[float] | None, p_positive: float, draws: _Draws) -> str:
    topic = "other" if topic_cdf is None else _TOPICS[bisect_right(topic_cdf, draws.random())]
    phrase = _TOPIC_PHRASES[topic][draws.below(len(_TOPIC_PHRASES[topic]))]
    if draws.random() < p_positive:
        word = _POSITIVE_WORDS[draws.below(len(_POSITIVE_WORDS))]
    else:
        word = _NEGATIVE_WORDS[draws.below(len(_NEGATIVE_WORDS))]
    shape = draws.below(3)
    if shape == 0:
        return f"{phrase} is {word}"
    if shape == 1:
        return f"{word}, {phrase}"
    return f"honestly {phrase} is so {word}"


# ---------------------------------------------------------------------------
# Presets


# What sets each bundled community apart; :func:`preset` adds the per-game
# shape that all three share.
_PRESETS: dict[str, dict] = {
    "valorant": dict(
        attribute_ratios={"M": 42, "W": 8},
        collab_rate=0.1,
        two_way_share=0.696,
        dyad_propensity={"M-M": 0.40, "M-W": 0.22, "W-M": 0.20, "W-W": 0.18},
        synergy_multipliers={"M-M": 6.75, "W-M": 4.5, "W-W": 3.0, "M-W": 2.0},
        upstream_bias=0.6,
        loyalty=0.85,
        discourse_profiles={
            "baseline": DiscourseProfile(0.14, {"gameplay": 0.45, "environment": 0.15, "food": 0.05, "appearance": 0.10, "other": 0.25}),
            "M-M": DiscourseProfile(0.15, {"gameplay": 0.50, "environment": 0.15, "food": 0.05, "appearance": 0.05, "other": 0.25}),
            "M-W": DiscourseProfile(0.20, {"gameplay": 0.35, "environment": 0.15, "food": 0.08, "appearance": 0.17, "other": 0.25}),
            "W-M": DiscourseProfile(0.25, {"gameplay": 0.33, "environment": 0.15, "food": 0.08, "appearance": 0.19, "other": 0.25}),
            "W-W": DiscourseProfile(0.30, {"gameplay": 0.20, "environment": 0.20, "food": 0.10, "appearance": 0.30, "other": 0.20}),
        },
    ),
    "animal-crossing": dict(
        attribute_ratios={"M": 15, "W": 35},
        collab_rate=0.044,
        two_way_share=0.7,
        dyad_propensity={"M-W": 0.45, "W-W": 0.25, "W-M": 0.15, "M-M": 0.15},
        synergy_multipliers={"W-W": 6.75, "W-M": 4.5, "M-W": 3.0, "M-M": 2.0},
        upstream_bias=-0.6,
        loyalty=0.55,
        discourse_profiles={
            "baseline": DiscourseProfile(0.29, {"gameplay": 0.30, "environment": 0.20, "food": 0.15, "appearance": 0.10, "other": 0.25}),
            "M-M": DiscourseProfile(0.21, {"gameplay": 0.45, "environment": 0.15, "food": 0.08, "appearance": 0.07, "other": 0.25}),
            "M-W": DiscourseProfile(0.28, {"gameplay": 0.30, "environment": 0.20, "food": 0.12, "appearance": 0.13, "other": 0.25}),
            "W-M": DiscourseProfile(0.31, {"gameplay": 0.28, "environment": 0.20, "food": 0.12, "appearance": 0.15, "other": 0.25}),
            "W-W": DiscourseProfile(0.34, {"gameplay": 0.18, "environment": 0.22, "food": 0.15, "appearance": 0.25, "other": 0.20}),
        },
    ),
    "dead-by-daylight": dict(
        attribute_ratios={"M": 42, "W": 8},
        collab_rate=0.043,
        two_way_share=0.7,
        dyad_propensity={"M-M": 0.70, "M-W": 0.20, "W-M": 0.10},
        synergy_multipliers={"M-W": 6.75, "M-M": 4.5, "W-M": 3.0},
        upstream_bias=0.6,
        loyalty=0.35,
        discourse_profiles={
            "baseline": DiscourseProfile(0.18, {"gameplay": 0.40, "environment": 0.15, "food": 0.05, "appearance": 0.10, "other": 0.30}),
            "M-M": DiscourseProfile(0.16, {"gameplay": 0.48, "environment": 0.15, "food": 0.05, "appearance": 0.07, "other": 0.25}),
            "M-W": DiscourseProfile(0.24, {"gameplay": 0.35, "environment": 0.15, "food": 0.08, "appearance": 0.17, "other": 0.25}),
            "W-M": DiscourseProfile(0.27, {"gameplay": 0.33, "environment": 0.15, "food": 0.08, "appearance": 0.19, "other": 0.25}),
        },
    ),
}


def preset(name: str, seed: int = 0) -> CommunitySpec:
    """Bundled community presets mirroring three observed community shapes."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return CommunitySpec(  # a deep copy: each call's mappings are its own, as a caller may change them
        community=name, n_channels=50, seed=seed, videos_per_channel=50, audience_size=400, **deepcopy(_PRESETS[name])
    )


def spec_from_dict(raw: Mapping) -> CommunitySpec:
    """Build a spec from parsed JSON (profiles as nested objects).

    Raises :class:`ConfigurationError` naming the missing or unknown fields
    of the spec or of a profile, a field whose value has the wrong type, or
    a profile that is not an object.
    """
    data = dict(raw)
    report.check_fields("spec", data, CommunitySpec)
    raw_profiles = data.pop("discourse_profiles", {})
    if not isinstance(raw_profiles, Mapping):
        raise ConfigurationError(f"discourse_profiles must be an object, got {raw_profiles!r}")
    profiles = {}
    for key, p in raw_profiles.items():
        where = f"discourse_profiles[{key!r}]"
        if not isinstance(p, Mapping):
            raise ConfigurationError(f"{where} must be an object, got {p!r}")
        report.check_fields(where, p, DiscourseProfile)
        profiles[key] = DiscourseProfile(float(p["mean_sentiment"]), dict(p["topic_weights"]))
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
    comments = zip(*corpus.comments.columns(), truth.comment_published_us, truth.comment_like_counts)
    paths = write_corpus(corpus.registry, corpus.videos, comments, out_dir, fmt=fmt)
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
        entropy=dict(pipeline.entropy),
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


def compute_oracle_metrics(corpus: Corpus) -> _Metrics:
    """Recompute everything with naive routines, independent of the pipeline."""
    channels = [rec.channel_id for rec in corpus.registry]
    handles_of = {rec.channel_id: rec.handles for rec in corpus.registry}

    videos = list(corpus.videos)
    mentioned: dict[str, set[str]] = {}
    for video in videos:
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
            for v in videos
            if v.channel_id == cid and v.video_id not in collab_video_ids
        ]
        if views:
            baselines[cid] = _naive_median(views)

    owner = {v.video_id: v.channel_id for v in videos}
    views_of = {v.video_id: v.view_count for v in videos}
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
    for video_id, author in zip(corpus.comments.video_ids, corpus.comments.author_ids):
        channel = owner.get(video_id)
        if channel is None:
            continue
        counts.setdefault(author, {}).setdefault(channel, 0)
        counts[author][channel] += 1
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


def _far(a: float | None, b: float | None) -> bool:
    return a is None or b is None or abs(a - b) > _FLOAT_TOL


def compare_metrics(pipeline: _Metrics, oracle: _Metrics) -> OracleReport:
    """One check per key of each metric: exact for the rationals and the share, within ``_FLOAT_TOL`` for floats."""
    mismatches: list[Mismatch] = []
    checks = 0
    for metric, a, b, differs in (
        ("baseline", pipeline.baselines, oracle.baselines, ne),
        ("shap2", pipeline.shap2, oracle.shap2, ne),
        ("shapn", pipeline.shapn, oracle.shapn, ne),
        ("share", {"corpus": pipeline.share}, {"corpus": oracle.share}, ne),
        ("closeness", pipeline.closeness, oracle.closeness, _far),
        ("entropy", pipeline.entropy, oracle.entropy, _far),
    ):
        for key in sorted(set(a) | set(b), key=str):
            checks += 1
            va, vb = a.get(key), b.get(key)
            if differs(va, vb):
                mismatches.append(Mismatch(metric, str(key), repr(va), repr(vb)))
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
    result = compare_metrics(pipeline, compute_oracle_metrics(corpus))
    if truth is None:
        return result
    _, two, multi = pipeline.share
    measured = Fraction(two, two + multi) if (two + multi) else Fraction(0)
    wrong = () if measured == truth.two_way_share else (
        Mismatch("two_way_share", "corpus", str(measured), str(truth.two_way_share)),
    )
    return OracleReport(result.mismatches + wrong, result.checks + 1)
