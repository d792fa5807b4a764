"""Two-way Shapley contributions and normalized synergy per dyad.

For a dyad with host A and guest B over N collaboration videos with views
V_1..V_N, the host contribution is ``mean(V) - median_views(B)`` and the
guest contribution is ``mean(V) - median_views(A)``: each side's
contribution is what the pair achieves beyond the other side's usual
performance. The normalized form divides by the same partner median and
subtracts one. A companion ``lift`` column (``mean(V)/median - 1``) is
emitted as the conventional effect-size reading of the same comparison.

All per-dyad arithmetic is exact over rationals; floats appear only when
reports are rendered.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, groupby
from typing import Mapping, Sequence

from collabmetrics.collab import CollaborationDyad, VideoPartition
from collabmetrics.corpus import Corpus, exact_median

__all__ = [
    "DyadSynergy",
    "SynergyReport",
    "TypeAggregate",
    "ReciprocityStats",
    "SynergyDiagnostics",
    "dyad_synergy",
    "channel_baselines",
    "compute_synergies",
    "aggregate_by_dyad_type",
    "reciprocity",
    "dyad_type_order",
    "BASELINE_MODES",
    "STATISTICS",
]

logger = logging.getLogger(__name__)

# The ``mode`` values of :func:`channel_baselines` and the ``statistic`` values
# of :func:`aggregate_by_dyad_type`, defaults first.
BASELINE_MODES = ("solo", "all")
STATISTICS = ("median", "mean")


@dataclass(frozen=True)
class DyadSynergy:
    """Raw and normalized contributions for one dyad.

    ``shapn_*`` fields are None when the dividing baseline is zero; such
    dyads keep their raw contributions but are excluded from normalized
    aggregates.
    """

    dyad: CollaborationDyad
    n_videos: int
    mean_collab_views: Fraction
    baseline_host: Fraction
    baseline_guest: Fraction
    shap2_host: Fraction
    shap2_guest: Fraction
    shapn_host: Fraction | None
    shapn_guest: Fraction | None

    @property
    def lift_host(self) -> Fraction | None:
        if self.baseline_guest == 0:
            return None
        return self.mean_collab_views / self.baseline_guest - 1

    @property
    def lift_guest(self) -> Fraction | None:
        if self.baseline_host == 0:
            return None
        return self.mean_collab_views / self.baseline_host - 1


@dataclass(frozen=True)
class TypeAggregate:
    dyad_count: int
    video_count: int
    shapn_host: Fraction
    shapn_guest: Fraction


@dataclass(frozen=True)
class SynergyReport:
    """Aggregated normalized contributions per dyad type for one community.

    ``rows`` is keyed by dyad type and holds observed types only; an absent
    type means absent, never zero.
    """

    community: str
    statistic: str
    rows: Mapping[str, TypeAggregate]


@dataclass(frozen=True)
class ReciprocityStats:
    """Per-video comparison of host vs guest baseline popularity."""

    videos_counted: int
    host_greater: Fraction
    guest_greater: Fraction
    tied: Fraction
    skipped_videos: int = 0


@dataclass(frozen=True)
class SynergyDiagnostics:
    """Dyads that could not enter normalized aggregates, with reasons."""

    skipped_no_baseline: tuple[tuple[str, str, str], ...] = ()  # (host, guest, reason)
    zero_baseline: tuple[tuple[str, str], ...] = ()


def _contributions(total: int, n: int, partner: Fraction) -> tuple[Fraction, Fraction | None]:
    """``(mean - partner, (mean - partner) / partner - 1)`` for the mean ``total / n``, each one
    ``Fraction`` over integers; the second is None when ``partner`` is 0."""
    p, q = partner.numerator, partner.denominator
    return Fraction(total * q - n * p, n * q), (Fraction(total * q - 2 * n * p, n * p) if p else None)


def dyad_synergy(
    dyad: CollaborationDyad,
    views: Mapping[str, int],
    baselines: Mapping[str, Fraction],
) -> DyadSynergy:
    """Exact contributions for one dyad whose host and guest have baselines; ``views`` holds each
    of the dyad's videos' view count by id.

    A zero baseline leaves the normalized contribution that divides by it
    None; the raw contributions are always set.
    """
    n = len(dyad.videos)
    total = sum(map(views.__getitem__, dyad.videos))
    baseline_host = baselines[dyad.host]
    baseline_guest = baselines[dyad.guest]
    shap2_host, shapn_host = _contributions(total, n, baseline_guest)
    shap2_guest, shapn_guest = _contributions(total, n, baseline_host)
    return DyadSynergy(
        dyad=dyad,
        n_videos=n,
        mean_collab_views=Fraction(total, n),
        baseline_host=baseline_host,
        baseline_guest=baseline_guest,
        shap2_host=shap2_host,
        shap2_guest=shap2_guest,
        shapn_host=shapn_host,
        shapn_guest=shapn_guest,
    )


def channel_baselines(
    corpus: Corpus, partition: VideoPartition, mode: str = "solo"
) -> dict[str, Fraction]:
    """Median view count per channel (exact, a rational midpoint for even counts).

    ``mode="solo"`` (default) excludes the ``partition``'s collaboration
    videos so the baseline reflects solo performance; ``mode="all"`` keeps
    every video. Channels with nothing left after exclusion are absent
    from the result (their dyads get skipped downstream), never a zero
    baseline.
    """
    if mode not in BASELINE_MODES:
        raise ValueError(f"unknown baseline mode {mode!r}")
    exclude = partition.collaboration_videos() if mode == "solo" else frozenset()
    videos = corpus.videos
    solo = bytes(map(operator.not_, map(exclude.__contains__, videos.video_ids)))
    # Each run of one channel's videos (one run a channel in a loaded table) is one slice of each column.
    views_by_channel: dict[str, list[int]] = {ch.channel_id: [] for ch in corpus.registry}
    start = 0
    for channel_id, run in groupby(videos.channel_ids):
        stop = start + len(list(run))
        views_by_channel[channel_id] += compress(videos.view_counts[start:stop], solo[start:stop])
        start = stop
    baselines: dict[str, Fraction] = {}
    for channel_id, views in views_by_channel.items():
        if views:
            baselines[channel_id] = exact_median(views)
        else:
            logger.info("channel %s has no baseline videos; its dyads will be skipped", channel_id)
    return baselines


def compute_synergies(
    dyads: Sequence[CollaborationDyad],
    corpus: Corpus,
    baselines: Mapping[str, Fraction],
) -> tuple[list[DyadSynergy], SynergyDiagnostics]:
    """Per-dyad synergy for every dyad with usable baselines.

    Dyads with a missing baseline are skipped entirely; dyads with a zero
    baseline keep their raw contributions (normalized fields None) and are
    surfaced in the diagnostics.
    """
    # The view counts of the dyads' own videos only, picked in one C-level pass over the columns.
    wanted = {video_id for dyad in dyads for video_id in dyad.videos}
    video_ids = corpus.videos.video_ids
    views = dict(compress(zip(video_ids, corpus.videos.view_counts), map(wanted.__contains__, video_ids)))
    out: list[DyadSynergy] = []
    skipped: list[tuple[str, str, str]] = []
    zeroed: list[tuple[str, str]] = []
    for dyad in dyads:
        missing = [c for c in (dyad.host, dyad.guest) if c not in baselines]
        if missing:
            reason = f"no baseline for {', '.join(missing)}"
            logger.info("skipping dyad (%s, %s): %s", dyad.host, dyad.guest, reason)
            skipped.append((dyad.host, dyad.guest, reason))
            continue
        syn = dyad_synergy(dyad, views, baselines)
        if syn.shapn_host is None or syn.shapn_guest is None:
            zeroed.append((dyad.host, dyad.guest))
        out.append(syn)
    return out, SynergyDiagnostics(tuple(skipped), tuple(zeroed))


def _central(values: list[Fraction], statistic: str) -> Fraction:
    if statistic == "mean":
        return sum(values, Fraction(0)) / len(values)
    return exact_median(values)


def aggregate_by_dyad_type(
    synergies: Sequence[DyadSynergy],
    community: str = "",
    statistic: str = "median",
) -> SynergyReport:
    """Aggregate normalized contributions per dyad type.

    The default statistic is the median, which stays stable under the
    heavy-tailed viewership these corpora show; the mean is available for
    comparison. Dyads lacking normalized values are excluded; the
    ``zero_baseline`` diagnostics of :func:`compute_synergies` name them.
    """
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    groups: dict[str, list[DyadSynergy]] = {}
    for syn in synergies:
        if syn.shapn_host is not None and syn.shapn_guest is not None:
            groups.setdefault(syn.dyad.dyad_type, []).append(syn)
    rows = {
        dyad_type: TypeAggregate(
            dyad_count=len(group),
            video_count=sum(s.n_videos for s in group),
            shapn_host=_central([s.shapn_host for s in group], statistic),
            shapn_guest=_central([s.shapn_guest for s in group], statistic),
        )
        for dyad_type, group in sorted(groups.items())
    }
    return SynergyReport(community=community, statistic=statistic, rows=rows)


def reciprocity(dyads: Sequence[CollaborationDyad], baselines: Mapping[str, Fraction]) -> ReciprocityStats:
    """Fractions of collaboration videos where the host or guest side is
    the more popular one (by baseline median), with ties separate.

    Videos whose dyad lacks a baseline on either side are excluded and
    counted in ``skipped_videos``.
    """
    host_greater = guest_greater = tied = skipped = 0
    for dyad in dyads:
        n = len(dyad.videos)
        if dyad.host not in baselines or dyad.guest not in baselines:
            skipped += n
            continue
        host_baseline = baselines[dyad.host]
        guest_baseline = baselines[dyad.guest]
        if host_baseline > guest_baseline:
            host_greater += n
        elif guest_baseline > host_baseline:
            guest_greater += n
        else:
            tied += n
    counted = host_greater + guest_greater + tied
    if counted == 0:
        return ReciprocityStats(0, Fraction(0), Fraction(0), Fraction(0), skipped)
    return ReciprocityStats(
        videos_counted=counted,
        host_greater=Fraction(host_greater, counted),
        guest_greater=Fraction(guest_greater, counted),
        tied=Fraction(tied, counted),
        skipped_videos=skipped,
    )


def dyad_type_order(labels: Sequence[str]) -> list[str]:
    """Canonical dyad-type column order as the label cross product.

    Labels sort descending, which for the binary gender case yields the
    conventional W-W, W-M, M-W, M-M column order.
    """
    ordered = sorted(set(labels), reverse=True)
    return [f"{a}-{b}" for a in ordered for b in ordered]
