"""Collaboration detection from video descriptions.

A collaboration is a registered creator's handle appearing in another
registered creator's video description: ``description.lower()`` holds the
normalized handle exactly, optionally after one ``@``, with no ``str.isalnum``
character just before the handle and its ``@`` or just after. ``@alpha!`` and
``İkit`` mention ``alpha`` and ``kit``; ``éalpha``, ``x@alpha`` and
``me@alpha.com`` do not. Scanning is left-to-right and non-overlapping, with
the longest registered handle winning at any position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from collabmetrics.corpus import ChannelRecord, Corpus, VideoRecord
from collabmetrics.errors import ValidationError

__all__ = [
    "CollaborationDyad",
    "CollabShareStats",
    "VideoPartition",
    "HandleIndex",
    "partition_videos",
    "detect_collaborations",
    "classify_dyad",
]


@dataclass(frozen=True)
class CollaborationDyad:
    """An ordered (host, guest) pair with its collaboration videos.

    The host posts and owns the videos; the dyad_type label carries the
    host's attribute value first.
    """

    host: str
    guest: str
    videos: tuple[str, ...]
    dyad_type: str


@dataclass(frozen=True)
class CollabShareStats:
    """How collaboration videos split across a corpus (exact fractions)."""

    total_videos: int
    two_way_videos: int
    multi_way_videos: int
    share_by_dyad_type: Mapping[str, Fraction]

    @property
    def two_way_share(self) -> Fraction:
        if self.total_videos == 0:
            return Fraction(0)
        return Fraction(self.two_way_videos, self.total_videos)


@dataclass(frozen=True)
class VideoPartition:
    """Videos split by collaboration arity."""

    two_way: Mapping[str, str]  # video_id -> the single mentioned guest
    multi_way: frozenset[str]

    def collaboration_videos(self) -> frozenset[str]:
        return frozenset(self.two_way) | self.multi_way


class HandleIndex:
    """Compiled mention scanner over the registry's normalized handles."""

    def __init__(self, registry: Sequence[ChannelRecord]):
        self._owner_by_handle = {handle: rec.channel_id for rec in registry for handle in rec.handles}
        if self._owner_by_handle:
            # Longest-first alternation so a longer handle wins at a position.
            alternation = "|".join(
                re.escape(h) for h in sorted(self._owner_by_handle, key=len, reverse=True)
            )
            # [^\W_] is exactly the code points where str.isalnum() holds.
            self._pattern = re.compile(rf"(?<![^\W_])(?<![^\W_]@)@?({alternation})(?![^\W_])")
        else:
            self._pattern = None

    def mentions(self, descriptions: Iterable[str], owners: Sequence[str]) -> Iterator[tuple[int, set[str]]]:
        """``(i, ids)`` for each of ``descriptions`` that holds a mention: the ids of the registered
        channels other than its owner ``owners[i]`` that it mentions, a set that may be empty.

        The descriptions are lowered and scanned by one ``map`` each; Python
        code runs only for a description with a match.
        """
        if self._pattern is None:
            return
        found = map(self._pattern.findall, map(str.lower, descriptions))
        for i, handles in filter(itemgetter(1), enumerate(found)):
            mentioned = set(map(self._owner_by_handle.__getitem__, handles))
            mentioned.discard(owners[i])  # self-mentions are not collaborations
            yield i, mentioned

    def scan(self, video: VideoRecord) -> set[str]:
        """Ids of the registered channels other than the owner that the description mentions."""
        return next((ids for _, ids in self.mentions((video.description,), (video.channel_id,))), set())


def classify_dyad(host: str, guest: str, channels: Mapping[str, ChannelRecord], attribute_key: str) -> str:
    """Dyad-type label: host's attribute value, hyphen, guest's value (channels by id)."""
    parts = []
    for channel_id in (host, guest):
        try:
            rec = channels[channel_id]
        except KeyError:
            raise ValidationError(f"channel {channel_id!r} not in registry") from None
        parts.append(rec.attribute(attribute_key))
    return f"{parts[0]}-{parts[1]}"


def partition_videos(corpus: Corpus) -> VideoPartition:
    """Split videos into two-way and multi-way by distinct mentions; the rest are plain."""
    videos = corpus.videos
    two_way: dict[str, str] = {}
    multi_way: set[str] = set()
    for i, mentioned in HandleIndex(corpus.registry).mentions(videos.descriptions, videos.channel_ids):
        if len(mentioned) == 1:
            two_way[videos.video_ids[i]] = next(iter(mentioned))
        elif len(mentioned) > 1:
            multi_way.add(videos.video_ids[i])
    return VideoPartition(two_way, frozenset(multi_way))


def detect_collaborations(
    corpus: Corpus, attribute_key: str, partition: VideoPartition
) -> tuple[list[CollaborationDyad], CollabShareStats]:
    """Detect two-way collaboration dyads and the corpus share statistics.

    A video with exactly one distinct mentioned channel joins the
    (owner, mentioned) dyad; videos with two or more distinct mentions are
    counted as multi-way and excluded from dyads. (owner, mentioned) and
    (mentioned, owner) are distinct dyads; repeat videos between the same
    ordered pair accumulate into one dyad.
    """
    channels = corpus.channels_by_id()
    owner_of = dict(zip(corpus.videos.video_ids, corpus.videos.channel_ids))

    videos_by_pair: dict[tuple[str, str], list[str]] = {}
    for video_id in sorted(partition.two_way):
        guest = partition.two_way[video_id]
        host = owner_of[video_id]
        videos_by_pair.setdefault((host, guest), []).append(video_id)

    dyads = [
        CollaborationDyad(
            host=host,
            guest=guest,
            videos=tuple(video_ids),
            dyad_type=classify_dyad(host, guest, channels, attribute_key),
        )
        for (host, guest), video_ids in sorted(videos_by_pair.items())
    ]

    total = len(corpus.videos)
    type_counts: dict[str, int] = {}
    for dyad in dyads:
        type_counts[dyad.dyad_type] = type_counts.get(dyad.dyad_type, 0) + len(dyad.videos)
    shares = (
        {t: Fraction(n, total) for t, n in sorted(type_counts.items())} if total else {}
    )
    stats = CollabShareStats(
        total_videos=total,
        two_way_videos=len(partition.two_way),
        multi_way_videos=len(partition.multi_way),
        share_by_dyad_type=shares,
    )
    return dyads, stats
