"""Shared fixture builders for small hand-made corpora."""

from __future__ import annotations

import pytest

from collabmetrics.corpus import ChannelRecord, CommentTable, VideoRecord, build_corpus, write_corpus

T0_US = 1_704_067_200_000_000  # 2024-01-01 UTC in microseconds since 1970-01-01


def make_channel(channel_id, handle=None, gender="M", community="testgame", **attrs):
    handles = (handle,) if isinstance(handle, str) else tuple(handle or (channel_id.lower(),))
    return ChannelRecord(
        channel_id=channel_id,
        handles=handles,
        display_name=channel_id,
        attributes={"gender": gender, **attrs},
        community=community,
    )


def make_video(video_id, channel_id, views=100, description="", offset_hours=0, **kwargs):
    return VideoRecord(
        video_id=video_id,
        channel_id=channel_id,
        published_us=T0_US + offset_hours * 3_600_000_000,
        title=f"video {video_id}",
        description=description,
        view_count=views,
        **kwargs,
    )


def make_comment(comment_id, video_id, author_id, text=""):
    """One comment, as :meth:`CommentTable.from_rows` takes it."""
    return (comment_id, video_id, author_id, text)


def make_comment_row(comment_id, video_id, author_id, text="", offset_minutes=0, like_count=None):
    """One row of a comments file, as :func:`write_comments` takes it."""
    return (comment_id, video_id, author_id, text, T0_US + offset_minutes * 60_000_000, like_count)


def write_test_corpus(corpus, directory, fmt="jsonl"):
    """Write a corpus's three files, each comment at ``T0_US`` with no like count; returns their paths."""
    rows = [make_comment_row(*comment) for comment in zip(*corpus.comments.columns())]
    return write_corpus(corpus.registry, corpus.videos, rows, directory, fmt)


class KeyedScorer:
    """A plug-in sentiment scorer that gives a comment the score of its one token, its own text."""

    def __init__(self, scores):
        self.scores = scores

    def score(self, tokens):
        (token,) = tokens
        return self.scores[token]


@pytest.fixture
def two_channel_corpus():
    """Host A with one collab video mentioning B, plus solo videos each."""
    registry = [
        make_channel("A", "hosta", gender="W"),
        make_channel("B", "guestb", gender="M"),
    ]
    videos = [
        make_video("a1", "A", views=100, offset_hours=0),
        make_video("a2", "A", views=300, offset_hours=1),
        make_video("a3", "A", views=240, description="duo with @guestb !", offset_hours=2),
        make_video("b1", "B", views=50, offset_hours=0),
        make_video("b2", "B", views=70, offset_hours=1),
    ]
    comments = CommentTable.from_rows([
        make_comment("c1", "a3", "u1", "that aim is awesome"),
        make_comment("c2", "a1", "u1", "boring video"),
        make_comment("c3", "b1", "u2", "love the stream setup"),
    ])
    return build_corpus(registry, videos, comments)
