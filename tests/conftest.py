"""Shared fixture builders for small hand-made corpora."""

from __future__ import annotations

import json
import shutil

import pytest

from collabmetrics.corpus import (
    ChannelRecord, CommentFold, CommentTable, VideoRecord, VideoTable, build_corpus, load_comments, write_corpus,
)
from collabmetrics.discourse import DiscourseCounts, aggregate_discourse
from collabmetrics.netmetrics import build_attention_graph
from collabmetrics.report import CommentCounts, RunConfig, run_report

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


def mentions(index, video):
    """The ids of the registered channels other than ``video``'s owner that its description mentions,
    as :meth:`HandleIndex.mentions` finds them."""
    return next((ids for _, ids in index.mentions([video.description], [video.channel_id])), set())


def make_comment(comment_id, video_id, author_id, text=""):
    """One comment, as :meth:`CommentTable.from_rows` takes it."""
    return (comment_id, video_id, author_id, text)


def make_comment_row(comment_id, video_id, author_id, text="", offset_minutes=0, like_count=None):
    """One row of a comments file, as :func:`write_comments` takes it."""
    return (comment_id, video_id, author_id, text, T0_US + offset_minutes * 60_000_000, like_count)


class TableFold(CommentFold):
    """A fold that keeps every comment it takes: :meth:`table` holds them in line order."""

    def __init__(self):
        super().__init__()
        self.rows = []

    def add(self, lines, columns):
        super().add(lines, columns)
        self.rows.extend(zip(lines, zip(*columns)))

    def table(self):
        return CommentTable.from_rows(row for _, row in sorted(self.rows, key=lambda line_row: line_row[0]))


def load_table(path, videos, sha256=None):
    """:func:`load_comments` of ``path`` on ``videos`` (a table or records), its accepted comments as a
    table in file order, and its report."""
    fold, report = load_comments(path, dict.fromkeys(video.video_id for video in videos), TableFold(), sha256)
    return fold.table(), report


def attention_graph(videos, comments, min_comments=1):
    """The attention graph of a comment table's comments on ``videos`` (a table or records), folded as a
    report folds them: a comment on any other video counts nowhere."""
    owner = {video.video_id: video.channel_id for video in videos}
    counts, _ = comments.fold(CommentCounts(owner, None))
    return build_attention_graph(counts.attention.weights, min_comments=min_comments)


def aggregate(comments, dyads, corpus, exclude_videos=(), scorer=None, classifier=None, labels=None):
    """The discourse report of a comment table's comments, grouped by ``dyads``."""
    counts, _ = comments.fold(DiscourseCounts(dyads, exclude_videos, scorer, classifier, labels))
    return aggregate_discourse(counts, corpus.community)


def report_bundle(directory, out, **config):
    """Every file of the report bundle of one corpus directory, written to ``out`` afresh, by name; the
    manifest is parsed, without its ``inputs`` digests and its ``config.community_dirs``."""
    shutil.rmtree(out, ignore_errors=True)
    run_report(RunConfig(community_dirs=(str(directory),), out_dir=str(out), formats=("csv", "json", "table"), **config))
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["inputs"], manifest["config"]["community_dirs"]
    return files, manifest


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
    return build_corpus(registry, VideoTable.from_records(videos), comments)
