"""Corpus loading, validation, serialization round-trips, and baselines."""

from __future__ import annotations

import csv
import dataclasses
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from datetime import date, datetime, timedelta, timezone
from fractions import Fraction
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabmetrics import corpus
from collabmetrics.collab import HandleIndex
from collabmetrics.corpus import (
    CHUNK,
    STEP,
    CommentFold,
    CommentLoadReport,
    CommentTable,
    PackedStrings,
    RowError,
    VideoRecord,
    VideoTable,
    _rows,
    build_corpus,
    cap_videos_per_channel,
    exact_median,
    load_comments,
    load_registry,
    load_videos,
    normalize_handle,
    write_comments,
    write_csv,
    write_registry,
    write_videos,
)
from collabmetrics.errors import ConfigurationError, ValidationError
from collabmetrics.netmetrics import AttentionCounts

from .conftest import (
    TableFold, load_table, make_channel, make_comment, make_comment_row, make_video, mentions, write_test_corpus,
)


def table_rows(table):
    """Each comment of a table as :meth:`CommentTable.from_rows` takes it, in order."""
    return list(zip(*table.columns()))


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def registry_row(channel_id, handles, gender="M", community="testgame"):
    return {
        "channel_id": channel_id,
        "handles": handles,
        "display_name": channel_id,
        "attributes": {"gender": gender},
        "community": community,
    }


class TestNormalizeHandle:
    def test_strips_at_and_case(self):
        assert normalize_handle(" @GuestChan ") == "guestchan"

    def test_plain_handle_unchanged(self):
        assert normalize_handle("guestchan") == "guestchan"


class TestLoadRegistry:
    def test_attribute_histogram_from_fixture(self, tmp_path):
        rows = [registry_row(f"ch{i}", [f"h{i}"], "M" if i < 42 else "W") for i in range(50)]
        path = tmp_path / "registry.jsonl"
        write_jsonl(path, rows)
        records = load_registry(path)
        assert len(records) == 50
        histogram = {}
        for rec in records:
            histogram[rec.attributes["gender"]] = histogram.get(rec.attributes["gender"], 0) + 1
        assert histogram == {"M": 42, "W": 8}

    def test_empty_csv_header_only(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_text("channel_id,handles,display_name,community,gender\n", encoding="utf-8")
        assert load_registry(path) == []

    def test_handle_collision_after_normalization(self, tmp_path):
        rows = [
            registry_row("ch1", ["@GuestChan"]),
            registry_row("ch2", ["guestchan"]),
        ]
        path = tmp_path / "registry.jsonl"
        write_jsonl(path, rows)
        with pytest.raises(ValidationError) as err:
            load_registry(path)
        assert "ch1" in str(err.value) and "ch2" in str(err.value)

    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_handle_repeated_within_a_channel_counts_once(self, tmp_path, suffix):
        path = tmp_path / f"registry{suffix}"
        path.write_text({
            ".jsonl": json.dumps(registry_row("c1", ["@Alpha", "beta", "alpha"])) + "\n",
            ".csv": "channel_id,handles,display_name,community,gender\nc1,@Alpha|beta|alpha,c1,testgame,M\n",
        }[suffix], encoding="utf-8")
        (rec,) = load_registry(path)
        assert rec.handles == ("alpha", "beta")

    def test_duplicate_channel_id(self, tmp_path):
        rows = [registry_row("ch1", ["a"]), registry_row("ch1", ["b"])]
        path = tmp_path / "registry.jsonl"
        write_jsonl(path, rows)
        with pytest.raises(ValidationError, match="duplicate channel_id"):
            load_registry(path)

    def test_missing_dyad_attribute(self, tmp_path):
        rows = [registry_row("ch1", ["a"])]
        del rows[0]["attributes"]["gender"]
        rows[0]["attributes"]["team"] = "x"
        path = tmp_path / "registry.jsonl"
        write_jsonl(path, rows)
        with pytest.raises(ValidationError, match="gender"):
            load_registry(path)

    def test_dash_in_dyad_attribute_rejected(self, tmp_path):
        rows = [registry_row("ch1", ["a"], gender="non-binary"), registry_row("ch2", ["b"])]
        path = tmp_path / "registry.jsonl"
        write_jsonl(path, rows)
        with pytest.raises(ValidationError, match="'ch1'.*'non-binary'"):
            load_registry(path)

    def test_truncated_line_names_the_line(self, tmp_path):
        path = tmp_path / "registry.jsonl"
        write_jsonl(path, [registry_row("ch1", ["a"])])
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(registry_row("ch2", ["b"]))[:20] + "\n")
        with pytest.raises(ValidationError, match=r"^registry\.jsonl:2: "):
            load_registry(path)

    def test_undecodable_byte_names_the_line(self, tmp_path):
        path = tmp_path / "registry.jsonl"
        write_jsonl(path, [registry_row("A", ["a"]), registry_row("B", ["b"])])
        path.write_bytes(path.read_bytes().replace(b'"b"', b'"\xffb"'))
        with pytest.raises(ValidationError, match="registry.jsonl:2: 'utf-8' codec"):
            load_registry(path)

    def test_csv_extra_columns_become_attributes(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_text(
            "channel_id,handles,display_name,community,gender,region\n"
            "ch1,main|alt,Channel One,testgame,W,eu\n",
            encoding="utf-8",
        )
        (rec,) = load_registry(path)
        assert rec.handles == ("main", "alt")
        assert rec.attributes == {"gender": "W", "region": "eu"}

    @pytest.mark.parametrize("key", ["community", "display_name"])
    def test_fixed_column_cannot_type_dyads(self, tmp_path, key):
        """A CSV column named like a fixed field is that field, never the attribute: one line says so."""
        path = tmp_path / "registry.csv"
        path.write_text("channel_id,handles,display_name,community,gender\nA,a,Alpha,game,W\nB,b,Beta,game,M\n", encoding="utf-8")
        message = (f"attribute {key!r} is missing: a registry column named {key!r} is a fixed field, not an attribute, "
                   "so it cannot type dyads; give the attribute another name")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_registry(path, attribute_key=key)

    @pytest.mark.parametrize("key", ["community", "display_name"])
    def test_fixed_name_in_json_attributes(self, tmp_path, key):
        """A JSON-lines row's ``attributes`` object may use a fixed field's name."""
        rows = [registry_row("A", ["a"]), registry_row("B", ["b"], gender="W")]
        for row, value in zip(rows, ("x", "y")):
            row["attributes"][key] = value
        path = tmp_path / "registry.jsonl"
        write_jsonl(path, rows)
        assert [rec.attribute(key) for rec in load_registry(path, attribute_key=key)] == ["x", "y"]


@pytest.mark.parametrize(
    ("videos", "comments", "message"),
    [
        ([make_video("v1", "B")], [], "video 'v1' references unknown channel 'B'"),
        ([make_video("v1", "A")], [make_comment("c1", "v9", "u1")], "comment 'c1' references unknown video 'v9'"),
    ],
)
def test_build_corpus_refuses_a_dangling_reference(videos, comments, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build_corpus([make_channel("A")], VideoTable.from_records(videos), CommentTable.from_rows(comments))


class TestLoadVideos:
    def test_sorted_output(self, tmp_path):
        registry = [make_channel("A", "a"), make_channel("B", "b")]
        rows = [
            {"video_id": "v3", "channel_id": "B", "published_at": "2024-01-01T00:00:00Z", "view_count": 5},
            {"video_id": "v2", "channel_id": "A", "published_at": "2024-02-01T00:00:00Z", "view_count": 5},
            {"video_id": "v1", "channel_id": "A", "published_at": "2024-01-01T00:00:00Z", "view_count": 5},
        ]
        path = tmp_path / "videos.jsonl"
        write_jsonl(path, rows)
        records, errors = load_videos(path, registry)
        assert errors == []
        assert [v.video_id for v in records] == ["v1", "v2", "v3"]

    def test_negative_view_count_rejected(self, tmp_path):
        registry = [make_channel("A", "a")]
        rows = [{"video_id": "v1", "channel_id": "A", "published_at": "2024-01-01T00:00:00Z", "view_count": -1}]
        path = tmp_path / "videos.jsonl"
        write_jsonl(path, rows)
        records, errors = load_videos(path, registry)
        assert len(records) == 0
        assert len(errors) == 1

    def test_unknown_channel_collected_not_fatal(self, tmp_path):
        registry = [make_channel("A", "a")]
        rows = [
            {"video_id": "v1", "channel_id": "A", "published_at": "2024-01-01T00:00:00Z", "view_count": 1},
            {"video_id": "v2", "channel_id": "ZZ", "published_at": "2024-01-01T00:00:00Z", "view_count": 1},
        ]
        path = tmp_path / "videos.jsonl"
        write_jsonl(path, rows)
        records, errors = load_videos(path, registry)
        assert [v.video_id for v in records] == ["v1"]
        assert len(errors) == 1 and "ZZ" in errors[0].message


    def test_truncated_line_is_a_row_error(self, tmp_path):
        registry = [make_channel("A", "a")]
        rows = [
            {"video_id": f"v{i}", "channel_id": "A", "published_at": "2024-01-01T00:00:00Z", "view_count": 1}
            for i in range(4)
        ]
        rows[3]["view_count"] = float("inf")  # JSON-lines "Infinity"
        path = tmp_path / "videos.jsonl"
        lines = [json.dumps(r) for r in rows]
        lines[1] = lines[1][:25]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        records, errors = load_videos(path, registry)
        assert [v.video_id for v in records] == ["v0", "v2"]
        assert [e.line for e in errors] == [2, 4]


class TestLoadComments:
    def test_orphans_diverted(self, tmp_path):
        videos = [make_video("v1", "A")]
        rows = [
            {"comment_id": f"c{i}", "video_id": "v1", "author_id": "u1",
             "text": "hi", "published_at": "2024-01-01T00:00:00Z"}
            for i in range(4)
        ]
        rows.append({"comment_id": "c9", "video_id": "nope", "author_id": "u1",
                     "text": "hi", "published_at": "2024-01-01T00:00:00Z"})
        path = tmp_path / "comments.jsonl"
        write_jsonl(path, rows)
        records, report = load_table(path, videos)
        assert len(records) == 4
        assert report.orphans == (RowError(5, "unknown video_id 'nope'"),)

    def test_empty_text_is_valid(self, tmp_path):
        videos = [make_video("v1", "A")]
        rows = [{"comment_id": "c1", "video_id": "v1", "author_id": "u1",
                 "text": "", "published_at": "2024-01-01T00:00:00Z"}]
        path = tmp_path / "comments.jsonl"
        write_jsonl(path, rows)
        records, report = load_table(path, videos)
        assert records.texts == ("",)
        assert report.errors == ()

    @pytest.mark.parametrize(
        "kind, row, message",
        [
            ("videos", {"video_id": "v1", "channel_id": "A", "published_at": "2024-01-01T00:00:00Z", "view_count": 1},
             "duplicate video_id 'v1'"),
            ("comments", {"comment_id": "c1", "video_id": "v1", "author_id": "u1",
                          "text": "x", "published_at": "2024-01-01T00:00:00Z"}, "duplicate comment_id 'c1'"),
        ],
        ids=["videos", "comments"],
    )
    def test_duplicate_comment_id_rejected(self, tmp_path, kind, row, message):
        """The second row with an id already seen is a row error naming its line; the first is kept."""
        path = tmp_path / f"{kind}.jsonl"
        write_jsonl(path, [row, row])
        if kind == "videos":
            records, errors = load_videos(path, [make_channel("A", "a")])
        else:
            records, report = load_table(path, [make_video("v1", "A")])
            errors = report.errors
        assert len(records) == 1
        assert list(errors) == [RowError(2, message)]


    def test_truncated_and_non_object_lines_are_row_errors(self, tmp_path):
        videos = [make_video("v1", "A")]
        row = {"comment_id": "c1", "video_id": "v1", "author_id": "u1",
               "text": "x", "published_at": "2024-01-01T00:00:00Z"}
        path = tmp_path / "comments.jsonl"
        path.write_text(
            "\n".join([json.dumps(row)[:30], "[1, 2]", "", json.dumps(row)]) + "\n", encoding="utf-8"
        )
        records, report = load_table(path, videos)
        assert list(records.comment_ids) == ["c1"]
        assert [e.line for e in report.errors] == [1, 2]
        assert "JSON object" in report.errors[1].message


class TestRoundTrip:
    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_registry_round_trip(self, tmp_path, suffix):
        records = [make_channel("A", ("one", "two"), gender="W"), make_channel("B", "b")]
        path = tmp_path / f"registry.{suffix}"
        write_registry(records, path)
        assert load_registry(path) == records

    @pytest.mark.parametrize(
        "record, clash",
        [
            (dataclasses.replace(make_channel("A"), attributes={"gender": "M", "community": "other"}), "attribute 'community'"),
            (dataclasses.replace(make_channel("A"), attributes={"gender": "M", "attributes": "x"}), "attribute 'attributes'"),
            (make_channel("A", "a|b"), "handle 'a|b'"),
        ],
        ids=["fixed-column-attribute", "attributes-attribute", "separator-in-handle"],
    )
    def test_csv_registry_refuses_a_record_that_would_load_back_different(self, tmp_path, record, clash):
        """JSON-lines writes each record back; a CSV file would not, so none of it is written."""
        records = [make_channel("B", "b"), record]
        write_registry(records, tmp_path / "registry.jsonl")
        assert load_registry(tmp_path / "registry.jsonl") == records
        path = tmp_path / "registry.csv"
        with pytest.raises(ValidationError, match=f"^channel 'A': a CSV registry cannot hold the {re.escape(clash)}$"):
            write_registry(records, path)
        assert not path.exists()

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_videos_round_trip(self, tmp_path, suffix):
        registry = [make_channel("A", "a")]
        records = [
            make_video("v1", "A", views=12, description="multi\nline, with commas"),
            make_video("v2", "A", views=0, offset_hours=3, like_count=4, comment_count=1, description="lone\rCR"),
        ]
        path = tmp_path / f"videos.{suffix}"
        write_videos(VideoTable.from_records(records), path)
        loaded, errors = load_videos(path, registry)
        assert errors == []
        assert list(loaded) == records

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_comments_round_trip(self, tmp_path, suffix):
        """Written comment rows load back as their table rows; a time and a like count are checked, not kept."""
        videos = [make_video("v1", "A")]
        rows = [
            make_comment_row("c1", "v1", "u1", 'text with "quotes" and, commas'),
            make_comment_row("c2", "v1", "u2", "", offset_minutes=5, like_count=3),
        ]
        path = tmp_path / f"comments.{suffix}"
        write_comments(rows, path)
        loaded, report = load_table(path, videos)
        assert report.errors == () and report.orphans == ()
        assert loaded == CommentTable.from_rows(row[:4] for row in rows)


class TestBaseline:
    """The exact median behind every channel baseline."""

    def test_odd_median(self):
        assert exact_median([100, 300, 200]) == 200

    def test_even_median_is_midpoint(self):
        assert exact_median([100, 200, 300, 400]) == Fraction(250)

    def test_exact_midpoint_is_rational(self):
        assert exact_median([1, 2]) == Fraction(3, 2)

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=30), st.randoms())
    def test_permutation_invariant(self, views, rnd):
        shuffled = list(views)
        rnd.shuffle(shuffled)
        assert exact_median(views) == exact_median(shuffled)

    @settings(max_examples=50)
    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=20),
        st.integers(min_value=1, max_value=1000),
    )
    def test_scale_equivariant(self, views, c):
        assert exact_median([v * c for v in views]) == c * exact_median(views)


class TestLoaderFuzz:
    """Loaders keep every well-formed row and admit no invariant-violating row."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),  # channel index, 5 known channels
                st.integers(min_value=-5, max_value=10**6),  # view count, possibly negative
            ),
            max_size=25,
        )
    )
    def test_video_rows_partition(self, tmp_path_factory, rows):
        tmp_path = tmp_path_factory.mktemp("fuzz")
        registry = [make_channel(f"C{i}", f"h{i}") for i in range(5)]
        raw = [
            {
                "video_id": f"v{i}",
                "channel_id": f"C{idx}",
                "published_at": "2024-01-01T00:00:00Z",
                "view_count": views,
            }
            for i, (idx, views) in enumerate(rows)
        ]
        path = tmp_path / "videos.jsonl"
        write_jsonl(path, raw)
        records, errors = load_videos(path, registry)
        well_formed = sum(1 for _, views in rows if views >= 0)
        assert len(records) == well_formed
        assert len(errors) == len(rows) - well_formed
        assert all(v.view_count >= 0 for v in records)


# Row fields drawn from small pools so that duplicate ids and unknown
# references are common, plus values of the wrong type or range.
_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=10**6),
    st.floats(),
    st.text(alphabet=st.characters(exclude_characters="\x00", exclude_categories=("Cs",)), max_size=4),
    st.lists(st.integers(), max_size=2),
)
_timestamps = st.one_of(st.sampled_from(["2024-01-01T00:00:00Z", "2024-01-01 10:00", "2024-02-30"]), _junk)
_video_rows = st.fixed_dictionaries(
    {
        "video_id": st.sampled_from(["v1", "v2", "v3"]),
        "channel_id": st.sampled_from(["A", "B", "unknown"]),
        "published_at": _timestamps,
        "view_count": _junk,
    },
    optional={"title": _junk, "like_count": _junk, "comment_count": _junk},
)
_comment_rows = st.fixed_dictionaries(
    {
        "comment_id": st.sampled_from(["c1", "c2", "c3"]),
        "video_id": st.sampled_from(["v1", "v2", "unknown"]),
        "author_id": _junk,
        "published_at": _timestamps,
    },
    optional={"text": _junk, "like_count": _junk},
)
_VIDEO_HEADER = ["video_id", "channel_id", "published_at", "title", "view_count", "like_count", "comment_count"]
_COMMENT_HEADER = ["comment_id", "video_id", "author_id", "text", "published_at", "like_count"]


# Stand-ins longer than any ``_junk`` text, replaced in the written bytes by
# a byte that is not UTF-8 and by a CSV cell whose opening quote never
# closes within the field size limit (a ``csv.Error``: its physical line is
# one bad row, and reading resumes on the next line).
_BAD_BYTE = "<bad 0xff byte>"
_RUNAWAY_QUOTE = "<runaway quote>"


def _fuzz_file(draw, path, rows, header):
    """Write ``rows`` to ``path`` with damage; returns the number of data rows."""
    damage = st.sampled_from([None, None, _BAD_BYTE, _RUNAWAY_QUOTE])
    if path.suffix == ".csv":
        cut_rows = []
        for row in rows:
            cells = [str(row.get(k, "")) for k in header] + draw(st.lists(st.just("extra"), max_size=1))
            cells = cells[: draw(st.integers(min_value=1, max_value=len(cells)))]
            kind = draw(damage)
            if kind == _BAD_BYTE:
                cells[-1] += _BAD_BYTE
            elif kind == _RUNAWAY_QUOTE:
                cells = [_RUNAWAY_QUOTE]
            cut_rows.append(cells)
        write_csv(path, header, cut_rows)
    else:
        lines = []
        for row in rows:
            value = draw(st.one_of(st.just(row), st.lists(st.integers(), max_size=2), st.integers(), st.none()))
            text = json.dumps(value)
            text = text[: draw(st.one_of(st.none(), st.integers(min_value=1, max_value=len(text))))]
            kind = draw(damage)
            if kind is not None:
                at = draw(st.integers(min_value=0, max_value=len(text)))
                text = text[:at] + (_BAD_BYTE if kind == _BAD_BYTE else '"') + text[at:]
            lines.append(text)
        path.write_text("\n".join(lines + [""]) + "\n", encoding="utf-8")
    runaway = b'"' + b"x" * (csv.field_size_limit() + 1)
    path.write_bytes(path.read_bytes().replace(_BAD_BYTE.encode(), b"\xff").replace(_RUNAWAY_QUOTE.encode(), runaway))
    return len(rows)


def _reference_load_comments(path, videos):
    """:func:`load_comments` as a set of the ids seen does it, row by row.

    The first row with an id is kept; a later one is a ``duplicate
    comment_id`` row error. An orphan's id counts as seen, a malformed
    row's does not.
    """
    known = {v.video_id for v in videos}
    rows, orphans, errors, seen = [], [], [], set()
    for line, row in _rows(Path(path), partial(corpus._checked_row, corpus._COMMENT_ROW, corpus._COMMENT_KEPT)):
        if isinstance(row, Exception):
            errors.append(RowError(line, f"malformed row: {row}"))
        elif row[0] in seen:
            errors.append(RowError(line, f"duplicate comment_id {row[0]!r}"))
        else:
            seen.add(row[0])
            if row[1] in known:
                rows.append(row)
            else:
                orphans.append(RowError(line, f"unknown video_id {row[1]!r}"))
    return CommentTable.from_rows(rows), CommentLoadReport(tuple(orphans), tuple(errors))


def _assert_same_load(got, expected):
    """Two ``(table, report)`` loads hold the same rows and the same row errors, line, order and message."""
    assert table_rows(got[0]) == table_rows(expected[0])
    assert got[1] == expected[1]


_ID_VIDEOS = [make_video("v1", "A"), make_video("v2", "A")]


def _checked_load(path):
    """``load_comments`` of ``path`` on ``_ID_VIDEOS``, checked equal to the reference
    loader's and to a load in which every id hashes alike."""
    loaded = load_table(path, _ID_VIDEOS)
    _assert_same_load(loaded, _reference_load_comments(path, _ID_VIDEOS))
    with mock.patch.object(corpus, "_id_hash", lambda comment_id: 0):
        _assert_same_load(load_table(path, _ID_VIDEOS), loaded)
    return loaded


class TestRowConservation:
    """Every data row is accepted, rejected with a reason, or orphaned."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["csv", "jsonl"]), st.lists(_video_rows, max_size=12), st.data())
    def test_video_rows(self, tmp_path_factory, suffix, rows, data):
        path = tmp_path_factory.mktemp("rows") / f"videos.{suffix}"
        n_rows = _fuzz_file(data.draw, path, rows, _VIDEO_HEADER)
        records, errors = load_videos(path, [make_channel("A", "a"), make_channel("B", "b")])
        assert len(records) + len(errors) == n_rows

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["csv", "jsonl"]), st.lists(_comment_rows, max_size=12), st.data())
    def test_comment_rows(self, tmp_path_factory, suffix, rows, data):
        path = tmp_path_factory.mktemp("rows") / f"comments.{suffix}"
        n_rows = _fuzz_file(data.draw, path, rows, _COMMENT_HEADER)
        records, report = _checked_load(path)
        assert len(records) + len(report.errors) + len(report.orphans) == n_rows


def _write_id_rows(path, rows):
    """Write ``(comment_id, video_id, malformed)`` rows; a malformed row's time is no timestamp."""
    cells = [
        {"comment_id": comment_id, "video_id": video_id, "author_id": "u1", "text": f"row {i}",
         "published_at": "soon" if malformed else "2024-01-01T00:00:00+00:00"}
        for i, (comment_id, video_id, malformed) in enumerate(rows)
    ]
    if path.suffix == ".csv":
        write_csv(path, _COMMENT_HEADER, ([row.get(k, "") for k in _COMMENT_HEADER] for row in cells))
    else:
        write_jsonl(path, cells)


class TestDuplicateIds:
    """The duplicate check keeps no id strings, yet reports what a set of the ids seen reports."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["csv", "jsonl"]),
        st.lists(st.tuples(st.sampled_from(["c1", "c2", "c3"]), st.sampled_from(["v1", "v2", "gone"]), st.booleans()),
                 max_size=12),
    )
    @example("jsonl", [("c1", "gone", False), ("c1", "gone", False)])  # a duplicate of an orphan
    @example("jsonl", [("c1", "gone", False), ("c1", "v1", False)])  # an orphan's id, then a good row
    @example("csv", [("c1", "v1", True), ("c1", "v1", False)])  # a malformed row's id is not seen
    @example("csv", [("c1", "v1", False), ("c1", "v2", False), ("c1", "v1", False)])  # an id three times
    def test_equals_reference_loader(self, tmp_path_factory, suffix, rows):
        path = tmp_path_factory.mktemp("ids") / f"comments.{suffix}"
        _write_id_rows(path, rows)
        _checked_load(path)

    @staticmethod
    def _repeated_ids(path):
        """Three chunks of rows over 300 ids: orphans, malformed rows and repeats in every chunk."""
        rows = [(f"c{i % 300:03d}", ("v1", "v2", "gone")[i % 7 % 3], i % 11 == 5) for i in range(3 * CHUNK)]
        _write_id_rows(path, rows)

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_repeats_in_every_chunk(self, tmp_path, suffix):
        """Repeats dropped from every chunk, also when every id hashes alike."""
        path = tmp_path / f"comments.{suffix}"
        self._repeated_ids(path)
        table, report = _checked_load(path)
        assert len(table) + len(report.orphans) == 300 and len(report.errors) == 3 * CHUNK - 300

    def test_independent_of_the_hash_seed(self, tmp_path):
        """String hashes differ with ``PYTHONHASHSEED``; what a load reports does not."""
        path = tmp_path / "comments.jsonl"
        self._repeated_ids(path)
        script = (
            "import sys\n"
            "from collabmetrics.corpus import CommentFold, load_comments\n"
            "class Rows(CommentFold):\n"
            "    def add(self, lines, columns):\n"
            "        rows.extend(zip(lines, zip(*columns)))\n"
            "rows = []\n"
            "_, report = load_comments(sys.argv[1], dict.fromkeys(('v1', 'v2')), Rows())\n"
            "print([row for _, row in sorted(rows)], report)\n"
        )
        outputs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed}
            done = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        table, report = load_table(path, _ID_VIDEOS)
        assert outputs[0] == outputs[1] == f"{table_rows(table)} {report}\n"


def _comment_record(suffix, comment_id, video_id="v1", text="gg", like_count=None, stamp="2024-01-01T00:00:00+00:00"):
    """One comment as a JSON-lines line or a CSV record (header ``_COMMENT_HEADER``), ended by LF."""
    row = {"comment_id": comment_id, "video_id": video_id, "author_id": f"u{len(comment_id) % 3}",
           "text": text, "published_at": stamp, "like_count": like_count}
    if suffix == "jsonl":
        return json.dumps({k: v for k, v in row.items() if v is not None}, ensure_ascii=False) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["" if row[k] is None else row[k] for k in _COMMENT_HEADER])
    return buf.getvalue()


def _write_records(path, records):
    """Write comment records (``str`` or ``bytes``) as one file, after the CSV header for a ``.csv`` path."""
    head = [",".join(_COMMENT_HEADER) + "\n"] if path.suffix == ".csv" else []
    path.write_bytes(b"".join(r if isinstance(r, bytes) else r.encode("utf-8") for r in head + records))


def _clean_records(suffix, n, **fields):
    return [_comment_record(suffix, f"c{i:04d}", like_count=None if i % 3 == 0 else i, **fields) for i in range(n)]


def _load_both_ways(path, videos=_ID_VIDEOS):
    """``load_comments`` of ``path``, checked equal, digest included, to the load that reads every step row by row.

    Returns the load and how many of its steps were read as columns.
    """
    fast_columns = []
    columns = corpus._fast_columns

    def counted(*args):
        got = columns(*args)
        fast_columns.append(got is not None)
        return got

    digests = [hashlib.sha256(), hashlib.sha256()]
    with mock.patch.object(corpus, "_fast_columns", counted):
        loaded = load_table(path, videos, sha256=digests[0])
    with mock.patch.object(corpus, "_fast_columns", lambda *args: None):
        by_row = load_table(path, videos, sha256=digests[1])
    assert loaded[0] == by_row[0]
    _assert_same_load(loaded, by_row)
    assert digests[0].hexdigest() == digests[1].hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
    return loaded, sum(fast_columns)


class TestStepReader:
    """A step of good rows read as columns loads exactly as it loads row by row."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["csv", "jsonl"]), st.integers(min_value=300, max_value=800), st.randoms(use_true_random=False),
           st.data())
    def test_equals_the_row_path(self, tmp_path_factory, suffix, n, rnd, data):
        """Clean rows, with one or two faults from ``_fuzz_file`` planted at step and chunk edges."""
        tmp_path = tmp_path_factory.mktemp("steps")
        texts = ["gg", "so good, really", 'say "hi"', "two\nlines", "café \U0001f600", ""]
        records = [
            _comment_record(suffix, f"c{i:04d}", rnd.choice(["v1", "v2"]), rnd.choice(texts),
                            rnd.choice([None, rnd.randrange(100)]), f"2024-01-{1 + i % 28:02d}T{i % 24:02d}:00:00+00:00")
            for i in range(n)
        ]
        edges = sorted({k * size + d for size in (STEP, CHUNK) for k in range(1, n // size + 1) for d in (-1, 0)})
        for at in sorted(data.draw(st.lists(st.sampled_from(edges), min_size=1, max_size=2)), reverse=True):
            fault = tmp_path / f"fault.{suffix}"
            _fuzz_file(data.draw, fault, data.draw(st.lists(_comment_rows, min_size=1, max_size=3)), _COMMENT_HEADER)
            body = fault.read_bytes()
            records.insert(at, body.split(b"\n", 1)[1] if suffix == "csv" else body)
        path = tmp_path / f"comments.{suffix}"
        _write_records(path, records)
        _, fast_steps = _load_both_ways(path)
        assert fast_steps > 0  # a fault of at most four rows touches at most two steps

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_clean_file_is_read_as_columns(self, tmp_path, suffix):
        """A clean 1,000-row file never reaches the row path; a later change that
        sends good steps row by row fails here."""
        path = tmp_path / f"comments.{suffix}"
        write_comments((
            make_comment_row(f"c{i:04d}", f"v{1 + i % 2}", f"u{i % 7}", f"text {i}", i, None if i % 3 == 0 else i)
            for i in range(1_000)
        ), path)
        with mock.patch.object(corpus, "_checked_row", side_effect=AssertionError("read row by row")):
            table, report = load_table(path, _ID_VIDEOS)
        assert len(table) == 1_000 and report == CommentLoadReport()

    @pytest.mark.parametrize("comments", [False, True])
    def test_three_lines_that_parse_together_are_three_errors(self, tmp_path, comments):
        """Joined, three lines parse to three objects, yet each alone is a row error;
        in the second form the three objects are good comments."""
        lines = ['{"a": [{"x": 1}\n', '{"b": 2}]}\n', '{"c": 1}, {"d": 2}\n']
        if comments:
            good = [_comment_record("jsonl", f"c01{i:02d}")[:-2] for i in range(3)]  # each without its "}\n"
            lines = [good[0] + ', "extra": [{"x": 1}\n', '{"b": 2}]}\n', good[1] + "}, " + good[2] + "}\n"]
        assert len(json.loads("[" + ",".join(lines) + "]")) == 3
        path = tmp_path / "comments.jsonl"
        _write_records(path, _clean_records("jsonl", 10) + lines + _clean_records("jsonl", 14)[10:])
        (table, report), _ = _load_both_ways(path)
        assert [e.line for e in report.errors] == [11, 12, 13]
        assert len(table) == 14 and "c0100" not in table.comment_ids

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    @pytest.mark.parametrize(
        ("case", "fast"),
        [("braces", {"jsonl": 2, "csv": 2}), ("emoji", 2), ("bad byte", 1), ("crlf", 2), ("orphan", 2), ("repeat", 5)],
    )
    def test_edge_case(self, tmp_path, suffix, case, fast):
        """Each case in a step of its own: how many steps are read as columns, and the same load as row by row.

        Each id ``c<n>`` hashes to ``n``, so no two ids share a bit of the
        duplicate check by chance: a repeat's first row was folded with its
        step, and the file is then read again up to that row, its first four
        steps as columns again. (With string hashes, that row's bit is set
        by another id for some ``PYTHONHASHSEED`` values; the row is then
        held back, and nothing is read twice.)
        """
        path = tmp_path / f"comments.{suffix}"
        records = _clean_records(suffix, 2 * STEP if case != "repeat" else 5 * STEP)
        if case == "braces":
            records[STEP + 1] = _comment_record(suffix, "c9999", text="a {brace} and a } closing one")
        elif case == "emoji":
            records = _clean_records(suffix, 2 * STEP, text="\U0001f600 gg é")
        elif case == "bad byte":
            records[STEP + 1] = _comment_record(suffix, "c9999", text="B<bad>D").encode("utf-8").replace(b"<bad>", b"\xff")
        elif case == "crlf":
            records = [r.replace("\n", "\r\n") for r in records]
        elif case == "orphan":
            records[STEP + 1] = _comment_record(suffix, "c9999", video_id="gone")
        elif case == "repeat":
            records[CHUNK] = _comment_record(suffix, "c0255")  # the id of the last row of the first chunk
        _write_records(path, records)
        with mock.patch.object(corpus, "_id_hash", lambda comment_id: int(comment_id[1:])):
            (table, report), fast_steps = _load_both_ways(path)
        rereads = 4 if case == "repeat" else 0
        assert fast_steps == (fast if isinstance(fast, int) else fast[suffix]) + rereads
        first = 2 if suffix == "csv" else 1
        if case == "bad byte":
            assert [(e.line, "can't decode byte 0xff" in e.message) for e in report.errors] == [(STEP + 1 + first, True)]
        elif case == "orphan":
            assert [e.line for e in report.orphans] == [STEP + 1 + first] and report.errors == ()
        elif case == "repeat":
            assert [e.message for e in report.errors] == ["duplicate comment_id 'c0255'"]
            assert report.errors[0].line == CHUNK + first and len(table) == 5 * STEP - 1
        else:
            assert report == CommentLoadReport() and len(table) == 2 * STEP

    @pytest.mark.parametrize("at", [0, STEP // 2, STEP - 1])
    @pytest.mark.parametrize("odd", ["nul", "]", " "])
    def test_line_without_a_json_value(self, tmp_path, odd, at):
        """A line that holds no JSON value as the first, a middle or the last row of a step:
        ``nul`` and ``]`` are one row error each, a blank line holds no row, and no other row of
        the step is lost. Scanned in one ``map``, such a line raises ``StopIteration``, which
        ends the map there."""
        path = tmp_path / "comments.jsonl"
        records = _clean_records("jsonl", 2 * STEP)
        records[STEP + at] = odd + "\n"
        _write_records(path, records)
        (table, report), fast_steps = _load_both_ways(path)
        assert fast_steps == 1 and report.orphans == ()
        assert [e.line for e in report.errors] == ([] if odd.isspace() else [STEP + at + 1])
        assert list(table.comment_ids) == [f"c{i:04d}" for i in range(2 * STEP) if i != STEP + at]

    @pytest.mark.parametrize("after", ["x", "}", ", {}", ' {"a": 1}'])
    @pytest.mark.parametrize("at", [STEP + 1, 2 * STEP - 1])
    def test_more_after_the_object_of_a_line(self, tmp_path, after, at):
        """A good comment followed by more on its line is one row error, as ``json.loads`` reads the
        line; the file's last line, which has no newline here, too."""
        path = tmp_path / "comments.jsonl"
        records = _clean_records("jsonl", 2 * STEP)
        records[at] = records[at][:-1] + after + ("\n" if at < 2 * STEP - 1 else "")
        _write_records(path, records)
        (table, report), fast_steps = _load_both_ways(path)
        assert fast_steps == 1 and [e.line for e in report.errors] == [at + 1] and len(table) == 2 * STEP - 1

    def test_braces_in_every_text_are_read_as_columns(self, tmp_path):
        """A 1,000-row JSON-lines file whose every text holds ``{`` or ``}`` never reaches the row path."""
        path = tmp_path / "comments.jsonl"
        words = ["{", "}", "a {brace}", "} and {", '{"x": 1}', "{}"]
        texts = [f"{words[i % len(words)]} {i}" for i in range(1_000)]
        write_comments((make_comment_row(f"c{i:04d}", f"v{1 + i % 2}", f"u{i % 7}", text, i) for i, text in enumerate(texts)), path)
        with mock.patch.object(corpus, "_checked_row", side_effect=AssertionError("read row by row")):
            table, report = load_table(path, _ID_VIDEOS)
        assert report == CommentLoadReport() and list(table.texts) == texts

    def test_byte_order_mark_csv(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        _write_records(plain, _clean_records("csv", 2 * STEP))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        (table, report), fast_steps = _load_both_ways(marked)
        assert fast_steps == 2 and (table, report) == load_table(plain, _ID_VIDEOS)


_VIDEO_FILE_HEADER = ["video_id", "channel_id", "published_at", "title", "description", "view_count", "like_count", "comment_count"]
_STEP_CHANNELS = [make_channel("A", "a"), make_channel("B", "b")]


def _video_record(suffix, video_id, channel_id="A", stamp="2024-01-01T00:00:00+00:00", views=5, title="t", description="d",
                  like_count=None, comment_count=None, drop=(), extra=None):
    """One video as a JSON-lines line or a CSV record (header ``_VIDEO_FILE_HEADER``), ended by LF.

    The fields of ``drop`` are left out (a CSV record ends before the first
    of them); ``extra`` is one more key or cell.
    """
    row = {"video_id": video_id, "channel_id": channel_id, "published_at": stamp, "title": title,
           "description": description, "view_count": views, "like_count": like_count, "comment_count": comment_count}
    if suffix == "jsonl":
        fields = {k: v for k, v in row.items() if v is not None and k not in drop}
        return json.dumps({**fields, **({"extra": extra} if extra else {})}, ensure_ascii=False) + "\n"
    cells = ["" if row[k] is None else row[k] for k in _VIDEO_FILE_HEADER]
    cells = cells[:min(map(_VIDEO_FILE_HEADER.index, drop), default=len(cells))] + ([extra] if extra else [])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def _write_video_records(path, records):
    """Write video records (``str`` or ``bytes``) as one file, after the CSV header for a ``.csv`` path."""
    head = [",".join(_VIDEO_FILE_HEADER) + "\n"] if path.suffix == ".csv" else []
    path.write_bytes(b"".join(r if isinstance(r, bytes) else r.encode("utf-8") for r in head + records))


def _clean_video_records(suffix, n, rnd=None):
    """``n`` good videos on channels A and B, out of ``(channel_id, published_us)`` order, some times equal."""
    pick = rnd.choice if rnd else (lambda seq: seq[0])
    return [
        _video_record(suffix, f"v{i:04d}", "AB"[i % 3 % 2], f"2024-01-{1 + i * 7 % 28:02d}T{i % 5:02d}:00:00+00:00",
                      i * 37 % 1000, pick(["t", "", "title, with a comma"]), pick(["d", "", 'say "hi"\nbye', "café \U0001f600"]),
                      pick([None, i % 50]), pick([None, i % 9]))
        for i in range(n)
    ]


def _load_videos_both_ways(path, registry=_STEP_CHANNELS):
    """``load_videos`` of ``path``, checked equal, digest included, to the load that reads every step row by row.

    Returns the load and how many of its steps were read as columns.
    """
    fast_columns = []
    columns = corpus._fast_columns

    def counted(*args):
        got = columns(*args)
        fast_columns.append(got is not None)
        return got

    digests = [hashlib.sha256(), hashlib.sha256()]
    with mock.patch.object(corpus, "_fast_columns", counted):
        loaded = load_videos(path, registry, sha256=digests[0])
    with mock.patch.object(corpus, "_fast_columns", lambda *args: None):
        by_row = load_videos(path, registry, sha256=digests[1])
    assert loaded == by_row
    assert list(loaded[0]) == list(by_row[0]) and loaded[0].columns() == by_row[0].columns()
    assert digests[0].hexdigest() == digests[1].hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
    return loaded, sum(fast_columns)


# Faults planted in a video file, each a function of the file's format, the
# row's own id, and the ids of the row before it and of the row one step
# before it: what replaces a good row.
_VIDEO_FAULTS = {
    "unknown channel": lambda sfx, vid, before, step_before: _video_record(sfx, vid, "ZZ"),
    "id repeated in the step": lambda sfx, vid, before, step_before: _video_record(sfx, before),
    "id repeated across steps": lambda sfx, vid, before, step_before: _video_record(sfx, step_before),
    "bool views": lambda sfx, vid, before, step_before: _video_record(sfx, vid, views=True),
    "float views": lambda sfx, vid, before, step_before: _video_record(sfx, vid, views=2.5),
    "whole float views": lambda sfx, vid, before, step_before: _video_record(sfx, vid, views=3.0),
    "negative views": lambda sfx, vid, before, step_before: _video_record(sfx, vid, views=-1),
    "huge views": lambda sfx, vid, before, step_before: _video_record(sfx, vid, views=10**30),
    "negative likes": lambda sfx, vid, before, step_before: _video_record(sfx, vid, like_count=-4),
    "naive time": lambda sfx, vid, before, step_before: _video_record(sfx, vid, stamp="2024-01-03T05:00:00"),
    "offset time": lambda sfx, vid, before, step_before: _video_record(sfx, vid, stamp="2024-01-03T05:00:00+02:00"),
    "Z time": lambda sfx, vid, before, step_before: _video_record(sfx, vid, stamp="2024-01-03T05:00:00Z"),
    "no time": lambda sfx, vid, before, step_before: _video_record(sfx, vid, stamp="soon"),
    "brace": lambda sfx, vid, before, step_before: _video_record(sfx, vid, description="a {brace} and a } closing one"),
    "bad byte": lambda sfx, vid, before, step_before: _video_record(sfx, vid, description="B<bad>D").encode().replace(b"<bad>", b"\xff"),
    "short row": lambda sfx, vid, before, step_before: _video_record(sfx, vid, drop=("view_count", "like_count", "comment_count")),
    "long row": lambda sfx, vid, before, step_before: _video_record(sfx, vid, extra="more"),
}


class TestVideoStepReader:
    """A step of good video rows read as columns loads exactly as it loads row by row."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["csv", "jsonl"]), st.integers(min_value=150, max_value=400), st.randoms(use_true_random=False),
           st.data())
    def test_equals_the_row_path(self, tmp_path_factory, suffix, n, rnd, data):
        """Clean rows, with one to three faults planted at step edges, in the other steps read as columns."""
        path = tmp_path_factory.mktemp("steps") / f"videos.{suffix}"
        records = _clean_video_records(suffix, n, rnd)
        edges = [k * STEP + d for k in range(1, n // STEP + 1) for d in (-1, 0) if k * STEP + d < n]
        faults = data.draw(st.lists(st.tuples(st.sampled_from(edges), st.sampled_from(sorted(_VIDEO_FAULTS))),
                                    min_size=1, max_size=3))
        for at, fault in faults:
            records[at] = _VIDEO_FAULTS[fault](suffix, f"v{at:04d}", f"v{at - 1:04d}", f"v{max(at - STEP, 0):04d}")
        _write_video_records(path, records)
        _, fast_steps = _load_videos_both_ways(path)
        assert fast_steps >= -(-n // STEP) - len(faults)

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    @pytest.mark.parametrize(
        ("fault", "fast", "message"),
        [
            ("unknown channel", 2, "unknown channel_id 'ZZ'"),
            ("id repeated in the step", 2, f"duplicate video_id 'v{STEP:04d}'"),
            ("id repeated across steps", 2, "duplicate video_id 'v0001'"),
            ("bool views", 1, {"jsonl": "malformed row: view_count True is not an integer",
                               "csv": "malformed row: invalid literal for int() with base 10: 'True'"}),
            ("float views", 1, {"jsonl": "malformed row: view_count 2.5 is not an integer",
                                "csv": "malformed row: invalid literal for int() with base 10: '2.5'"}),
            ("whole float views", 1, {"jsonl": None, "csv": "malformed row: invalid literal for int() with base 10: '3.0'"}),
            ("negative views", 1, "malformed row: negative view_count -1"),
            ("huge views", 2, None),
            ("negative likes", 1, "malformed row: negative like_count -4"),
            ("naive time", 1, None),
            ("offset time", 1, None),
            ("Z time", 2, None),
            ("no time", 1, "malformed row: Invalid isoformat string: 'soon'"),
            ("brace", {"jsonl": 2, "csv": 2}, None),
            ("bad byte", 1, "can't decode byte 0xff"),
            ("short row", 1, {"jsonl": "malformed row: 'view_count'", "csv": "malformed row: 'view_count'"}),
            ("long row", {"jsonl": 2, "csv": 1}, {"jsonl": None, "csv": "malformed row: row has 9 cells but the header has 8"}),
        ],
    )
    def test_fault_in_a_step(self, tmp_path, suffix, fault, fast, message):
        """One fault in the second row of the second of two steps: how many steps are read as
        columns, the row's fate, and the same load as row by row."""
        path = tmp_path / f"videos.{suffix}"
        records = _clean_video_records(suffix, 2 * STEP)
        records[STEP + 1] = _VIDEO_FAULTS[fault](suffix, "v9999", f"v{STEP:04d}", "v0001")
        _write_video_records(path, records)
        (table, errors), fast_steps = _load_videos_both_ways(path)
        pick = lambda value: value[suffix] if isinstance(value, dict) else value  # noqa: E731
        assert fast_steps == pick(fast)
        message = pick(message)
        if message is None:
            assert errors == [] and len(table) == 2 * STEP and "v9999" in table.video_ids
        else:
            line = STEP + 2 + (suffix == "csv")
            assert [e.line for e in errors] == [line] and message in errors[0].message
            assert len(table) == 2 * STEP - 1 and len(set(table.video_ids)) == len(table)

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_errors_are_in_line_order(self, tmp_path, suffix):
        """A step's malformed rows are found before its unknown channels and repeated ids, yet every
        error of the load is reported in line order."""
        path = tmp_path / f"videos.{suffix}"
        records = _clean_video_records(suffix, 2 * STEP)
        faults = ["unknown channel", "negative views", "id repeated in the step", "no time", "id repeated across steps"]
        for at, fault in zip(range(STEP + 1, 2 * STEP, 2), faults):
            records[at] = _VIDEO_FAULTS[fault](suffix, "v9999", f"v{at - 1:04d}", "v0001")
        _write_video_records(path, records)
        (_, errors), fast_steps = _load_videos_both_ways(path)
        first = 2 if suffix == "csv" else 1
        assert fast_steps == 1 and [e.line for e in errors] == [STEP + first + 1 + 2 * k for k in range(len(faults))]
        assert [e.message.split(" ")[0] for e in errors] == ["unknown", "malformed", "duplicate", "malformed", "duplicate"]

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_clean_file_is_read_as_columns(self, tmp_path, suffix):
        """A clean 1,000-row file never reaches the row path, and loads in (channel, time) order."""
        path = tmp_path / f"videos.{suffix}"
        records = [make_video(f"v{i:04d}", "AB"[i % 2], views=i, offset_hours=-i, description=f"with @b {i}",
                              like_count=None if i % 3 == 0 else i, comment_count=i % 4) for i in range(1_000)]
        write_videos(VideoTable.from_records(records), path)
        with mock.patch.object(corpus, "_checked_row", side_effect=AssertionError("read row by row")):
            table, errors = load_videos(path, _STEP_CHANNELS)
        assert errors == [] and list(table) == sorted(records, key=lambda v: (v.channel_id, v.published_us))

    @pytest.mark.parametrize("zone", ["Z", "z"])
    @pytest.mark.parametrize("kind", ["videos", "comments"])
    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_times_ending_in_z_are_read_as_columns(self, tmp_path, kind, suffix, zone):
        """``…Z`` times, as the YouTube API writes them, are read as columns on every Python
        version; ``datetime.fromisoformat`` reads a trailing ``Z`` only from Python 3.11 on,
        and a trailing ``z`` on none."""
        stamps = [f"2024-01-01T{i % 24:02d}:00:00{zone}" for i in range(2 * STEP)]
        if kind == "videos":
            path = tmp_path / f"videos.{suffix}"
            _write_video_records(path, [_video_record(suffix, f"v{i:04d}", stamp=s) for i, s in enumerate(stamps)])
            (table, errors), fast_steps = _load_videos_both_ways(path)
            assert set(table.published_us) == {_utc_us(s) for s in stamps}
        else:
            path = tmp_path / f"comments.{suffix}"
            _write_records(path, [_comment_record(suffix, f"c{i:04d}", stamp=s) for i, s in enumerate(stamps)])
            (table, report), fast_steps = _load_both_ways(path)
            errors = list(report.errors + report.orphans)
        assert fast_steps == 2 and errors == [] and len(table) == 2 * STEP


class TestVideoTable:
    """A video table is its records held as columns."""

    RECORDS = [
        make_video("v1", "A", views=12, description="multi\nline", like_count=4),
        make_video("v2", "B", views=0, offset_hours=-3, comment_count=1, description="café \U0001f600"),
        make_video("v3", "A", views=10**30, offset_hours=2),
    ]

    def test_rows(self):
        table = VideoTable.from_records(self.RECORDS)
        assert len(table) == 3 and list(table) == self.RECORDS
        assert table.view_counts == (12, 0, 10**30) and table.like_counts == (4, None, None)
        assert list(table.descriptions) == ["multi\nline", "café \U0001f600", ""]

    def test_equality(self):
        """Two tables are equal when their eight columns are; a table equals nothing else."""
        table = VideoTable.from_records(self.RECORDS)
        assert table == VideoTable.from_records(iter(self.RECORDS))
        assert table != VideoTable.from_records(self.RECORDS[:2]) and table != VideoTable.from_records(self.RECORDS[::-1])
        assert table != self.RECORDS and table != VideoTable.from_records([])

    def test_cap_of_a_table(self):
        table = VideoTable.from_records(self.RECORDS)
        assert list(cap_videos_per_channel(table, cap=1)) == self.RECORDS[2:0:-1]


class TestCorpusDirWarnings:
    """``load_corpus_dir`` logs how many rows it dropped, and claims no reason for them."""

    @staticmethod
    def _write_corpus(directory, video_rows):
        directory.mkdir()
        (directory / "registry.jsonl").write_text(
            '{"channel_id": "A", "handles": ["a"], "attributes": {"gender": "W"}, "community": "ids"}\n'
        )
        write_jsonl(directory / "videos.jsonl", video_rows)
        # Seven rows: c1 and o1 three times each, o1 first on a missing video, and c2 once,
        # so four repeated ids and one orphan.
        write_jsonl(directory / "comments.jsonl", [
            {"comment_id": cid, "video_id": vid, "author_id": "u", "published_at": "2024-01-02T00:00:00Z"}
            for cid, vid in (("c1", "v1"), ("c1", "v1"), ("o1", "gone"), ("o1", "v1"), ("c2", "v1"), ("o1", "gone"), ("c1", "gone"))
        ])

    def test_repeated_ids_are_row_errors_not_malformed(self, tmp_path, caplog):
        directory = tmp_path / "ids"
        self._write_corpus(directory, [{"video_id": "v1", "channel_id": "A", "published_at": "2024-01-01T00:00:00Z", "view_count": 1}])
        with caplog.at_level("WARNING", logger="collabmetrics.corpus"):
            loaded, video_errors, _ = corpus.load_corpus_dir(directory)
            comments, dropped = loaded.comments.fold(CommentFold())
        assert (len(video_errors), len(dropped.errors), len(dropped.orphans)) == (0, 4, 1)
        assert len(comments) == 2
        assert [rec.getMessage() for rec in caplog.records] == [
            f"{directory}: dropped 4 comment row(s) with errors and 1 orphan comment row(s)"
        ]

    def test_video_row_errors(self, tmp_path, caplog):
        directory = tmp_path / "ids"
        self._write_corpus(directory, [
            {"video_id": "v1", "channel_id": "A", "published_at": "2024-01-01T00:00:00Z", "view_count": 1},
            {"video_id": "v2", "channel_id": "A", "published_at": "2024-01-01T00:00:00Z", "view_count": -5},
        ])
        with caplog.at_level("WARNING", logger="collabmetrics.corpus"):
            corpus.load_corpus_dir(directory)
        assert [rec.getMessage() for rec in caplog.records][0] == f"{directory}: dropped 1 video row(s) with errors"


class TestByteOrderMark:
    """A CSV file that starts with a UTF-8 byte order mark reads as the same file without it."""

    def test_corpus_loads_the_same_records(self, two_channel_corpus, tmp_path):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        paths = write_test_corpus(two_channel_corpus, plain, fmt="csv")
        marked.mkdir()
        for path in paths.values():
            (marked / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        got, video_errors, digests = corpus.load_corpus_dir(marked)
        want, want_errors, _ = corpus.load_corpus_dir(plain)
        assert (got.registry, got.videos, got.community, video_errors) == (want.registry, want.videos, want.community, want_errors)
        (comments, dropped), (want_comments, want_dropped) = (c.comments.fold(TableFold()) for c in (got, want))
        assert (comments.table(), dropped) == (want_comments.table(), want_dropped)
        assert (len(got.videos), len(comments), len(video_errors) + len(dropped.errors) + len(dropped.orphans)) == (5, 3, 0)
        # Each digest still covers every byte of its file, the mark's too; the comments file's is taken as it is folded.
        digests[got.comments.path.name] = got.comments.digest()
        assert digests == {name: hashlib.sha256((marked / name).read_bytes()).hexdigest() for name in digests}
        assert len(digests) == 3

    def test_side_file_csv(self, tmp_path):
        path = tmp_path / "lexicon.csv"
        path.write_text("\ufefftoken,valence\ngood,2.0\n", encoding="utf-8")
        assert list(corpus.load_rows(path, dict)) == [{"token": "good", "valence": "2.0"}]


class TestUndecodableBytes:
    """A byte that is not UTF-8 rejects its own row; the rest of the file loads."""

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    @pytest.mark.parametrize("kind", ["videos", "comments"])
    def test_bad_byte_is_a_row_error(self, tmp_path, kind, suffix):
        # The first bad byte lies several decode chunks into the file, so
        # rows have already been handed out when the strict decode fails.
        bad = {250, 390}
        texts = ["BAD" if i in bad else "ok \u00e9" for i in range(400)]
        path = tmp_path / f"{kind}.{suffix}"
        if kind == "videos":
            write_videos(VideoTable.from_records(make_video(f"v{i:03d}", "A", description=t) for i, t in enumerate(texts)), path)
        else:
            write_comments((make_comment_row(f"c{i:03d}", "v1", "u1", text=t) for i, t in enumerate(texts)), path)
        path.write_bytes(path.read_bytes().replace(b"BAD", b"B\xffD"))
        if kind == "videos":
            records, errors = load_videos(path, [make_channel("A", "a")])
            kept = {v.description for v in records}
        else:
            records, report = load_table(path, [make_video("v1", "A")])
            errors, kept = report.errors, set(records.texts)
        first_line = 2 if suffix == "csv" else 1
        assert [e.line for e in errors] == [i + first_line for i in sorted(bad)]
        assert all("can't decode byte 0xff" in e.message for e in errors)
        assert len(records) == 400 - len(bad) and kept == {"ok \u00e9"}


_VIDEO_CSV_HEADER = "video_id,channel_id,published_at,title,description,view_count,like_count,comment_count\n"
_COMMENT_CSV_HEADER = "comment_id,video_id,author_id,text,published_at,like_count\n"
_REGISTRY_CSV_HEADER = "channel_id,handles,display_name,community,gender\n"


class TestCsvRowWidth:
    """A CSV row with more cells than its header is malformed; a short row
    lacks the keys of its missing cells rather than holding the text "None"."""

    @pytest.mark.parametrize("escaped", [False, True])
    def test_extra_cell_is_a_video_row_error(self, tmp_path, escaped):
        # With a bad byte in the first row, the later rows are read again
        # with escapes and must be judged the same way.
        path = tmp_path / "videos.csv"
        title = b"B\xffD" if escaped else b"ok"
        path.write_bytes(
            _VIDEO_CSV_HEADER.encode("utf-8")
            + b"v0,A,2024-01-01T00:00:00Z," + title + b",d,5,,\n"
            + b"v1,A,2024-01-01T00:00:00Z,t,d,5,,,EXTRA\n"
            + b"v2,A,2024-01-01T00:00:00Z,t,d,5,,\n"
        )
        records, errors = load_videos(path, [make_channel("A", "a")])
        assert [v.video_id for v in records] == (["v2"] if escaped else ["v0", "v2"])
        assert [e.line for e in errors] == ([2, 3] if escaped else [3])
        assert errors[-1].message == "malformed row: row has 9 cells but the header has 8"

    @pytest.mark.parametrize("escaped", [False, True])
    def test_extra_cell_is_a_comment_row_error(self, tmp_path, escaped):
        path = tmp_path / "comments.csv"
        text = b"B\xffD" if escaped else b"ok"
        path.write_bytes(
            _COMMENT_CSV_HEADER.encode("utf-8")
            + b"c0,v1,u1," + text + b",2024-01-01T00:00:00Z,3\n"
            + b"c1,v1,u1,hi,2024-01-01T00:00:00Z,3,EXTRA\n"
            + b"c2,v1,u1,hi,2024-01-01T00:00:00Z,3\n"
        )
        records, report = load_table(path, [make_video("v1", "A")])
        assert list(records.comment_ids) == (["c2"] if escaped else ["c0", "c2"])
        assert [e.line for e in report.errors] == ([2, 3] if escaped else [3])
        assert "7 cells but the header has 6" in report.errors[-1].message

    @pytest.mark.parametrize("escaped", [False, True])
    def test_extra_cell_in_registry_names_the_line(self, tmp_path, escaped):
        # A bad byte after the wide row makes the whole small file fail its
        # strict decode, so the wide row is judged in its escaped form.
        path = tmp_path / "registry.csv"
        name = b"Ga\xffmma" if escaped else b"Gamma"
        path.write_bytes(
            _REGISTRY_CSV_HEADER.encode("utf-8")
            + b"A,a,Alpha,g,W\nB,b,Beta,g,M,EXTRA\nC,c," + name + b",g,W\n"
        )
        with pytest.raises(ValidationError, match=r"^registry\.csv:3: row has 6 cells but the header has 5$"):
            load_registry(path)

    def test_short_registry_row_misses_the_attribute(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_text(_REGISTRY_CSV_HEADER + "A,a,Alpha,g,W\nB,b,Beta,g\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="channel 'B' missing attribute 'gender'"):
            load_registry(path)

    def test_short_row_lacks_missing_cells(self, tmp_path):
        path = tmp_path / "videos.csv"
        path.write_text(_VIDEO_CSV_HEADER + "v1,A,2024-01-01T00:00:00Z,t,d,5\n", encoding="utf-8")
        (video,), errors = load_videos(path, [make_channel("A", "a")])
        assert errors == []
        assert video.like_count is None and video.comment_count is None


@pytest.mark.parametrize(
    "kind, cells, message",
    [
        ("videos", "5,-3,", "negative like_count -3"),
        ("videos", "5,,-9", "negative comment_count -9"),
        ("comments", "-7", "negative like_count -7"),
    ],
)
def test_negative_count_in_csv(tmp_path, kind, cells, message):
    """No count is below 0 in a CSV row either; only ``view_count`` used to be checked."""
    path = tmp_path / f"{kind}.csv"
    if kind == "videos":
        path.write_text(_VIDEO_CSV_HEADER + f"v0,A,2024-01-01T00:00:00Z,t,d,5,,\nv1,A,2024-01-01T00:00:00Z,t,d,{cells}\n")
        records, errors = load_videos(path, [make_channel("A", "a")])
    else:
        path.write_text(_COMMENT_CSV_HEADER + f"c0,v1,u1,hi,2024-01-01T00:00:00Z,3\nc1,v1,u1,hi,2024-01-01T00:00:00Z,{cells}\n")
        records, report = load_table(path, [make_video("v1", "A")])
        errors = list(report.errors)
    assert len(records) == 1
    assert errors == [RowError(3, f"malformed row: {message}")]


class TestCsvLineNumbers:
    """A CSV record is numbered by its first physical line, past quoted
    cells that hold newlines and past blank lines."""

    _TWO_LINE_ROW = b'v0,A,2024-01-01T00:00:00Z,t,"first line\nsecond line",5,,\n'

    def test_error_after_multiline_cell_and_blank_line(self, tmp_path):
        path = tmp_path / "videos.csv"
        path.write_bytes(
            _VIDEO_CSV_HEADER.encode("utf-8")
            + self._TWO_LINE_ROW  # lines 2-3
            + b"\n"  # line 4
            + b"v1,A,2024-01-01T00:00:00Z,t,d,-5,,\n"  # line 5
        )
        records, errors = load_videos(path, [make_channel("A", "a")])
        assert [v.description for v in records] == ["first line\nsecond line"]
        assert [(e.line, e.message) for e in errors] == [(5, "malformed row: negative view_count -5")]

    def test_bad_byte_after_multiline_cell(self, tmp_path):
        path = tmp_path / "videos.csv"
        path.write_bytes(
            _VIDEO_CSV_HEADER.encode("utf-8")
            + self._TWO_LINE_ROW  # lines 2-3
            + b"v1,A,2024-01-01T00:00:00Z,B\xffD,d,5,,\n"  # line 4
            + b"\n"  # line 5
            + b"v2,A,2024-01-01T00:00:00Z,t,d,-5,,\n"  # line 6
        )
        records, errors = load_videos(path, [make_channel("A", "a")])
        assert [v.video_id for v in records] == ["v0"]
        assert [e.line for e in errors] == [4, 6]
        assert "can't decode byte 0xff" in errors[0].message

    def test_escaped_reread_resumes_after_multiline_rows(self, tmp_path):
        # Every row spans two lines and the bad byte lies several decode
        # chunks in, so the re-read must skip exactly the rows handed out.
        bad = 390
        path = tmp_path / "comments.csv"
        write_comments(
            (make_comment_row(f"c{i:03d}", "v1", "u1", text=f"{'BAD' if i == bad else 'ok'}\nmore") for i in range(400)),
            path,
        )
        path.write_bytes(path.read_bytes().replace(b"BAD", b"B\xffD"))
        records, report = load_table(path, [make_video("v1", "A")])
        assert [e.line for e in report.errors] == [2 + 2 * bad]
        assert list(records.comment_ids) == [f"c{i:03d}" for i in range(400) if i != bad]


class TestCsvReadErrors:
    """A record that ``csv`` cannot read (here an opening quote that runs
    past the field size limit) is one bad row, and reading resumes on the
    next line."""

    _RUNAWAY = b'"' + b"x" * (csv.field_size_limit() + 1) + b"\n"
    _MESSAGE = f"field larger than field limit ({csv.field_size_limit()})"

    def test_video_row(self, tmp_path):
        path = tmp_path / "videos.csv"
        path.write_bytes(
            _VIDEO_CSV_HEADER.encode("utf-8")
            + b"v0,A,2024-01-01T00:00:00Z," + self._RUNAWAY
            + b"v1,A,2024-01-01T00:00:00Z,t,d,5,,\n"
        )
        records, errors = load_videos(path, [make_channel("A", "a")])
        assert [v.video_id for v in records] == ["v1"]
        assert errors == [RowError(2, f"malformed row: {self._MESSAGE}")]

    def test_comment_row(self, tmp_path):
        path = tmp_path / "comments.csv"
        path.write_bytes(
            _COMMENT_CSV_HEADER.encode("utf-8")
            + b"c0,v1,u1,hi,2024-01-01T00:00:00Z,3\n"
            + b"c1,v1,u1," + self._RUNAWAY
            + b"c2,v1,u1,hi,2024-01-01T00:00:00Z,3\n"
        )
        records, report = load_table(path, [make_video("v1", "A")])
        assert list(records.comment_ids) == ["c0", "c2"]
        assert report.errors == (RowError(3, f"malformed row: {self._MESSAGE}"),)

    def test_registry_names_the_line(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_bytes(_REGISTRY_CSV_HEADER.encode("utf-8") + b"A,a,Alpha,g,W\nB,b," + self._RUNAWAY)
        with pytest.raises(ValidationError, match=rf"^registry\.csv:3: {re.escape(self._MESSAGE)}$"):
            load_registry(path)

    def test_bad_header_makes_every_row_bad(self, tmp_path):
        path = tmp_path / "comments.csv"
        path.write_bytes(
            b"comment_id,video_id,author_id,te\xffxt,published_at,like_count\n"
            + b"c0,v1,u1,hi,2024-01-01T00:00:00Z,3\n"
            + b"c1,v1,u1,hi,2024-01-01T00:00:00Z,3\n"
        )
        records, report = load_table(path, [make_video("v1", "A")])
        assert len(records) == 0
        assert [e.line for e in report.errors] == [2, 3]
        prefix = "malformed row: header: 'utf-8' codec can't decode byte 0xff"
        assert all(e.message.startswith(prefix) for e in report.errors)


def test_streaming_load_at_realistic_scale(tmp_path):
    """13,471 rows (a real community-sized corpus) load cleanly and completely."""
    registry = [make_channel(f"C{i:02d}", f"h{i:02d}") for i in range(50)]
    path = tmp_path / "videos.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for i in range(13_471):
            fh.write(
                json.dumps(
                    {
                        "video_id": f"v{i}",
                        "channel_id": f"C{i % 50:02d}",
                        "published_at": "2024-01-01T00:00:00+00:00",
                        "view_count": i,
                    }
                )
                + "\n"
            )
    records, errors = load_videos(path, registry)
    assert len(records) == 13_471
    assert errors == []


def test_cap_videos_keeps_most_recent():
    videos = [make_video(f"v{i}", "A", views=i, offset_hours=i) for i in range(6)]
    videos += [make_video("w0", "B", views=1, offset_hours=0)]
    capped = cap_videos_per_channel(VideoTable.from_records(videos), cap=2)
    ids = {v.video_id for v in capped}
    assert ids == {"v4", "v5", "w0"}


@pytest.mark.parametrize(
    ("cap", "expected"),
    [(2, ["a1", "a4", "b1", "b2"]), (3, ["a2", "a1", "a4", "b1", "b2"]), (10, ["a3", "a2", "a1", "a4", "b1", "b2"])],
)
def test_cap_videos_keeps_input_order_of_equal_times(cap, expected):
    # Channels come out in id order, each by time; videos published at the
    # same time keep their input order, and the cap keeps the later ones.
    rows = [("b1", "B", 0), ("a2", "A", 1), ("a1", "A", 1), ("b2", "B", 0), ("a3", "A", 0), ("a4", "A", 1)]
    videos = [make_video(video_id, channel, offset_hours=hours) for video_id, channel, hours in rows]
    assert [v.video_id for v in cap_videos_per_channel(VideoTable.from_records(videos), cap=cap)] == expected


@pytest.mark.parametrize("cap", [0, -3])
def test_cap_below_one_rejected(cap):
    videos = [make_video(f"v{i}", "A", offset_hours=i) for i in range(4)]
    with pytest.raises(ConfigurationError, match="at least 1"):
        cap_videos_per_channel(VideoTable.from_records(videos), cap=cap)


@pytest.mark.parametrize(
    "record",
    [
        make_channel("A", "a"),
        make_video("v1", "A"),
        VideoTable.from_records([make_video("v1", "A")]),
        CommentTable.from_rows([make_comment("c1", "v1", "u1", "hi")]),
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_are_slotted_and_frozen(record):
    assert not hasattr(record, "__dict__")
    for field in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field.name, "x")
    if isinstance(record, VideoRecord):  # a registry record's attributes are a dict
        hash(record)
    elif isinstance(record, CommentTable):  # no column takes an item
        for field in dataclasses.fields(record):
            with pytest.raises(TypeError):
                getattr(record, field.name)[0] = 0


class TestRegistryJsonValues:
    """A JSON-lines registry can hold any JSON value where a CSV one holds
    text; a handle or attribute value that is not a string names its line."""

    def test_handle_that_is_not_a_string(self, tmp_path):
        path = tmp_path / "registry.jsonl"
        write_jsonl(path, [registry_row("A", ["a"]), registry_row("B", [5])])
        with pytest.raises(ValidationError, match=r"^registry\.jsonl:2: handle 5 is not a string$"):
            load_registry(path)

    def test_attribute_value_that_is_not_a_string(self, tmp_path):
        path = tmp_path / "registry.jsonl"
        write_jsonl(path, [registry_row("A", ["a"], gender="M"), registry_row("B", ["b"], gender=5)])
        with pytest.raises(
            ValidationError, match=r"^registry\.jsonl:2: attribute 'gender' value 5 is not a string$"
        ):
            load_registry(path)

    @pytest.mark.parametrize("field", ["channel_id", "display_name", "community"])
    def test_null_text_field(self, tmp_path, field):
        """``null`` is no string; it used to load as the text "None"."""
        rows = [registry_row("A", ["a"]), registry_row("B", ["b"])]
        rows[1][field] = None
        path = tmp_path / "registry.jsonl"
        write_jsonl(path, rows)
        with pytest.raises(ValidationError, match=rf"^registry\.jsonl:2: {field} None is not a string$"):
            load_registry(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("handles", {"alpha": 1, "beta": 2}, "handles {'alpha': 1, 'beta': 2} is not a list or a string"),
            ("attributes", [["gender", "M"]], "attributes [['gender', 'M']] is not an object"),
            ("attributes", None, "attributes None is not an object"),
        ],
    )
    def test_field_of_the_wrong_json_type(self, tmp_path, field, value, message):
        """An object of handles used to load its keys, and a list of pairs to load as attributes;
        null attributes were read as a CSV row's columns, the field itself among them."""
        rows = [registry_row("A", ["a"]), registry_row("B", ["b"])]
        rows[1][field] = value
        path = tmp_path / "registry.jsonl"
        write_jsonl(path, rows)
        with pytest.raises(ValidationError, match=rf"^registry\.jsonl:2: {re.escape(message)}$"):
            load_registry(path)

    def test_handles_string_in_json(self, tmp_path):
        path = tmp_path / "registry.jsonl"
        write_jsonl(path, [registry_row("A", "alpha|@Beta")])
        (rec,) = load_registry(path)
        assert rec.handles == ("alpha", "beta")

    def test_missing_optional_fields_are_empty(self, tmp_path):
        path = tmp_path / "registry.jsonl"
        write_jsonl(path, [{"channel_id": "A", "handles": ["a"], "attributes": {"gender": "M"}}])
        (rec,) = load_registry(path)
        assert (rec.display_name, rec.community) == ("", "")

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_blank_handles_are_dropped(self, tmp_path, suffix):
        """A handle empty once normalized is no handle, in a JSON list as in a CSV cell."""
        path = tmp_path / f"registry.{suffix}"
        if suffix == "csv":
            path.write_text(
                "channel_id,handles,display_name,community,gender\nA,alpha||@,A,g,M\nB,beta| | @ ,B,g,W\n",
                encoding="utf-8",
            )
        else:
            write_jsonl(path, [registry_row("A", ["alpha", "", "@"]), registry_row("B", ["beta", " ", " @ "])])
        registry = load_registry(path)
        assert [rec.handles for rec in registry] == [("alpha",), ("beta",)]
        assert mentions(HandleIndex(registry), make_video("b1", "B", description="just a solo stream, no guests")) == set()

    def test_channel_of_only_empty_handles_has_none(self, tmp_path):
        path = tmp_path / "registry.jsonl"
        write_jsonl(path, [registry_row("A", ["alpha"]), registry_row("B", ["@", " "])])
        with pytest.raises(ValidationError, match=r"^registry\.jsonl:2: channel has no handles$"):
            load_registry(path)


def _video_row(**fields):
    return {"video_id": "v1", "channel_id": "A", "published_at": "2024-01-01T00:00:00Z", "view_count": 5, **fields}


def _comment_row(**fields):
    return {"comment_id": "c1", "video_id": "v1", "author_id": "u1", "text": "hi",
            "published_at": "2024-01-01T00:00:00Z", **fields}


class TestRowJsonValues:
    """A JSON-lines video or comment row holds strings where a CSV row does,
    and whole numbers in its counts; anything else costs that one row."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"video_id": None}, "video_id None is not a string"),
            ({"channel_id": 7}, "channel_id 7 is not a string"),
            ({"title": None}, "title None is not a string"),
            ({"view_count": 3.7}, "view_count 3.7 is not an integer"),
            ({"view_count": True}, "view_count True is not an integer"),
            ({"like_count": 1.5}, "like_count 1.5 is not an integer"),
            ({"like_count": -3}, "negative like_count -3"),
            ({"comment_count": -9}, "negative comment_count -9"),
        ],
    )
    def test_video_row_error(self, tmp_path, fields, message):
        path = tmp_path / "videos.jsonl"
        write_jsonl(path, [_video_row(video_id="v0"), _video_row(**fields)])
        records, errors = load_videos(path, [make_channel("A", "a")])
        assert [v.video_id for v in records] == ["v0"]
        assert errors == [RowError(2, f"malformed row: {message}")]

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"author_id": None}, "author_id None is not a string"),
            ({"text": None}, "text None is not a string"),
            ({"video_id": None}, "video_id None is not a string"),
            ({"comment_id": 4}, "comment_id 4 is not a string"),
            ({"like_count": False}, "like_count False is not an integer"),
            ({"like_count": -7}, "negative like_count -7"),
        ],
    )
    def test_comment_row_error(self, tmp_path, fields, message):
        path = tmp_path / "comments.jsonl"
        write_jsonl(path, [_comment_row(comment_id="c0"), _comment_row(**fields)])
        records, report = load_table(path, [make_video("v1", "A")])
        assert list(records.comment_ids) == ["c0"] and report.orphans == ()
        assert report.errors == (RowError(2, f"malformed row: {message}"),)

    def test_integral_counts_still_load(self, tmp_path):
        path = tmp_path / "videos.jsonl"
        write_jsonl(path, [_video_row(view_count=3.0, like_count="12", comment_count=None)])
        (video,), errors = load_videos(path, [make_channel("A", "a")])
        assert errors == [] and (video.view_count, video.like_count, video.comment_count) == (3, 12, None)


class TestFirstFaultOfARow:
    """A row with two faults is rejected for the one its fields show first."""

    @pytest.mark.parametrize(
        "fields, drop, message",
        [
            ({"view_count": -1, "video_id": 3}, (), "negative view_count -1"),
            ({"published_at": "yesterday", "title": None}, (), "Invalid isoformat string: 'yesterday'"),
            ({"channel_id": 7}, ("published_at",), "channel_id 7 is not a string"),
            ({"description": 1.5, "like_count": -2}, (), "description 1.5 is not a string"),
            ({"video_id": None}, ("view_count",), "'view_count'"),
            ({"published_at": 20240101, "description": None}, (), "published_at 20240101 is not a string"),
            ({"comment_count": 2.5, "like_count": True}, (), "like_count True is not an integer"),
            ({"title": ["x"]}, ("video_id",), "'video_id'"),
        ],
    )
    def test_video_row(self, tmp_path, fields, drop, message):
        row = {k: v for k, v in _video_row(**fields).items() if k not in drop}
        path = tmp_path / "videos.jsonl"
        write_jsonl(path, [row])
        assert load_videos(path, [make_channel("A", "a")])[1] == [RowError(1, f"malformed row: {message}")]

    @pytest.mark.parametrize(
        "fields, drop, message",
        [
            ({"comment_id": 5}, ("published_at",), "comment_id 5 is not a string"),
            ({"text": None}, ("comment_id",), "'comment_id'"),
            ({"author_id": None, "published_at": "not a time"}, (), "author_id None is not a string"),
            ({"text": 3, "like_count": -1}, (), "text 3 is not a string"),
            ({"published_at": "2024-13-01T00:00:00Z", "like_count": -1}, (), "month must be in 1..12"),
            ({"author_id": 9}, ("video_id",), "'video_id'"),
            ({"published_at": None, "like_count": 0.5}, (), "published_at None is not a string"),
        ],
    )
    def test_comment_row(self, tmp_path, fields, drop, message):
        row = {k: v for k, v in _comment_row(**fields).items() if k not in drop}
        path = tmp_path / "comments.jsonl"
        write_jsonl(path, [row])
        assert load_table(path, [make_video("v1", "A")])[1].errors == (RowError(1, f"malformed row: {message}"),)


def _json_line_reference(line):
    """A JSON-lines row as ``json.loads`` reads it: the object, or the error's type and message."""
    try:
        row = json.loads(line)
        if not isinstance(row, dict):
            raise ValueError(f"expected a JSON object, got {type(row).__name__}")
    except ValueError as exc:
        return type(exc), str(exc)
    return repr(row)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# Any text a file line can hold: no line break and no lone surrogate.
_line_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=12)
_json_lines = st.one_of(
    _line_text,
    st.sampled_from(["", " ", "\t", "\x0b", "\u3000", "\ufeff"]).flatmap(
        lambda before: st.tuples(
            st.just(before),
            st.one_of(
                st.dictionaries(st.text(max_size=4), _json_values, max_size=4).map(json.dumps),
                _json_values.map(json.dumps),
                st.sampled_from(['{"a": NaN}', '{"a": -Infinity}', '{"a": }', '{"a": [1,', "{", '{"a" 1}']),
            ),
            st.sampled_from(["", " ", "\t", "\x0b", "}", "} {}", "{}", "x", ","]),
        ).map("".join)
    ),
)


class TestJsonLineDecode:
    """Each JSON-lines row decodes as ``json.loads`` decodes it, or fails with its error."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.lists(_json_lines, max_size=6), st.booleans())
    @example(['{"a": 1}', '\ufeff{"a": 1}', ' {"a": 1}', '{"a": 1} ', '{"a": 1}}', '{"a": NaN}', "[1]", "  "], False)
    def test_rows_match_json_loads(self, tmp_path_factory, lines, final_newline):
        path = tmp_path_factory.mktemp("lines") / "rows.jsonl"
        text = "\n".join(lines) + ("\n" if final_newline else "")
        path.write_bytes(text.encode("utf-8"))
        read = text.split("\n")
        read = [line + "\n" for line in read[:-1]] + ([read[-1]] if read[-1] else [])
        expected = [(i, _json_line_reference(line)) for i, line in enumerate(read, 1) if line.strip()]
        got = [
            (i, (type(value), str(value)) if isinstance(value, Exception) else repr(value))
            for i, value in _rows(path, lambda row: row, tabular=False)
        ]
        assert got == expected


# A JSON value nested deeper than the decoder recurses: decoding it raises ``RecursionError``.
_DEEP = "[" * 100_000 + "]" * 100_000


class TestDeeplyNestedRow:
    """A JSON-lines row nested too deep to decode is one row error, not an aborted load."""

    def test_comment_row(self, tmp_path):
        path = tmp_path / "comments.jsonl"
        records = _clean_records("jsonl", 3)
        records[1] = records[1].replace('"text": "gg"', f'"text": {_DEEP}')
        _write_records(path, records)
        (table, report), _ = _load_both_ways(path)
        assert [e.line for e in report.errors] == [2] and "maximum recursion depth" in report.errors[0].message
        assert list(table.comment_ids) == ["c0000", "c0002"]

    def test_video_row(self, tmp_path):
        path = tmp_path / "videos.jsonl"
        records = _clean_video_records("jsonl", 3)
        records[1] = records[1].replace('"description": "d"', f'"description": {_DEEP}')
        _write_video_records(path, records)
        (table, errors), _ = _load_videos_both_ways(path)
        assert [e.line for e in errors] == [2] and "maximum recursion depth" in errors[0].message
        assert sorted(table.video_ids) == ["v0000", "v0002"]

    def test_registry_row(self, tmp_path):
        path = tmp_path / "registry.jsonl"
        path.write_text(json.dumps(registry_row("ch1", ["a"])) + f'\n{{"channel_id": {_DEEP}}}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match=r"^registry\.jsonl:2: maximum recursion depth exceeded"):
            load_registry(path)


def _utc_offset(minutes):
    sign = "-" if minutes < 0 else "+"
    return f"{sign}{abs(minutes) // 60:02d}:{abs(minutes) % 60:02d}"


# ISO-8601 times with microseconds from year 1 to 9999, naive (read as UTC),
# with ``Z`` or ``z``, or with an offset of up to a day either way.
_iso_times = st.builds(
    lambda dt, zone: dt.isoformat() + zone,
    st.datetimes(),
    st.one_of(st.just(""), st.sampled_from(["Z", "z"]), st.integers(-23 * 60 - 59, 23 * 60 + 59).map(_utc_offset)),
)

_ISO_TIME = re.compile(r"(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)(?:\.(\d{6}))?(?:[Zz]|([+-])(\d\d):(\d\d))?")
_NAIVE_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)


def _utc_us(stamp):
    """The microseconds since 1970-01-01 UTC that an ``_iso_times`` stamp names, by calendar
    arithmetic; None when that UTC time falls outside years 1-9999."""
    year, month, day, hour, minute, second, fraction, sign, off_hours, off_minutes = _ISO_TIME.fullmatch(stamp).groups()
    days = (date(int(year), int(month), int(day)) - _NAIVE_EPOCH.date()).days
    seconds = ((days * 24 + int(hour)) * 60 + int(minute)) * 60 + int(second)
    if sign:
        seconds -= int(sign + "1") * (int(off_hours) * 60 + int(off_minutes)) * 60
    us = seconds * 1_000_000 + int(fraction or 0)
    in_range = (datetime.min - _NAIVE_EPOCH) // _MICROSECOND <= us <= (datetime.max - _NAIVE_EPOCH) // _MICROSECOND
    return us if in_range else None


def _timed_row(kind, i, stamp):
    if kind == "videos":
        return _video_row(video_id=f"r{i}", published_at=stamp)
    return _comment_row(comment_id=f"r{i}", published_at=stamp)


def _load_timed(kind, path):
    """The loaded videos or comments of ``path``, the time of each by id (None for a comment,
    whose time is checked but not kept), and the lines of the rows it rejected."""
    if kind == "videos":
        videos, errors = load_videos(path, [make_channel("A")])
        return videos, {v.video_id: v.published_us for v in videos}, [e.line for e in errors]
    comments, report = load_table(path, [make_video("v1", "A")])
    return comments, dict.fromkeys(comments.comment_ids), [e.line for e in report.errors]


_TIMED_KINDS = pytest.mark.parametrize("kind", ["videos", "comments"])


class TestTimeColumn:
    """A video's or comment's time is accepted or rejected by its UTC instant. A video keeps it
    as exact UTC microseconds since 1970 and writes it back unchanged; a comment keeps none, and
    its file rows are written with their times in the same form."""

    @_TIMED_KINDS
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(_iso_times, min_size=1, max_size=8))
    @example(["1969-12-31T23:59:59.999999", "0001-01-01T00:00:00Z", "9999-12-31T23:59:59.999999z", "0001-01-01T00:00:00+00:01"])
    @example(["1970-01-01T00:30:00+01:00", "0001-01-01T23:00:00.000001-00:59", "1900-03-01T12:00:00.500000+05:30"])
    def test_load_and_round_trip(self, tmp_path_factory, kind, stamps):
        tmp_path = tmp_path_factory.mktemp("times")
        write_jsonl(tmp_path / "in.jsonl", [_timed_row(kind, i, stamp) for i, stamp in enumerate(stamps)])
        loaded, times, error_lines = _load_timed(kind, tmp_path / "in.jsonl")

        expected = {f"r{i}": _utc_us(stamp) for i, stamp in enumerate(stamps)}
        in_range = {key: us for key, us in expected.items() if us is not None}
        assert times == (in_range if kind == "videos" else dict.fromkeys(in_range))
        assert error_lines == [line for line, us in enumerate(expected.values(), 1) if us is None]

        # A video writes back the time it loaded with; a comment's file row is written with its own.
        rows = [(key, "v1", "u1", "hi", us, None) for key, us in in_range.items()]
        for suffix in ("jsonl", "csv"):
            first, second = tmp_path / f"first.{suffix}", tmp_path / f"second.{suffix}"
            if kind == "videos":
                write_videos(loaded, first)
            else:
                write_comments(rows, first)
            again, again_times, again_errors = _load_timed(kind, first)
            assert again_times == times and again_errors == []
            if kind == "videos":
                write_videos(again, second)
                assert again == loaded
                assert first.read_bytes() == second.read_bytes()
        id_key = "video_id" if kind == "videos" else "comment_id"
        written = [json.loads(line) for line in (tmp_path / "first.jsonl").read_text().splitlines()]
        assert {row[id_key]: row["published_at"] for row in written} == {
            key: (_NAIVE_EPOCH + us * _MICROSECOND).isoformat() + "+00:00" for key, us in in_range.items()
        }

    @_TIMED_KINDS
    @pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"])
    def test_time_outside_utc_range_is_a_row_error(self, tmp_path, kind, stamp):
        path = tmp_path / "in.jsonl"
        write_jsonl(path, [_timed_row(kind, 0, "2024-01-01T00:00:00Z"), _timed_row(kind, 1, stamp)])
        _, times, error_lines = _load_timed(kind, path)
        assert list(times) == ["r0"]
        assert error_lines == [2]


class TestSharedIdStrings:
    """Loaded videos share the registry's channel id strings, and the folded attention pairs hold one
    string per author and per channel instead of copies."""

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_ids_are_shared(self, tmp_path, suffix):
        registry = [make_channel("A", "a"), make_channel("B", "b")]
        write_videos(VideoTable.from_records(make_video(f"v{i}", "AB"[i % 2]) for i in range(4)), tmp_path / f"videos.{suffix}")
        videos, _ = load_videos(tmp_path / f"videos.{suffix}", registry)
        comments = [make_comment_row(f"c{i}", f"v{i % 5}", f"u{i % 3}") for i in range(30)]
        write_comments(comments, tmp_path / f"comments.{suffix}")
        owner = dict(zip(videos.video_ids, videos.channel_ids))
        pairs, report = load_comments(tmp_path / f"comments.{suffix}", owner, AttentionCounts(owner))

        channel_ids = {ch.channel_id: ch.channel_id for ch in registry}
        assert all(v.channel_id is channel_ids[v.channel_id] for v in videos)
        # No comment is held; the pairs that count them hold the strings.
        assert len(pairs) == 24 and len(report.orphans) == 6  # v4 is not a video
        authors: dict[str, str] = {}
        for author_id, channel_id in pairs.weights:
            assert authors.setdefault(author_id, author_id) is author_id
            assert channel_id is channel_ids[channel_id]
        assert len(authors) == 3 and len(pairs.weights) == 6


def _simulator_shaped_comments(path):
    """4,000 JSON-lines comments on 250 videos by 1,000 authors, shaped like the simulator's; returns the
    videos as a table, as :func:`load_corpus_dir` passes them."""
    videos = [make_video(f"game-v{i // 10:03d}-{i % 10:04d}", "A") for i in range(250)]
    with path.open("w", encoding="utf-8") as fh:
        for i in range(4_000):
            row = {
                "author_id": f"user{(i * 7) % 1_000:05d}",
                "comment_id": f"game-m{i:07d}",
                "like_count": i % 50,
                "published_at": f"2024-03-{1 + i % 28:02d}T{i % 24:02d}:{i % 60:02d}:00+00:00",
                "text": ("the ranked match is terrible", "boring, this one", "bland, the stream setup")[i % 3],
                "video_id": videos[(i * 13) % 250].video_id,
            }
            fh.write(json.dumps(row) + "\n")
    return VideoTable.from_records(videos)


class _Ids(CommentFold):
    """A fold that keeps each comment's id, in the order that it takes them."""

    def __init__(self):
        super().__init__()
        self.ids = []

    def add(self, lines, columns):
        super().add(lines, columns)
        self.ids.extend(columns[0])


def _traced_load(path, videos, errors=0, fold=None):
    """``load_comments`` of ``path`` into ``fold`` (by default one that only counts), with the bytes per
    comment that it kept and its traced peak above the start."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        records, report = load_comments(path, dict.fromkeys(videos.video_ids), CommentFold() if fold is None else fold)
        peak = tracemalloc.get_traced_memory()[1] - base
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(records) == 4_000 and len(report.errors) == errors
    return records, kept / len(records), peak / len(records)


def test_bytes_kept_per_comment(tmp_path):
    """A load keeps nothing of a comment: each step goes to the fold, and the
    duplicate check's hashes and bit map are freed when the load ends.

    The simulator-shaped comments keep well under a byte each, the fold and
    the load report. Held in a table of columns, each kept about 75 bytes on
    Python 3.11: the characters of its id and text, 4 bytes for each one's
    end and two column slots. Each used to keep about 400 bytes, 125 of
    them in copies of its video and author ids, then about 284 in a record
    and a ``datetime`` of its own, then about 197 with an id and a text
    ``str`` each in tuple columns, and then about 92 with its time and like
    count kept in two more columns.
    """
    path = tmp_path / "comments.jsonl"
    _, kept, _ = _traced_load(path, _simulator_shaped_comments(path))
    assert kept <= 1


def test_load_peak_per_comment(tmp_path):
    """Loading peaks at about 130 bytes a comment on Python 3.11 (137 on
    3.10, 127 on 3.12 and 3.13): the table, one step's parsed rows, and 8
    bytes of id hash and about 6 of bit map for the duplicate check. With
    each comment's time and like count kept too it peaked at about 147
    (154 on 3.10). With a set of the ids seen it peaked at about 228 (234
    on 3.10), most of it the set and the id strings it held; with tuple
    columns of id and text strings at about 247."""
    path = tmp_path / "comments.jsonl"
    _, _, peak = _traced_load(path, _simulator_shaped_comments(path))
    assert peak <= 150


def test_load_peak_with_a_repeated_id(tmp_path):
    """A repeated id is found by reading the file once more for the id of
    its first row, which was folded with its step; nothing else is held
    for it. Into a fold that keeps every id, the load then peaks at about
    122 bytes a comment on Python 3.11, 71 of them the fold's id strings.
    When the comments were held in a table, the repeat left it with the
    kept rows copied one column at a time, at about 134 bytes a comment;
    with the table rebuilt from the old one's rows it was about 231."""
    path = tmp_path / "comments.jsonl"
    videos = _simulator_shaped_comments(path)
    with path.open("r+", encoding="utf-8") as fh:
        first = fh.readline()
        fh.seek(0, os.SEEK_END)
        fh.write(first)
    records, _, peak = _traced_load(path, videos, errors=1, fold=_Ids())
    assert peak <= 150
    assert records.ids[0] == "game-m0000000" and len(set(records.ids)) == 4_000


def _simulator_shaped_videos(path):
    """2,000 JSON-lines videos on 100 channels, shaped like the simulator's; returns the registry."""
    registry = [make_channel(f"game-c{c:03d}", f"creator{c:03d}") for c in range(100)]
    descriptions = ("Solo session today, enjoy the run!", "Back again with another upload.", "Duo night with @creator{:03d}!")
    rows = []
    for i in range(2_000):
        channel, slot = divmod(i, 20)
        views = 50 + i * 7919 % 100_000
        rows.append({
            "channel_id": f"game-c{channel:03d}", "comment_count": 0,
            "description": descriptions[i % 3].format((channel + 1) % 100), "like_count": views // 100,
            "published_at": f"2024-01-{1 + i // 24 % 28:02d}T{i % 24:02d}:00:00+00:00",
            "title": f"Session {slot}", "video_id": f"game-v{channel:03d}-{slot:04d}", "view_count": views,
        })
    write_jsonl(path, rows)
    return registry


def test_bytes_kept_per_video(tmp_path):
    """A loaded video keeps its id's string, the characters of its title and
    description (packed, with 4 bytes for each one's end), its counts and
    five column slots: about 210 bytes on Python 3.11 (217 on 3.10, 202 on
    3.12 and 3.13). As a tuple of one ``VideoRecord`` each it kept about 386
    (392 on 3.10, 362 on 3.12 and 3.13)."""
    path = tmp_path / "videos.jsonl"
    registry = _simulator_shaped_videos(path)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        videos, errors = load_videos(path, registry)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(videos) == 2_000 and errors == []
    assert kept / len(videos) <= 230


# Texts that CPython stores at each width, and the characters a reader may
# meet: NUL, line breaks, a non-BMP emoji and lone surrogates, which a
# ``surrogateescape`` decode makes of undecodable bytes.
_ODD_TEXTS = ("", "\0", "\n", "\r", "\r\n", "plain", "café", "ŝĉ€", "\U0001f600 emoji", "\udc80", "a\udcffb")
_odd_text = st.one_of(
    st.sampled_from(_ODD_TEXTS),
    st.text(st.one_of(st.characters(), st.sampled_from("\0\n\r\udc80\udcff\U0001f600")), max_size=12),
)


class TestPackedStrings:
    """The packed column against the list of the same strings."""

    @staticmethod
    def _check(strings):
        packed = PackedStrings(strings)
        assert len(packed) == len(strings)
        assert list(packed) == strings
        assert [packed[i] for i in range(len(strings))] == strings
        assert [packed[i] for i in range(-len(strings), 0)] == strings
        n = len(strings)
        for start, stop in [(0, n), (0, CHUNK), (CHUNK, 2 * CHUNK), (1, CHUNK + 1), (CHUNK - 1, n), (n, 0), (-3, None)]:
            assert packed[start:stop] == strings[start:stop]
        assert packed[::7] == strings[::7] and packed[::-1] == strings[::-1]
        assert packed == strings and strings == packed and packed == tuple(strings) and tuple(strings) == packed
        assert packed == PackedStrings(strings)
        return packed

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_odd_text, min_size=1, max_size=20), st.sampled_from([0, 1, 255, 256, 257, 513]), st.integers(0, 19))
    @example(pool=list(_ODD_TEXTS), size=513, offset=0)
    def test_round_trip(self, pool, size, offset):
        strings = [pool[(offset + i) % len(pool)] for i in range(size)]
        self._check(strings)
        rows = [make_comment(f"c{i}", "v1", "u1", text) for i, text in enumerate(strings)]
        table = CommentTable.from_rows(rows)
        assert table_rows(table) == rows
        assert table.texts == strings and list(table.comment_ids) == [row[0] for row in rows]

    @pytest.mark.parametrize("size", [0, 1, 255, 256, 257, 513])
    def test_table_sizes(self, size):
        strings = [f"text {i}" + "é" * (i // CHUNK == 1) for i in range(size)]
        packed = self._check(strings)
        if size:
            assert packed[-1] == strings[-1]
        rows = [make_comment(f"c{i:03d}", f"v{i % 3}", f"u{i % 5}", text) for i, text in enumerate(strings)]
        table = CommentTable.from_rows(rows)
        assert len(table) == size and table_rows(table) == rows
        # A fold takes every row once, in order, ``CHUNK`` at a time (an empty table once, with none).
        fold, report = table.fold(TableFold())
        assert fold.table() == table and report == CommentLoadReport()
        assert [line for line, _ in fold.rows] == list(range(1, size + 1)) and len(fold) == size

    def test_equality(self):
        packed = PackedStrings(["a", "b"])
        assert packed == ["a", "b"] and packed == ("a", "b") and packed != ["a", "c"] and packed != ["a"]
        assert packed != PackedStrings(["ab", ""]) and packed != PackedStrings(["a", "b", ""])
        assert packed != "ab" and PackedStrings() == [] and PackedStrings([""]) != PackedStrings()
        with pytest.raises(TypeError):
            hash(packed)

    def test_bad_index(self):
        packed = PackedStrings(["a", "b"])
        for index in (2, -3):
            with pytest.raises(IndexError):
                packed[index]
        with pytest.raises(TypeError):
            packed["a"]

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_write_comments_bytes(self, tmp_path, suffix):
        """Rows zipped from a table's columns and their times and like counts, as ``simgen`` writes
        them, are written in order, whatever chunk a row is in."""
        texts = ('say "hi", ok', "é\nline", "")
        rows = [make_comment_row(f"c{i:03d}", "v1", "u1", texts[i % 3], i, i % 2 or None) for i in range(2 * CHUNK + 1)]
        path = tmp_path / f"comments.{suffix}"
        table = CommentTable.from_rows(row[:4] for row in rows)
        write_comments(zip(*table.columns(), (row[4] for row in rows), (row[5] for row in rows)), path)
        header = ["comment_id", "video_id", "author_id", "text", "published_at", "like_count"]
        cells = [
            [*row[:4], (datetime(2024, 1, 1, tzinfo=timezone.utc) + timedelta(minutes=i)).isoformat(), row[5]]
            for i, row in enumerate(rows)
        ]
        if suffix == "csv":
            expected = io.StringIO()
            csv.writer(expected, lineterminator="\n").writerows([header, *([c if c is not None else "" for c in r] for r in cells)])
        else:
            expected = io.StringIO("".join(
                json.dumps({k: v for k, v in zip(header, r) if v is not None}, ensure_ascii=False, sort_keys=True) + "\n"
                for r in cells
            ))
        assert path.read_bytes() == expected.getvalue().encode("utf-8")
