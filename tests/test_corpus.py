"""Corpus loading, validation, serialization round-trips, and baselines."""

from __future__ import annotations

import csv
import dataclasses
import gc
import json
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabmetrics.collab import HandleIndex
from collabmetrics.corpus import (
    ChannelRecord,
    RowError,
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

from .conftest import make_channel, make_comment, make_video


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
        assert records == []
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
        records, report = load_comments(path, videos)
        assert len(records) == 4
        assert report.orphans == (RowError(5, "unknown video_id 'nope'"),)

    def test_empty_text_is_valid(self, tmp_path):
        videos = [make_video("v1", "A")]
        rows = [{"comment_id": "c1", "video_id": "v1", "author_id": "u1",
                 "text": "", "published_at": "2024-01-01T00:00:00Z"}]
        path = tmp_path / "comments.jsonl"
        write_jsonl(path, rows)
        records, report = load_comments(path, videos)
        assert len(records) == 1 and records[0].text == ""
        assert report.errors == ()

    def test_duplicate_comment_id_rejected(self, tmp_path):
        videos = [make_video("v1", "A")]
        row = {"comment_id": "c1", "video_id": "v1", "author_id": "u1",
               "text": "x", "published_at": "2024-01-01T00:00:00Z"}
        path = tmp_path / "comments.jsonl"
        write_jsonl(path, [row, row])
        records, report = load_comments(path, videos)
        assert len(records) == 1
        assert len(report.errors) == 1


    def test_truncated_and_non_object_lines_are_row_errors(self, tmp_path):
        videos = [make_video("v1", "A")]
        row = {"comment_id": "c1", "video_id": "v1", "author_id": "u1",
               "text": "x", "published_at": "2024-01-01T00:00:00Z"}
        path = tmp_path / "comments.jsonl"
        path.write_text(
            "\n".join([json.dumps(row)[:30], "[1, 2]", "", json.dumps(row)]) + "\n", encoding="utf-8"
        )
        records, report = load_comments(path, videos)
        assert [c.comment_id for c in records] == ["c1"]
        assert [e.line for e in report.errors] == [1, 2]
        assert "JSON object" in report.errors[1].message


class TestRoundTrip:
    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_registry_round_trip(self, tmp_path, suffix):
        records = [make_channel("A", ("one", "two"), gender="W"), make_channel("B", "b")]
        path = tmp_path / f"registry.{suffix}"
        write_registry(records, path)
        assert load_registry(path) == records

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_videos_round_trip(self, tmp_path, suffix):
        registry = [make_channel("A", "a")]
        records = [
            make_video("v1", "A", views=12, description="multi\nline, with commas"),
            make_video("v2", "A", views=0, offset_hours=3, like_count=4, comment_count=1, description="lone\rCR"),
        ]
        path = tmp_path / f"videos.{suffix}"
        write_videos(records, path)
        loaded, errors = load_videos(path, registry)
        assert errors == []
        assert loaded == records

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_comments_round_trip(self, tmp_path, suffix):
        videos = [make_video("v1", "A")]
        records = [
            make_comment("c1", "v1", "u1", 'text with "quotes" and, commas'),
            make_comment("c2", "v1", "u2", "", like_count=3),
        ]
        path = tmp_path / f"comments.{suffix}"
        write_comments(records, path)
        loaded, report = load_comments(path, videos)
        assert report.errors == () and report.orphans == ()
        assert loaded == records


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
        records, report = load_comments(path, [make_video("v1", "A"), make_video("v2", "A")])
        assert len(records) + len(report.errors) + len(report.orphans) == n_rows


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
            write_videos([make_video(f"v{i:03d}", "A", description=t) for i, t in enumerate(texts)], path)
        else:
            write_comments([make_comment(f"c{i:03d}", "v1", "u1", text=t) for i, t in enumerate(texts)], path)
        path.write_bytes(path.read_bytes().replace(b"BAD", b"B\xffD"))
        if kind == "videos":
            records, errors = load_videos(path, [make_channel("A", "a")])
            kept = {v.description for v in records}
        else:
            records, report = load_comments(path, [make_video("v1", "A")])
            errors, kept = report.errors, {c.text for c in records}
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
        records, report = load_comments(path, [make_video("v1", "A")])
        assert [c.comment_id for c in records] == (["c2"] if escaped else ["c0", "c2"])
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
            [make_comment(f"c{i:03d}", "v1", "u1", text=f"{'BAD' if i == bad else 'ok'}\nmore") for i in range(400)],
            path,
        )
        path.write_bytes(path.read_bytes().replace(b"BAD", b"B\xffD"))
        records, report = load_comments(path, [make_video("v1", "A")])
        assert [e.line for e in report.errors] == [2 + 2 * bad]
        assert [c.comment_id for c in records] == [f"c{i:03d}" for i in range(400) if i != bad]


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
        records, report = load_comments(path, [make_video("v1", "A")])
        assert [c.comment_id for c in records] == ["c0", "c2"]
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
        records, report = load_comments(path, [make_video("v1", "A")])
        assert records == []
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
    capped = cap_videos_per_channel(videos, cap=2)
    ids = {v.video_id for v in capped}
    assert ids == {"v4", "v5", "w0"}


@pytest.mark.parametrize("cap", [0, -3])
def test_cap_below_one_rejected(cap):
    videos = [make_video(f"v{i}", "A", offset_hours=i) for i in range(4)]
    with pytest.raises(ConfigurationError, match="at least 1"):
        cap_videos_per_channel(videos, cap=cap)


@pytest.mark.parametrize(
    "record",
    [
        make_channel("A", "a"),
        make_video("v1", "A"),
        make_comment("c1", "v1", "u1", "hi"),
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_are_slotted_and_frozen(record):
    assert not hasattr(record, "__dict__")
    field = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, "x")
    if not isinstance(record, ChannelRecord):  # its attributes mapping is a dict
        hash(record)


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
        assert HandleIndex(registry).scan(make_video("b1", "B", description="just a solo stream, no guests")) == set()

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
        ],
    )
    def test_comment_row_error(self, tmp_path, fields, message):
        path = tmp_path / "comments.jsonl"
        write_jsonl(path, [_comment_row(comment_id="c0"), _comment_row(**fields)])
        records, report = load_comments(path, [make_video("v1", "A")])
        assert [c.comment_id for c in records] == ["c0"] and report.orphans == ()
        assert report.errors == (RowError(2, f"malformed row: {message}"),)

    def test_integral_counts_still_load(self, tmp_path):
        path = tmp_path / "videos.jsonl"
        write_jsonl(path, [_video_row(view_count=3.0, like_count="12", comment_count=None)])
        (video,), errors = load_videos(path, [make_channel("A", "a")])
        assert errors == [] and (video.view_count, video.like_count, video.comment_count) == (3, 12, None)


class TestSharedIdStrings:
    """Loaded records share their id strings instead of holding copies."""

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_ids_are_shared(self, tmp_path, suffix):
        registry = [make_channel("A", "a"), make_channel("B", "b")]
        write_videos([make_video(f"v{i}", "AB"[i % 2]) for i in range(4)], tmp_path / f"videos.{suffix}")
        videos, _ = load_videos(tmp_path / f"videos.{suffix}", registry)
        comments = [make_comment(f"c{i}", f"v{i % 5}", f"u{i % 3}") for i in range(30)]
        write_comments(comments, tmp_path / f"comments.{suffix}")
        records, report = load_comments(tmp_path / f"comments.{suffix}", videos)

        channel_ids = {ch.channel_id: ch.channel_id for ch in registry}
        assert all(v.channel_id is channel_ids[v.channel_id] for v in videos)
        video_ids = {v.video_id: v.video_id for v in videos}
        assert len(records) == 24 and len(report.orphans) == 6  # v4 is not a video
        assert all(c.video_id is video_ids[c.video_id] for c in records)
        authors: dict[str, str] = {}
        for c in records:
            assert authors.setdefault(c.author_id, c.author_id) is c.author_id
        assert len(authors) == 3


def test_bytes_kept_per_comment(tmp_path):
    """A loaded comment keeps its own id, text and time, not copies of shared ids.

    4,000 comments on 250 videos by 1,000 authors, shaped like the
    simulator's. Each used to keep about 400 bytes, 125 of them in copies of
    its video and author ids.
    """
    videos = [make_video(f"game-v{i // 10:03d}-{i % 10:04d}", "A") for i in range(250)]
    path = tmp_path / "comments.jsonl"
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
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        records, report = load_comments(path, videos)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(records) == 4_000 and not report.errors
    assert kept / len(records) <= 340
