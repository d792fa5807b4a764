"""Canonical data model and file ingestion.

Three record kinds make up a corpus: a channel registry, a video corpus,
and a comment corpus. Files are UTF-8 CSV (declared header) or JSON-lines,
one record per row/line, with ISO-8601 timestamps. Loaded collections are
validated, immutable, and safe to share across threads.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from collabmetrics.errors import ConfigurationError, ValidationError

__all__ = [
    "ChannelRecord",
    "VideoRecord",
    "CommentRecord",
    "Corpus",
    "RowError",
    "CommentLoadReport",
    "normalize_handle",
    "load_registry",
    "load_videos",
    "load_comments",
    "load_rows",
    "corpus_files",
    "load_corpus_dir",
    "write_registry",
    "write_videos",
    "write_comments",
    "write_corpus",
    "write_csv",
    "write_json",
    "write_jsonl",
    "exact_median",
    "cap_videos_per_channel",
]

logger = logging.getLogger(__name__)

# Fixed registry CSV columns; any other column is treated as an attribute.
_REGISTRY_FIXED = ("channel_id", "handles", "display_name", "community")
_HANDLE_SEP = "|"


def normalize_handle(handle: str) -> str:
    """Lowercase, strip a leading ``@`` and surrounding whitespace."""
    h = handle.strip()
    if h.startswith("@"):
        h = h[1:]
    return h.lower()


def _parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC."""
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def _format_timestamp(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).isoformat()


@dataclass(frozen=True, slots=True)
class ChannelRecord:
    """One creator channel in the analysis registry."""

    channel_id: str
    handles: tuple[str, ...]
    display_name: str
    attributes: Mapping[str, str]
    community: str

    def attribute(self, key: str) -> str:
        try:
            return self.attributes[key]
        except KeyError:
            raise ValidationError(
                f"channel {self.channel_id!r} has no attribute {key!r}"
            ) from None


@dataclass(frozen=True, slots=True)
class VideoRecord:
    """One published video with its engagement metadata."""

    video_id: str
    channel_id: str
    published_at: datetime
    title: str
    description: str
    view_count: int
    like_count: int | None = None
    comment_count: int | None = None


@dataclass(frozen=True, slots=True)
class CommentRecord:
    """One audience comment below a video."""

    comment_id: str
    video_id: str
    author_id: str
    text: str
    published_at: datetime
    like_count: int | None = None


@dataclass(frozen=True)
class RowError:
    """A rejected input row: 1-based line number plus the reason."""

    line: int
    message: str


@dataclass(frozen=True)
class CommentLoadReport:
    """Side-channel output of comment loading."""

    orphans: tuple[RowError, ...] = ()
    errors: tuple[RowError, ...] = ()


@dataclass(frozen=True)
class Corpus:
    """A validated registry + videos + comments for one community."""

    registry: tuple[ChannelRecord, ...]
    videos: tuple[VideoRecord, ...]
    comments: tuple[CommentRecord, ...]
    community: str

    def channels_by_id(self) -> dict[str, ChannelRecord]:
        return {ch.channel_id: ch for ch in self.registry}

    def videos_by_id(self) -> dict[str, VideoRecord]:
        return {v.video_id: v for v in self.videos}

    def videos_by_channel(self) -> dict[str, list[VideoRecord]]:
        out: dict[str, list[VideoRecord]] = {ch.channel_id: [] for ch in self.registry}
        for v in self.videos:
            out[v.channel_id].append(v)
        return out


def build_corpus(
    registry: Sequence[ChannelRecord],
    videos: Sequence[VideoRecord],
    comments: Sequence[CommentRecord],
    community: str | None = None,
) -> Corpus:
    """Assemble a corpus, enforcing referential integrity and a single community."""
    communities = {ch.community for ch in registry}
    if len(communities) > 1:
        raise ValidationError(f"registry spans multiple communities: {sorted(communities)}")
    if community is None:
        community = next(iter(communities)) if communities else ""
    channel_ids = {ch.channel_id for ch in registry}
    for v in videos:
        if v.channel_id not in channel_ids:
            raise ValidationError(f"video {v.video_id!r} references unknown channel {v.channel_id!r}")
    video_ids = {v.video_id for v in videos}
    for c in comments:
        if c.video_id not in video_ids:
            raise ValidationError(f"comment {c.comment_id!r} references unknown video {c.video_id!r}")
    return Corpus(tuple(registry), tuple(videos), tuple(comments), community)


# ---------------------------------------------------------------------------
# Row codecs


def _is_csv(path: Path) -> bool:
    return path.suffix.lower() == ".csv"


# Raised by a malformed row (OverflowError: int() of a JSON-lines Infinity;
# ValueError also covers UnicodeDecodeError and bad JSON).
_ROW_ERRORS = (KeyError, ValueError, TypeError, OverflowError, csv.Error)

_T = TypeVar("_T")


def _csv_records(lines: Iterator[str]) -> Iterator[tuple[int, list[str] | csv.Error]]:
    """Each CSV record with its first physical line; one that ``csv`` cannot read is its error.

    A quoted cell may hold newlines, so a record can span several lines; a
    blank line holds no record.
    """
    reader = csv.reader(lines)
    end = 0  # physical lines read so far
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            record = exc  # the reader resumes at the next line
        line_no, end = end + 1, reader.line_num
        if record:
            yield line_no, record


class _HashingReader(io.RawIOBase):
    """A binary file that feeds every byte read from it to ``sha256``."""

    def __init__(self, path: Path, sha256) -> None:
        self._raw = path.open("rb", buffering=0)
        self._sha256 = sha256

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int | None:
        n = self._raw.readinto(buffer)
        if n:
            self._sha256.update(memoryview(buffer)[:n])
        return n

    def close(self) -> None:
        self._raw.close()
        super().close()


def _rows(
    path: Path, parse: Callable[[dict], _T], tabular: bool | None = None, sha256=None
) -> Iterator[tuple[int, _T | Exception]]:
    """Yield ``(line, parse(row))`` for each good row of a file and ``(line, error)`` for each bad one.

    The file is CSV when ``tabular`` is true, JSON-lines when it is false,
    and by default CSV exactly when its suffix is ``.csv``. It is opened and
    read once; a ``hashlib`` object ``sha256`` is fed its bytes as they are
    read. A physical line holding a byte that is not UTF-8 makes its row a
    ``UnicodeDecodeError``. Bad JSON, a CSV record that ``csv`` cannot read
    or that has more cells than its header, and a row that ``parse``
    rejects are that row's error. A CSV row is numbered by its first
    physical line, and a short one lacks the keys of its missing cells.
    """
    if tabular is None:
        tabular = _is_csv(path)
    bad: list[UnicodeDecodeError] = []  # one per undecodable line of the record being read

    def checked(lines: Iterable[str]) -> Iterator[str]:
        for line in lines:
            # An undecodable byte was read as a lone surrogate, the one character that fails to encode.
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    try:  # decoding the line's bytes again names its first bad byte
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        bad.append(exc)
            yield line

    binary = io.BufferedReader(_HashingReader(path, hashlib.sha256() if sha256 is None else sha256))
    with io.TextIOWrapper(binary, encoding="utf-8", errors="surrogateescape", newline="" if tabular else None) as fh:
        if tabular:
            records = _csv_records(checked(fh))
            _, header = next(records, (0, []))
            if bad:  # no row can be read against this header
                header = bad[0]
                bad.clear()
        else:
            records = ((i, text) for i, text in enumerate(checked(fh), 1) if text.strip())
        for line_no, raw in records:
            try:
                if bad:
                    raise bad[0]
                if isinstance(raw, str):
                    row = json.loads(raw)
                    if not isinstance(row, dict):
                        raise ValueError(f"expected a JSON object, got {type(row).__name__}")
                elif isinstance(raw, Exception):
                    raise raw
                elif isinstance(header, Exception):
                    raise ValueError(f"header: {header}")
                elif len(raw) > len(header):
                    raise ValueError(f"row has {len(raw)} cells but the header has {len(header)}")
                else:
                    row = dict(zip(header, raw))
                value = parse(row)
            except _ROW_ERRORS as exc:
                value = exc
            bad.clear()
            yield line_no, value


def load_rows(
    path: str | Path, parse: Callable[[dict], _T], tabular: bool | None = None, sha256=None
) -> Iterator[_T]:
    """Each row of a file that must be well-formed, through ``parse``.

    The file is read (and ``sha256`` fed) as :func:`_rows` reads it. The
    first bad row raises :class:`ValidationError` naming the file and line.
    """
    path = Path(path)
    for line_no, value in _rows(path, parse, tabular, sha256):
        if isinstance(value, Exception):
            raise ValidationError(f"{path.name}:{line_no}: {value}") from value
        yield value


def _text(value: object, what: str) -> str:
    """``value`` itself if it is a string; a JSON-lines row may hold any JSON value."""
    if not isinstance(value, str):
        raise ValueError(f"{what} {value!r} is not a string")
    return value


def _count(value: object, what: str) -> int:
    """``value`` as ``int()`` reads it; a bool, or a float with a fractional part, is no count."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)  # type: ignore[call-overload]


def _opt_count(row: Mapping[str, object], key: str) -> int | None:
    raw = row.get(key)
    return None if raw is None or raw == "" else _count(raw, key)


def _registry_from_row(row: Mapping[str, object]) -> ChannelRecord:
    handles = row.get("handles", ())
    if isinstance(handles, str):  # CSV: one cell of "|"-separated handles
        handles = handles.split(_HANDLE_SEP)
    # A handle empty once normalized is dropped; a non-string is a row error.
    handles = tuple(h for h in (normalize_handle(_text(h, "handle")) for h in handles) if h)
    if not handles:
        raise ValueError("channel has no handles")
    attributes = row.get("attributes")
    if attributes is None:
        # CSV flattening: every non-fixed column is an attribute.
        attributes = {k: v for k, v in row.items() if k not in _REGISTRY_FIXED}
    return ChannelRecord(
        channel_id=_text(row["channel_id"], "channel_id"),
        handles=handles,
        display_name=_text(row.get("display_name", ""), "display_name"),
        attributes={k: _text(v, f"attribute {k!r} value") for k, v in dict(attributes).items()},  # type: ignore[call-overload]
        community=_text(row.get("community", ""), "community"),
    )


def _video_from_row(channels: dict[str, str], row: Mapping[str, object]) -> VideoRecord:
    """A video whose ``channel_id``, when ``channels`` holds it, is that one string."""
    view_count = _count(row["view_count"], "view_count")
    if view_count < 0:
        raise ValueError(f"negative view_count {view_count}")
    video_id = _text(row["video_id"], "video_id")
    channel_id = _text(row["channel_id"], "channel_id")
    return VideoRecord(
        video_id=video_id,
        channel_id=channels.get(channel_id, channel_id),
        published_at=_parse_timestamp(_text(row["published_at"], "published_at")),
        title=_text(row.get("title", ""), "title"),
        description=_text(row.get("description", ""), "description"),
        view_count=view_count,
        like_count=_opt_count(row, "like_count"),
        comment_count=_opt_count(row, "comment_count"),
    )


def _comment_from_row(
    videos: dict[str, str], authors: dict[str, str], row: Mapping[str, object]
) -> CommentRecord:
    """A comment whose ids share strings: the ``video_id`` that ``videos`` holds, and the
    first equal ``author_id``, which ``authors`` collects."""
    comment_id = _text(row["comment_id"], "comment_id")
    video_id = _text(row["video_id"], "video_id")
    author_id = _text(row["author_id"], "author_id")
    return CommentRecord(
        comment_id=comment_id,
        video_id=videos.get(video_id, video_id),
        author_id=authors.setdefault(author_id, author_id),
        text=_text(row.get("text", ""), "text"),
        published_at=_parse_timestamp(_text(row["published_at"], "published_at")),
        like_count=_opt_count(row, "like_count"),
    )


# ---------------------------------------------------------------------------
# Loaders


def load_registry(path: str | Path, attribute_key: str = "gender", sha256=None) -> list[ChannelRecord]:
    """Load and validate the channel registry.

    Handle normalization is applied on load. Raises :class:`ValidationError`
    naming the offenders on duplicate channel ids, duplicate normalized
    handles, or a dyad-typing attribute that is missing or contains ``-``
    (the separator in dyad-type labels such as ``W-M``); the registry is
    the analysis universe, so it is loaded strictly rather than row-by-row.
    A ``hashlib`` object ``sha256`` is fed the file's bytes as they are read.
    """
    records = list(load_rows(path, _registry_from_row, sha256=sha256))

    problems: list[str] = []
    id_owners: dict[str, str] = {}
    for rec in records:
        if rec.channel_id in id_owners:
            problems.append(f"duplicate channel_id {rec.channel_id!r}")
        id_owners[rec.channel_id] = rec.channel_id
    handle_owners: dict[str, list[str]] = {}
    for rec in records:
        for h in rec.handles:
            handle_owners.setdefault(h, []).append(rec.channel_id)
    for h, owners in sorted(handle_owners.items()):
        if len(owners) > 1:
            problems.append(f"handle {h!r} shared by channels {owners}")
    for rec in records:
        if attribute_key not in rec.attributes:
            problems.append(f"channel {rec.channel_id!r} missing attribute {attribute_key!r}")
        elif "-" in str(rec.attributes[attribute_key]):
            problems.append(
                f"channel {rec.channel_id!r}: {attribute_key!r} value "
                f"{rec.attributes[attribute_key]!r} contains '-', the dyad-type separator"
            )
    if problems:
        raise ValidationError("; ".join(problems))
    return records


def load_videos(
    path: str | Path, registry: Sequence[ChannelRecord], sha256=None
) -> tuple[list[VideoRecord], list[RowError]]:
    """Load videos, keeping well-formed rows and collecting the rest.

    Rows with an unknown channel, a duplicate video id, a negative view
    count, or a parse failure are diverted into the per-row error report
    instead of aborting the load. Returns records sorted by
    ``(channel_id, published_at)``; each record's ``channel_id`` is its
    registry record's string. ``sha256`` is fed the file's bytes.
    """
    path = Path(path)
    known = {ch.channel_id: ch.channel_id for ch in registry}
    records: list[VideoRecord] = []
    errors: list[RowError] = []
    seen: set[str] = set()
    for line_no, rec in _rows(path, partial(_video_from_row, known), sha256=sha256):
        if isinstance(rec, Exception):
            errors.append(RowError(line_no, f"malformed row: {rec}"))
        elif rec.channel_id not in known:
            errors.append(RowError(line_no, f"unknown channel_id {rec.channel_id!r}"))
        elif rec.video_id in seen:
            errors.append(RowError(line_no, f"duplicate video_id {rec.video_id!r}"))
        else:
            seen.add(rec.video_id)
            records.append(rec)
    records.sort(key=lambda v: (v.channel_id, v.published_at))
    return records, errors


def load_comments(
    path: str | Path, videos: Sequence[VideoRecord], sha256=None
) -> tuple[list[CommentRecord], CommentLoadReport]:
    """Load comments line by line (the corpus can be millions of rows).

    A comment pointing at an unknown video is an orphan, a row error naming
    its ``video_id``; malformed rows and duplicate comment ids go to the
    error report. Well-formed, referentially valid rows are always kept. A kept
    comment's ``video_id`` is its video record's string, and equal
    ``author_id`` values are one string, so a comment keeps only the bytes
    of its own id, text and time. ``sha256`` is fed the file's bytes.
    """
    path = Path(path)
    known = {v.video_id: v.video_id for v in videos}
    records: list[CommentRecord] = []
    orphans: list[RowError] = []
    errors: list[RowError] = []
    seen: set[str] = set()
    authors: dict[str, str] = {}
    for line_no, rec in _rows(path, partial(_comment_from_row, known, authors), sha256=sha256):
        if isinstance(rec, Exception):
            errors.append(RowError(line_no, f"malformed row: {rec}"))
        elif rec.comment_id in seen:
            errors.append(RowError(line_no, f"duplicate comment_id {rec.comment_id!r}"))
        else:
            seen.add(rec.comment_id)
            if rec.video_id in known:
                records.append(rec)
            else:
                orphans.append(RowError(line_no, f"unknown video_id {rec.video_id!r}"))
    return records, CommentLoadReport(tuple(orphans), tuple(errors))


def corpus_files(directory: str | Path) -> dict[str, Path]:
    """The ``registry``, ``videos`` and ``comments`` files of one directory.

    Each is the ``.jsonl`` spelling if present, else the ``.csv`` one;
    raises :class:`FileNotFoundError` when neither exists.
    """
    directory = Path(directory)

    def find(stem: str) -> Path:
        for suffix in (".jsonl", ".csv"):
            candidate = directory / f"{stem}{suffix}"
            if candidate.exists():
                return candidate
        raise FileNotFoundError(f"no {stem}.jsonl or {stem}.csv in {directory}")

    return {stem: find(stem) for stem in ("registry", "videos", "comments")}


def load_corpus_dir(
    directory: str | Path, attribute_key: str = "gender"
) -> tuple[Corpus, dict[str, int], dict[str, str]]:
    """Load the :func:`corpus_files` of one directory, with the rows it dropped and the files' digests.

    Row errors are tolerated (the accepted subset is analyzed) and counted
    as ``video_row_errors``, ``comment_row_errors`` and ``orphan_comments``;
    registry problems raise. The digests are the hex SHA-256 of each
    file's bytes, by file name, taken as the file is loaded.
    """
    files = corpus_files(directory)
    hashes = {stem: hashlib.sha256() for stem in files}
    registry = load_registry(files["registry"], attribute_key=attribute_key, sha256=hashes["registry"])
    videos, video_errors = load_videos(files["videos"], registry, sha256=hashes["videos"])
    comments, comment_report = load_comments(files["comments"], videos, sha256=hashes["comments"])
    if video_errors:
        logger.warning("%s: dropped %d malformed video row(s)", directory, len(video_errors))
    if comment_report.errors or comment_report.orphans:
        logger.warning(
            "%s: dropped %d malformed and %d orphan comment row(s)",
            directory,
            len(comment_report.errors),
            len(comment_report.orphans),
        )
    dropped = {
        "video_row_errors": len(video_errors),
        "comment_row_errors": len(comment_report.errors),
        "orphan_comments": len(comment_report.orphans),
    }
    digests = {files[stem].name: h.hexdigest() for stem, h in hashes.items()}
    return build_corpus(registry, videos, comments), dropped, digests


# ---------------------------------------------------------------------------
# Writers (inverse of the loaders; round-trip preserves records field-for-field)


def _registry_to_row(rec: ChannelRecord) -> dict:
    return {
        "channel_id": rec.channel_id,
        "handles": list(rec.handles),
        "display_name": rec.display_name,
        "attributes": dict(rec.attributes),
        "community": rec.community,
    }


def _video_to_row(rec: VideoRecord) -> dict:
    row = {
        "video_id": rec.video_id,
        "channel_id": rec.channel_id,
        "published_at": _format_timestamp(rec.published_at),
        "title": rec.title,
        "description": rec.description,
        "view_count": rec.view_count,
    }
    if rec.like_count is not None:
        row["like_count"] = rec.like_count
    if rec.comment_count is not None:
        row["comment_count"] = rec.comment_count
    return row


def _comment_to_row(rec: CommentRecord) -> dict:
    row = {
        "comment_id": rec.comment_id,
        "video_id": rec.video_id,
        "author_id": rec.author_id,
        "text": rec.text,
        "published_at": _format_timestamp(rec.published_at),
    }
    if rec.like_count is not None:
        row["like_count"] = rec.like_count
    return row


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write one table; a cell holding a comma, quote or newline is quoted (RFC 4180)."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        # csv before Python 3.13 quotes a lone "\r" only when it is in the row
        # terminator, so rows end in CRLF for csv and are written with LF.
        lf_file = SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n"))
        writer = csv.writer(lf_file, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


# One encoder for all rows; ``json.dumps`` with these options builds one per call.
_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(_ROW_ENCODER.encode(row))
            fh.write("\n")


def write_json(path: str | Path, payload: object) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def write_registry(records: Sequence[ChannelRecord], path: str | Path) -> None:
    path = Path(path)
    if _is_csv(path):
        attr_keys = sorted({k for rec in records for k in rec.attributes})
        header = ["channel_id", "handles", "display_name", "community", *attr_keys]
        write_csv(
            path,
            header,
            (
                [
                    rec.channel_id,
                    _HANDLE_SEP.join(rec.handles),
                    rec.display_name,
                    rec.community,
                    *[rec.attributes.get(k, "") for k in attr_keys],
                ]
                for rec in records
            ),
        )
    else:
        write_jsonl(path, (_registry_to_row(r) for r in records))


def _write_tabular(
    path: Path, rows: list[dict], header: Sequence[str]
) -> None:
    if _is_csv(path):
        write_csv(path, header, ([row.get(k, "") for k in header] for row in rows))
    else:
        write_jsonl(path, rows)


def write_videos(records: Sequence[VideoRecord], path: str | Path) -> None:
    header = [
        "video_id", "channel_id", "published_at", "title", "description",
        "view_count", "like_count", "comment_count",
    ]
    _write_tabular(Path(path), [_video_to_row(r) for r in records], header)


def write_comments(records: Sequence[CommentRecord], path: str | Path) -> None:
    header = ["comment_id", "video_id", "author_id", "text", "published_at", "like_count"]
    _write_tabular(Path(path), [_comment_to_row(r) for r in records], header)


def write_corpus(corpus: Corpus, directory: str | Path, fmt: str = "jsonl") -> dict[str, Path]:
    """Write the three corpus files into ``directory``; returns their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    suffix = ".csv" if fmt == "csv" else ".jsonl"
    paths = {
        "registry": directory / f"registry{suffix}",
        "videos": directory / f"videos{suffix}",
        "comments": directory / f"comments{suffix}",
    }
    write_registry(corpus.registry, paths["registry"])
    write_videos(corpus.videos, paths["videos"])
    write_comments(corpus.comments, paths["comments"])
    return paths


# ---------------------------------------------------------------------------
# Baselines


def exact_median(values: Sequence[int] | Sequence[Fraction]) -> Fraction:
    """Median over exact integers or fractions; even counts take the rational midpoint."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return Fraction(ordered[mid])
    return Fraction(ordered[mid - 1] + ordered[mid], 2)


def attribute_histogram(registry: Sequence[ChannelRecord], key: str) -> Counter:
    return Counter(rec.attributes.get(key) for rec in registry)


def cap_videos_per_channel(videos: Sequence[VideoRecord], cap: int) -> list[VideoRecord]:
    """Keep at most ``cap`` most recent videos per channel (platform-style cap).

    Raises :class:`ConfigurationError` when ``cap`` is below 1.
    """
    if cap < 1:
        raise ConfigurationError(f"max videos per channel must be at least 1, got {cap}")
    by_channel: dict[str, list[VideoRecord]] = {}
    for v in videos:
        by_channel.setdefault(v.channel_id, []).append(v)
    kept: list[VideoRecord] = []
    for channel_videos in by_channel.values():
        channel_videos.sort(key=lambda v: v.published_at)
        kept.extend(channel_videos[-cap:])
    kept.sort(key=lambda v: (v.channel_id, v.published_at))
    return kept
