"""Canonical data model and file ingestion.

Three record kinds make up a corpus: a channel registry, a video corpus,
and a comment corpus. Files are UTF-8 CSV (declared header) or JSON-lines,
one record per row/line, with ISO-8601 timestamps. Loaded collections are
validated, immutable, and safe to share across threads.
"""

from __future__ import annotations

import csv
import json
import logging
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from collabmetrics.errors import ConfigurationError, NoBaselineError, ValidationError

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
    "channel_baseline",
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

    orphans: tuple[CommentRecord, ...] = ()
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
# ValueError also covers UnicodeDecodeError).
_ROW_ERRORS = (KeyError, ValueError, TypeError, OverflowError)


def _read_rows(path: Path, tabular: bool, errors: str) -> Iterator[tuple[int, dict | str | _Malformed]]:
    if tabular:
        with path.open(newline="", encoding="utf-8", errors=errors) as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            end = reader.line_num  # physical lines read so far
            for cells in reader:
                # A record is numbered by its first physical line: a quoted
                # cell may hold newlines, and a blank line holds no record.
                line_no, end = end + 1, reader.line_num
                if not cells:
                    continue
                if len(cells) > len(header):
                    yield line_no, _Malformed(f"row has {len(cells)} cells but the header has {len(header)}")
                else:
                    # A short row lacks the keys of its missing cells.
                    yield line_no, dict(zip(header, cells))
    else:
        with path.open(encoding="utf-8", errors=errors) as fh:
            for i, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                yield i, line


@dataclass(frozen=True, slots=True)
class _Malformed:
    """A raw row already known to be malformed, for :func:`_row` to reject."""

    reason: str


@dataclass(frozen=True, slots=True)
class _Escaped:
    """A raw row read with ``surrogateescape``: each undecodable byte is a lone surrogate."""

    raw: dict | str | _Malformed

    def decode(self) -> dict | str | _Malformed:
        """The row decoded strictly; raises ``UnicodeDecodeError`` at its first bad byte."""
        if isinstance(self.raw, str):
            return _strict_utf8(self.raw)
        if isinstance(self.raw, _Malformed):
            return self.raw
        return {_strict_utf8(k): _strict_utf8(v) for k, v in self.raw.items()}


def _strict_utf8(text: str) -> str:
    return text.encode("utf-8", "surrogateescape").decode("utf-8")


def _iter_rows(
    path: Path, tabular: bool | None = None
) -> Iterator[tuple[int, dict | str | _Malformed | _Escaped]]:
    """Yield (line_number, raw_row) from a CSV or JSON-lines file.

    ``tabular`` says whether the file is CSV; by default its suffix
    decides. A CSV row arrives as a mapping and a JSON-lines row as its
    undecoded text, so a malformed line fails inside the caller's per-row
    handling. A file that fails its strict UTF-8 decode is read again with
    each bad byte escaped, and the rows not yet yielded arrive as
    :class:`_Escaped` for :func:`_row` to decode, so a bad byte costs only
    its own row.
    """
    if tabular is None:
        tabular = _is_csv(path)
    last = 0  # line number of the last row yielded
    try:
        for line_no, raw in _read_rows(path, tabular, "strict"):
            yield line_no, raw
            last = line_no
    except UnicodeDecodeError:
        for line_no, raw in _read_rows(path, tabular, "surrogateescape"):
            if line_no > last:
                yield line_no, _Escaped(raw)


def _row(raw: dict | str | _Malformed | _Escaped) -> dict:
    """The mapping behind one raw row.

    Raises ``ValueError`` for bad JSON, bad UTF-8 or a CSV row with more
    cells than its header.
    """
    if isinstance(raw, dict):
        return raw
    if isinstance(raw, _Malformed):
        raise ValueError(raw.reason)
    if isinstance(raw, _Escaped):
        return _row(raw.decode())
    row = json.loads(raw)
    if not isinstance(row, dict):
        raise ValueError(f"expected a JSON object, got {type(row).__name__}")
    return row


_T = TypeVar("_T")


def load_rows(path: str | Path, parse: Callable[[dict], _T], tabular: bool | None = None) -> Iterator[_T]:
    """Each row of a file that must be well-formed, through ``parse``.

    The file is CSV when ``tabular`` is true, JSON-lines when it is false,
    and by default CSV exactly when its suffix is ``.csv``. The first row
    that fails to parse raises :class:`ValidationError` naming the file
    and line.
    """
    path = Path(path)
    for line_no, raw in _iter_rows(path, tabular):
        try:
            value = parse(_row(raw))
        except _ROW_ERRORS as exc:
            raise ValidationError(f"{path.name}:{line_no}: {exc}") from exc
        yield value


def _opt_int(raw: object) -> int | None:
    if raw is None or raw == "":
        return None
    return int(raw)


def _registry_from_row(row: Mapping[str, object]) -> ChannelRecord:
    if "handles" in row and isinstance(row["handles"], str):
        handles = tuple(
            normalize_handle(h) for h in str(row["handles"]).split(_HANDLE_SEP) if h.strip()
        )
    else:
        handles = tuple(normalize_handle(h) for h in row.get("handles", ()))  # type: ignore[arg-type]
    if not handles:
        raise ValueError("channel has no handles")
    attributes = row.get("attributes")
    if attributes is None:
        # CSV flattening: every non-fixed column is an attribute.
        attributes = {k: str(v) for k, v in row.items() if k not in _REGISTRY_FIXED}
    return ChannelRecord(
        channel_id=str(row["channel_id"]),
        handles=handles,
        display_name=str(row.get("display_name", "")),
        attributes=dict(attributes),  # type: ignore[arg-type]
        community=str(row.get("community", "")),
    )


def _video_from_row(row: Mapping[str, object]) -> VideoRecord:
    view_count = int(row["view_count"])  # type: ignore[arg-type]
    if view_count < 0:
        raise ValueError(f"negative view_count {view_count}")
    return VideoRecord(
        video_id=str(row["video_id"]),
        channel_id=str(row["channel_id"]),
        published_at=_parse_timestamp(str(row["published_at"])),
        title=str(row.get("title", "")),
        description=str(row.get("description", "")),
        view_count=view_count,
        like_count=_opt_int(row.get("like_count")),
        comment_count=_opt_int(row.get("comment_count")),
    )


def _comment_from_row(row: Mapping[str, object]) -> CommentRecord:
    return CommentRecord(
        comment_id=str(row["comment_id"]),
        video_id=str(row["video_id"]),
        author_id=str(row["author_id"]),
        text=str(row.get("text", "")),
        published_at=_parse_timestamp(str(row["published_at"])),
        like_count=_opt_int(row.get("like_count")),
    )


# ---------------------------------------------------------------------------
# Loaders


def load_registry(path: str | Path, attribute_key: str = "gender") -> list[ChannelRecord]:
    """Load and validate the channel registry.

    Handle normalization is applied on load. Raises :class:`ValidationError`
    naming the offenders on duplicate channel ids, duplicate normalized
    handles, or a dyad-typing attribute that is missing or contains ``-``
    (the separator in dyad-type labels such as ``W-M``); the registry is
    the analysis universe, so it is loaded strictly rather than row-by-row.
    """
    records = list(load_rows(path, _registry_from_row))

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
    path: str | Path, registry: Sequence[ChannelRecord]
) -> tuple[list[VideoRecord], list[RowError]]:
    """Load videos, keeping well-formed rows and collecting the rest.

    Rows with an unknown channel, a duplicate video id, a negative view
    count, or a parse failure are diverted into the per-row error report
    instead of aborting the load. Returns records sorted by
    ``(channel_id, published_at)``.
    """
    path = Path(path)
    known = {ch.channel_id for ch in registry}
    records: list[VideoRecord] = []
    errors: list[RowError] = []
    seen: set[str] = set()
    for line_no, raw in _iter_rows(path):
        try:
            rec = _video_from_row(_row(raw))
        except _ROW_ERRORS as exc:
            errors.append(RowError(line_no, f"malformed row: {exc}"))
            continue
        if rec.channel_id not in known:
            errors.append(RowError(line_no, f"unknown channel_id {rec.channel_id!r}"))
            continue
        if rec.video_id in seen:
            errors.append(RowError(line_no, f"duplicate video_id {rec.video_id!r}"))
            continue
        seen.add(rec.video_id)
        records.append(rec)
    records.sort(key=lambda v: (v.channel_id, v.published_at))
    return records, errors


def load_comments(
    path: str | Path, videos: Sequence[VideoRecord]
) -> tuple[list[CommentRecord], CommentLoadReport]:
    """Load comments line by line (the corpus can be millions of rows).

    Comments pointing at an unknown video are diverted to the orphan
    report; malformed rows and duplicate comment ids go to the error
    report. Well-formed, referentially valid rows are always kept.
    """
    path = Path(path)
    known = {v.video_id for v in videos}
    records: list[CommentRecord] = []
    orphans: list[CommentRecord] = []
    errors: list[RowError] = []
    seen: set[str] = set()
    for line_no, raw in _iter_rows(path):
        try:
            rec = _comment_from_row(_row(raw))
        except _ROW_ERRORS as exc:
            errors.append(RowError(line_no, f"malformed row: {exc}"))
            continue
        if rec.comment_id in seen:
            errors.append(RowError(line_no, f"duplicate comment_id {rec.comment_id!r}"))
            continue
        seen.add(rec.comment_id)
        if rec.video_id not in known:
            orphans.append(rec)
            continue
        records.append(rec)
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


def load_corpus_dir(directory: str | Path, attribute_key: str = "gender") -> Corpus:
    """Load the :func:`corpus_files` of one directory.

    Row errors are tolerated (the accepted subset is analyzed); registry
    problems raise.
    """
    files = corpus_files(directory)
    registry = load_registry(files["registry"], attribute_key=attribute_key)
    videos, video_errors = load_videos(files["videos"], registry)
    comments, comment_report = load_comments(files["comments"], videos)
    if video_errors:
        logger.warning("%s: dropped %d malformed video row(s)", directory, len(video_errors))
    if comment_report.errors or comment_report.orphans:
        logger.warning(
            "%s: dropped %d malformed and %d orphan comment row(s)",
            directory,
            len(comment_report.errors),
            len(comment_report.orphans),
        )
    return build_corpus(registry, videos, comments)


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


def channel_baseline(
    channel_id: str,
    videos: Sequence[VideoRecord],
    exclude: frozenset[str] | set[str] = frozenset(),
) -> Fraction:
    """Median view count of a channel's videos outside ``exclude``.

    The exclusion set normally holds the channel's own collaboration
    videos so the baseline reflects solo performance. Raises
    :class:`NoBaselineError` when nothing is left; callers skip the dyad
    rather than treating the channel as a zero-view baseline.
    """
    views = [
        v.view_count
        for v in videos
        if v.channel_id == channel_id and v.video_id not in exclude
    ]
    if not views:
        raise NoBaselineError(
            f"channel {channel_id!r} has no videos after excluding {len(exclude)} video(s)"
        )
    return exact_median(views)


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
