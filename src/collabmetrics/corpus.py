"""Canonical data model and file ingestion.

Three record kinds make up a corpus: a channel registry, a video corpus,
and a comment corpus. Files are UTF-8 CSV (declared header) or JSON-lines,
one record per row/line, with ISO-8601 timestamps. Channels load as records.
Videos load as one table of columns, a video's time as whole microseconds
since 1970-01-01 UTC; iterating it gives one record per video. The
comments, by far the most rows, are not held: a loaded corpus's comments are
its :class:`CommentFile`, read in one pass that hands each step of accepted
comments to a :class:`CommentFold`, which keeps only what it counts. A
comment's time and like count are checked, not kept. A corpus built in memory
holds its comments as a :class:`CommentTable`, which feeds the same folds.
Loaded collections are validated, immutable, and safe to share across
threads.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import json.scanner
import logging
import operator
import os
from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, compress, count, groupby, islice, repeat, tee
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, TypeVar

from collabmetrics.errors import ConfigurationError, ValidationError

__all__ = [
    "ChannelRecord",
    "VideoRecord",
    "CHUNK",
    "STEP",
    "PackedStrings",
    "VideoTable",
    "CommentTable",
    "CommentFold",
    "CommentFile",
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


_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def _iso_text(value: str) -> str:
    """``value`` without surrounding space and with a trailing ``Z`` as ``+00:00``, which
    ``datetime.fromisoformat`` reads before Python 3.11 too. A time that it reads
    unchanged reads to the same instant after this rewrite."""
    text = value.strip()
    return text[:-1] + "+00:00" if text.endswith(("Z", "z")) else text


def _parse_timestamp(value: str) -> int:
    """An ISO-8601 timestamp as whole microseconds since 1970-01-01 UTC; naive values are taken as UTC.

    A time whose UTC falls outside years 1-9999 raises ``OverflowError``.
    """
    try:
        dt = datetime.fromisoformat(value)
    except ValueError:
        dt = datetime.fromisoformat(_iso_text(value))
    if dt.tzinfo is not timezone.utc:
        dt = dt.replace(tzinfo=timezone.utc) if dt.tzinfo is None else dt.astimezone(timezone.utc)
    return (dt - _UNIX_EPOCH) // _MICROSECOND


def _format_epoch_us(us: int) -> str:
    """The ISO-8601 form, offset ``+00:00``, of the UTC time ``us`` microseconds after 1970-01-01."""
    return (_UNIX_EPOCH + timedelta(microseconds=us)).isoformat()


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
    """One published video with its engagement metadata; ``published_us`` is UTC microseconds since 1970-01-01."""

    video_id: str
    channel_id: str
    published_us: int
    title: str
    description: str
    view_count: int
    like_count: int | None = None
    comment_count: int | None = None


# One row of a comments file as :func:`write_comments` takes it:
# (comment_id, video_id, author_id, text, published_us, like_count).
CommentRow = tuple[str, str, str, str, int, int | None]


def _frozen(column: list) -> tuple:
    """``column`` as a tuple; the list is emptied, so only one column at a time is held twice."""
    frozen = tuple(column)
    column.clear()
    return frozen


# Strings packed into one ``str`` by :class:`PackedStrings`, and the rows of one
# step of :meth:`CommentTable.fold`, which ``discourse.DiscourseCounts.add``
# tokenises together (a comments file's steps are ``STEP`` rows).
CHUNK = 256


class PackedStrings(Sequence[str]):
    """A read-only sequence of strings, ``CHUNK`` of them joined into one ``str``.

    Each string's end within its chunk is kept in an ``array('I')``, so a
    string costs its characters and 4 bytes rather than a ``str`` object
    and a tuple slot. CPython stores a chunk as wide as its widest
    character: non-ASCII text widens only its own chunk. A slice is a list
    of strings. The sequence equals any sequence, other than a ``str``,
    that holds the same strings.
    """

    __slots__ = ("_chunks", "_ends")

    def __init__(self, strings: Iterable[str] = ()) -> None:
        self._chunks: list[str] = []
        self._ends = array("I")
        strings = iter(strings)
        while chunk := list(islice(strings, CHUNK)):
            self._pack(chunk)

    def _pack(self, strings: Sequence[str]) -> None:
        """Append the next chunk: ``CHUNK`` strings, or fewer for the last one."""
        self._chunks.append("".join(strings))
        self._ends.extend(accumulate(map(len, strings)))

    def _run(self, start: int, stop: int) -> list[str]:
        """Strings ``start`` to ``stop - 1``, all of one chunk."""
        chunk, ends = self._chunks[start // CHUNK], self._ends[start:stop]
        starts = self._ends[start - 1:stop - 1] if start % CHUNK else chain((0,), ends)
        return [chunk[i:j] for i, j in zip(starts, ends)]

    def __len__(self) -> int:
        return len(self._ends)

    def __getitem__(self, index: int | slice) -> str | list[str]:
        indices = range(len(self._ends))[index]  # checked and made positive as a tuple does it
        if isinstance(indices, int):
            start = self._ends[indices - 1] if indices % CHUNK else 0
            return self._chunks[indices // CHUNK][start:self._ends[indices]]
        if indices.step != 1 or not indices:
            return [self[i] for i in indices]
        # Cut at the chunk boundaries inside the slice: one run per chunk.
        start, stop = indices.start, indices.stop
        cuts = [start, *range(start - start % CHUNK + CHUNK, stop, CHUNK), stop]
        return list(chain.from_iterable(map(self._run, cuts, cuts[1:])))

    def __iter__(self) -> Iterator[str]:
        n = len(self._ends)
        return chain.from_iterable(self._run(start, min(start + CHUNK, n)) for start in range(0, n, CHUNK))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedStrings):
            return self._ends == other._ends and self._chunks == other._chunks
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"PackedStrings({list(self)!r})"


def _columns_of(steps: Iterable[Iterable[Iterable]], kinds: Sequence[type]) -> list:
    """The columns of the rows of each step, in order, column ``i`` a ``kinds[i]``.

    A step is one iterable of cells per column, all of one length. A kind
    is ``tuple``, ``array`` (of typecode ``q``) or :class:`PackedStrings`,
    whose strings wait until ``CHUNK`` of them can be packed together.
    """
    columns: list = [array("q") if kind is array else [] for kind in kinds]
    packed = [(i, PackedStrings()) for i, kind in enumerate(kinds) if kind is PackedStrings]
    for step in steps:
        for column, cells in zip(columns, step):
            column.extend(cells)
        for i, strings in packed:
            due = columns[i]
            while len(due) >= CHUNK:
                strings._pack(due[:CHUNK])
                del due[:CHUNK]
    for i, strings in packed:
        if columns[i]:
            strings._pack(columns[i])
        columns[i] = strings
    return [_frozen(column) if type(column) is list else column for column in columns]


def _rebuilt(columns: list, rows: Callable[[Sequence], Iterable]) -> list:
    """``columns`` with each entry replaced by the column of its own kind that holds ``rows(column)``.

    Each entry is replaced as soon as its new column is built, so a caller
    that holds no other reference to a table frees its columns one at a
    time and never holds two whole tables.
    """
    for i, column in enumerate(columns):
        cells = rows(column)
        columns[i] = array(column.typecode, cells) if isinstance(column, array) else type(column)(cells)
    return columns


@dataclass(frozen=True, slots=True)
class VideoTable:
    """The videos of a corpus, one column per field of :class:`VideoRecord`.

    Row ``i`` of every column is video ``i``. ``video_ids`` and
    ``channel_ids`` are tuples of strings shared with the comments and the
    registry, ``published_us`` an ``array('q')``, ``titles`` and
    ``descriptions`` :class:`PackedStrings`, and the three counts tuples of
    ``int`` (the optional two also of None). Iterating the table gives each
    video as a :class:`VideoRecord`. Build a table with :meth:`from_records`;
    :func:`load_videos` gives one in ``(channel_id, published_us)`` order.
    """

    video_ids: tuple[str, ...]
    channel_ids: tuple[str, ...]
    published_us: array
    titles: PackedStrings
    descriptions: PackedStrings
    view_counts: tuple[int, ...]
    like_counts: tuple[int | None, ...]
    comment_counts: tuple[int | None, ...]

    _KINDS = (tuple, tuple, array, PackedStrings, PackedStrings, tuple, tuple, tuple)

    @classmethod
    def from_records(cls, records: Iterable[VideoRecord]) -> VideoTable:
        """The table of ``records``, in order."""
        records = iter(records)
        chunks = iter(lambda: list(islice(records, CHUNK)), [])
        return cls.from_columns(zip(*map(_VIDEO_FIELDS, chunk)) for chunk in chunks)

    @classmethod
    def from_columns(cls, steps: Iterable[Iterable[Iterable]]) -> VideoTable:
        """The table of the rows of each step, in order; a step is eight columns of one length, in field order."""
        return cls(*_columns_of(steps, cls._KINDS))

    @classmethod
    def taken(cls, columns: list, rows: Sequence[int]) -> VideoTable:
        """The table of the rows ``rows`` of ``columns`` (as :meth:`columns` gives them), in that order.

        Each old column is freed as its copy is built, as in :func:`_rebuilt`.
        """
        return cls(*_rebuilt(columns, lambda column: map(column.__getitem__, rows)))

    def columns(self) -> list:
        """The table's columns, in field order, in a new list."""
        return [getattr(self, field.name) for field in fields(self)]

    def __len__(self) -> int:
        return len(self.video_ids)

    def __iter__(self) -> Iterator[VideoRecord]:
        return map(VideoRecord, *self.columns())


# A record's fields in :class:`VideoTable` column order.
_VIDEO_FIELDS = operator.attrgetter(*(field.name for field in fields(VideoRecord)))


class CommentFold:
    """What the comments of a corpus are folded into, one step of accepted comments at a time.

    :meth:`add` takes each comment's line (its 1-based row in a table) and
    the four columns of :class:`CommentTable`; the comments of one load come
    in no set order. This fold only counts them: ``len`` is how many it
    took. A fold that keeps more extends :meth:`add`.
    """

    def __init__(self) -> None:
        self.taken = 0

    def add(self, lines: Sequence[int], columns: Sequence[Sequence]) -> None:
        self.taken += len(lines)

    def __len__(self) -> int:
        return self.taken


_F = TypeVar("_F", bound=CommentFold)


@dataclass(frozen=True, slots=True)
class CommentTable:
    """The audience comments of a corpus built in memory, one column per field that an analysis reads.

    Row ``i`` of every column is comment ``i``. ``comment_ids`` and
    ``texts`` are :class:`PackedStrings`; ``video_ids`` and ``author_ids``
    are tuples. A comment's time and like count are not held. Build a
    table with :meth:`from_rows`.
    """

    comment_ids: PackedStrings
    video_ids: tuple[str, ...]
    author_ids: tuple[str, ...]
    texts: PackedStrings

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, str, str, str]]) -> CommentTable:
        """The table of ``rows``, each ``(comment_id, video_id, author_id, text)``, in order."""
        rows = iter(rows)
        # ``CHUNK`` rows at a time, turned into columns by ``zip``: no Python code here runs per row.
        steps = (zip(*chunk) for chunk in iter(lambda: list(islice(rows, CHUNK)), []))
        return cls(*_columns_of(steps, (PackedStrings, tuple, tuple, PackedStrings)))

    def __len__(self) -> int:
        return len(self.video_ids)

    def columns(self) -> list:
        """The table's columns, in field order, in a new list."""
        return [getattr(self, field.name) for field in fields(self)]

    def fold(self, fold: _F) -> tuple[_F, CommentLoadReport]:
        """``fold`` fed the table's comments ``CHUNK`` at a time, in order (an empty table once, with
        none), and the report of a load that dropped no row."""
        columns, n = self.columns(), len(self)
        for start in range(0, n or 1, CHUNK):
            stop = min(start + CHUNK, n)
            fold.add(range(start + 1, stop + 1), [column[start:stop] for column in columns])
        return fold, CommentLoadReport()


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


@dataclass(eq=False)
class CommentFile:
    """A corpus directory's comments file, read only when its comments are folded.

    A comment on a video outside ``videos`` is an orphan. Each :meth:`fold`
    reads the whole file and hashes it afresh.
    """

    path: Path
    videos: VideoTable
    sha256: str | None = field(default=None, init=False)  # the hex SHA-256 of the file, once folded

    def fold(self, fold: _F, known: Mapping[str, object] | None = None) -> tuple[_F, CommentLoadReport]:
        """:func:`load_comments` of the file into ``fold``; a load that drops rows logs how many.

        ``known``, a mapping keyed by the ids of ``videos`` and no others,
        stands for them in the orphan check, so a caller that holds such a
        map builds no second one.
        """
        if known is None:
            known = dict.fromkeys(self.videos.video_ids)  # a dict is less than half a set's size
        sha256 = hashlib.sha256()
        fold, report = load_comments(self.path, known, fold, sha256)
        self.sha256 = sha256.hexdigest()
        if report.errors or report.orphans:
            logger.warning(
                "%s: dropped %d comment row(s) with errors and %d orphan comment row(s)",
                self.path.parent,
                len(report.errors),
                len(report.orphans),
            )
        return fold, report

    def digest(self) -> str:
        """The hex SHA-256 of the file as the last :meth:`fold` read it."""
        if self.sha256 is None:
            raise ValueError(f"{self.path} is not folded yet")
        return self.sha256


@dataclass(frozen=True)
class Corpus:
    """A validated registry + videos + comments for one community.

    ``videos`` is a :class:`VideoTable`: an analysis reads its columns, and
    iterating it gives one :class:`VideoRecord` per video. ``comments`` is
    a :class:`CommentTable` for a corpus built in memory and a
    :class:`CommentFile` for a loaded one; either feeds a
    :class:`CommentFold` through its ``fold``.
    """

    registry: tuple[ChannelRecord, ...]
    videos: VideoTable
    comments: CommentTable | CommentFile
    community: str

    def channels_by_id(self) -> dict[str, ChannelRecord]:
        return {ch.channel_id: ch for ch in self.registry}


def build_corpus(
    registry: Sequence[ChannelRecord],
    videos: VideoTable,
    comments: CommentTable | CommentFile,
    community: str | None = None,
) -> Corpus:
    """Assemble a corpus from a video table, enforcing referential integrity and a single community.

    A table's comments must be on ``videos``; a file's are checked as they are folded.
    """
    communities = {ch.community for ch in registry}
    if len(communities) > 1:
        raise ValidationError(f"registry spans multiple communities: {sorted(communities)}")
    if community is None:
        community = next(iter(communities)) if communities else ""
    # One C-level pass per check; the first offender is sought only on failure.
    channel_ids = {ch.channel_id for ch in registry}
    if not channel_ids.issuperset(videos.channel_ids):
        i = next(i for i, channel_id in enumerate(videos.channel_ids) if channel_id not in channel_ids)
        raise ValidationError(f"video {videos.video_ids[i]!r} references unknown channel {videos.channel_ids[i]!r}")
    video_ids = set(videos.video_ids)
    if isinstance(comments, CommentTable) and not video_ids.issuperset(comments.video_ids):
        i = next(i for i, video_id in enumerate(comments.video_ids) if video_id not in video_ids)
        raise ValidationError(f"comment {comments.comment_ids[i]!r} references unknown video {comments.video_ids[i]!r}")
    return Corpus(tuple(registry), videos, comments, community)


# ---------------------------------------------------------------------------
# Row codecs


def _is_csv(path: Path) -> bool:
    return path.suffix.lower() == ".csv"


# Raised by a malformed row (OverflowError: a time whose UTC falls outside
# years 1-9999; RecursionError: JSON nested too deep to decode; ValueError
# also covers UnicodeDecodeError and bad JSON).
_ROW_ERRORS = (KeyError, ValueError, TypeError, OverflowError, RecursionError, csv.Error)

_T = TypeVar("_T")


def _csv_records(reader) -> Iterator[tuple[int, list[str] | csv.Error]]:
    """Each record of a ``csv.reader`` with its first physical line; one that ``csv`` cannot read is its error.

    A quoted cell may hold newlines, so a record can span several lines; a
    blank line holds no record.
    """
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


# ``(value, end)`` of the JSON value at an index of a string, in one C call.
_scan_json = json.scanner.make_scanner(json.JSONDecoder())


def _json_object(line: str) -> dict:
    """The object on ``line`` as ``json.loads`` reads it; one that ends the line takes one scan."""
    if line.startswith("{"):
        try:
            row, end = _scan_json(line, 0)
        except StopIteration:
            pass
        else:
            if line[end:] in ("", "\n"):
                return row
    row = json.loads(line)
    if not isinstance(row, dict):
        raise ValueError(f"expected a JSON object, got {type(row).__name__}")
    return row


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


# Rows read, checked for undecodable bytes and, by :func:`load_comments`,
# turned into columns together: one step of a file.
STEP = 64


class _Step(NamedTuple):
    """Up to ``STEP`` rows of a file: each row's line and raw form (a JSON-lines
    line, or a CSV record or its ``csv.Error``), the physical lines that hold
    them, numbered from ``first``, and the CSV header (None for JSON-lines)."""

    first: int
    lines: list[str]
    line_nos: Sequence[int]
    raws: Sequence[str | list[str] | csv.Error]
    header: list[str] | Exception | None


def _line_errors(lines: list[str], first: int) -> dict[int, UnicodeDecodeError]:
    """The error of each of ``lines``, numbered from ``first``, that holds a byte that is not UTF-8.

    Such a byte was read as a lone surrogate, the one character that fails
    to encode, so lines whose text encodes hold none: one check for all of them.
    """
    try:
        "".join(lines).encode("utf-8")
        return {}
    except UnicodeEncodeError:
        errors = {}
    for line_no, line in enumerate(lines, first):
        try:  # decoding the line's bytes again names its first bad byte
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            errors[line_no] = exc
    return errors


def _steps(path: Path, tabular: bool | None = None, sha256=None) -> Iterator[_Step]:
    """The rows of a file, ``STEP`` at a time.

    The file is CSV when ``tabular`` is true, JSON-lines when it is false,
    and by default CSV exactly when its suffix is ``.csv``. It is opened and
    read once; a ``hashlib`` object ``sha256``, if given, is fed its bytes
    as they are read. A CSV file's header is read first; a header line
    holding a byte that is not UTF-8 makes the header that byte's error.
    """
    if tabular is None:
        tabular = _is_csv(path)
    binary = path.open("rb") if sha256 is None else io.BufferedReader(_HashingReader(path, sha256))
    encoding = "utf-8-sig" if tabular else "utf-8"  # a CSV file's leading byte order mark is no part of its header
    with io.TextIOWrapper(binary, encoding=encoding, errors="surrogateescape", newline="" if tabular else None) as fh:
        if not tabular:
            first = 1
            while lines := list(islice(fh, STEP)):
                yield _Step(first, lines, range(first, first + len(lines)), lines, None)
                first += len(lines)
            return
        physical, read = tee(fh)  # the csv reader's lines, kept until its step takes them
        reader = csv.reader(read)
        records = _csv_records(reader)
        _, header = next(records, (0, []))
        bad = _line_errors(list(islice(physical, reader.line_num)), 1)
        if bad:  # no row can be read against this header
            header = next(iter(bad.values()))
        done = reader.line_num
        while step := list(islice(records, STEP)):
            lines = list(islice(physical, reader.line_num - done))
            yield _Step(done + 1, lines, *zip(*step), header)
            done = reader.line_num


def _step_rows(step: _Step, parse: Callable[[dict], _T]) -> Iterator[tuple[int, _T | Exception]]:
    """Yield ``(line, parse(row))`` for each good row of ``step`` and ``(line, error)`` for each bad one.

    A row holding a byte that is not UTF-8 is a ``UnicodeDecodeError``,
    its first such line's. Bad JSON, a CSV record that ``csv`` cannot read
    or that has more cells than its header, and a row that ``parse``
    rejects are that row's error. A CSV row is numbered by its first
    physical line, and a short one lacks the keys of its missing cells.
    """
    bad = {}
    for line_no, exc in _line_errors(step.lines, step.first).items():
        row_line = step.line_nos[bisect_right(step.line_nos, line_no) - 1]  # the row that holds the line
        bad.setdefault(row_line, exc)
    header = step.header
    for line_no, raw in zip(step.line_nos, step.raws):
        try:
            if bad and line_no in bad:
                raise bad[line_no]
            if isinstance(raw, str):
                if raw.isspace():  # a blank line holds no row
                    continue
                row = _json_object(raw)
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
        yield line_no, value


def _rows(
    path: Path, parse: Callable[[dict], _T], tabular: bool | None = None, sha256=None
) -> Iterator[tuple[int, _T | Exception]]:
    """Each row of a file, read as :func:`_steps` and :func:`_step_rows` read it."""
    for step in _steps(path, tabular, sha256):
        yield from _step_rows(step, parse)


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
    """``value`` as ``int()`` reads it; a bool, a float with a fractional part, or a number below 0 is no count."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{what} {value!r} is not an integer")
    count = int(value)  # type: ignore[call-overload]
    if count < 0:
        raise ValueError(f"negative {what} {count}")
    return count


def _registry_from_row(row: Mapping[str, object]) -> ChannelRecord:
    handles = row.get("handles", [])
    if isinstance(handles, str):  # a CSV cell, or a JSON string, of "|"-separated handles
        handles = handles.split(_HANDLE_SEP)
    elif not isinstance(handles, list):
        raise ValueError(f"handles {handles!r} is not a list or a string")
    # A handle empty once normalized is dropped and a repeat is kept once, in
    # first-seen order; a non-string is a row error.
    handles = tuple(dict.fromkeys(h for h in (normalize_handle(_text(h, "handle")) for h in handles) if h))
    if not handles:
        raise ValueError("channel has no handles")
    attributes = row.get("attributes")
    if attributes is None and "attributes" not in row:
        # CSV flattening: every non-fixed column is an attribute.
        attributes = {k: v for k, v in row.items() if k not in _REGISTRY_FIXED}
    elif not isinstance(attributes, dict):
        raise ValueError(f"attributes {attributes!r} is not an object")
    return ChannelRecord(
        channel_id=_text(row["channel_id"], "channel_id"),
        handles=handles,
        display_name=_text(row.get("display_name", ""), "display_name"),
        attributes={k: _text(v, f"attribute {k!r} value") for k, v in attributes.items()},
        community=_text(row.get("community", ""), "community"),
    )


# The kinds of a video or comment field: a string, an ISO-8601 time (a
# string), and a whole number of at least 0.
_TEXT, _TIME, _COUNT = "text", "time", "count"


class _Field(NamedTuple):
    """A field of a video or comment row: its name, its kind, and whether a good row must hold it.

    An optional count that a row holds as None or ``""`` is None.
    """

    name: str
    kind: str
    required: bool

    @property
    def absent(self) -> str | None:
        """What a row that lacks the field holds in it: ``""`` for an optional text, else None, which
        no good row holds in a field that it must hold."""
        return "" if self.kind == _TEXT and not self.required else None


# What a good row of each file holds, in the order in which a row's first fault is found.
_VIDEO_ROW = tuple(map(_Field._make, (
    ("view_count", _COUNT, True), ("video_id", _TEXT, True), ("channel_id", _TEXT, True),
    ("published_at", _TIME, True), ("title", _TEXT, False), ("description", _TEXT, False),
    ("like_count", _COUNT, False), ("comment_count", _COUNT, False),
)))
_COMMENT_ROW = tuple(map(_Field._make, (
    ("comment_id", _TEXT, True), ("video_id", _TEXT, True), ("author_id", _TEXT, True),
    ("text", _TEXT, False), ("published_at", _TIME, True), ("like_count", _COUNT, False),
)))
# The fields that each table keeps, in its column order; a video keeps its
# time as whole microseconds, and a comment its time and like count not at all.
_VIDEO_KEPT = (
    "video_id", "channel_id", "published_at", "title", "description", "view_count", "like_count", "comment_count",
)
_COMMENT_KEPT = ("comment_id", "video_id", "author_id", "text")


def _checked_row(fields: Sequence[_Field], kept: Sequence[str], row: Mapping[str, object]) -> tuple:
    """The values of the ``kept`` fields of ``row``, a time as whole microseconds since 1970-01-01 UTC.

    The fields are checked in the order of ``fields``; the first that is
    not good in ``row`` raises its error.
    """
    values = {}
    for field in fields:
        name, kind, required = field
        value = row[name] if required else row.get(name, field.absent)
        if kind != _COUNT:
            value = _text(value, name)
            values[name] = _parse_timestamp(value) if kind == _TIME else value
        else:
            values[name] = _count(value, name) if required or value not in (None, "") else None
    return tuple(map(values.__getitem__, kept))


# ---------------------------------------------------------------------------
# Loaders


def load_registry(path: str | Path, attribute_key: str = "gender", sha256=None) -> list[ChannelRecord]:
    """Load and validate the channel registry.

    Handle normalization is applied on load. Raises :class:`ValidationError`
    naming the offenders on duplicate channel ids, duplicate normalized
    handles, or a dyad-typing attribute that is missing or contains ``-``
    (the separator in dyad-type labels such as ``W-M``). An attribute that
    shares its name with a fixed column (``channel_id``, ``handles``,
    ``display_name``, ``community``) can come only from a JSON-lines row's
    ``attributes`` object; one that is missing is one error naming that
    column. The registry is the analysis universe, so it is loaded strictly
    rather than row-by-row.
    A ``hashlib`` object ``sha256`` is fed the file's bytes as they are read.
    """
    records = list(load_rows(path, _registry_from_row, sha256=sha256))
    if attribute_key in _REGISTRY_FIXED and not all(attribute_key in rec.attributes for rec in records):
        raise ValidationError(
            f"attribute {attribute_key!r} is missing: a registry column named {attribute_key!r} is a fixed "
            "field, not an attribute, so it cannot type dyads; give the attribute another name"
        )

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


def _utc_times(stamps: Sequence[str]) -> list[datetime] | None:
    """Each of ``stamps`` as :func:`_parse_timestamp` reads it, when every one is a UTC time; None otherwise.

    A step that ``datetime.fromisoformat`` cannot read is read again as
    :func:`_iso_text` rewrites it, so a time ending in ``Z`` is read on
    Python 3.10 too.
    """
    try:
        times = list(map(datetime.fromisoformat, stamps))
    except ValueError:
        try:
            times = list(map(datetime.fromisoformat, map(_iso_text, stamps)))
        except ValueError:
            return None
    if set(map(operator.attrgetter("tzinfo"), times)) != {timezone.utc}:
        return None  # any other zone is converted, and its range checked, row by row
    return times


def _fast_columns(step: _Step, fields: Sequence[_Field], kept: Sequence[str]) -> list[Sequence] | None:
    """The ``kept`` columns of the rows of ``step`` as :func:`_checked_row` reads each row, when every
    row is good in ``fields``, holds no undecodable byte and has its times in UTC; None for any other step.

    A JSON-lines line is one scan, which must read one object and leave
    nothing after it but the line's newline; a CSV step is one
    transposition, and each of its records must be as wide as its header.
    Each check and column is then one C-level pass, but a CSV count's.
    """
    if _line_errors(step.lines, step.first):
        return None
    n = len(step.raws)
    if step.header is None:
        try:
            scans = list(map(_scan_json, step.lines, repeat(0)))
        except (ValueError, RecursionError):
            return None
        if len(scans) != n:  # a line holding no JSON value raises StopIteration, which ends the map there
            return None
        rows, ends = zip(*scans)
        # After each object comes its line's newline, which only the last line of a file may lack.
        tails = list(map(operator.sub, map(len, step.lines), ends))
        if set(map(type, rows)) != {dict} or tails != [1] * (n - 1) + [step.lines[-1].endswith("\n")]:
            return None
        cells = {field.name: list(map(dict.get, rows, repeat(field.name), repeat(field.absent))) for field in fields}
    else:
        header = step.header
        if type(header) is not list or set(map(type, step.raws)) != {list} or set(map(len, step.raws)) != {len(header)}:
            return None
        by_name = dict(zip(header, zip(*step.raws)))  # a repeated name is its last column, as in a row
        cells = {}
        for field in fields:
            column = by_name.get(field.name, (field.absent,) * n)
            try:
                cells[field.name] = [int(v) if v else None for v in column] if field.kind == _COUNT else column
            except ValueError:
                return None
    for name, kind, required in fields:
        column = cells[name]
        if kind == _COUNT:
            kinds = {int} if required else {int, type(None)}
            if not kinds.issuperset(map(type, column)) or min(filter(None, column), default=0) < 0:
                return None
        elif set(map(type, column)) != {str}:
            return None
        elif kind == _TIME:
            times = _utc_times(column)
            if times is None:
                return None
            if name in kept:
                since_epoch = map(operator.sub, times, repeat(_UNIX_EPOCH))
                cells[name] = list(map(operator.floordiv, since_epoch, repeat(_MICROSECOND)))
    return list(map(cells.__getitem__, kept))


def _good_rows(
    step: _Step, fields: Sequence[_Field], kept: Sequence[str], errors: list[RowError]
) -> tuple[Sequence[int], list[Sequence]]:
    """The lines of the good rows of ``step`` and their ``kept`` columns; a bad row's error is added to ``errors``.

    A step that :func:`_fast_columns` reads is read as columns, any other
    row by row through :func:`_checked_row`, so that each bad row keeps
    its own line and message.
    """
    columns = _fast_columns(step, fields, kept)
    if columns is not None:
        return step.line_nos, columns
    line_nos, rows = [], []
    for line_no, row in _step_rows(step, partial(_checked_row, fields, kept)):
        if isinstance(row, Exception):
            errors.append(RowError(line_no, f"malformed row: {row}"))
        else:
            line_nos.append(line_no)
            rows.append(row)
    return line_nos, list(zip(*rows)) or [()] * len(kept)


def load_videos(
    path: str | Path, registry: Sequence[ChannelRecord], sha256=None
) -> tuple[VideoTable, list[RowError]]:
    """Load videos ``STEP`` rows at a time into a :class:`VideoTable`, keeping well-formed rows and collecting the rest.

    Each row is checked field by field as ``_VIDEO_ROW`` lists them: a
    step whose rows are all good, with UTC times, is read as columns, any
    other row by row, so that each malformed row keeps its own line and
    message. The good rows of a step are then checked together, and a row
    at a time only when that check fails: a row with an unknown channel or
    a video id seen before is a row error too. The errors are in line
    order. The table is in ``(channel_id, published_us)`` order, videos of
    equal time in file order; each ``channel_id`` is its registry record's
    string. ``sha256`` is fed the file's bytes.
    """
    path = Path(path)
    known = {ch.channel_id: ch.channel_id for ch in registry}
    errors: list[RowError] = []
    seen: set[str] = set()

    def steps() -> Iterator[list[Sequence]]:
        """The columns of each step's kept rows."""
        for step in _steps(path, sha256=sha256):
            line_nos, columns = _good_rows(step, _VIDEO_ROW, _VIDEO_KEPT, errors)
            video_ids, channel_ids = columns[0], columns[1]
            fresh = len(set(video_ids)) == len(video_ids) and seen.isdisjoint(video_ids)
            if fresh and all(map(known.__contains__, channel_ids)):
                seen.update(video_ids)
            else:
                keep = bytearray(len(video_ids))
                for i, line_no, video_id, channel_id in zip(count(), line_nos, video_ids, channel_ids):
                    if channel_id not in known:
                        errors.append(RowError(line_no, f"unknown channel_id {channel_id!r}"))
                    elif video_id in seen:
                        errors.append(RowError(line_no, f"duplicate video_id {video_id!r}"))
                    else:
                        seen.add(video_id)
                        keep[i] = 1
                columns = [list(compress(column, keep)) for column in columns]
            columns[1] = list(map(known.__getitem__, columns[1]))
            yield columns

    columns = _columns_of(steps(), VideoTable._KINDS)
    seen.clear()  # its table is freed before the sort
    errors.sort(key=operator.attrgetter("line"))
    order = _channel_order(columns[1], columns[2])
    if all(map(operator.eq, order, count())):
        return VideoTable(*columns), errors
    return VideoTable.taken(columns, order), errors


def _channel_order(channel_ids: Sequence[str], published_us: Sequence[int]) -> list[int]:
    """The rows' positions by channel id, then time, rows of equal time in their order: two stable sorts, no key tuples."""
    order = sorted(range(len(channel_ids)), key=published_us.__getitem__)
    order.sort(key=channel_ids.__getitem__)
    return order


# The hash of a comment id in the duplicate check of :func:`load_comments`;
# a module name only so that a test can make every id collide.
_id_hash = hash


def load_comments(
    path: str | Path, known: Mapping[str, object], fold: _F, sha256=None
) -> tuple[_F, CommentLoadReport]:
    """Fold the comments of a file into ``fold`` in one pass, ``STEP`` rows at a time (the corpus can be millions of rows).

    Each row is checked field by field as ``_COMMENT_ROW`` lists them: a
    step whose rows are all good, with UTC times, is read as columns, any
    other row by row, so that each malformed row keeps its own line and
    message. A row's ``published_at`` and ``like_count`` are checked as a
    video's are, so a bad one rejects the row, but neither is kept. A row
    on a video that is not a key of ``known`` is an orphan, a row error
    naming its ``video_id``. Malformed rows and duplicate comment ids
    go to the error report. Every other row goes to ``fold`` with its step,
    so no comment outlives its step unless it is held back (below).
    Returns ``fold`` and the report; ``sha256`` is fed the file's bytes.

    The duplicate check keeps no id strings. A comment costs 8 bytes for
    its id's hash, and a bit map of one bit per 4 bytes of file marks the
    hashes seen. A row whose bit is set already is held back. After the
    pass, the ids of each group of rows of equal hash are compared: the
    first row with an id is kept, and an orphan's id counts as seen. A
    held-back row is folded only if its id is new. A group that holds a
    row folded with its step needs that row's id, so the file is read once
    more, fed to no digest: in effect only when it repeats an id.
    """
    path = Path(path)
    orphans: list[RowError] = []
    errors: list[RowError] = []
    # Position p is the p-th row that is not malformed; hashes[p] is its id's hash.
    hashes = array("q")
    n_bits = max(os.stat(path).st_size // 4, 64)
    bits = bytearray(n_bits // 8 + 1)
    candidates: list[tuple[int, int]] = []  # (position, line) of each row whose bit was set
    orphan_at: list[int] = []  # the position of each orphan
    orphan_ids: list[str] = []
    held: list[tuple[int, int, list]] = []  # (position, line, cells) of each held-back row

    step = None
    for step in _steps(path, sha256=sha256):
        line_nos, columns = _good_rows(step, _COMMENT_ROW, _COMMENT_KEPT, errors)
        comment_ids, video_ids = columns[0], columns[1]
        at = len(hashes)
        step_hashes = list(map(_id_hash, comment_ids))
        hashes.extend(step_hashes)
        seen = []  # the step's rows whose bit was set
        for i, h in enumerate(step_hashes):
            j = h % n_bits
            bit = 1 << (j & 7)
            j >>= 3
            if bits[j] & bit:
                seen.append(i)
            else:
                bits[j] |= bit
        orphaned = not all(map(known.__contains__, video_ids))
        if seen or orphaned:
            keep = bytearray(b"\1") * len(line_nos)
            if orphaned:
                for i, line_no, comment_id, video_id in zip(count(), line_nos, comment_ids, video_ids):
                    if video_id not in known:
                        orphans.append(RowError(line_no, f"unknown video_id {video_id!r}"))
                        orphan_at.append(at + i)
                        orphan_ids.append(comment_id)
                        keep[i] = 0
            for i in seen:
                candidates.append((at + i, line_nos[i]))
                if keep[i]:
                    held.append((at + i, line_nos[i], [column[i] for column in columns]))
                    keep[i] = 0
            line_nos = list(compress(line_nos, keep))
            columns = [list(compress(column, keep)) for column in columns]
        fold.add(line_nos, columns)
    if step is None:  # a file of no rows: the fold still takes one step, with none, as an empty table's does
        fold.add((), [()] * len(_COMMENT_KEPT))
    del bits

    # Every repeat is a candidate. Group the positions that share a
    # candidate's hash; only a group of two or more compares its ids.
    groups: dict[int, list[int]] = {}
    if candidates:
        wanted = set(map(hashes.__getitem__, map(operator.itemgetter(0), candidates)))
        for p in compress(count(), map(wanted.__contains__, hashes)):
            groups.setdefault(hashes[p], []).append(p)
    del hashes
    grouped = [group for group in groups.values() if len(group) > 1]
    repeats: list[tuple[int, str]] = []  # (position, comment_id) of each row whose id an earlier row has
    if grouped:
        wanted = set(chain.from_iterable(grouped))
        ids = {p: cells[0] for p, _, cells in held if p in wanted}
        ids.update((p, comment_id) for p, comment_id in zip(orphan_at, orphan_ids) if p in wanted)
        folded = wanted.difference(ids)
        if folded:
            ids.update(_ids_at(path, folded))
        for group in grouped:
            firsts: list[str] = []
            for p in group:
                if ids[p] in firsts:
                    repeats.append((p, ids[p]))
                else:
                    firsts.append(ids[p])
    if repeats:
        lines = dict(candidates)
        duplicates = [RowError(lines[p], f"duplicate comment_id {comment_id!r}") for p, comment_id in repeats]
        errors = sorted(errors + duplicates, key=operator.attrgetter("line"))
        dropped = {p for p, _ in repeats}
        orphans = [orphan for orphan, p in zip(orphans, orphan_at) if p not in dropped]
        held = [row for row in held if row[0] not in dropped]
    for start in range(0, len(held), STEP):
        _, line_nos, cells = zip(*held[start:start + STEP])
        fold.add(line_nos, list(zip(*cells)))
    return fold, CommentLoadReport(tuple(orphans), tuple(errors))


def _ids_at(path: Path, positions: set[int]) -> dict[int, str]:
    """The comment ids at ``positions`` of a comments file, by position, as :func:`load_comments` numbers
    the rows that are not malformed; the file is read again, up to the last of them."""
    ids: dict[int, str] = {}
    at = 0
    for step in _steps(path):
        comment_ids = _good_rows(step, _COMMENT_ROW, _COMMENT_KEPT, [])[1][0]
        for p in positions.intersection(range(at, at + len(comment_ids))):
            ids[p] = comment_ids[p - at]
        at += len(comment_ids)
        if len(ids) == len(positions):
            break
    return ids


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
) -> tuple[Corpus, list[RowError], dict[str, str]]:
    """Load the registry and videos of the :func:`corpus_files` of one directory, with the video rows
    it dropped and the two files' digests.

    Video row errors are tolerated (the accepted subset is analyzed) and
    logged; registry problems raise. The digests are the hex SHA-256 of
    each file's bytes, by file name, taken as the file is loaded. The
    comments file is not read here: the corpus's comments are its
    :class:`CommentFile`, read when they are folded.
    """
    files = corpus_files(directory)
    hashes = {stem: hashlib.sha256() for stem in ("registry", "videos")}
    registry = load_registry(files["registry"], attribute_key=attribute_key, sha256=hashes["registry"])
    videos, video_errors = load_videos(files["videos"], registry, sha256=hashes["videos"])
    if video_errors:
        logger.warning("%s: dropped %d video row(s) with errors", directory, len(video_errors))
    digests = {files[stem].name: h.hexdigest() for stem, h in hashes.items()}
    return build_corpus(registry, videos, CommentFile(files["comments"], videos)), video_errors, digests


# ---------------------------------------------------------------------------
# Writers (inverse of the loaders; a written record, or a comment row's table fields, loads back unchanged)


def _registry_to_row(rec: ChannelRecord) -> dict:
    return {
        "channel_id": rec.channel_id,
        "handles": list(rec.handles),
        "display_name": rec.display_name,
        "attributes": dict(rec.attributes),
        "community": rec.community,
    }


def _video_to_row(
    video_id: str, channel_id: str, published_us: int, title: str, description: str,
    view_count: int, like_count: int | None, comment_count: int | None,
) -> dict:
    """A video's row, from its fields in :class:`VideoTable` column order."""
    row = {
        "video_id": video_id,
        "channel_id": channel_id,
        "published_at": _format_epoch_us(published_us),
        "title": title,
        "description": description,
        "view_count": view_count,
    }
    if like_count is not None:
        row["like_count"] = like_count
    if comment_count is not None:
        row["comment_count"] = comment_count
    return row


def _comment_to_row(comment: CommentRow) -> dict:
    comment_id, video_id, author_id, text, published_us, like_count = comment
    row = {
        "comment_id": comment_id,
        "video_id": video_id,
        "author_id": author_id,
        "text": text,
        "published_at": _format_epoch_us(published_us),
    }
    if like_count is not None:
        row["like_count"] = like_count
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
        for rec in records:  # a column of the file, or a handle that splits in two, would load back different
            clashes = [f"the attribute {k!r}" for k in rec.attributes if k in _REGISTRY_FIXED or k == "attributes"]
            clashes += [f"the handle {h!r}" for h in rec.handles if _HANDLE_SEP in h]
            if clashes:
                raise ValidationError(f"channel {rec.channel_id!r}: a CSV registry cannot hold {clashes[0]}")
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
    path: Path, rows: Iterable[dict], header: Sequence[str]
) -> None:
    if _is_csv(path):
        write_csv(path, header, ([row.get(k, "") for k in header] for row in rows))
    else:
        write_jsonl(path, rows)


def write_videos(videos: VideoTable, path: str | Path) -> None:
    """Write a video table, its rows from its columns."""
    _write_tabular(Path(path), map(_video_to_row, *videos.columns()), _VIDEO_KEPT)


def write_comments(comments: Iterable[CommentRow], path: str | Path) -> None:
    _write_tabular(Path(path), map(_comment_to_row, comments), [field.name for field in _COMMENT_ROW])


def write_corpus(
    registry: Sequence[ChannelRecord], videos: VideoTable, comments: Iterable[CommentRow],
    directory: str | Path, fmt: str = "jsonl",
) -> dict[str, Path]:
    """Write the three corpus files into ``directory``; returns their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    suffix = ".csv" if fmt == "csv" else ".jsonl"
    paths = {
        "registry": directory / f"registry{suffix}",
        "videos": directory / f"videos{suffix}",
        "comments": directory / f"comments{suffix}",
    }
    write_registry(registry, paths["registry"])
    write_videos(videos, paths["videos"])
    write_comments(comments, paths["comments"])
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


def cap_videos_per_channel(videos: VideoTable, cap: int) -> VideoTable:
    """Keep at most ``cap`` most recent videos per channel (platform-style cap).

    The videos come out by channel id, each channel's by time; videos
    published at the same time keep their input order. Raises
    :class:`ConfigurationError` when ``cap`` is below 1.
    """
    if cap < 1:
        raise ConfigurationError(f"max videos per channel must be at least 1, got {cap}")
    runs = groupby(_channel_order(videos.channel_ids, videos.published_us), videos.channel_ids.__getitem__)
    return VideoTable.taken(videos.columns(), [i for _, run in runs for i in list(run)[-cap:]])
