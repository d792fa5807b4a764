"""End-to-end report bundles.

A run loads one corpus directory per community, executes every analysis
stage, and renders the formats its config names (``csv``: seven plot-ready
tables; ``json``: report.json; ``table``: report.txt) plus a provenance
manifest:

    shares.csv        collaboration share per dyad type, rows per community
    synergy_host.csv  aggregated normalized host contributions (dyad-type columns)
    synergy_guest.csv aggregated normalized guest contributions
    reciprocity.csv   which side of a collaboration is more popular
    centrality.csv    closeness distribution summaries per attribute value
    discourse.csv     sentiment/topic aggregation per dyad type + baseline
    entropy_cdf.csv   commenter entropy CDF points
    manifest.json     config, input digests, stage statuses, tool version

Output is deterministic: identical config and inputs produce byte-identical
bundles. Absent dyad-type cells render as an em dash. Human-readable tables
round to three significant decimals; CSV and JSON carry full precision.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import MISSING, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from pathlib import Path
from statistics import fmean
from typing import Callable, Mapping, Sequence

from collabmetrics import __version__, collab, discourse, netmetrics, synergy
from collabmetrics.corpus import (
    CommentFile,
    CommentFold,
    Corpus,
    cap_videos_per_channel,
    load_corpus_dir,
    write_csv,
    write_json,
    write_jsonl,
)
from collabmetrics.errors import CollabMetricsError, ConfigurationError, ValidationError

__all__ = [
    "RunConfig", "ReportBundle", "RunStageError", "CommentCounts", "CommunityPipeline", "CommunityResult", "run_report",
    "check_fields", "FORMATS",
]

ABSENT = "—"  # em dash for dyad types a community never produced

STAGES = ("ingest", "collabs", "synergy", "network", "entropy", "discourse", "render")

FORMATS = ("csv", "json", "table")  # the renderings a bundle can hold


class RunStageError(CollabMetricsError):
    """A pipeline stage failed; the manifest records which one. ``where``
    prefixes the cause with the community of a stage that runs per community."""

    def __init__(self, stage: str, cause: Exception, where: str = ""):
        super().__init__(f"stage {stage!r} failed: {where}{cause}")
        self.stage = stage
        self.cause = cause


def _is_number(value: object) -> bool:
    # A JSON true or false is no number, nor is the NaN or Infinity that Python's
    # json reads, nor an integer beyond the float range.
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def _is_weights(value: object) -> bool:
    return isinstance(value, Mapping) and all(map(_is_number, value.values()))


# What a JSON value must be, by the annotation of the dataclass field it fills.
# ``type(v) is int`` also turns a bool away.
_FIELD_TYPES = {
    "str": (lambda v: type(v) is str, "a string"),
    "int": (lambda v: type(v) is int, "an integer"),
    "int | None": (lambda v: v is None or type(v) is int, "null or an integer"),
    "float": (_is_number, "a number"),
    "tuple[str, ...]": (lambda v: isinstance(v, (list, tuple)) and all(type(s) is str for s in v), "a list of strings"),
    "Mapping[str, float]": (_is_weights, "an object of numbers"),
    "Mapping[str, float] | None": (lambda v: v is None or _is_weights(v), "null or an object of numbers"),
}


def check_fields(where: str, data: Mapping, cls: type) -> None:
    """Raise :class:`ConfigurationError` unless ``data`` names each required
    field of dataclass ``cls`` and no other, each with a value of its type.

    A nonempty ``where`` prefixes the message. A field whose annotation is
    not in the type table (a spec's discourse profiles) is its caller's to check.
    """
    known = dataclasses.fields(cls)
    required = {f.name for f in known if f.default is MISSING and f.default_factory is MISSING}
    missing = sorted(required - data.keys())
    unknown = sorted(data.keys() - {f.name for f in known})
    prefix = f"{where}: " if where else ""
    problems = [f"{what} fields {', '.join(names)}" for what, names in (("missing", missing), ("unknown", unknown)) if names]
    if problems:
        raise ConfigurationError(prefix + "; ".join(problems))
    for f in known:
        check = _FIELD_TYPES.get(f.type)
        if check is not None and f.name in data and not check[0](data[f.name]):
            raise ConfigurationError(f"{prefix}{f.name} must be {check[1]}, got {data[f.name]!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a report run depends on; serialized into the manifest."""

    community_dirs: tuple[str, ...]
    out_dir: str
    attribute_key: str = "gender"
    baseline_mode: str = "solo"  # "solo" excludes own collaboration videos; "all" keeps them
    statistic: str = "median"
    min_comments: int = 1
    max_videos_per_channel: int | None = None
    formats: tuple[str, ...] = ("csv",)
    seed: int | None = None  # provenance only: the simulate seed behind the inputs

    def __post_init__(self) -> None:
        """Raise :class:`ConfigurationError` on a value no flag could have set."""
        check_fields("", vars(self), type(self))
        for key, choices in (("baseline_mode", synergy.BASELINE_MODES), ("statistic", synergy.STATISTICS)):
            if getattr(self, key) not in choices:
                raise ConfigurationError(f"{key} must be one of {list(choices)}, got {getattr(self, key)!r}")
        unknown = [f for f in self.formats if f not in FORMATS]
        if unknown:
            raise ConfigurationError(f"formats must be a list of {list(FORMATS)}, got {unknown!r}")
        if not self.formats:
            raise ConfigurationError(f"formats must name at least one of {list(FORMATS)}")
        cap = self.max_videos_per_channel
        if cap is not None and cap < 1:
            raise ConfigurationError(f"max_videos_per_channel must be null or an integer >= 1, got {cap!r}")

    @classmethod
    def from_dict(cls, raw: Mapping) -> "RunConfig":
        """The config that ``raw``, a parsed JSON object, describes; its lists become tuples."""
        check_fields("", raw, cls)
        return cls(**{key: tuple(value) if isinstance(value, list) else value for key, value in raw.items()})


@dataclass(frozen=True)
class ReportBundle:
    out_dir: Path
    artifacts: Mapping[str, Path]
    manifest_path: Path


class CommentCounts(CommentFold):
    """All that a report reads of a community's comments, folded in one pass: the attention
    pairs of the entropy stage and the discourse counts, which may be None.

    ``owner`` maps each video of the community to its channel. A comment on
    any other video, one that ``max_videos_per_channel`` dropped, counts in
    neither fold.
    """

    def __init__(
        self,
        owner: Mapping[str, str],
        talk: discourse.DiscourseCounts | None,
    ) -> None:
        super().__init__()
        self.owner, self.attention, self.discourse = owner, netmetrics.AttentionCounts(owner), talk

    def add(self, lines: Sequence[int], columns: Sequence[Sequence]) -> None:
        super().add(lines, columns)
        on_videos = self.owner.__contains__
        if not all(map(on_videos, columns[1])):
            keep = bytes(map(on_videos, columns[1]))
            lines, columns = list(compress(lines, keep)), [list(compress(column, keep)) for column in columns]
        self.attention.add(lines, columns)
        if self.discourse is not None:
            self.discourse.add(lines, columns)


@dataclass
class CommunityPipeline:
    """Every analysis result for one community, each computed on first use.

    Stage files read the results they show and so compute only what they
    need: writing the ``network`` files never reads a comment. The entropy
    and discourse results share one pass over the comments
    (:attr:`comment_counts`). A report keeps only the pipeline's
    :class:`CommunityResult`. ``scorer``, ``classifier`` and precomputed
    ``labels`` (topic label by comment id) replace the bundled discourse
    defaults.
    """

    corpus: Corpus
    config: RunConfig
    scorer: discourse.SentimentScorer | None = None
    classifier: discourse.TopicClassifier | None = None
    labels: Mapping[str, str] | None = None

    @property
    def community(self) -> str:
        return self.corpus.community

    @cached_property
    def partition(self) -> collab.VideoPartition:
        return collab.partition_videos(self.corpus)

    @cached_property
    def collaborations(self) -> tuple[list[collab.CollaborationDyad], collab.CollabShareStats]:
        return collab.detect_collaborations(self.corpus, self.config.attribute_key, self.partition)

    @property
    def dyads(self) -> list[collab.CollaborationDyad]:
        return self.collaborations[0]

    @property
    def stats(self) -> collab.CollabShareStats:
        return self.collaborations[1]

    @cached_property
    def baselines(self) -> dict[str, Fraction]:
        return synergy.channel_baselines(self.corpus, self.partition, mode=self.config.baseline_mode)

    @cached_property
    def synergies(self) -> tuple[list[synergy.DyadSynergy], synergy.SynergyDiagnostics]:
        return synergy.compute_synergies(self.dyads, self.corpus, self.baselines)

    @cached_property
    def synergy_report(self) -> synergy.SynergyReport:
        return synergy.aggregate_by_dyad_type(
            self.synergies[0], self.corpus.community, self.config.statistic
        )

    @cached_property
    def reciprocity(self) -> synergy.ReciprocityStats:
        return synergy.reciprocity(self.dyads, self.baselines)

    @cached_property
    def attributes(self) -> dict[str, str]:
        key = self.config.attribute_key
        return {rec.channel_id: rec.attributes.get(key, "") for rec in self.corpus.registry}

    @cached_property
    def graph(self) -> netmetrics.CollabGraph:
        return netmetrics.build_collab_graph(self.dyads, (rec.channel_id for rec in self.corpus.registry))

    @cached_property
    def centrality(self) -> netmetrics.CentralitySummary:
        return netmetrics.closeness(self.graph, self.attributes)

    @cached_property
    def owner(self) -> dict[str, str]:
        """Each video's channel, by video id."""
        return dict(zip(self.corpus.videos.video_ids, self.corpus.videos.channel_ids))

    def _fold_comments(self, talk: bool) -> CommentCounts:
        """The comments folded in one pass, into the attention pairs and, if ``talk``, the discourse
        counts: a loaded corpus reads its comments file here."""
        counts = CommentCounts(
            self.owner,
            discourse.DiscourseCounts(self.dyads, self.partition.multi_way, self.scorer, self.classifier, self.labels)
            if talk else None,
        )
        comments = self.corpus.comments
        if isinstance(comments, CommentFile) and comments.videos is self.corpus.videos:
            # No video was capped out: the owner map serves the orphan check too.
            return comments.fold(counts, known=self.owner)[0]
        return comments.fold(counts)[0]

    @cached_property
    def comment_counts(self) -> CommentCounts:
        """Both counts of the comments, grouped by the dyads, in one pass."""
        return self._fold_comments(talk=True)

    @cached_property
    def attention(self) -> netmetrics.AttentionGraph:
        # A report folds both counts first; asked for first, as by the ``entropy`` stage and the
        # simulator's oracle, the pairs are folded alone, and no comment is scored.
        if "comment_counts" in vars(self):
            pairs = self.comment_counts.attention
        else:
            pairs = self._fold_comments(talk=False).attention
        return netmetrics.build_attention_graph(pairs.weights, min_comments=self.config.min_comments)

    @cached_property
    def entropy(self) -> dict[str, float]:
        """Each commenter's entropy; :attr:`cdf` holds no such mapping."""
        return dict(netmetrics.commenter_entropy(self.attention))

    @cached_property
    def cdf(self) -> list[tuple[float, float]]:
        return netmetrics.entropy_cdf(netmetrics.commenter_entropy(self.attention))

    @cached_property
    def discourse_report(self) -> discourse.DiscourseReport:
        return discourse.aggregate_discourse(self.comment_counts.discourse, self.community)


@dataclass(frozen=True)
class CommunityResult:
    """What the report tables read of one community, without its corpus. A
    :class:`CommunityPipeline` has the same names, so stage files render from it."""

    community: str
    attributes: Mapping[str, str]
    stats: collab.CollabShareStats
    synergy_report: synergy.SynergyReport
    reciprocity: synergy.ReciprocityStats
    centrality: netmetrics.CentralitySummary
    cdf: list[tuple[float, float]]
    discourse_report: discourse.DiscourseReport


Communities = Sequence[CommunityResult | CommunityPipeline]


def _num(value: Fraction | float | None, missing: str = "") -> str:
    """Full-precision machine rendering; ``missing`` for None."""
    if value is None:
        return missing
    return repr(float(value))


def format_compact(value: float | Fraction | None) -> str:
    """Three-significant-decimal rendering for human tables."""
    if value is None:
        return ABSENT
    x = float(value)
    if x == 0:
        return "0.000"
    if abs(x) >= 0.1:
        return f"{x:.3f}"
    return f"{x:.3g}"


def _load(directory: str, config: RunConfig) -> tuple[Corpus, dict[str, str]]:
    """One directory's corpus, its videos capped as ``config`` asks, and the digests of its registry
    and videos files; its comments are read when they are folded."""
    corpus, _, digests = load_corpus_dir(directory, attribute_key=config.attribute_key)
    if config.max_videos_per_channel is None:
        return corpus, digests
    videos = cap_videos_per_channel(corpus.videos, config.max_videos_per_channel)
    return dataclasses.replace(corpus, videos=videos), digests


def run_report(config: RunConfig) -> ReportBundle:
    """Run the full pipeline and write the report bundle.

    Each directory is ingested and runs its five per-community stages, and
    only its :class:`CommunityResult` is kept before the next one loads: the
    run peaks at about its largest community, and a bad later directory
    fails after the earlier communities' stages ran. Ingest reads the
    registry and videos first; the comments, whose discourse groups come
    from the dyads, are read in one pass after the network stage, still as
    part of ingest. The manifest is always written; on failure a
    :class:`RunStageError` propagates after the manifest records the stage.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage_status: dict[str, str] = {stage: "not-run" for stage in STAGES}
    notes: list[str] = [
        "reciprocal dyads (A hosts B, B hosts A) are counted as distinct dyads",
        f"synergy aggregation statistic: {config.statistic}",
        f"baseline mode: {config.baseline_mode}",
    ]
    inputs: dict[str, dict[str, str]] = {}
    manifest_path = out_dir / "manifest.json"

    def run(stage: str, fn, where: str = ""):
        try:
            value = fn()
        except Exception as exc:
            stage_status[stage] = f"failed: {where}{exc}"
            raise RunStageError(stage, exc, where) from exc
        stage_status[stage] = "ok"
        return value

    sources: dict[str, str] = {}  # community -> its corpus directory

    def ingest(directory: str) -> Corpus:
        corpus, digests = _load(directory, config)
        if corpus.community in sources:
            raise ValidationError(
                f"community {corpus.community!r} is in two corpus directories: "
                f"{sources[corpus.community]} and {directory}"
            )
        sources[corpus.community] = directory
        inputs[corpus.community] = digests
        return corpus

    def community(directory: str) -> CommunityResult:
        # The pipeline, and with it the corpus, lives only in this call.
        p = CommunityPipeline(run("ingest", lambda: ingest(directory)), config)
        where = f"community {p.community!r}: "
        run("collabs", lambda: p.collaborations, where)
        run("synergy", lambda: (p.synergy_report, p.reciprocity), where)
        run("network", lambda: p.centrality, where)
        run("ingest", lambda: p.comment_counts, where)
        inputs[p.community][p.corpus.comments.path.name] = p.corpus.comments.digest()
        run("entropy", lambda: p.cdf, where)
        run("discourse", lambda: p.discourse_report, where)
        return CommunityResult(**{f.name: getattr(p, f.name) for f in dataclasses.fields(CommunityResult)})

    try:
        results = [community(directory) for directory in config.community_dirs]
        for r in results:
            if r.stats.two_way_videos == 0:
                notes.append(f"no collaborations detected in community {r.community!r}")

        artifacts = run("render", lambda: _render(results, config, out_dir))
    finally:
        write_json(
            manifest_path,
            {
                "tool": "collabmetrics",
                "version": __version__,
                "config": dataclasses.asdict(config),
                "inputs": inputs,
                "stages": stage_status,
                "notes": notes,
            },
        )

    return ReportBundle(out_dir=out_dir, artifacts=artifacts, manifest_path=manifest_path)


# ---------------------------------------------------------------------------
# Tables: each report artifact is one (header, rows) table over the
# communities of a run; stage files select from the same tables.

Table = tuple[list[str], list[list]]


def _type_columns(results: Communities) -> list[str]:
    return synergy.dyad_type_order(sorted({label for r in results for label in r.attributes.values()}))


def _shares_table(results: Communities) -> Table:
    type_cols = _type_columns(results)
    header = ["community", "total_videos", "two_way_videos", "multi_way_videos", "two_way_share"]
    rows = [
        [
            r.community,
            r.stats.total_videos,
            r.stats.two_way_videos,
            r.stats.multi_way_videos,
            _num(r.stats.two_way_share),
            *(_num(r.stats.share_by_dyad_type.get(t), ABSENT) for t in type_cols),
        ]
        for r in results
    ]
    return header + [f"share_{t}" for t in type_cols], rows


def _synergy_table(results: Communities, side: str) -> Table:
    type_cols = _type_columns(results)
    rows = []
    for r in results:
        aggs = [r.synergy_report.rows.get(t) for t in type_cols]
        cells = [ABSENT if a is None else _num(a.shapn_host if side == "host" else a.shapn_guest) for a in aggs]
        rows.append([r.community, r.synergy_report.statistic, *cells])
    return ["community", "statistic", *type_cols], rows


def _reciprocity_table(results: Communities) -> Table:
    header = ["community", "videos_counted", "host_greater", "guest_greater", "tied", "skipped_videos"]
    rows = [
        [
            r.community,
            r.reciprocity.videos_counted,
            _num(r.reciprocity.host_greater),
            _num(r.reciprocity.guest_greater),
            _num(r.reciprocity.tied),
            r.reciprocity.skipped_videos,
        ]
        for r in results
    ]
    return header, rows


def _centrality_table(results: Communities) -> Table:
    """Closeness distribution summary per attribute value."""
    header = [
        "community", "attribute_value", "n_channels",
        "median_closeness", "mean_closeness", "min_closeness", "max_closeness",
    ]
    rows = [
        [
            r.community,
            attr,
            len(summary.values),
            _num(summary.median),
            _num(fmean(summary.values)),
            _num(min(summary.values)),
            _num(max(summary.values)),
        ]
        for r in results
        for attr, summary in r.centrality.by_attribute.items()
    ]
    return header, rows


def _discourse_groups(report: discourse.DiscourseReport) -> list[discourse.DiscourseRow]:
    """The dyad-type rows, then the baseline row if there is one."""
    return [*report.by_dyad_type.values(), *([report.baseline] if report.baseline is not None else [])]


def _discourse_table(results: Communities) -> Table:
    categories = results[0].discourse_report.categories if results else discourse.TOPIC_CATEGORIES
    header = ["community", "group", "comment_count", "mean_sentiment", "stdev_sentiment"]
    rows = [
        [
            r.community,
            row.group,
            row.comment_count,
            _num(row.mean_sentiment),
            _num(row.stdev_sentiment),
            *(_num(row.topic_proportions.get(cat, 0.0)) for cat in categories),
        ]
        for r in results
        for row in _discourse_groups(r.discourse_report)
    ]
    return header + [f"prop_{cat}" for cat in categories], rows


def _entropy_cdf_table(results: Communities) -> Table:
    rows = [[r.community, _num(t), _num(f)] for r in results for t, f in r.cdf]
    return ["community", "threshold", "cumulative_fraction"], rows


_REPORT_TABLES: dict[str, Callable[[Communities], Table]] = {
    "shares": _shares_table,
    "synergy_host": lambda results: _synergy_table(results, "host"),
    "synergy_guest": lambda results: _synergy_table(results, "guest"),
    "reciprocity": _reciprocity_table,
    "centrality": _centrality_table,
    "discourse": _discourse_table,
    "entropy_cdf": _entropy_cdf_table,
}


def _columns(table: Table, start: int, stop: int | None = None) -> Table:
    header, rows = table
    return header[start:stop], [row[start:stop] for row in rows]


def _synergy_rows(report: synergy.SynergyReport) -> dict:
    return {
        t: {
            "dyad_count": agg.dyad_count,
            "video_count": agg.video_count,
            "shapn_host": float(agg.shapn_host),
            "shapn_guest": float(agg.shapn_guest),
        }
        for t, agg in report.rows.items()
    }


def _discourse_rows(report: discourse.DiscourseReport) -> dict:
    return {
        row.group: {
            "comment_count": row.comment_count,
            "mean_sentiment": row.mean_sentiment,
            "stdev_sentiment": row.stdev_sentiment,
            "topic_proportions": dict(row.topic_proportions),
        }
        for row in _discourse_groups(report)
    }


def _render(results: Communities, config: RunConfig, out_dir: Path) -> dict[str, Path]:
    artifacts: dict[str, Path] = {}
    if "csv" in config.formats:
        for name, table in _REPORT_TABLES.items():
            artifacts[name] = out_dir / f"{name}.csv"
            write_csv(artifacts[name], *table(results))
    if "json" in config.formats:
        artifacts["report_json"] = out_dir / "report.json"
        write_json(artifacts["report_json"], _json_payload(results))
    if "table" in config.formats:
        artifacts["report_table"] = out_dir / "report.txt"
        artifacts["report_table"].write_text(_text_tables(results), encoding="utf-8")
    return artifacts


def _json_payload(results: Communities) -> dict:
    payload: dict = {"communities": {}}
    for r in results:
        payload["communities"][r.community] = {
            "shares": {
                "total_videos": r.stats.total_videos,
                "two_way_videos": r.stats.two_way_videos,
                "multi_way_videos": r.stats.multi_way_videos,
                "by_dyad_type": {t: float(f) for t, f in r.stats.share_by_dyad_type.items()},
            },
            "synergy": {"statistic": r.synergy_report.statistic, "rows": _synergy_rows(r.synergy_report)},
            "reciprocity": {
                "videos_counted": r.reciprocity.videos_counted,
                "host_greater": float(r.reciprocity.host_greater),
                "guest_greater": float(r.reciprocity.guest_greater),
                "tied": float(r.reciprocity.tied),
            },
            "centrality": {
                attr: {"median": s.median, "values": list(s.values)}
                for attr, s in r.centrality.by_attribute.items()
            },
            "entropy_cdf": [[t, f] for t, f in r.cdf],
            "discourse": _discourse_rows(r.discourse_report),
        }
    return payload


def _compact(cell: str) -> str:
    """A full-precision table cell (or ``ABSENT``) at three significant decimals."""
    return cell if cell == ABSENT else format_compact(float(cell))


def _text_tables(results: Communities) -> str:
    """Aligned text tables with compact numbers (three significant decimals)."""
    lines: list[str] = []

    def table(title: str, header: list[str], rows: list[list[str]]) -> None:
        lines.append(title)
        widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i]) for i in range(len(header))]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        lines.append("")

    for side in ("host", "guest"):
        header, rows = _synergy_table(results, side)
        table(
            f"Normalized contribution ({side} side)",
            [header[0], *header[2:]],
            [[row[0], *map(_compact, row[2:])] for row in rows],
        )
    _, rows = _shares_table(results)
    table(
        "Collaboration shares",
        ["community", "two_way_share", "two_way", "multi_way"],
        [[row[0], _compact(row[4]), str(row[2]), str(row[3])] for row in rows],
    )
    _, rows = _centrality_table(results)
    table(
        "Median closeness by attribute",
        ["community", "attribute", "median"],
        [[row[0], row[1], _compact(row[3])] for row in rows],
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Stage subcommands: each writes its files into ``out`` and returns the
# one-line summary the subcommand prints.


def write_collabs(p: CommunityPipeline, out: Path) -> str:
    dyads, stats = p.collaborations
    write_jsonl(
        out / "dyads.jsonl",
        (
            {"host": d.host, "guest": d.guest, "dyad_type": d.dyad_type, "videos": list(d.videos)}
            for d in dyads
        ),
    )
    write_csv(
        out / "shares.csv",
        ["dyad_type", "videos", "share_of_all_videos"],
        # each share is an exact fraction of total_videos
        ([t, int(share * stats.total_videos), _num(share)] for t, share in sorted(stats.share_by_dyad_type.items())),
    )
    write_jsonl(
        out / "stats.jsonl",
        [
            {
                "total_videos": stats.total_videos,
                "two_way_videos": stats.two_way_videos,
                "multi_way_videos": stats.multi_way_videos,
                "two_way_share": float(stats.two_way_share),
                "share_by_dyad_type": {t: float(s) for t, s in stats.share_by_dyad_type.items()},
            }
        ],
    )
    return (
        f"{len(dyads)} dyads; {stats.two_way_videos} two-way and "
        f"{stats.multi_way_videos} multi-way videos of {stats.total_videos}"
    )


def write_synergy(p: CommunityPipeline, out: Path) -> str:
    synergies, diagnostics = p.synergies
    write_csv(
        out / "dyad_synergy.csv",
        [
            "host", "guest", "dyad_type", "n_videos", "mean_collab_views", "baseline_host", "baseline_guest",
            "shap2_host", "shap2_guest", "shapn_host", "shapn_guest", "lift_host", "lift_guest",
        ],
        (
            [
                s.dyad.host,
                s.dyad.guest,
                s.dyad.dyad_type,
                s.n_videos,
                *map(_num, (s.mean_collab_views, s.baseline_host, s.baseline_guest, s.shap2_host,
                            s.shap2_guest, s.shapn_host, s.shapn_guest, s.lift_host, s.lift_guest)),
            ]
            for s in synergies
        ),
    )
    report = p.synergy_report
    write_csv(
        out / "synergy_by_type.csv",
        ["dyad_type", "dyad_count", "video_count", "shapn_host", "shapn_guest", "statistic"],
        (
            [t, agg.dyad_count, agg.video_count, _num(agg.shapn_host), _num(agg.shapn_guest), report.statistic]
            for t, agg in report.rows.items()
        ),
    )
    write_json(
        out / "synergy_by_type.json",
        {"community": report.community, "statistic": report.statistic, "rows": _synergy_rows(report)},
    )
    for side in ("host", "guest"):
        write_csv(out / f"synergy_{side}.csv", *_synergy_table([p], side))
    write_csv(out / "reciprocity.csv", *_columns(_reciprocity_table([p]), 1))
    skipped = len(diagnostics.skipped_no_baseline)
    return f"{len(synergies)} dyads scored ({skipped} skipped without baselines)"


def write_network(p: CommunityPipeline, out: Path) -> str:
    closeness = p.centrality.closeness
    write_csv(
        out / "node_metrics.csv",
        ["channel_id", "attribute", "closeness"],
        ([c, p.attributes.get(c, ""), _num(closeness[c])] for c in sorted(closeness)),
    )
    write_csv(out / "centrality_summary.csv", *_columns(_centrality_table([p]), 1, 4))
    return f"{len(p.graph.nodes)} nodes, {len(p.graph.edges)} edges"


def write_entropy(p: CommunityPipeline, out: Path) -> str:
    entropy = p.entropy
    write_csv(
        out / "commenter_entropy.csv",
        ["author_id", "entropy_bits"],
        ([author, _num(entropy[author])] for author in sorted(entropy)),
    )
    write_csv(out / "entropy_cdf.csv", *_columns(_entropy_cdf_table([p]), 1))
    return f"{len(entropy)} commenters"


def write_discourse(p: CommunityPipeline, out: Path) -> str:
    report = p.discourse_report
    write_csv(out / "discourse.csv", *_columns(_discourse_table([p]), 1))
    write_json(
        out / "discourse.json",
        {"community": report.community, "categories": list(report.categories), "rows": _discourse_rows(report)},
    )
    return f"{len(_discourse_groups(report))} discourse rows"
