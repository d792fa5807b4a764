"""End-to-end report bundles.

A run loads one corpus directory per community, executes every analysis
stage, and renders seven plot-ready artifacts plus a provenance manifest:

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
import hashlib
import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from statistics import fmean
from typing import Callable, Mapping, Sequence

from collabmetrics import __version__, collab, discourse, netmetrics, synergy
from collabmetrics.corpus import (
    Corpus,
    cap_videos_per_channel,
    corpus_files,
    load_corpus_dir,
    write_csv,
    write_json,
    write_jsonl,
)
from collabmetrics.errors import CollabMetricsError, ValidationError

__all__ = ["RunConfig", "ReportBundle", "RunStageError", "CommunityPipeline", "run_report"]

logger = logging.getLogger(__name__)

ABSENT = "—"  # em dash for dyad types a community never produced

STAGES = ("ingest", "collabs", "synergy", "network", "entropy", "discourse", "render")


class RunStageError(CollabMetricsError):
    """A pipeline stage failed; the manifest records which one."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


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

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "RunConfig":
        data = dict(raw)
        for key in ("community_dirs", "formats"):
            if key in data:
                data[key] = tuple(data[key])
        return cls(**data)


@dataclass(frozen=True)
class ReportBundle:
    out_dir: Path
    artifacts: Mapping[str, Path]
    manifest_path: Path


@dataclass
class CommunityPipeline:
    """Every analysis result for one community, each computed on first use.

    Report artifacts and stage files read the results they show and so
    compute only what they need: writing the ``network`` files never
    scores a comment. ``scorer``, ``classifier`` and precomputed ``labels``
    (topic label by comment id) replace the bundled discourse defaults.
    """

    corpus: Corpus
    config: RunConfig
    scorer: discourse.SentimentScorer | None = None
    classifier: discourse.TopicClassifier | None = None
    labels: Mapping[str, str] | None = None

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
        return synergy.reciprocity(self.dyads, self.baselines, self.corpus.community)

    @cached_property
    def attributes(self) -> dict[str, str]:
        key = self.config.attribute_key
        return {rec.channel_id: rec.attributes.get(key, "") for rec in self.corpus.registry}

    @cached_property
    def graph(self) -> netmetrics.CollabGraph:
        return netmetrics.build_collab_graph(self.dyads, self.corpus.registry)

    @cached_property
    def centrality(self) -> netmetrics.CentralitySummary:
        return netmetrics.closeness(self.graph, self.attributes)

    @cached_property
    def entropy(self) -> netmetrics.EntropyDistribution:
        attention = netmetrics.build_attention_graph(
            self.corpus.videos, self.corpus.comments, min_comments=self.config.min_comments
        )
        return netmetrics.commenter_entropy(attention)

    @cached_property
    def cdf(self) -> list[tuple[float, float]]:
        return netmetrics.entropy_cdf(self.entropy)

    @cached_property
    def discourse_report(self) -> discourse.DiscourseReport:
        comments = self.corpus.comments
        scores = discourse.score_comments(comments, self.scorer)
        if self.labels is None:
            labels = discourse.label_comments(comments, self.classifier)
        else:
            try:
                labels = [self.labels[c.comment_id] for c in comments]
            except KeyError as exc:
                raise ValidationError(f"comment {exc.args[0]!r} lacks a topic label") from None
        return discourse.aggregate_discourse(
            comments, labels, scores, self.dyads, self.corpus, exclude_videos=self.partition.multi_way
        )


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


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


def _load(directory: str, config: RunConfig) -> Corpus:
    corpus = load_corpus_dir(directory, attribute_key=config.attribute_key)
    if config.max_videos_per_channel is None:
        return corpus
    videos = cap_videos_per_channel(corpus.videos, config.max_videos_per_channel)
    kept = {v.video_id for v in videos}
    return dataclasses.replace(
        corpus,
        videos=tuple(videos),
        comments=tuple(c for c in corpus.comments if c.video_id in kept),
    )


def run_report(config: RunConfig) -> ReportBundle:
    """Run the full pipeline and write the report bundle.

    The manifest is always written, even when a stage fails; on failure a
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

    def run(stage: str, fn):
        try:
            value = fn()
        except Exception as exc:
            stage_status[stage] = f"failed: {exc}"
            raise RunStageError(stage, exc) from exc
        stage_status[stage] = "ok"
        return value

    sources: dict[str, str] = {}  # community -> its corpus directory

    def ingest(directory: str) -> Corpus:
        corpus = _load(directory, config)
        if corpus.community in sources:
            raise ValidationError(
                f"community {corpus.community!r} is in two corpus directories: "
                f"{sources[corpus.community]} and {directory}"
            )
        sources[corpus.community] = directory
        return corpus

    try:
        pipelines: list[CommunityPipeline] = []
        for directory in config.community_dirs:
            corpus = run("ingest", lambda: ingest(directory))
            inputs[corpus.community] = {path.name: _digest(path) for path in corpus_files(directory).values()}
            pipelines.append(CommunityPipeline(corpus, config))

        for p in pipelines:
            run("collabs", lambda: p.collaborations)
            run("synergy", lambda: (p.synergy_report, p.reciprocity))
            run("network", lambda: p.centrality)
            run("entropy", lambda: p.cdf)
            run("discourse", lambda: p.discourse_report)

        for p in pipelines:
            if p.stats.two_way_videos == 0:
                notes.append(f"no collaborations detected in community {p.corpus.community!r}")

        artifacts = run("render", lambda: _render(pipelines, config, out_dir))
    finally:
        write_json(
            manifest_path,
            {
                "tool": "collabmetrics",
                "version": __version__,
                "config": config.to_dict(),
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


def _type_columns(pipelines: Sequence[CommunityPipeline]) -> list[str]:
    labels = {
        rec.attributes[p.config.attribute_key]
        for p in pipelines
        for rec in p.corpus.registry
        if p.config.attribute_key in rec.attributes
    }
    return synergy.dyad_type_order(sorted(labels))


def _shares_table(pipelines: Sequence[CommunityPipeline]) -> Table:
    type_cols = _type_columns(pipelines)
    header = ["community", "total_videos", "two_way_videos", "multi_way_videos", "two_way_share"]
    rows = [
        [
            p.corpus.community,
            p.stats.total_videos,
            p.stats.two_way_videos,
            p.stats.multi_way_videos,
            _num(p.stats.two_way_share),
            *(_num(p.stats.share_by_dyad_type.get(t), ABSENT) for t in type_cols),
        ]
        for p in pipelines
    ]
    return header + [f"share_{t}" for t in type_cols], rows


def _synergy_table(pipelines: Sequence[CommunityPipeline], side: str) -> Table:
    type_cols = _type_columns(pipelines)
    rows = []
    for p in pipelines:
        aggs = [p.synergy_report.rows.get(t) for t in type_cols]
        cells = [ABSENT if a is None else _num(a.shapn_host if side == "host" else a.shapn_guest) for a in aggs]
        rows.append([p.corpus.community, p.synergy_report.statistic, *cells])
    return ["community", "statistic", *type_cols], rows


def _reciprocity_table(pipelines: Sequence[CommunityPipeline]) -> Table:
    header = ["community", "videos_counted", "host_greater", "guest_greater", "tied", "skipped_videos"]
    rows = [
        [
            p.corpus.community,
            p.reciprocity.videos_counted,
            _num(p.reciprocity.host_greater),
            _num(p.reciprocity.guest_greater),
            _num(p.reciprocity.tied),
            p.reciprocity.skipped_videos,
        ]
        for p in pipelines
    ]
    return header, rows


def _centrality_table(pipelines: Sequence[CommunityPipeline]) -> Table:
    """Closeness distribution summary per attribute value."""
    header = [
        "community", "attribute_value", "n_channels",
        "median_closeness", "mean_closeness", "min_closeness", "max_closeness",
    ]
    rows = [
        [
            p.corpus.community,
            attr,
            len(summary.values),
            _num(summary.median),
            _num(fmean(summary.values)),
            _num(min(summary.values)),
            _num(max(summary.values)),
        ]
        for p in pipelines
        for attr, summary in p.centrality.by_attribute.items()
    ]
    return header, rows


def _discourse_groups(report: discourse.DiscourseReport) -> list[discourse.DiscourseRow]:
    """The dyad-type rows, then the baseline row if there is one."""
    return [*report.by_dyad_type.values(), *([report.baseline] if report.baseline is not None else [])]


def _discourse_table(pipelines: Sequence[CommunityPipeline]) -> Table:
    categories = pipelines[0].discourse_report.categories if pipelines else discourse.TOPIC_CATEGORIES
    header = ["community", "group", "comment_count", "mean_sentiment", "stdev_sentiment"]
    rows = [
        [
            p.corpus.community,
            row.group,
            row.comment_count,
            _num(row.mean_sentiment),
            _num(row.stdev_sentiment),
            *(_num(row.topic_proportions.get(cat, 0.0)) for cat in categories),
        ]
        for p in pipelines
        for row in _discourse_groups(p.discourse_report)
    ]
    return header + [f"prop_{cat}" for cat in categories], rows


def _entropy_cdf_table(pipelines: Sequence[CommunityPipeline]) -> Table:
    rows = [[p.corpus.community, _num(t), _num(f)] for p in pipelines for t, f in p.cdf]
    return ["community", "threshold", "cumulative_fraction"], rows


_REPORT_TABLES: dict[str, Callable[[Sequence[CommunityPipeline]], Table]] = {
    "shares": _shares_table,
    "synergy_host": lambda pipelines: _synergy_table(pipelines, "host"),
    "synergy_guest": lambda pipelines: _synergy_table(pipelines, "guest"),
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


def _render(
    pipelines: Sequence[CommunityPipeline], config: RunConfig, out_dir: Path
) -> dict[str, Path]:
    artifacts: dict[str, Path] = {}
    for name, table in _REPORT_TABLES.items():
        artifacts[name] = out_dir / f"{name}.csv"
        write_csv(artifacts[name], *table(pipelines))
    if "json" in config.formats:
        artifacts["report_json"] = out_dir / "report.json"
        write_json(artifacts["report_json"], _json_payload(pipelines))
    if "table" in config.formats:
        artifacts["report_table"] = out_dir / "report.txt"
        artifacts["report_table"].write_text(_text_tables(pipelines), encoding="utf-8")
    return artifacts


def _json_payload(pipelines: Sequence[CommunityPipeline]) -> dict:
    payload: dict = {"communities": {}}
    for p in pipelines:
        payload["communities"][p.corpus.community] = {
            "shares": {
                "total_videos": p.stats.total_videos,
                "two_way_videos": p.stats.two_way_videos,
                "multi_way_videos": p.stats.multi_way_videos,
                "by_dyad_type": {t: float(f) for t, f in p.stats.share_by_dyad_type.items()},
            },
            "synergy": {"statistic": p.synergy_report.statistic, "rows": _synergy_rows(p.synergy_report)},
            "reciprocity": {
                "videos_counted": p.reciprocity.videos_counted,
                "host_greater": float(p.reciprocity.host_greater),
                "guest_greater": float(p.reciprocity.guest_greater),
                "tied": float(p.reciprocity.tied),
            },
            "centrality": {
                attr: {"median": s.median, "values": list(s.values)}
                for attr, s in p.centrality.by_attribute.items()
            },
            "entropy_cdf": [[t, f] for t, f in p.cdf],
            "discourse": _discourse_rows(p.discourse_report),
        }
    return payload


def _compact(cell: str) -> str:
    """A full-precision table cell (or ``ABSENT``) at three significant decimals."""
    return cell if cell == ABSENT else format_compact(float(cell))


def _text_tables(pipelines: Sequence[CommunityPipeline]) -> str:
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
        header, rows = _synergy_table(pipelines, side)
        table(
            f"Normalized contribution ({side} side)",
            [header[0], *header[2:]],
            [[row[0], *map(_compact, row[2:])] for row in rows],
        )
    _, rows = _shares_table(pipelines)
    table(
        "Collaboration shares",
        ["community", "two_way_share", "two_way", "multi_way"],
        [[row[0], _compact(row[4]), str(row[2]), str(row[3])] for row in rows],
    )
    _, rows = _centrality_table(pipelines)
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
    entropy = p.entropy.entropy
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
