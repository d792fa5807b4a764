"""Command-line entry point.

Subcommands mirror the pipeline stages (``ingest``, ``collabs``,
``synergy``, ``network``, ``entropy``, ``discourse``), plus ``simulate``
for synthetic communities and ``report`` for the end-to-end bundle. Every
option can also be set through a ``COLLABMETRICS_``-prefixed environment
variable.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import click

from collabmetrics import __version__, discourse, report, simgen
from collabmetrics.corpus import (
    attribute_histogram,
    corpus_files,
    load_comments,
    load_corpus_dir,
    load_registry,
    load_videos,
)
from collabmetrics.errors import CollabMetricsError

_CONTEXT = {"auto_envvar_prefix": "COLLABMETRICS", "help_option_names": ["-h", "--help"]}


def _echo_json(payload) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))


def _run_stage(write, corpus_dir: str, attribute_key: str, out_dir: str, *inputs, **settings) -> None:
    """Print the summary of ``write``, one stage's file writer, run on one corpus.

    ``inputs`` are the pipeline's discourse scorer, classifier and labels;
    ``settings`` are :class:`RunConfig` fields.
    """
    try:
        corpus = load_corpus_dir(corpus_dir, attribute_key=attribute_key)
    except (CollabMetricsError, FileNotFoundError) as exc:
        raise click.ClickException(str(exc)) from exc
    config = report.RunConfig(community_dirs=(corpus_dir,), out_dir=out_dir, attribute_key=attribute_key, **settings)
    pipeline = report.CommunityPipeline(corpus, config, *inputs)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    try:
        summary = write(pipeline, Path(out_dir))
    except CollabMetricsError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(summary)


@click.group(context_settings=_CONTEXT)
@click.version_option(version=__version__, prog_name="collabmetrics")
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool) -> None:
    """Analytics for dyadic content-creator collaborations."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command()
@click.option("--corpus", "corpus_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--attribute-key", default="gender", show_default=True)
def ingest(corpus_dir: str, attribute_key: str) -> None:
    """Load and validate a corpus directory; print a summary with error counts."""
    try:
        files = corpus_files(corpus_dir)
        registry = load_registry(files["registry"], attribute_key=attribute_key)
    except (CollabMetricsError, FileNotFoundError) as exc:
        raise click.ClickException(str(exc)) from exc
    videos, video_errors = load_videos(files["videos"], registry)
    comments, comment_report = load_comments(files["comments"], videos)
    histogram = attribute_histogram(registry, attribute_key)
    _echo_json(
        {
            "community": registry[0].community if registry else "",
            "channels": len(registry),
            "videos": len(videos),
            "comments": len(comments),
            "attribute_histogram": dict(sorted(histogram.items())),
            "video_row_errors": len(video_errors),
            "comment_row_errors": len(comment_report.errors),
            "orphan_comments": len(comment_report.orphans),
        }
    )


@main.command()
@click.option("--corpus", "corpus_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--attribute-key", default="gender", show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def collabs(corpus_dir: str, attribute_key: str, out_dir: str) -> None:
    """Detect collaboration dyads; write dyads.jsonl and shares.csv."""
    _run_stage(report.write_collabs, corpus_dir, attribute_key, out_dir)


@main.command("synergy")
@click.option("--corpus", "corpus_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--attribute-key", default="gender", show_default=True)
@click.option("--baseline-mode", type=click.Choice(["solo", "all"]), default="solo", show_default=True)
@click.option("--statistic", type=click.Choice(["median", "mean"]), default="median", show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def synergy_cmd(corpus_dir: str, attribute_key: str, baseline_mode: str, statistic: str, out_dir: str) -> None:
    """Per-dyad contributions plus per-type aggregates and reciprocity."""
    _run_stage(report.write_synergy, corpus_dir, attribute_key, out_dir, baseline_mode=baseline_mode, statistic=statistic)


@main.command()
@click.option("--corpus", "corpus_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--attribute-key", default="gender", show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def network(corpus_dir: str, attribute_key: str, out_dir: str) -> None:
    """Collaboration-graph closeness per channel and per attribute value."""
    _run_stage(report.write_network, corpus_dir, attribute_key, out_dir)


@main.command()
@click.option("--corpus", "corpus_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--attribute-key", default="gender", show_default=True)
@click.option("--min-comments", default=1, show_default=True, help="Drop commenters below this activity.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def entropy(corpus_dir: str, attribute_key: str, min_comments: int, out_dir: str) -> None:
    """Commenter attention entropy and its CDF."""
    _run_stage(report.write_entropy, corpus_dir, attribute_key, out_dir, min_comments=min_comments)


@main.command("discourse")
@click.option("--corpus", "corpus_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--attribute-key", default="gender", show_default=True)
@click.option("--labels", "labels_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Precomputed topic labels (JSON-lines: comment_id, label).")
@click.option("--sentiment-lexicon", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--topic-keywords", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def discourse_cmd(
    corpus_dir: str,
    attribute_key: str,
    labels_path: str | None,
    sentiment_lexicon: str | None,
    topic_keywords: str | None,
    out_dir: str,
) -> None:
    """Sentiment and topic aggregation by dyad type."""
    if labels_path and topic_keywords:
        raise click.UsageError("--labels and --topic-keywords are mutually exclusive: labels replace the classifier")
    scorer = classifier = labels = None
    try:
        if sentiment_lexicon:
            scorer = discourse.LexiconSentimentScorer(discourse.load_sentiment_lexicon(sentiment_lexicon))
        if labels_path:
            labels = discourse.load_precomputed_labels(labels_path)
        elif topic_keywords:
            classifier = discourse.KeywordTopicClassifier(discourse.load_topic_keywords(topic_keywords))
    except CollabMetricsError as exc:
        raise click.ClickException(str(exc)) from exc
    _run_stage(report.write_discourse, corpus_dir, attribute_key, out_dir, scorer, classifier, labels)


@main.command()
@click.option("--preset", "preset_name", type=click.Choice([*simgen.PRESET_NAMES, "custom"]), default="valorant",
              show_default=True)
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Community spec JSON (required with --preset custom).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl", show_default=True)
def simulate(preset_name: str, spec_path: str | None, seed: int, out_dir: str, fmt: str) -> None:
    """Generate a synthetic community corpus plus its planted-truth file."""
    try:
        if preset_name == "custom":
            if not spec_path:
                raise click.ClickException("--preset custom requires --spec")
            raw = json.loads(Path(spec_path).read_text(encoding="utf-8"))
            raw["seed"] = seed
            spec = simgen.spec_from_dict(raw)
        else:
            spec = simgen.preset(preset_name, seed=seed)
        paths = simgen.simulate_to_dir(spec, out_dir, fmt=fmt)
    except CollabMetricsError as exc:
        raise click.ClickException(str(exc)) from exc
    for name, path in sorted(paths.items()):
        click.echo(f"{name}: {path}")


@main.command("report")
@click.option("--corpus", "corpus_dirs", multiple=True,
              type=click.Path(exists=True, file_okay=False),
              help="Corpus directory; repeat for a multi-community report.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="RunConfig JSON; explicit flags override its fields.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None)
@click.option("--attribute-key", default=None)
@click.option("--baseline-mode", type=click.Choice(["solo", "all"]), default=None)
@click.option("--statistic", type=click.Choice(["median", "mean"]), default=None)
@click.option("--min-comments", type=int, default=None)
@click.option("--max-videos-per-channel", type=int, default=None,
              help="Optionally cap each channel to its most recent N videos.")
@click.option("--format", "formats", type=click.Choice(["csv", "json", "table"]), multiple=True)
def report_cmd(
    corpus_dirs: tuple[str, ...],
    config_path: str | None,
    out_dir: str | None,
    attribute_key: str | None,
    baseline_mode: str | None,
    statistic: str | None,
    min_comments: int | None,
    max_videos_per_channel: int | None,
    formats: tuple[str, ...],
) -> None:
    """Run the full pipeline and write the report bundle."""
    raw: dict = {}
    if config_path:
        raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
    overrides = {
        "community_dirs": tuple(corpus_dirs) or None,
        "out_dir": out_dir,
        "attribute_key": attribute_key,
        "baseline_mode": baseline_mode,
        "statistic": statistic,
        "min_comments": min_comments,
        "max_videos_per_channel": max_videos_per_channel,
        "formats": tuple(formats) or None,
    }
    raw.update({k: v for k, v in overrides.items() if v is not None})
    raw.setdefault("formats", ("csv",))
    if not raw.get("community_dirs"):
        raise click.ClickException("at least one --corpus directory (or config community_dirs) is required")
    if not raw.get("out_dir"):
        raise click.ClickException("--out (or config out_dir) is required")
    try:
        config = report.RunConfig.from_dict(raw)
    except TypeError as exc:
        raise click.ClickException(f"bad config: {exc}") from exc
    try:
        bundle = report.run_report(config)
    except report.RunStageError as exc:
        click.echo(f"error: {exc} (manifest records the failure)", err=True)
        sys.exit(1)
    for name, path in sorted(bundle.artifacts.items()):
        click.echo(f"{name}: {path}")
    click.echo(f"manifest: {bundle.manifest_path}")


if __name__ == "__main__":
    main()
