"""Command-line entry point.

Subcommands mirror the pipeline stages (``ingest``, ``collabs``,
``synergy``, ``network``, ``entropy``, ``discourse``), plus ``simulate``
for synthetic communities and ``report`` for the end-to-end bundle. Every
option can also be set through ``COLLABMETRICS_<COMMAND>_<NAME>``, ``NAME``
being its parameter name in capitals (``--out`` is ``OUT_DIR``).
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path

import click

from collabmetrics import PRESET_NAMES, __version__, discourse, report
from collabmetrics.corpus import attribute_histogram, load_corpus_dir
from collabmetrics.errors import CollabMetricsError, ConfigurationError
from collabmetrics.synergy import BASELINE_MODES, STATISTICS

_CONTEXT = {"auto_envvar_prefix": "COLLABMETRICS", "help_option_names": ["-h", "--help"]}


def _read_json_object(path: str) -> dict:
    """The JSON object in the file ``path``; anything else is a one-line error naming the file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise click.ClickException(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise click.ClickException(f"{path}: expected a JSON object, got {type(raw).__name__}")
    return raw


def _run_stage(write, *inputs, corpus_dir: str, **settings) -> None:
    """Print the summary of ``write``, one stage's file writer, run on one corpus.

    ``inputs`` are the pipeline's discourse scorer, classifier and labels;
    ``settings`` are :class:`RunConfig` fields.
    """
    corpus, _, _ = load_corpus_dir(corpus_dir, attribute_key=settings["attribute_key"])
    config = report.RunConfig(community_dirs=(corpus_dir,), **settings)
    pipeline = report.CommunityPipeline(corpus, config, *inputs)
    Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    click.echo(write(pipeline, Path(config.out_dir)))


class _Command(click.Command):
    """A command whose ``--help`` reads no environment variable."""

    def get_help_option(self, ctx: click.Context) -> click.Option | None:
        option = super().get_help_option(ctx)
        if option is not None:
            option.allow_from_autoenv = False
        return option


class _Main(_Command, click.Group):
    """The command group; a toolkit error or a missing input file in any
    subcommand ends the run with a one-line ``Error:`` and exit status 1."""

    command_class = _Command

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (CollabMetricsError, FileNotFoundError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main, context_settings=_CONTEXT)
@click.version_option(version=__version__, prog_name="collabmetrics", allow_from_autoenv=False)
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
@click.pass_context
def main(ctx: click.Context, verbose: bool) -> None:
    """Analytics for dyadic content-creator collaborations."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    for name in _unread_variables(ctx):
        click.echo(f"Warning: {name} is read by no command; it is ignored", err=True)


def _unread_variables(group: click.Context) -> list[str]:
    """The set environment variables with the group's prefix that no option of any command reads."""
    commands = group.command.commands.items()
    read = {
        f"{ctx.auto_envvar_prefix}_{param.name.upper()}"
        for ctx in [group, *(click.Context(c, parent=group, info_name=name) for name, c in commands)]
        for param in ctx.command.get_params(ctx)
        if isinstance(param, click.Option) and param.allow_from_autoenv
    }
    return sorted(name for name in os.environ if name.startswith(f"{group.auto_envvar_prefix}_") and name not in read)


_CORPUS = click.option("--corpus", "corpus_dir", required=True, type=click.Path(exists=True, file_okay=False))
_ATTRIBUTE_KEY = click.option("--attribute-key", default="gender", show_default=True)
_OUT = click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))


def _stage(name: str, *options):
    """Declare the stage subcommand ``name``: ``--corpus``, ``--attribute-key``, its own ``options``, ``--out``."""

    def declare(command):
        for option in reversed((_CORPUS, _ATTRIBUTE_KEY, *options, _OUT)):
            command = option(command)
        return main.command(name)(command)

    return declare


@main.command()
@_CORPUS
@_ATTRIBUTE_KEY
def ingest(corpus_dir: str, attribute_key: str) -> None:
    """Load and validate a corpus directory as ``report`` does; print a summary with drop counts."""
    corpus, dropped, _ = load_corpus_dir(corpus_dir, attribute_key=attribute_key)
    summary = {
        "community": corpus.community,
        "channels": len(corpus.registry),
        "videos": len(corpus.videos),
        "comments": len(corpus.comments),
        "attribute_histogram": dict(sorted(attribute_histogram(corpus.registry, attribute_key).items())),
        **dropped,
    }
    click.echo(json.dumps(summary, indent=2, sort_keys=True, ensure_ascii=False))


@_stage("collabs")
def collabs(**options) -> None:
    """Detect collaboration dyads; write dyads.jsonl and shares.csv."""
    _run_stage(report.write_collabs, **options)


@_stage(
    "synergy",
    click.option("--baseline-mode", type=click.Choice(BASELINE_MODES), default="solo", show_default=True),
    click.option("--statistic", type=click.Choice(STATISTICS), default="median", show_default=True),
)
def synergy_cmd(**options) -> None:
    """Per-dyad contributions plus per-type aggregates and reciprocity."""
    _run_stage(report.write_synergy, **options)


@_stage("network")
def network(**options) -> None:
    """Collaboration-graph closeness per channel and per attribute value."""
    _run_stage(report.write_network, **options)


@_stage(
    "entropy",
    click.option("--min-comments", default=1, show_default=True, help="Drop commenters below this activity."),
)
def entropy(**options) -> None:
    """Commenter attention entropy and its CDF."""
    _run_stage(report.write_entropy, **options)


@_stage(
    "discourse",
    click.option("--labels", "labels_path", type=click.Path(exists=True, dir_okay=False), default=None,
                 help="Precomputed topic labels (JSON-lines: comment_id, label)."),
    click.option("--sentiment-lexicon", type=click.Path(exists=True, dir_okay=False), default=None),
    click.option("--topic-keywords", type=click.Path(exists=True, dir_okay=False), default=None),
)
def discourse_cmd(labels_path: str | None, sentiment_lexicon: str | None, topic_keywords: str | None,
                  **options) -> None:
    """Sentiment and topic aggregation by dyad type."""
    if labels_path and topic_keywords:
        raise click.UsageError("--labels and --topic-keywords are mutually exclusive: labels replace the classifier")
    scorer = classifier = labels = None
    if sentiment_lexicon:
        scorer = discourse.LexiconSentimentScorer(discourse.load_sentiment_lexicon(sentiment_lexicon))
    if labels_path:
        labels = discourse.load_precomputed_labels(labels_path)
    elif topic_keywords:
        classifier = discourse.KeywordTopicClassifier(discourse.load_topic_keywords(topic_keywords))
    _run_stage(report.write_discourse, scorer, classifier, labels, **options)


@main.command()
@click.option("--preset", "preset_name", type=click.Choice([*PRESET_NAMES, "custom"]), default="valorant",
              show_default=True)
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Community spec JSON (required with --preset custom).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl", show_default=True)
def simulate(preset_name: str, spec_path: str | None, seed: int, out_dir: str, fmt: str) -> None:
    """Generate a synthetic community corpus plus its planted-truth file."""
    from collabmetrics import simgen  # only this command needs the generator and numpy
    if preset_name == "custom":
        if not spec_path:
            raise click.ClickException("--preset custom requires --spec")
        spec = simgen.spec_from_dict({**_read_json_object(spec_path), "seed": seed})
    else:
        spec = simgen.preset(preset_name, seed=seed)
    paths = simgen.simulate_to_dir(spec, out_dir, fmt=fmt)
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
@click.option("--baseline-mode", type=click.Choice(BASELINE_MODES), default=None)
@click.option("--statistic", type=click.Choice(STATISTICS), default=None)
@click.option("--min-comments", type=int, default=None)
@click.option("--max-videos-per-channel", type=int, default=None,
              help="Optionally cap each channel to its most recent N videos.")
@click.option("--format", "formats", type=click.Choice(report.FORMATS), multiple=True)
def report_cmd(config_path: str | None, corpus_dirs: tuple[str, ...], **flags) -> None:
    """Run the full pipeline and write the report bundle."""
    raw = _read_json_object(config_path) if config_path else {}
    flags["community_dirs"] = corpus_dirs  # each other flag is named after its RunConfig field
    raw.update({field: value for field, value in flags.items() if value not in (None, ())})
    if not raw.get("community_dirs"):
        raise click.ClickException("at least one --corpus directory (or config community_dirs) is required")
    if not raw.get("out_dir"):
        raise click.ClickException("--out (or config out_dir) is required")
    try:
        config = report.RunConfig.from_dict(raw)
    except ConfigurationError as exc:
        raise click.ClickException(f"bad config: {exc}") from exc
    try:
        bundle = report.run_report(config)
    except report.RunStageError as exc:
        raise click.ClickException(f"{exc} (manifest records the failure)") from exc
    for name, path in sorted(bundle.artifacts.items()):
        click.echo(f"{name}: {path}")
    click.echo(f"manifest: {bundle.manifest_path}")


if __name__ == "__main__":
    main()
