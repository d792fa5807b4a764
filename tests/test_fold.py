"""The report folds each community's comments in one pass, as they load, and holds no comment table."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import shutil
import tracemalloc
from bisect import bisect_right
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from collabmetrics import corpus, discourse, report
from collabmetrics.cli import main
from collabmetrics.corpus import STEP, CommentTable, RowError, load_comments
from collabmetrics.errors import ValidationError
from collabmetrics.netmetrics import AttentionGraph, commenter_entropy, entropy_cdf
from collabmetrics.report import CommunityPipeline, RunConfig, run_report
from collabmetrics.simgen import preset, simulate_to_dir, spec_from_dict

from .conftest import TableFold, report_bundle


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A small simulated corpus whose comments fill several read steps."""
    out = tmp_path_factory.mktemp("fold") / "mini"
    spec = spec_from_dict(
        {"community": "minigame", "n_channels": 10, "attribute_ratios": {"M": 6, "W": 4}, "seed": 5,
         "videos_per_channel": 8, "collab_rate": 0.15, "audience_size": 60}
    )
    simulate_to_dir(spec, out)
    assert len(_lines(out / "comments.jsonl")) > 2 * STEP
    return out


def _lines(path):
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


def _copy(directory, target, comments):
    """A copy of a corpus directory with ``comments`` as its comments file's lines."""
    shutil.copytree(directory, target)
    (target / "comments.jsonl").write_text("".join(comments), encoding="utf-8")
    return target


class TestDuplicateCheck:
    def test_repeat_of_a_folded_row_reads_the_file_again(self, corpus_dir, tmp_path):
        """With every id hashing alike, a repeat of the file's first row, folded
        with the first step, is found by reading the file once more: the
        bundle equals that of the file without the repeat."""
        lines = _lines(corpus_dir / "comments.jsonl")
        repeated = _copy(corpus_dir, tmp_path / "repeated", lines + lines[:1])
        want = report_bundle(corpus_dir, tmp_path / "out")
        with mock.patch.object(corpus, "_id_hash", lambda comment_id: 0), \
                mock.patch.object(corpus, "_ids_at", wraps=corpus._ids_at) as ids_at:
            got = report_bundle(repeated, tmp_path / "out")
        assert ids_at.call_count == 1 and set(ids_at.call_args.args[1]) == {0}
        assert got == want
        summary = json.loads(CliRunner().invoke(main, ["ingest", "--corpus", str(repeated)]).output)
        assert (summary["comments"], summary["comment_row_errors"]) == (len(lines), 1)

    def test_orphan_id_counts_as_seen(self, tmp_path):
        """A good row that repeats an orphan's id, a step later, is a duplicate.
        The orphan's id is held, so the file is not read again."""
        path = tmp_path / "comments.jsonl"
        ids = ["o1"] + [f"c{i}" for i in range(STEP)] + ["o1"]
        videos = ["gone"] + ["v1"] * (STEP + 1)
        path.write_text("".join(
            json.dumps({"comment_id": c, "video_id": v, "author_id": "u", "published_at": "2024-01-01T00:00:00Z"}) + "\n"
            for c, v in zip(ids, videos)
        ), encoding="utf-8")
        with mock.patch.object(corpus, "_ids_at", wraps=corpus._ids_at) as ids_at:
            fold, got = load_comments(path, {"v1": "A"}, TableFold())
        assert ids_at.call_count == 0
        assert list(fold.table().comment_ids) == ids[1:STEP + 1]
        assert got.orphans == (RowError(1, "unknown video_id 'gone'"),)
        assert got.errors == (RowError(STEP + 2, "duplicate comment_id 'o1'"),)

    def test_held_back_comment_without_a_label_fails_discourse(self, corpus_dir, monkeypatch):
        """A comment held back as a candidate is folded after the pass; if
        ``--labels`` lacks it, the discourse stage fails, not the pass."""
        ids = [json.loads(line)["comment_id"] for line in _lines(corpus_dir / "comments.jsonl")]
        first, last = ids[0], ids[-1]
        monkeypatch.setattr(corpus, "_id_hash", lambda comment_id: 0 if comment_id in (first, last) else hash(comment_id))
        loaded, _, _ = corpus.load_corpus_dir(corpus_dir)
        p = CommunityPipeline(loaded, RunConfig(community_dirs=(), out_dir=""), labels=dict.fromkeys(ids[:-1], "other"))
        assert len(p.comment_counts) == len(ids) and p.cdf
        with pytest.raises(ValidationError, match=f"comment {last!r} lacks a topic label"):
            p.discourse_report

    def test_held_back_comment_without_a_label_is_a_cli_error(self, corpus_dir, tmp_path, monkeypatch):
        ids = [json.loads(line)["comment_id"] for line in _lines(corpus_dir / "comments.jsonl")]
        labels = tmp_path / "labels.jsonl"
        labels.write_text("".join(json.dumps({"comment_id": i, "label": "other"}) + "\n" for i in ids[:-1]), encoding="utf-8")
        monkeypatch.setattr(corpus, "_id_hash", lambda comment_id: 0)
        result = CliRunner().invoke(main, ["discourse", "--corpus", str(corpus_dir), "--labels", str(labels),
                                           "--out", str(tmp_path / "out")])
        assert (result.exit_code, result.output) == (1, f"Error: comment {ids[-1]!r} lacks a topic label\n")


@pytest.mark.parametrize("held", ["first", "second", None])
def test_discourse_error_names_the_first_faulty_comment(corpus_dir, monkeypatch, held):
    """``--labels`` lacks two comments, one early in the file and one late. The
    duplicate check holds a comment back when its hash bit is already set,
    which depends on ``PYTHONHASHSEED``; with either comment held back (a hash
    made to collide with the first row's), or neither, the discourse stage
    names the early one, as a read in file order finds it."""
    ids = [json.loads(line)["comment_id"] for line in _lines(corpus_dir / "comments.jsonl")]
    first, second = ids[STEP // 2], ids[-2]
    colliding = {ids[0], {"first": first, "second": second}.get(held)}
    monkeypatch.setattr(corpus, "_id_hash", lambda comment_id: 0 if comment_id in colliding else hash(comment_id))
    loaded, _, _ = corpus.load_corpus_dir(corpus_dir)
    labels = dict.fromkeys(set(ids) - {first, second}, "other")
    p = CommunityPipeline(loaded, RunConfig(community_dirs=(), out_dir=""), labels=labels)
    with pytest.raises(ValidationError, match=f"comment {first!r} lacks a topic label"):
        p.discourse_report


def test_fold_order_does_not_matter(corpus_dir):
    """Asked for the entropy before the discourse, a pipeline on a loaded
    corpus keeps the pairs it folded and folds only the discourse counts
    after them: the results equal a report's, and the comments file's digest
    is the file's, however many times it was read."""

    def pipeline():
        loaded, _, _ = corpus.load_corpus_dir(corpus_dir)
        return CommunityPipeline(loaded, RunConfig(community_dirs=(), out_dir=""))

    want = pipeline()
    want.comment_counts
    got = pipeline()
    with mock.patch.object(corpus, "load_comments", wraps=corpus.load_comments) as load:
        assert got.cdf == want.cdf
        assert got.discourse_report == want.discourse_report
    assert load.call_count == 2
    assert got.comment_counts.attention.weights == want.comment_counts.attention.weights
    digest = hashlib.sha256((corpus_dir / "comments.jsonl").read_bytes()).hexdigest()
    assert got.corpus.comments.digest() == want.corpus.comments.digest() == digest


@pytest.mark.parametrize("entropy_first", [True, False])
def test_fold_order_with_no_comments(corpus_dir, tmp_path, entropy_first):
    """An empty comments file gives empty pairs in either order: the counts
    folded first are kept, though they count nothing."""
    loaded, _, _ = corpus.load_corpus_dir(_copy(corpus_dir, tmp_path / "empty", []))
    p = CommunityPipeline(loaded, RunConfig(community_dirs=(), out_dir=""))
    if not entropy_first:
        p.comment_counts
    assert p.cdf == [] and p.discourse_report.baseline is None
    assert p.comment_counts.attention is not None and len(p.comment_counts.attention) == 0


def test_capped_out_comments_are_not_orphans(corpus_dir, caplog):
    """``max_videos_per_channel`` leaves the comments on the videos it drops
    out of both folds, without counting them as orphans."""
    config = RunConfig(community_dirs=(str(corpus_dir),), out_dir="", max_videos_per_channel=2)
    loaded, _ = report._load(str(corpus_dir), config)
    kept = set(loaded.videos.video_ids)
    rows = [json.loads(line) for line in _lines(corpus_dir / "comments.jsonl")]
    on_kept = sum(row["video_id"] in kept for row in rows)
    assert 0 < on_kept < len(rows)
    with caplog.at_level("WARNING", logger="collabmetrics.corpus"):
        counts = CommunityPipeline(loaded, config).comment_counts
    assert caplog.records == []
    assert len(counts) == len(rows)
    assert sum(counts.attention.weights.values()) == sum(counts.discourse.counts.values()) == on_kept


def _reference_cdf(entropy, grid=None):
    """The CDF over a sorted list of every commenter's entropy, as it was taken before it was counted."""
    values = sorted(entropy.values())
    if not values:
        return []
    thresholds = sorted(set(grid)) if grid is not None else sorted(set(values))
    return [(t, bisect_right(values, t) / len(values)) for t in thresholds]


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.sampled_from("abcdefgh"), st.sampled_from(["A", "B", "C", "D"])), st.integers(1, 9), max_size=24
    ),
    st.one_of(st.none(), st.lists(st.floats(-1, 3, allow_nan=False), max_size=6)),
)
def test_counted_cdf_equals_the_sorted_values_cdf(weights, grid):
    """The CDF from how many commenters have each entropy value equals the
    one from a sorted list of every commenter's value, float for float."""
    graph = AttentionGraph(commenters=frozenset(a for a, _ in weights), weights=weights)
    want = _reference_cdf(dict(commenter_entropy(graph)), grid)
    assert entropy_cdf(commenter_entropy(graph), grid) == want


def test_entropy_stage_scores_no_comment(corpus_dir, tmp_path, monkeypatch):
    """Asked for the entropy files alone, the pipeline folds only the attention pairs."""

    def fail(*args, **kwargs):
        raise AssertionError("the entropy stage scored or labelled comments")

    monkeypatch.setattr(discourse, "score_comments", fail)
    monkeypatch.setattr(discourse, "label_comments", fail)
    result = CliRunner().invoke(main, ["entropy", "--corpus", str(corpus_dir), "--out", str(tmp_path)], catch_exceptions=False)
    assert result.exit_code == 0 and (tmp_path / "entropy_cdf.csv").exists()


def test_report_and_stages_build_no_comment_table(corpus_dir, tmp_path, monkeypatch):
    """``report``, ``ingest`` and every stage subcommand read the comments file
    into folds; none builds a :class:`CommentTable`."""

    def refuse(*args, **kwargs):
        raise AssertionError("a comment table was built")

    monkeypatch.setattr(CommentTable, "__init__", refuse)
    runner = CliRunner()
    for command in (["report"], ["ingest"], ["collabs"], ["synergy"], ["network"], ["entropy"], ["discourse"]):
        out = [] if command == ["ingest"] else ["--out", str(tmp_path / command[0])]
        result = runner.invoke(main, [*command, "--corpus", str(corpus_dir), *out], catch_exceptions=False)
        assert result.exit_code == 0, result.output


def test_report_peak_per_comment(tmp_path):
    """One report's traced peak, per comment of an 8,000-comment corpus.

    On Python 3.11 it is about 197 bytes: the pair and triple counts, one
    step of comments, the duplicate check's hashes and bit map, and the
    corpus's videos. With every comment held in a table until the entropy
    and discourse stages had run, it was about 238.
    """
    directory = tmp_path / "valorant"
    simulate_to_dir(dataclasses.replace(preset("valorant", seed=5), audience_size=2000), directory)
    n_comments = len(_lines(directory / "comments.jsonl"))
    config = RunConfig(community_dirs=(str(directory),), out_dir=str(tmp_path / "out"))
    run_report(config)  # fills the run-wide caches (lexicon, keyword tables) before measuring
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_report(config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 7_500 < n_comments < 8_500
    assert peak / n_comments <= 222
