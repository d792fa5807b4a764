"""Metamorphic relations of a whole report: rewrites of a corpus that leave every bundle file unchanged.

Each relation is checked on one dead-by-daylight corpus (seed 5, audience
800: 3,199 comments on 2,500 videos). Every file of the bundle must be
byte-identical, and the manifest equal but for its input digests and
corpus directories.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil

import pytest

from collabmetrics.corpus import corpus_files
from collabmetrics.simgen import preset, simulate_to_dir

from .conftest import report_bundle

SPEC = dataclasses.replace(preset("dead-by-daylight", seed=5), audience_size=800)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("metamorphic")


@pytest.fixture(scope="module")
def jsonl_dir(root):
    simulate_to_dir(SPEC, root / "jsonl")
    return root / "jsonl"


@pytest.fixture(scope="module")
def bundle(root, jsonl_dir):
    """The bundle of the corpus as the simulator writes it; every variant's report goes to the same ``out``."""
    return report_bundle(jsonl_dir, root / "out")


def _variant(jsonl_dir, target, rewrite):
    """A copy of the JSON-lines corpus with each file's lines passed through ``rewrite(stem, lines)``."""
    shutil.copytree(jsonl_dir, target)
    for stem, path in corpus_files(target).items():
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(rewrite(stem, lines)), encoding="utf-8")
    return target


def test_csv_corpus_gives_the_same_bundle(root, bundle):
    simulate_to_dir(SPEC, root / "csv", fmt="csv")
    assert corpus_files(root / "csv")["comments"].suffix == ".csv"
    assert report_bundle(root / "csv", root / "out") == bundle


def test_cap_that_drops_nothing_gives_the_same_bundle(root, jsonl_dir, bundle):
    """A cap of the preset's videos per channel drops no video; only the manifest's config records it.
    The comments are then folded on the capped table, with their own orphan check."""
    files, manifest = report_bundle(jsonl_dir, root / "out", max_videos_per_channel=SPEC.videos_per_channel)
    assert manifest["config"]["max_videos_per_channel"] == SPEC.videos_per_channel == 50
    manifest["config"]["max_videos_per_channel"] = bundle[1]["config"]["max_videos_per_channel"]
    assert (files, manifest) == bundle


def test_shuffled_rows_give_the_same_bundle(root, jsonl_dir, bundle):
    """The rows of all three files in another order; no id repeats, so which occurrence is first never matters."""
    key = {"registry": "channel_id", "videos": "video_id", "comments": "comment_id"}

    def shuffled(stem, lines):
        ids = [json.loads(line)[key[stem]] for line in lines]
        assert len(set(ids)) == len(ids)
        lines = list(lines)
        random.Random(stem).shuffle(lines)
        return lines

    assert report_bundle(_variant(jsonl_dir, root / "shuffled", shuffled), root / "out") == bundle


def test_neutral_token_in_every_text_gives_the_same_bundle(root, jsonl_dir, bundle):
    """A distinct token in neither the lexicon nor the keyword table, after every comment's text."""

    def marked(stem, lines):
        if stem != "comments":
            return lines
        rows = [json.loads(line) for line in lines]
        for i, row in enumerate(rows):
            row["text"] = f"{row.get('text', '')} qq{i}"
        assert len({row["text"] for row in rows}) == len(rows)
        return [json.dumps(row) + "\n" for row in rows]

    assert report_bundle(_variant(jsonl_dir, root / "marked", marked), root / "out") == bundle
