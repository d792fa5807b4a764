"""CLI subcommands and the end-to-end report bundle."""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from collabmetrics import discourse
from collabmetrics.cli import main
from collabmetrics.corpus import corpus_files
from collabmetrics.report import (
    ABSENT,
    CommunityPipeline,
    RunConfig,
    RunStageError,
    format_compact,
    run_report,
)
from collabmetrics.simgen import preset, simulate_to_dir, spec_from_dict

SEVEN_ARTIFACTS = (
    "shares.csv",
    "synergy_host.csv",
    "synergy_guest.csv",
    "reciprocity.csv",
    "centrality.csv",
    "discourse.csv",
    "entropy_cdf.csv",
)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus") / "mini"
    spec = spec_from_dict(
        {
            "community": "minigame",
            "n_channels": 10,
            "attribute_ratios": {"M": 6, "W": 4},
            "seed": 5,
            "videos_per_channel": 8,
            "collab_rate": 0.15,
            "audience_size": 60,
        }
    )
    simulate_to_dir(spec, out)
    return out


def run_cli(*args):
    return CliRunner().invoke(main, [str(a) for a in args], catch_exceptions=False)


class TestSubcommands:
    def test_help_lists_subcommands(self):
        result = run_cli("--help")
        for sub in ("ingest", "collabs", "synergy", "network", "entropy", "discourse", "simulate", "report"):
            assert sub in result.output

    def test_ingest_summary(self, corpus_dir):
        result = run_cli("ingest", "--corpus", corpus_dir)
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["channels"] == 10
        assert payload["attribute_histogram"] == {"M": 6, "W": 4}

    def test_collabs_outputs(self, corpus_dir, tmp_path):
        result = run_cli("collabs", "--corpus", corpus_dir, "--out", tmp_path)
        assert result.exit_code == 0
        assert (tmp_path / "dyads.jsonl").exists()
        assert (tmp_path / "shares.csv").read_text().startswith("dyad_type,")
        stats = json.loads((tmp_path / "stats.jsonl").read_text())
        assert stats["total_videos"] == 80

    def test_ingest_reports_row_errors(self, corpus_dir, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(corpus_dir, broken)
        with (broken / "videos.jsonl").open("a", encoding="utf-8") as fh:
            fh.write(
                '{"video_id": "bad", "channel_id": "minigame-c000", '
                '"published_at": "2024-01-01T00:00:00Z", "view_count": -3}\n'
            )
            fh.write('{"video_id": "cut", "channel_\n')
        with (broken / "comments.jsonl").open("a", encoding="utf-8") as fh:
            fh.write('{"comment_id": \n')
        result = run_cli("ingest", "--corpus", broken)
        payload = json.loads(result.output)
        assert payload["video_row_errors"] == 2
        assert payload["comment_row_errors"] == 1

    def test_ingest_validates_as_report_does(self, corpus_dir, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(corpus_dir, broken)
        rows = [json.loads(line) for line in (broken / "registry.jsonl").read_text(encoding="utf-8").splitlines()]
        rows[-1]["community"] = "othergame"
        (broken / "registry.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        message = "registry spans multiple communities: ['minigame', 'othergame']"
        result = run_cli("ingest", "--corpus", broken)
        assert result.exit_code == 1
        assert result.output == f"Error: {message}\n"
        with pytest.raises(RunStageError, match=r"stage 'ingest' failed: registry spans multiple communities"):
            run_report(RunConfig(community_dirs=(str(broken),), out_dir=str(tmp_path / "rep")))

    def test_undecodable_bytes_are_row_errors(self, corpus_dir, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(corpus_dir, broken)
        for name in ("videos.jsonl", "comments.jsonl"):
            lines = (broken / name).read_bytes().splitlines(keepends=True)
            middle = len(lines) // 2
            lines[middle] = lines[middle][:20] + b"\xff" + lines[middle][20:]
            (broken / name).write_bytes(b"".join(lines))
        payload = json.loads(run_cli("ingest", "--corpus", broken).output)
        assert payload["video_row_errors"] == 1
        assert payload["comment_row_errors"] == 1
        assert run_cli("report", "--corpus", broken, "--out", tmp_path / "rep").exit_code == 0

    def test_synergy_outputs(self, corpus_dir, tmp_path):
        result = run_cli("synergy", "--corpus", corpus_dir, "--out", tmp_path)
        assert result.exit_code == 0
        header = (tmp_path / "dyad_synergy.csv").read_text().splitlines()[0]
        for column in ("shap2_host", "shapn_guest", "lift_host"):
            assert column in header

    def test_network_outputs(self, corpus_dir, tmp_path):
        result = run_cli("network", "--corpus", corpus_dir, "--out", tmp_path)
        assert result.exit_code == 0
        lines = (tmp_path / "node_metrics.csv").read_text().splitlines()
        assert len(lines) == 11  # header + 10 channels

    def test_entropy_outputs(self, corpus_dir, tmp_path):
        result = run_cli("entropy", "--corpus", corpus_dir, "--out", tmp_path)
        assert result.exit_code == 0
        assert (tmp_path / "commenter_entropy.csv").exists()
        assert (tmp_path / "entropy_cdf.csv").exists()

    def test_discourse_outputs(self, corpus_dir, tmp_path):
        result = run_cli("discourse", "--corpus", corpus_dir, "--out", tmp_path)
        assert result.exit_code == 0
        header = (tmp_path / "discourse.csv").read_text().splitlines()[0]
        assert header.endswith("prop_gameplay,prop_environment,prop_food,prop_appearance,prop_other")

    def test_network_never_scores_comments(self, corpus_dir, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("network stage scored comments")

        monkeypatch.setattr(discourse, "score_comments", fail)
        assert run_cli("network", "--corpus", corpus_dir, "--out", tmp_path).exit_code == 0

    def test_simulate_unknown_spec_fails_cleanly(self, tmp_path):
        result = CliRunner().invoke(main, ["simulate", "--preset", "custom", "--out", str(tmp_path)])
        assert result.exit_code != 0

    def test_simulate_zero_viewership_scale_is_a_one_line_error(self, tmp_path):
        spec = tmp_path / "s.json"
        spec.write_text(
            json.dumps({"community": "g", "n_channels": 4, "attribute_ratios": {"M": 1}, "viewership_scale": 0}),
            encoding="utf-8",
        )
        result = run_cli("simulate", "--preset", "custom", "--spec", spec, "--out", tmp_path / "out")
        assert result.exit_code == 1
        assert result.output == "Error: viewership_scale must be positive\n"

    def test_report_cli(self, corpus_dir, tmp_path):
        result = run_cli("report", "--corpus", corpus_dir, "--out", tmp_path / "rep")
        assert result.exit_code == 0
        for name in SEVEN_ARTIFACTS:
            assert (tmp_path / "rep" / name).exists()


class TestRunReport:
    def test_bundle_and_manifest(self, corpus_dir, tmp_path):
        config = RunConfig(community_dirs=(str(corpus_dir),), out_dir=str(tmp_path / "rep"))
        bundle = run_report(config)
        manifest = json.loads(bundle.manifest_path.read_text())
        assert manifest["version"]
        assert all(status == "ok" for status in manifest["stages"].values())
        digests = manifest["inputs"]["minigame"]
        assert set(digests) == {"registry.jsonl", "videos.jsonl", "comments.jsonl"}
        assert all(len(d) == 64 for d in digests.values())
        assert any("reciprocal dyads" in note for note in manifest["notes"])
        assert any("statistic: median" in note for note in manifest["notes"])

    def test_no_collaborations_still_succeeds(self, tmp_path):
        spec = spec_from_dict(
            {
                "community": "quiet",
                "n_channels": 6,
                "attribute_ratios": {"M": 3, "W": 3},
                "seed": 1,
                "videos_per_channel": 4,
                "collab_rate": 0.0,
                "audience_size": 20,
            }
        )
        corpus_dir = tmp_path / "quiet"
        simulate_to_dir(spec, corpus_dir)
        out = tmp_path / "rep"
        bundle = run_report(RunConfig(community_dirs=(str(corpus_dir),), out_dir=str(out)))
        synergy_lines = (out / "synergy_host.csv").read_text().splitlines()
        assert len(synergy_lines) == 2  # header + one community row of absent cells
        assert ABSENT in synergy_lines[1]
        manifest = json.loads(bundle.manifest_path.read_text())
        assert any("no collaborations" in note for note in manifest["notes"])

    def test_failure_writes_manifest_and_raises(self, tmp_path):
        bad_dir = tmp_path / "missing"
        bad_dir.mkdir()
        out = tmp_path / "rep"
        with pytest.raises(RunStageError) as err:
            run_report(RunConfig(community_dirs=(str(bad_dir),), out_dir=str(out)))
        assert err.value.stage == "ingest"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages"]["ingest"].startswith("failed")

    def test_failure_names_its_community(self, tmp_path, monkeypatch):
        """A per-community stage that fails in the second of three communities names that community."""
        dirs = []
        for name in ("a", "b", "c"):
            spec = {"community": name, "n_channels": 4, "attribute_ratios": {"M": 2, "W": 2}, "seed": 3,
                    "videos_per_channel": 3, "collab_rate": 0.2, "audience_size": 10}
            simulate_to_dir(spec_from_dict(spec), tmp_path / name)
            dirs.append(str(tmp_path / name))
        synergy_report = CommunityPipeline.synergy_report

        def failing(p):
            if p.corpus.community == "b":
                raise ValueError("no synergy here")
            return synergy_report.__get__(p)

        monkeypatch.setattr(CommunityPipeline, "synergy_report", property(failing))
        out = tmp_path / "rep"
        with pytest.raises(RunStageError) as err:
            run_report(RunConfig(community_dirs=tuple(dirs), out_dir=str(out)))
        assert str(err.value) == "stage 'synergy' failed: community 'b': no synergy here"
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert stages["synergy"] == "failed: community 'b': no synergy here"
        assert stages["ingest"] == stages["collabs"] == "ok"

    def test_cli_exit_code_on_failure(self, tmp_path):
        bad_dir = tmp_path / "missing"
        bad_dir.mkdir()
        result = CliRunner().invoke(
            main, ["report", "--corpus", str(bad_dir), "--out", str(tmp_path / "rep")]
        )
        assert result.exit_code == 1

    def test_duplicate_community_fails_ingest(self, corpus_dir, tmp_path):
        """Two directories of one community would share one manifest entry
        and give two indistinguishable rows in every table."""
        import shutil

        copy = tmp_path / "copy"
        shutil.copytree(corpus_dir, copy)
        with (copy / "comments.jsonl").open("a", encoding="utf-8") as fh:
            fh.write('{"comment_id": "orphan", "video_id": "nowhere", "author_id": "u", "text": "hi", '
                     '"published_at": "2024-01-01T00:00:00Z"}\n')
        out = tmp_path / "rep"
        result = CliRunner().invoke(main, ["report", "--corpus", str(corpus_dir), "--corpus", str(copy),
                                           "--out", str(out)])
        assert result.exit_code == 1
        message = f"community 'minigame' is in two corpus directories: {corpus_dir} and {copy}"
        assert message in result.output
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert stages["ingest"] == f"failed: {message}"
        assert stages["collabs"] == "not-run"
        assert not (out / "shares.csv").exists()

    def test_rerun_byte_identical(self, corpus_dir, tmp_path):
        out = tmp_path / "rep"
        config = RunConfig(
            community_dirs=(str(corpus_dir),), out_dir=str(out), formats=("csv", "json", "table")
        )
        run_report(config)
        snapshot = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        run_report(config)
        assert {p.name: p.read_bytes() for p in sorted(out.iterdir())} == snapshot

    def test_max_videos_cap_applies(self, corpus_dir, tmp_path):
        out = tmp_path / "rep"
        config = RunConfig(
            community_dirs=(str(corpus_dir),), out_dir=str(out), max_videos_per_channel=2
        )
        run_report(config)
        shares = (out / "shares.csv").read_text().splitlines()[1].split(",")
        assert shares[1] == "20"  # 10 channels x capped 2 videos

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_max_videos_cap_below_one_fails_at_ingest(self, corpus_dir, tmp_path, cap):
        out = tmp_path / "rep"
        result = CliRunner().invoke(
            main, ["report", "--corpus", str(corpus_dir), "--out", str(out), "--max-videos-per-channel", cap]
        )
        assert result.exit_code == 1
        assert "stage 'ingest' failed" in result.output
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert stages["ingest"] == f"failed: max videos per channel must be at least 1, got {cap}"
        assert stages["collabs"] == "not-run"

    def test_report_process_never_imports_numpy(self, corpus_dir, tmp_path):
        """Only the generator needs numpy, so a report process does not load it."""
        script = (
            "import sys\n"
            "from collabmetrics.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "except SystemExit as exit:\n"
            "    assert not exit.code, exit.code\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        args = ["report", "--corpus", str(corpus_dir), "--out", str(tmp_path / "rep"), "--format", "table"]
        done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "rep" / "manifest.json").exists()


class TestGoldenHeaders:
    """Report files are schema-stable: headers are pinned."""

    EXPECTED = {
        "shares.csv": (
            "community,total_videos,two_way_videos,multi_way_videos,two_way_share,"
            "share_W-W,share_W-M,share_M-W,share_M-M"
        ),
        "synergy_host.csv": "community,statistic,W-W,W-M,M-W,M-M",
        "synergy_guest.csv": "community,statistic,W-W,W-M,M-W,M-M",
        "reciprocity.csv": "community,videos_counted,host_greater,guest_greater,tied,skipped_videos",
        "centrality.csv": (
            "community,attribute_value,n_channels,median_closeness,mean_closeness,"
            "min_closeness,max_closeness"
        ),
        "discourse.csv": (
            "community,group,comment_count,mean_sentiment,stdev_sentiment,"
            "prop_gameplay,prop_environment,prop_food,prop_appearance,prop_other"
        ),
        "entropy_cdf.csv": "community,threshold,cumulative_fraction",
    }

    def test_headers_pinned(self, corpus_dir, tmp_path):
        out = tmp_path / "rep"
        run_report(RunConfig(community_dirs=(str(corpus_dir),), out_dir=str(out)))
        for name, header in self.EXPECTED.items():
            assert (out / name).read_text().splitlines()[0] == header, name


class TestConfigFileAndEnv:
    def test_manifest_digests_match_inputs(self, corpus_dir, tmp_path):
        import hashlib

        out = tmp_path / "rep"
        bundle = run_report(RunConfig(community_dirs=(str(corpus_dir),), out_dir=str(out)))
        manifest = json.loads(bundle.manifest_path.read_text())
        for filename, digest in manifest["inputs"]["minigame"].items():
            assert digest == hashlib.sha256((corpus_dir / filename).read_bytes()).hexdigest()

    def test_each_input_file_opened_once(self, corpus_dir, tmp_path, monkeypatch):
        # The digests are taken while the loader reads each file.
        opened: list[Path] = []
        path_open = Path.open

        def recording_open(self, *args, **kwargs):
            opened.append(self)
            return path_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", recording_open)
        run_report(RunConfig(community_dirs=(str(corpus_dir),), out_dir=str(tmp_path)))
        monkeypatch.undo()
        for path in corpus_files(corpus_dir).values():
            assert opened.count(path) == 1, path

    def test_config_file_drives_report(self, corpus_dir, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps(
                {
                    "community_dirs": [str(corpus_dir)],
                    "out_dir": str(tmp_path / "rep"),
                    "statistic": "mean",
                }
            ),
            encoding="utf-8",
        )
        result = run_cli("report", "--config", config_path)
        assert result.exit_code == 0
        manifest = json.loads((tmp_path / "rep" / "manifest.json").read_text())
        assert manifest["config"]["statistic"] == "mean"

    def test_cli_flag_overrides_config_file(self, corpus_dir, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps(
                {
                    "community_dirs": [str(corpus_dir)],
                    "out_dir": str(tmp_path / "rep"),
                    "statistic": "mean",
                }
            ),
            encoding="utf-8",
        )
        result = run_cli("report", "--config", config_path, "--statistic", "median")
        assert result.exit_code == 0
        manifest = json.loads((tmp_path / "rep" / "manifest.json").read_text())
        assert manifest["config"]["statistic"] == "median"

    def test_env_var_override(self, corpus_dir, tmp_path):
        result = CliRunner().invoke(
            main,
            ["report", "--corpus", str(corpus_dir), "--out", str(tmp_path / "rep")],
            env={"COLLABMETRICS_REPORT_STATISTIC": "mean"},
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        manifest = json.loads((tmp_path / "rep" / "manifest.json").read_text())
        assert manifest["config"]["statistic"] == "mean"

    def test_synergy_subcommand_emits_table_layout(self, corpus_dir, tmp_path):
        result = run_cli("synergy", "--corpus", corpus_dir, "--out", tmp_path)
        assert result.exit_code == 0
        header = (tmp_path / "synergy_host.csv").read_text().splitlines()[0]
        assert header == "community,statistic,W-W,W-M,M-W,M-M"
        assert (tmp_path / "synergy_by_type.json").exists()

    def test_discourse_subcommand_emits_json(self, corpus_dir, tmp_path):
        result = run_cli("discourse", "--corpus", corpus_dir, "--out", tmp_path)
        assert result.exit_code == 0
        payload = json.loads((tmp_path / "discourse.json").read_text())
        assert payload["categories"] == list(
            ("gameplay", "environment", "food", "appearance", "other")
        )


class TestFormatting:
    def test_compact_matches_three_significant_decimals(self):
        assert format_compact(4.9264) == "4.926"
        assert format_compact(0.0429) == "0.0429"
        assert format_compact(-0.728) == "-0.728"
        assert format_compact(0.690) == "0.690"
        assert format_compact(None) == ABSENT

    def test_em_dash_for_absent_dyad_type(self, tmp_path):
        spec = preset("dead-by-daylight", seed=2)
        corpus_dir = tmp_path / "dbd"
        simulate_to_dir(spec, corpus_dir)
        out = tmp_path / "rep"
        run_report(RunConfig(community_dirs=(str(corpus_dir),), out_dir=str(out)))
        header, row = (out / "synergy_host.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["W-W"] == ABSENT
        assert cells["M-M"] != ABSENT


def read_csv(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def run_every_stage(corpus_dir, out):
    """Write the report bundle and every stage subcommand's files under ``out``."""
    run_report(
        RunConfig(community_dirs=(str(corpus_dir),), out_dir=str(out / "report"), formats=("csv", "json"))
    )
    for stage in ("collabs", "synergy", "network", "entropy", "discourse"):
        assert run_cli(stage, "--corpus", corpus_dir, "--out", out / stage).exit_code == 0


class TestStageMatchesReport:
    """Stage subcommands write the report's tables for their one community."""

    @pytest.fixture(scope="class")
    def out(self, corpus_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("stages")
        run_every_stage(corpus_dir, out)
        return out

    def test_synergy_tables_equal_report(self, out):
        for name in ("synergy_host.csv", "synergy_guest.csv"):
            assert (out / "synergy" / name).read_bytes() == (out / "report" / name).read_bytes()

    def test_tables_without_community_column(self, out):
        for stage, name in (("synergy", "reciprocity.csv"), ("entropy", "entropy_cdf.csv"),
                            ("discourse", "discourse.csv")):
            report_rows = read_csv(out / "report" / name)
            assert report_rows[0][0] == "community"
            assert read_csv(out / stage / name) == [row[1:] for row in report_rows], name

    def test_centrality_summary_is_report_columns(self, out):
        report_rows = read_csv(out / "report" / "centrality.csv")
        assert read_csv(out / "network" / "centrality_summary.csv") == [row[1:4] for row in report_rows]

    def test_json_rows_equal_report_json(self, out):
        report = json.loads((out / "report" / "report.json").read_text(encoding="utf-8"))
        community = report["communities"]["minigame"]
        by_type = json.loads((out / "synergy" / "synergy_by_type.json").read_text(encoding="utf-8"))
        assert by_type["rows"] == community["synergy"]["rows"]
        assert by_type["statistic"] == community["synergy"]["statistic"]
        stage_discourse = json.loads((out / "discourse" / "discourse.json").read_text(encoding="utf-8"))
        assert stage_discourse["rows"] == community["discourse"]


def test_csv_cells_with_commas_are_quoted(tmp_path):
    community = "halo, infinite"
    corpus_dir = tmp_path / "halo"
    spec = spec_from_dict(
        {
            "community": community,
            "n_channels": 8,
            "attribute_ratios": {"M": 5, "W": 3},
            "seed": 2,
            "videos_per_channel": 8,
            "collab_rate": 0.2,
            "audience_size": 40,
        }
    )
    simulate_to_dir(spec, corpus_dir)
    out = tmp_path / "out"
    run_every_stage(corpus_dir, out)
    tables = sorted(out.glob("*/*.csv"))
    assert len(tables) == 7 + 11
    for path in tables:
        header, *rows = read_csv(path)
        assert rows, path
        assert all(len(row) == len(header) for row in rows), path
        if header[0] == "community":
            assert {row[0] for row in rows} == {community}, path
    node_ids = {row[0] for row in read_csv(out / "network" / "node_metrics.csv")[1:]}
    assert node_ids == {f"{community}-c{i:03d}" for i in range(8)}


def _comment_ids(corpus_dir):
    lines = (corpus_dir / "comments.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line)["comment_id"] for line in lines]


class TestDiscourseSideFiles:
    """A bad lexicon, keyword table or labels file is a one-line error naming
    the file and line, never a traceback."""

    @pytest.mark.parametrize(
        "option, name, text, message",
        [
            ("--sentiment-lexicon", "lex.csv", "token,valence\ngood,2.0\ngreat\n", "lex.csv:3: 'valence'"),
            ("--topic-keywords", "kw.csv", "category,token\nfood,ramen\ngameplay\n", "kw.csv:3: 'token'"),
            ("--labels", "labels.jsonl", '{"comment_id": "c1", "label": "food"}\n[1]\n',
             "labels.jsonl:2: expected a JSON object, got list"),
            ("--labels", "labels.jsonl", '{"comment_id": "c1"}\n', "labels.jsonl:1: 'label'"),
            ("--labels", "labels.jsonl", '{"comment_id": "c1", "label": null}\n',
             "labels.jsonl:1: label None is not a string"),
            ("--labels", "labels.jsonl", '{"comment_id": 5, "label": "food"}\n',
             "labels.jsonl:1: comment_id 5 is not a string"),
            ("--topic-keywords", "kw.csv", "category,token\nmemes,lol\n",
             "keyword categories outside schema: ['memes']"),
            ("--sentiment-lexicon", "lex.csv", "token,valence\ngood,2.0\n\"" + "x" * (csv.field_size_limit() + 1),
             f"lex.csv:3: field larger than field limit ({csv.field_size_limit()})"),
        ],
        ids=["lexicon-short-row", "keywords-short-row", "labels-not-object", "labels-no-label", "labels-null-label",
             "labels-int-comment-id", "keywords-category", "lexicon-runaway-quote"],
    )
    def test_bad_side_file_is_a_click_error(self, corpus_dir, tmp_path, option, name, text, message):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        result = run_cli("discourse", "--corpus", corpus_dir, option, path, "--out", tmp_path / "out")
        assert result.exit_code == 1
        assert result.output == f"Error: {message}\n"

    def test_labels_with_topic_keywords_is_a_usage_error(self, corpus_dir, tmp_path):
        """Labels replace the classifier, so a keywords file beside them was
        once ignored unread, even one that fails on its own."""
        labels = tmp_path / "labels.jsonl"
        labels.write_text("".join(json.dumps({"comment_id": c, "label": "food"}) + "\n"
                                  for c in _comment_ids(corpus_dir)), encoding="utf-8")
        keywords = tmp_path / "kw.csv"
        keywords.write_text("category,token\nmemes,lol\n", encoding="utf-8")
        result = run_cli("discourse", "--corpus", corpus_dir, "--labels", labels, "--topic-keywords", keywords,
                         "--out", tmp_path / "out")
        assert result.exit_code == 2
        assert "--labels and --topic-keywords are mutually exclusive" in result.output
        assert not (tmp_path / "out").exists()

    def test_comment_without_label_is_a_click_error(self, corpus_dir, tmp_path):
        first, *rest = _comment_ids(corpus_dir)
        path = tmp_path / "labels.jsonl"
        path.write_text("".join(json.dumps({"comment_id": c, "label": "food"}) + "\n" for c in rest), encoding="utf-8")
        result = run_cli("discourse", "--corpus", corpus_dir, "--labels", path, "--out", tmp_path / "out")
        assert result.exit_code == 1
        assert result.output == f"Error: comment {first!r} lacks a topic label\n"

    def test_labels_of_absent_comments_add_no_category(self, corpus_dir, tmp_path):
        """Categories come from the labels of the corpus's own comments."""
        rows = [{"comment_id": c, "label": "food"} for c in _comment_ids(corpus_dir)]
        rows.append({"comment_id": "not-in-corpus", "label": "memes"})
        path = tmp_path / "labels.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("discourse", "--corpus", corpus_dir, "--labels", path, "--out", out).exit_code == 0
        header = (out / "discourse.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header.endswith(",prop_gameplay,prop_environment,prop_food,prop_appearance,prop_other")
        assert json.loads((out / "discourse.json").read_text(encoding="utf-8"))["categories"] == [
            "gameplay", "environment", "food", "appearance", "other",
        ]
