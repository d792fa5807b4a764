"""CLI subcommands and the end-to-end report bundle."""

from __future__ import annotations

import csv
import dataclasses
import gc
import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from collabmetrics import collab, discourse, report
from collabmetrics.cli import main
from collabmetrics.corpus import corpus_files
from collabmetrics.errors import ConfigurationError
from collabmetrics.report import (
    ABSENT,
    _FIELD_TYPES,
    CommunityPipeline,
    RunConfig,
    RunStageError,
    format_compact,
    run_report,
)
from collabmetrics.simgen import PRESET_NAMES, CommunitySpec, DiscourseProfile, preset, simulate_to_dir, spec_from_dict

from .test_simgen import PINNED_SHA256

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


_SPEC = {"community": "x", "n_channels": 5, "attribute_ratios": {"M": 1}}  # a valid spec


@pytest.fixture(scope="module")
def trio_dirs(tmp_path_factory):
    """The three paper presets, one corpus directory each."""
    root = tmp_path_factory.mktemp("trio")
    for name in PRESET_NAMES:
        simulate_to_dir(preset(name, seed=7), root / name)
    return [str(root / name) for name in PRESET_NAMES]


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

    def test_deeply_nested_rows_are_row_errors(self, corpus_dir, tmp_path):
        """A row nested too deep for the JSON decoder costs that one row: ingest and report still run."""
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(corpus_dir, broken)
        for name in ("videos.jsonl", "comments.jsonl"):
            with (broken / name).open("a", encoding="utf-8") as fh:
                fh.write('{"text": ' + "[" * 100_000 + "]" * 100_000 + "}\n")
        clean = json.loads(run_cli("ingest", "--corpus", corpus_dir).output)
        result = run_cli("ingest", "--corpus", broken)
        assert result.exit_code == 0
        assert json.loads(result.output) == {**clean, "video_row_errors": 1, "comment_row_errors": 1}
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

    def test_simulate_preset_writes_the_pinned_files(self, tmp_path):
        out = tmp_path / "valorant"
        result = run_cli("simulate", "--preset", "valorant", "--seed", 0, "--out", out)
        pinned = PINNED_SHA256["valorant", "jsonl"]
        assert result.exit_code == 0
        assert result.output == "".join(f"{name.split('.')[0]}: {out / name}\n" for name in sorted(pinned))
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == pinned

    def test_report_cli(self, corpus_dir, tmp_path):
        result = run_cli("report", "--corpus", corpus_dir, "--out", tmp_path / "rep")
        assert result.exit_code == 0
        for name in SEVEN_ARTIFACTS:
            assert (tmp_path / "rep" / name).exists()

    def test_report_cli_json_only_writes_no_tables(self, corpus_dir, tmp_path):
        out = tmp_path / "rep"
        result = run_cli("report", "--corpus", corpus_dir, "--out", out, "--format", "json")
        assert result.exit_code == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "report.json"]
        assert result.output == f"report_json: {out / 'report.json'}\nmanifest: {out / 'manifest.json'}\n"


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
        # One line, worded like every other command-line error.
        assert result.output.startswith("Error: stage 'ingest' failed: ")
        assert result.output.endswith(" (manifest records the failure)\n") and result.output.count("\n") == 1

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
        # The first community ran its stages before the second directory loaded.
        assert [stages[s] for s in ("collabs", "synergy", "network", "entropy", "discourse", "render")] == [
            "ok", "ok", "ok", "ok", "ok", "not-run"
        ]
        assert not (out / "shares.csv").exists()

    def test_one_community_in_memory_at_a_time(self, trio_dirs, tmp_path, monkeypatch):
        """When a community's stages start, every earlier community's corpus
        and comment table are already freed."""
        refs = {}  # community -> weak references to its corpus and the array of its comment texts' ends
        load, detect = report._load, collab.detect_collaborations

        def recording_load(directory, config):
            corpus, digests = load(directory, config)
            refs[corpus.community] = (weakref.ref(corpus), weakref.ref(corpus.comments.texts._ends))
            return corpus, digests

        alive = []  # (community, earlier communities whose corpus or comments are still reachable)

        def checking_detect(corpus, *args):
            earlier = [c for c, pair in refs.items() if c != corpus.community and any(ref() is not None for ref in pair)]
            alive.append((corpus.community, earlier))
            return detect(corpus, *args)

        monkeypatch.setattr(report, "_load", recording_load)
        monkeypatch.setattr(collab, "detect_collaborations", checking_detect)
        run_report(RunConfig(community_dirs=tuple(trio_dirs), out_dir=str(tmp_path / "rep")))
        assert alive == [(name, []) for name in PRESET_NAMES]

    def test_report_peak_is_about_its_largest_community(self, trio_dirs, tmp_path):
        """The traced peak of a three-community report stays within 15% of
        its largest community's own. With all three corpora held until the
        tables were written, it was about 2.6 times as large."""

        def peak(dirs):
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                run_report(RunConfig(community_dirs=tuple(dirs), out_dir=str(tmp_path / "rep"),
                                     formats=("csv", "json", "table")))
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        peak(trio_dirs[:1])  # fills the run-wide caches (lexicon, keyword tables) before measuring
        largest = max(peak([d]) for d in trio_dirs)
        assert peak(trio_dirs) <= 1.15 * largest

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
    def test_max_videos_cap_below_one_is_a_bad_config(self, corpus_dir, tmp_path, cap):
        out = tmp_path / "rep"
        result = run_cli("report", "--corpus", corpus_dir, "--out", out, "--max-videos-per-channel", cap)
        assert (result.exit_code, result.output) == (
            1,
            f"Error: bad config: max_videos_per_channel must be null or an integer >= 1, got {cap}\n",
        )
        assert not out.exists()  # refused before any stage ran

    def test_report_process_never_imports_numpy(self, corpus_dir, tmp_path):
        """Only the generator needs numpy, so a report process loads neither."""
        script = (
            "import sys\n"
            "from collabmetrics.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "except SystemExit as exit:\n"
            "    assert not exit.code, exit.code\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
            "assert 'collabmetrics.simgen' not in sys.modules, 'the simulator was imported'\n"
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


SUBCOMMANDS = ("ingest", "collabs", "synergy", "network", "entropy", "discourse", "simulate", "report")
GOLDEN_HELP = Path(__file__).with_name("golden") / "cli_help.txt"


def cli_surface() -> str:
    """The ``--help`` text of the group and of every subcommand at 80
    columns, then each option's environment variable, as click derives it
    from ``auto_envvar_prefix`` and the option's parameter name. ``--help``
    and ``--version`` read none, so neither is listed."""
    parts = []
    for args in (["--help"], *([name, "--help"] for name in SUBCOMMANDS)):
        result = CliRunner().invoke(main, args, prog_name="collabmetrics", terminal_width=80, catch_exceptions=False)
        assert result.exit_code == 0, args
        parts.append(f"$ collabmetrics {' '.join(args)}\n{result.output}")
    group = click.Context(main, info_name="collabmetrics", **main.context_settings)
    for command, ctx in [(main, group)] + [
        (main.commands[name], click.Context(main.commands[name], parent=group, info_name=name)) for name in SUBCOMMANDS
    ]:
        for param in command.get_params(ctx):
            if isinstance(param, click.Option) and param.allow_from_autoenv:
                parts.append(f"{ctx.auto_envvar_prefix}_{param.name.upper()} {ctx.command_path} {'/'.join(param.opts)}\n")
    return "".join(parts)


class TestCliSurface:
    """The options, their help and their environment variables stay as declared."""

    def test_help_and_environment_variables_pinned(self):
        # Regenerate with: python -c 'from tests.test_cli import *; GOLDEN_HELP.write_text(cli_surface())'
        assert cli_surface() == GOLDEN_HELP.read_text(encoding="utf-8")

    @pytest.mark.parametrize("variable", ["COLLABMETRICS_HELP", "COLLABMETRICS_REPORT_HELP", "COLLABMETRICS_VERSION"])
    def test_help_and_version_read_no_environment(self, corpus_dir, tmp_path, variable):
        out = tmp_path / "rep"
        result = CliRunner().invoke(main, ["report", "--corpus", str(corpus_dir), "--out", str(out)], env={variable: "1"})
        assert result.exit_code == 0, result.output
        assert result.output.endswith(f"manifest: {out / 'manifest.json'}\n")
        assert {"manifest.json", *SEVEN_ARTIFACTS} <= {p.name for p in out.iterdir()}

    def test_unread_variable_is_named(self, corpus_dir):
        """A set ``COLLABMETRICS_`` variable that no option reads is named on standard error; the command still runs."""
        env = {"COLLABMETRICS_SIMULATE_FORMAT": "csv", "COLLABMETRICS_REPORT_CORPUS": "x",
               "COLLABMETRICS_INGEST_ATTRIBUTE_KEY": "gender"}
        result = CliRunner().invoke(main, ["ingest", "--corpus", str(corpus_dir)], env=env)
        assert result.exit_code == 0, result.output
        assert result.stderr == (
            "Warning: COLLABMETRICS_REPORT_CORPUS is read by no command; it is ignored\n"
            "Warning: COLLABMETRICS_SIMULATE_FORMAT is read by no command; it is ignored\n"
        )
        assert json.loads(result.stdout)["community"] == "minigame"

    def test_every_listed_variable_is_read(self, corpus_dir):
        """No variable of the pinned listing draws the warning (an empty value sets no option)."""
        names = [line.split()[0] for line in GOLDEN_HELP.read_text(encoding="utf-8").splitlines()
                 if line.startswith("COLLABMETRICS_")]
        result = CliRunner().invoke(main, ["ingest", "--corpus", str(corpus_dir)], env=dict.fromkeys(names, ""))
        assert len(names) > 30 and result.exit_code == 0 and result.stderr == ""

    @pytest.mark.parametrize(
        ("command", "flag", "variable", "value"),
        [
            ("ingest", "--corpus", "CORPUS_DIR", "corpus"),
            ("collabs", "--out", "OUT_DIR", "out"),
            ("synergy", "--statistic", "STATISTIC", "mean"),
            ("network", "--corpus", "CORPUS_DIR", "corpus"),
            ("entropy", "--min-comments", "MIN_COMMENTS", "2"),
            ("discourse", "--sentiment-lexicon", "SENTIMENT_LEXICON", "lexicon"),
        ],
    )
    def test_stage_option_from_environment(self, corpus_dir, tmp_path, command, flag, variable, value):
        """``COLLABMETRICS_<COMMAND>_<OPTION>`` sets a stage option as its flag does."""
        lexicon = tmp_path / "lexicon.csv"
        lexicon.write_text("token,valence\ngg,2.5\nlag,-1.5\n", encoding="utf-8")
        given = {"corpus": str(corpus_dir), "lexicon": str(lexicon)}.get(value, value)
        written = {}
        for how in ("flag", "env", "default"):
            out = tmp_path / how
            args = {"--corpus": str(corpus_dir), "--out": str(out)}
            if command == "ingest":
                del args["--out"]
            setting = str(out) if value == "out" else given
            env = {}
            if how == "flag":
                args[flag] = setting
            elif how == "env":
                args.pop(flag, None)
                env = {f"COLLABMETRICS_{command.upper()}_{variable}": setting}
            result = CliRunner().invoke(main, [command, *(s for pair in args.items() for s in pair)], env=env)
            assert result.exit_code == 0, result.output
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
            written[how] = files or result.output
        assert written["env"] == written["flag"]
        if value not in ("corpus", "out"):  # the option changes what is written
            assert written["flag"] != written["default"]


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


class TestBadConfigFiles:
    """A config or spec file that is not a JSON object, or a config value no
    flag could set, is a one-line error that names its file or field."""

    def _report(self, corpus_dir, tmp_path, text):
        config_path = tmp_path / "run.json"
        config_path.write_text(text, encoding="utf-8")
        result = run_cli("report", "--config", config_path, "--corpus", corpus_dir, "--out", tmp_path / "rep")
        assert result.exit_code == 1 and not (tmp_path / "rep").exists()
        return result.output.replace(str(config_path), "<config>")

    def test_malformed_config(self, corpus_dir, tmp_path):
        assert self._report(corpus_dir, tmp_path, "{bad") == (
            "Error: <config>: not valid JSON: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)\n"
        )

    def test_config_that_is_no_object(self, corpus_dir, tmp_path):
        assert self._report(corpus_dir, tmp_path, "[1, 2]") == "Error: <config>: expected a JSON object, got list\n"

    def test_malformed_spec(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("{bad", encoding="utf-8")
        result = run_cli("simulate", "--preset", "custom", "--spec", spec, "--out", tmp_path / "out")
        assert result.exit_code == 1
        assert result.output == (
            f"Error: {spec}: not valid JSON: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)\n"
        )

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"formats": ["xml"]}, "formats must be a list of ['csv', 'json', 'table'], got ['xml']"),
            ({"formats": "csv"}, "formats must be a list of strings, got 'csv'"),
            ({"community_dirs": "dir"}, "community_dirs must be a list of strings, got 'dir'"),
            ({"statistic": "mode"}, "statistic must be one of ['median', 'mean'], got 'mode'"),
            ({"baseline_mode": "none"}, "baseline_mode must be one of ['solo', 'all'], got 'none'"),
            ({"min_comments": "2"}, "min_comments must be an integer, got '2'"),
            ({"min_comments": True}, "min_comments must be an integer, got True"),
            ({"min_comments": 2.0}, "min_comments must be an integer, got 2.0"),
            ({"max_videos_per_channel": "3"}, "max_videos_per_channel must be null or an integer, got '3'"),
            ({"max_videos_per_channel": True}, "max_videos_per_channel must be null or an integer, got True"),
            ({"max_videos_per_channel": 0}, "max_videos_per_channel must be null or an integer >= 1, got 0"),
            ({"seed": "7"}, "seed must be null or an integer, got '7'"),
            ({"seed": False}, "seed must be null or an integer, got False"),
            ({"out_dir": 5}, "out_dir must be a string, got 5"),
            ({"attribute_key": 5}, "attribute_key must be a string, got 5"),
            ({"community_dirs": [5]}, "community_dirs must be a list of strings, got [5]"),
            ({"zeta": 1, "alpha": 2}, "unknown fields alpha, zeta"),
            ({"formats": []}, "formats must name at least one of ['csv', 'json', 'table']"),
        ],
    )
    def test_config_value_outside_the_flag_choices(self, corpus_dir, tmp_path, fields, message):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"out_dir": str(tmp_path / "rep"), "community_dirs": [str(corpus_dir)], **fields}))
        result = run_cli("report", "--config", config_path)
        assert (result.exit_code, result.output) == (1, f"Error: bad config: {message}\n")
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize(
        "given, message",
        [
            ("--out", "at least one --corpus directory (or config community_dirs) is required"),
            ("--corpus", "--out (or config out_dir) is required"),
        ],
    )
    def test_report_without_corpus_or_out(self, corpus_dir, tmp_path, given, message):
        config_path = tmp_path / "run.json"
        config_path.write_text('{"attribute_key": "gender"}', encoding="utf-8")
        for config in ((), ("--config", config_path)):
            result = run_cli("report", *config, given, {"--out": tmp_path / "rep", "--corpus": corpus_dir}[given])
            assert (result.exit_code, result.output) == (1, f"Error: {message}\n")
            assert not (tmp_path / "rep").exists()

    def test_run_config_checks_its_fields(self):
        with pytest.raises(ConfigurationError, match=r"^statistic must be one of \['median', 'mean'\], got 'mode'$"):
            RunConfig(community_dirs=(), out_dir="", statistic="mode")
        with pytest.raises(ConfigurationError, match=r"^formats must be a list of .*, got \['x'\]$"):
            RunConfig(community_dirs=(), out_dir="", formats=("csv", "x"))
        with pytest.raises(ConfigurationError, match=r"^max_videos_per_channel must be null or an integer >= 1, got -3$"):
            RunConfig(community_dirs=(), out_dir="", max_videos_per_channel=-3)
        config = RunConfig(community_dirs=(), out_dir="", min_comments=0, max_videos_per_channel=1, seed=-1)
        assert (config.min_comments, config.max_videos_per_channel, config.seed) == (0, 1, -1)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({}, "spec: missing fields attribute_ratios, community, n_channels"),
            (
                {"community": "x", "n_channels": 5, "attribute_ratios": {"M": 1}, "bogus": 1},
                "spec: unknown fields bogus",
            ),
            ({"community": "x", "bogus": 1}, "spec: missing fields attribute_ratios, n_channels; unknown fields bogus"),
            (
                {"community": "x", "n_channels": 5, "attribute_ratios": {"M": 1}, "discourse_profiles": {"M-M": 3}},
                "discourse_profiles['M-M'] must be an object, got 3",
            ),
            (
                {"community": "x", "n_channels": 5, "attribute_ratios": {"M": 1}, "discourse_profiles": [1]},
                "discourse_profiles must be an object, got [1]",
            ),
            (
                {
                    "community": "x",
                    "n_channels": 5,
                    "attribute_ratios": {"M": 1},
                    "discourse_profiles": {"baseline": {"mean_sentiment": 0.1, "topics": {}}},
                },
                "discourse_profiles['baseline']: missing fields topic_weights; unknown fields topics",
            ),
            (
                {"community": "x", "n_channels": "5", "attribute_ratios": {"M": 1}},
                "spec: n_channels must be an integer, got '5'",
            ),
            (
                {
                    "community": "x",
                    "n_channels": 5,
                    "attribute_ratios": {"M": 1},
                    "discourse_profiles": {"baseline": {"mean_sentiment": "hi", "topic_weights": {"other": 1}}},
                },
                "discourse_profiles['baseline']: mean_sentiment must be a number, got 'hi'",
            ),
            (
                {"community": "x", "n_channels": 5, "attribute_ratios": {"M": "1"}},
                "spec: attribute_ratios must be an object of numbers, got {'M': '1'}",
            ),
            (
                {
                    "community": "x",
                    "n_channels": 5,
                    "attribute_ratios": {"M": 1},
                    "discourse_profiles": {"baseline": {"mean_sentiment": 0.1, "topic_weights": ["other"]}},
                },
                "discourse_profiles['baseline']: topic_weights must be an object of numbers, got ['other']",
            ),
            (
                {"community": "x", "n_channels": 5, "attribute_ratios": {"M": 1}, "zeta": 1, "alpha": 2},
                "spec: unknown fields alpha, zeta",
            ),
            ({**_SPEC, "viewership_noise": -0.5}, "viewership_noise and synergy_noise must be >= 0"),
            ({**_SPEC, "synergy_noise": -1}, "viewership_noise and synergy_noise must be >= 0"),
            ({**_SPEC, "viewership_exponent": math.nan}, "spec: viewership_exponent must be a number, got nan"),
            ({**_SPEC, "viewership_scale": math.inf}, "spec: viewership_scale must be a number, got inf"),
            ({**_SPEC, "pair_rank_affinity": math.nan}, "spec: pair_rank_affinity must be a number, got nan"),
            (
                {**_SPEC, "attribute_ratios": {"M": math.inf}},
                "spec: attribute_ratios must be an object of numbers, got {'M': inf}",
            ),
            (
                {**_SPEC, "discourse_profiles": {"baseline": {"mean_sentiment": -math.inf, "topic_weights": {}}}},
                "discourse_profiles['baseline']: mean_sentiment must be a number, got -inf",
            ),
            pytest.param(
                {**_SPEC, "n_channels": 8, "viewership_exponent": 2000, "collab_rate": 0.2},
                "viewership_exponent 2000 underflows a baseline target to 0; "
                "two-way collaborations need every target positive",
                id="zero-baseline-target",
            ),
            pytest.param(
                {**_SPEC, "n_channels": 8, "viewership_exponent": -2000},
                "viewership_scale 50000 and viewership_exponent -2000 put the baseline targets beyond the float range",
                id="baseline-target-overflows",
            ),
            pytest.param(
                {**_SPEC, "viewership_scale": 10**308},
                "viewership_scale 1e+308 and viewership_exponent 0.8 put the baseline targets beyond the float range",
                id="baseline-targets-sum-overflows",
            ),
            pytest.param(
                {**_SPEC, "viewership_scale": 1e307, "viewership_noise": 3},
                "a drawn view count is beyond the float range; lower viewership_scale, the noise or the synergy multipliers",
                id="view-count-overflows",
            ),
            pytest.param(
                {**_SPEC, "viewership_scale": 10**400},
                f"spec: viewership_scale must be a number, got {10**400}",
                id="integer-beyond-float-range",
            ),
            pytest.param(
                {**_SPEC, "attribute_ratios": {"M": -(10**400)}},
                f"spec: attribute_ratios must be an object of numbers, got {{'M': {-(10**400)}}}",
                id="weight-beyond-float-range",
            ),
            *(  # a CSV registry of such an attribute column fails to load
                pytest.param(
                    {**_SPEC, "attribute_key": key},
                    "attribute_key must not be a registry field: channel_id, handles, display_name, community, attributes",
                    id=f"attribute-key-{key}",
                )
                for key in ("channel_id", "handles", "display_name", "community", "attributes")
            ),
        ],
    )
    def test_spec_with_bad_fields(self, tmp_path, spec, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        result = run_cli("simulate", "--preset", "custom", "--spec", spec_path, "--out", tmp_path / "out")
        assert (result.exit_code, result.output) == (1, f"Error: {message}\n")
        assert not (tmp_path / "out").exists()


    def test_spec_integer_in_float_range_is_a_number(self):
        """A float field takes an integer as long as a float can hold it."""
        spec = spec_from_dict({**_SPEC, "viewership_scale": 10**308, "attribute_ratios": {"M": 10**308}})
        assert (spec.viewership_scale, spec.attribute_ratios) == (10**308, {"M": 10**308})

    @pytest.mark.parametrize("cls", [RunConfig, CommunitySpec, DiscourseProfile], ids=lambda cls: cls.__name__)
    def test_every_field_has_a_type_check(self, cls):
        """The field checker passes over a field whose annotation has no type
        entry; only a spec's discourse profiles are checked one at a time."""
        unchecked = [f.name for f in dataclasses.fields(cls) if f.type not in _FIELD_TYPES]
        assert unchecked == (["discourse_profiles"] if cls is CommunitySpec else [])


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
