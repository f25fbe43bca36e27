"""Unit tests for the command-line interface."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_bundle")
    code = main(
        ["generate", "restaurant", str(directory), "--scale", "0.1", "--seed", "7"]
    )
    assert code == 0
    return directory


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "restaurant", "out", "--scale", "0.5"]
        )
        assert args.profile == "restaurant"
        assert args.scale == 0.5

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "bogus", "out"])


class TestGenerate:
    def test_bundle_files(self, bundle):
        assert (bundle / "kb1.nt").exists()
        assert (bundle / "ground_truth.csv").exists()

    def test_stats_on_generated_kb(self, bundle, capsys):
        code = main(["stats", str(bundle / "kb1.nt")])
        assert code == 0
        output = capsys.readouterr().out
        assert "entities" in output


class TestMatchAndEvaluate:
    def test_match_writes_links(self, bundle, tmp_path, capsys):
        links = tmp_path / "links.nt"
        code = main(
            [
                "match",
                str(bundle / "kb1.nt"),
                str(bundle / "kb2.nt"),
                "--output",
                str(links),
            ]
        )
        assert code == 0
        assert links.exists()
        assert "sameAs" in links.read_text()

    def test_match_stdout_mode(self, bundle, capsys):
        code = main(["match", str(bundle / "kb1.nt"), str(bundle / "kb2.nt")])
        assert code == 0
        assert "matched" in capsys.readouterr().out

    def test_match_with_flags(self, bundle, capsys):
        code = main(
            [
                "match",
                str(bundle / "kb1.nt"),
                str(bundle / "kb2.nt"),
                "--theta",
                "0.5",
                "--top-k",
                "5",
                "--disable-stage",
                "purging",
                "--disable-stage",
                "h4",
            ]
        )
        assert code == 0

    def test_evaluate_links_against_truth(self, bundle, tmp_path, capsys):
        links = tmp_path / "links2.nt"
        main(
            [
                "match",
                str(bundle / "kb1.nt"),
                str(bundle / "kb2.nt"),
                "--output",
                str(links),
            ]
        )
        capsys.readouterr()
        code = main(["evaluate", str(links), str(bundle / "ground_truth.csv")])
        assert code == 0
        output = capsys.readouterr().out
        assert "precision" in output
        assert "f1" in output

    def test_evaluate_csv_predictions(self, bundle, tmp_path, capsys):
        predictions = tmp_path / "pred.csv"
        predictions.write_text("uri1,uri2\nx,y\n")
        code = main(
            ["evaluate", str(predictions), str(bundle / "ground_truth.csv")]
        )
        assert code == 0
        assert "recall 0.00" in capsys.readouterr().out


class TestStageIntrospection:
    def test_list_stages_prints_graph(self, capsys):
        code = main(["match", "--list-stages"])
        assert code == 0
        output = capsys.readouterr().out
        for stage in (
            "name_blocking",
            "token_blocking",
            "value_index",
            "neighbor_index",
            "matching",
        ):
            assert stage in output
        assert "registered heuristics: h1, h2, h3, h4" in output

    def test_list_stages_reflects_disabled(self, capsys):
        code = main(
            ["match", "--list-stages", "--disable-stage", "name_blocking"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "name_blocking   " not in output  # stage column entry gone

    def test_match_without_kbs_or_list_stages_errors(self, capsys):
        code = main(["match"])
        assert code == 2
        assert "two KB files" in capsys.readouterr().err

    def test_unknown_disable_stage_rejected(self, capsys):
        code = main(["match", "--list-stages", "--disable-stage", "bogus"])
        assert code == 2
        assert "cannot disable" in capsys.readouterr().err

    def test_disabling_every_heuristic_rejected(self, capsys):
        code = main(
            ["match", "--list-stages"]
            + [f"--disable-stage=h{i}" for i in (1, 2, 3, 4)]
        )
        assert code == 2
        assert "every heuristic" in capsys.readouterr().err

    def test_disabling_h1_drops_orphan_name_blocking(self, capsys):
        code = main(["match", "--list-stages", "--disable-stage", "h1"])
        assert code == 0
        assert "name_blocking" not in capsys.readouterr().out


class TestDisableStage:
    def test_disable_h3_changes_nothing_structural(self, bundle, capsys):
        code = main(
            [
                "match",
                str(bundle / "kb1.nt"),
                str(bundle / "kb2.nt"),
                "--disable-stage",
                "h3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "matched" in output
        assert "'H3'" not in output  # no H3 in the by-heuristic report

    def test_disable_name_blocking_matches_on_tokens_only(self, bundle, capsys):
        code = main(
            [
                "match",
                str(bundle / "kb1.nt"),
                str(bundle / "kb2.nt"),
                "--disable-stage",
                "name_blocking",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "matched" in output
        assert "'H1'" not in output


class TestApplyDelta:
    def test_add_and_remove_deltas_report_incremental_run(
        self, bundle, tmp_path, capsys
    ):
        from repro.kb.io_ntriples import read_ntriples

        additions = tmp_path / "more.nt"
        additions.write_text(
            '<http://cli.example/new1> <http://cli.example/name> "Cli Delta Diner" .\n'
            '<http://cli.example/new2> <http://cli.example/name> "Second Fresh Spot" .\n',
            encoding="utf-8",
        )
        victim = read_ntriples(bundle / "kb2.nt").uris()[0]
        removals = tmp_path / "gone.txt"
        removals.write_text(victim + "\n", encoding="utf-8")
        code = main(
            [
                "match",
                str(bundle / "kb1.nt"),
                str(bundle / "kb2.nt"),
                "--apply-delta",
                f"add:kb1:{additions}",
                "--apply-delta",
                f"remove:kb2:{removals}",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "initial match:" in output
        assert "delta: add 2 entities on kb1" in output
        assert "delta: remove 1 entities on kb2" in output
        assert "incremental match:" in output
        assert "delta-updated" in output
        assert victim not in output  # the removed entity cannot match

    def test_missing_delta_file_exits_cleanly_before_matching(
        self, bundle, capsys
    ):
        code = main(
            [
                "match",
                str(bundle / "kb1.nt"),
                str(bundle / "kb2.nt"),
                "--apply-delta",
                "add:kb1:does_not_exist.nt",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "does_not_exist.nt" in captured.err
        assert "initial match" not in captured.out  # failed upfront

    def test_bad_delta_spec_rejected(self, bundle, capsys):
        code = main(
            [
                "match",
                str(bundle / "kb1.nt"),
                str(bundle / "kb2.nt"),
                "--apply-delta",
                "upsert:kb1:x.nt",
            ]
        )
        assert code == 2
        assert "bad delta spec" in capsys.readouterr().err


class TestSessionSnapshots:
    def test_save_then_load_replays_identically(self, bundle, tmp_path, capsys):
        snapshot = tmp_path / "session"
        cold_links = tmp_path / "cold.nt"
        code = main(
            [
                "match",
                str(bundle / "kb1.nt"),
                str(bundle / "kb2.nt"),
                "--save-session",
                str(snapshot),
                "--output",
                str(cold_links),
            ]
        )
        assert code == 0
        assert "saved session snapshot" in capsys.readouterr().out
        assert (snapshot / "manifest.json").exists()

        warm_links = tmp_path / "warm.nt"
        code = main(
            ["match", "--load-session", str(snapshot), "--output", str(warm_links)]
        )
        assert code == 0
        assert "warm start from" in capsys.readouterr().out
        assert warm_links.read_text("utf-8") == cold_links.read_text("utf-8")

    def test_load_session_composes_with_apply_delta(
        self, bundle, tmp_path, capsys
    ):
        from repro.kb.io_ntriples import read_ntriples

        snapshot = tmp_path / "session"
        assert (
            main(
                [
                    "match",
                    str(bundle / "kb1.nt"),
                    str(bundle / "kb2.nt"),
                    "--save-session",
                    str(snapshot),
                ]
            )
            == 0
        )
        capsys.readouterr()
        victim = read_ntriples(bundle / "kb1.nt").uris()[0]
        removals = tmp_path / "gone.txt"
        removals.write_text(victim + "\n", encoding="utf-8")
        resaved = tmp_path / "session2"
        code = main(
            [
                "match",
                "--load-session",
                str(snapshot),
                "--apply-delta",
                f"remove:kb1:{removals}",
                "--save-session",
                str(resaved),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "warm start from" in output
        assert "delta: remove 1 entities on kb1" in output
        assert "incremental match:" in output
        assert (resaved / "manifest.json").exists()

    def test_load_session_rejects_kb_arguments(self, bundle, tmp_path, capsys):
        snapshot = tmp_path / "session"
        assert (
            main(
                [
                    "match",
                    str(bundle / "kb1.nt"),
                    str(bundle / "kb2.nt"),
                    "--save-session",
                    str(snapshot),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "match",
                str(bundle / "kb1.nt"),
                str(bundle / "kb2.nt"),
                "--load-session",
                str(snapshot),
            ]
        )
        assert code == 2
        assert "replaces the KB file arguments" in capsys.readouterr().err

    def test_load_missing_session_errors_cleanly(self, tmp_path, capsys):
        code = main(["match", "--load-session", str(tmp_path / "nope")])
        assert code == 2
        assert "cannot load session" in capsys.readouterr().err

    def test_load_of_an_older_snapshot_errors_with_the_rebuild(
        self, bundle, tmp_path, capsys
    ):
        """A snapshot of another ``digest_schema`` is refused by name,
        with the command that rebuilds it."""
        import json

        snapshot = tmp_path / "session"
        code = main(
            [
                "match",
                str(bundle / "kb1.nt"),
                str(bundle / "kb2.nt"),
                "--save-session",
                str(snapshot),
            ]
        )
        assert code == 0
        manifest_path = snapshot / "manifest.json"
        manifest = json.loads(manifest_path.read_text("utf-8"))
        manifest["json"]["digest_schema"] = 2
        manifest_path.write_text(json.dumps(manifest), "utf-8")
        capsys.readouterr()
        code = main(["match", "--load-session", str(snapshot)])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot load session" in err
        assert "holds digest_schema 2" in err and "--save-session" in err

    def test_load_of_an_older_stage_graph_errors_with_the_rebuild(
        self, bundle, tmp_path, capsys
    ):
        """A snapshot whose stage graph lists the ``candidates`` stage
        older builds ran is refused by name, with the command that
        rebuilds it."""
        from test_snapshot_store import _with_candidates_stage

        snapshot = tmp_path / "session"
        code = main(
            [
                "match",
                str(bundle / "kb1.nt"),
                str(bundle / "kb2.nt"),
                "--save-session",
                str(snapshot),
            ]
        )
        assert code == 0
        _with_candidates_stage(snapshot)
        capsys.readouterr()
        code = main(["match", "--load-session", str(snapshot)])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot load session" in err
        assert "'candidates'" in err
        rebuild = "`repro-er match KB1 KB2 --save-session DIR`"
        assert f"Rebuild it with {rebuild}" in err

    def test_save_session_with_disabled_stage_replays(
        self, bundle, tmp_path, capsys
    ):
        """``--disable-stage`` edits the config's heuristic list, so a
        composed run is snapshotable and replays to the same links."""
        cold, warm = tmp_path / "cold.nt", tmp_path / "warm.nt"
        code = main(
            [
                "match",
                str(bundle / "kb1.nt"),
                str(bundle / "kb2.nt"),
                "--disable-stage",
                "h4",
                "--save-session",
                str(tmp_path / "session"),
                "--output",
                str(cold),
            ]
        )
        assert code == 0
        code = main(
            [
                "match",
                "--load-session",
                str(tmp_path / "session"),
                "--output",
                str(warm),
            ]
        )
        assert code == 0
        assert warm.read_text() == cold.read_text()
        assert "'H4'" not in capsys.readouterr().out


class TestObservabilityFlags:
    def test_trace_writes_valid_chrome_trace(self, bundle, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace = tmp_path / "trace.json"
        code = main(
            [
                "match",
                str(bundle / "kb1.nt"),
                str(bundle / "kb2.nt"),
                "--trace",
                str(trace),
                "--output",
                str(tmp_path / "links.nt"),
            ]
        )
        assert code == 0
        assert "wrote trace to" in capsys.readouterr().out
        data = json.loads(trace.read_text(encoding="utf-8"))
        assert validate_chrome_trace(data) == []
        assert data["otherData"]["metrics"]["counters"]

    def test_metrics_prints_summary_table(self, bundle, tmp_path, capsys):
        code = main(
            [
                "match",
                str(bundle / "kb1.nt"),
                str(bundle / "kb2.nt"),
                "--metrics",
                "--output",
                str(tmp_path / "links.nt"),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "counters:" in output
        assert "matching.pairs_matched" in output
        assert "similarity.value_pairs_scored" in output

    def test_trace_output_identical_to_plain_run(self, bundle, tmp_path):
        traced, plain = tmp_path / "traced.nt", tmp_path / "plain.nt"
        base = ["match", str(bundle / "kb1.nt"), str(bundle / "kb2.nt")]
        assert (
            main(
                base
                + ["--trace", str(tmp_path / "t.json"), "--output", str(traced)]
            )
            == 0
        )
        assert main(base + ["--output", str(plain)]) == 0
        assert traced.read_text() == plain.read_text()


class TestVerbosityFlags:
    def test_quiet_suppresses_progress_keeps_report(
        self, bundle, tmp_path, capsys
    ):
        code = main(
            [
                "--quiet",
                "match",
                str(bundle / "kb1.nt"),
                str(bundle / "kb2.nt"),
                "--output",
                str(tmp_path / "links.nt"),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "matched" in output  # the report still prints
        assert "wrote" not in output  # progress is suppressed

    def test_default_shows_progress(self, bundle, tmp_path, capsys):
        code = main(
            [
                "match",
                str(bundle / "kb1.nt"),
                str(bundle / "kb2.nt"),
                "--output",
                str(tmp_path / "links.nt"),
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out

    def test_verbose_and_quiet_conflict(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--verbose", "--quiet", "match", "a", "b"])


def test_setup_py_names_the_distribution():
    """``python setup.py develop`` installs a *named* distribution: the
    metadata lives in ``setup.py`` itself (there is no pyproject.toml)."""
    root = Path(__file__).resolve().parent.parent
    printed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=root, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert printed == ["repro", repro.__version__]
