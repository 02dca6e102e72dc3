import re
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.stats import spearmanr

from abctrans import cli, environment as env
from abctrans.analysis import TSV_COLUMNS
from abctrans.cli import (
    EXIT_INCOMPLETE,
    EXIT_INGEST,
    EXIT_OK,
    EXIT_VALIDATION,
    _spearman_rho,
    main,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEntropyCommand:
    def test_bundled_task_table(self, capsys):
        code, out, _ = run_cli(["entropy"], capsys)
        assert code == EXIT_OK
        values = {}
        for line in out.splitlines():
            m = re.match(r"\s*(\d+)\s+([0-9.]+)\s+([0-9.]+)", line)
            if m:
                values[int(m.group(1))] = (float(m.group(2)), float(m.group(3)))
        assert abs(values[3][0] - 0.0) <= 1e-9
        assert abs(values[1][0] - 0.918296) <= 1e-6
        assert abs(values[2][0] - 1.792481) <= 1e-6
        assert abs(values[4][0] - 1.792481) <= 1e-6
        assert abs(values[0][0] - 0.918296) <= 1e-6
        assert all(abs(lex) <= 1e-12 for _, lex in values.values())
        assert "prior ordering entropy: 2.584963 bits" in out

    def test_singleton_task_all_zero(self, tmp_path, capsys):
        task = tmp_path / "one.yaml"
        task.write_text(
            "schema: 1\n"
            "chunks:\n  - {id: 1, source: a, target: x}\n  - {id: 2, source: b, target: y}\n"
            "source_order: [1, 2]\norderings:\n  ONLY: [1, 2]\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(["entropy", "--task", str(task)], capsys)
        assert code == EXIT_OK
        assert "prior ordering entropy: 0.000000 bits" in out

    def test_invalid_task_is_validation_error(self, tmp_path, capsys):
        task = tmp_path / "bad.yaml"
        task.write_text(
            "schema: 1\n"
            "chunks:\n  - {id: 1, source: a, target: x}\n  - {id: 2, source: b, target: y}\n"
            "source_order: [1, 2]\norderings:\n  A: [1, 1]\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(["entropy", "--task", str(task)], capsys)
        assert code == EXIT_VALIDATION
        assert "placed twice" in err

    def test_task_field_that_is_not_a_list_is_validation_error(self, tmp_path, capsys):
        task = tmp_path / "bad.yaml"
        task.write_text("schema: 1\nchunks: 5\nsource_order: [1]\norderings:\n  A: [1]\n", encoding="utf-8")
        code, out, err = run_cli(["entropy", "--task", str(task)], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "field 'chunks': must be a list" in err

    @pytest.mark.parametrize("command", [["entropy"], ["simulate", "--preset", "head_starter"]])
    @pytest.mark.parametrize("target", ["missing.yaml", "."], ids=["missing file", "directory"])
    def test_unreadable_task_is_one_line_validation_error(self, command, target, tmp_path, capsys):
        path = tmp_path / target
        code, out, err = run_cli(command + ["--task", str(path)], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith(f"validation error: cannot read {path}: ") and err.count("\n") == 1

    def test_task_that_is_not_utf8_is_one_line_validation_error(self, tmp_path, capsys):
        task = tmp_path / "latin1.yaml"
        task.write_bytes(b"schema: 1\nname: caf\xe9\n")
        code, out, err = run_cli(["entropy", "--task", str(task)], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == f"validation error: cannot read {task}: byte 19 is not UTF-8\n"

    def test_tsv_side_output(self, tmp_path, capsys):
        out_file = tmp_path / "entropy.tsv"
        code, _, _ = run_cli(["entropy", "--tsv", str(out_file)], capsys)
        assert code == EXIT_OK
        lines = out_file.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "chunk\tpositional_bits\tlexical_bits"
        assert len(lines) == 7  # 5 chunks + prior + header

    def test_unwritable_tsv_is_one_line_validation_error(self, tmp_path, capsys):
        code, _, err = run_cli(["entropy", "--tsv", str(tmp_path)], capsys)
        assert code == EXIT_VALIDATION
        assert err.startswith(f"validation error: cannot write {tmp_path}: ") and err.count("\n") == 1


class TestSimulateCommand:
    def test_head_starter_reproduces_source_like_order(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["simulate", "--preset", "head_starter", "--seed", "7", "--latent", "TT0",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == EXIT_OK
        assert (
            "その結果、絶対的リーダーや官僚、職人が狩猟採集民族社会から"
            "支持されることは、めったにありませんでした" in out
        )

    def test_planner_reproduces_fronted_order_with_long_orientation(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["simulate", "--preset", "large_context_planner", "--seed", "7",
             "--latent", "TT3", "--out", str(tmp_path)],
            capsys,
        )
        assert code == EXIT_OK
        assert (
            "その結果、狩猟採集民族社会から絶対的リーダーや官僚、職人が"
            "支持されることは、めったにありませんでした" in out
        )
        assert "cycles=OF" in out
        m = re.search(r"orientation=(\d+)ms", out)
        assert m and int(m.group(1)) >= 600

    def test_same_config_twice_is_byte_identical(self, tmp_path, capsys):
        args = ["simulate", "--preset", "large_context_planner", "--seed", "3",
                "--latent", "TT5"]
        for d in ("a", "b"):
            code, _, _ = run_cli(args + ["--out", str(tmp_path / d)], capsys)
            assert code == EXIT_OK
        name = "trace_large_context_planner_TT5_3"
        for ext in ("tsv", "svg"):
            a = (tmp_path / "a" / f"{name}.{ext}").read_bytes()
            b = (tmp_path / "b" / f"{name}.{ext}").read_bytes()
            assert a == b

    @pytest.mark.parametrize("sampling", [False, True])
    def test_sampling_option_reaches_the_episode(self, sampling, capsys, monkeypatch):
        configs, run = [], cli.run_episode

        def recorded(cfg, *args, **kwargs):
            configs.append(cfg)
            return run(cfg, *args, **kwargs)

        monkeypatch.setattr(cli, "run_episode", recorded)
        args = ["simulate", "--preset", "head_starter", "--seed", "0", "1"]
        code, _, _ = run_cli(args + ["--sampling"] * sampling, capsys)
        assert code == EXIT_OK
        assert [cfg.sample_policies for cfg in configs] == [sampling, sampling]

    def test_exhausted_step_budget_is_incomplete_exit(self, capsys):
        code, _, _ = run_cli(
            ["simulate", "--preset", "large_context_planner", "--seed", "0",
             "--max-steps", "2"],
            capsys,
        )
        assert code == EXIT_INCOMPLETE

    @pytest.mark.parametrize(
        "option, value, field",
        [("--beta", "nan", "beta"), ("--beta", "1.5", "beta"), ("--beta", "-0.1", "beta"),
         ("--gamma-max", "inf", "gamma_max"), ("--gamma-max", "0", "gamma_max"),
         ("--gamma-max", "nan", "gamma_max")],
    )
    def test_invalid_agent_config_exits_before_any_episode(self, option, value, field, capsys, monkeypatch):
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran before the config was validated")

        monkeypatch.setattr(cli, "run_episode", no_episode)
        code, out, err = run_cli(["simulate", "--preset", "head_starter", option, value], capsys)
        assert code == EXIT_VALIDATION
        assert err.startswith(f"validation error: {field} must")
        assert out == ""

    @pytest.mark.parametrize("out", [False, True], ids=["no-out", "out"])
    def test_unknown_export_format_exits_before_any_episode(self, out, tmp_path, capsys, monkeypatch):
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran before the formats were validated")

        monkeypatch.setattr(cli, "run_episode", no_episode)
        args = ["simulate", "--preset", "head_starter", "--seed", "0", "1", "--formats", "tsv,png"]
        if out:
            args += ["--out", str(tmp_path / "d")]
        code, stdout, err = run_cli(args, capsys)
        assert code == EXIT_VALIDATION
        assert err.startswith("validation error: unknown export format 'png'")
        assert stdout == ""
        assert not any(tmp_path.iterdir())

    def test_out_that_is_a_file_exits_before_any_episode(self, tmp_path, capsys, monkeypatch):
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran before the output directory was made")

        monkeypatch.setattr(cli, "run_episode", no_episode)
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        args = ["simulate", "--preset", "head_starter", "--out", str(out)]
        code, stdout, err = run_cli(args, capsys)
        assert code == EXIT_VALIDATION
        assert stdout == ""
        assert err.startswith(f"validation error: cannot write {out}: ") and err.count("\n") == 1

    def test_unwritable_trace_file_is_one_line_validation_error(self, tmp_path, capsys):
        blocked = tmp_path / "trace_head_starter_TT3_0.svg"
        blocked.mkdir()
        code, _, err = run_cli(
            ["simulate", "--preset", "head_starter", "--latent", "TT3", "--out", str(tmp_path)], capsys
        )
        assert code == EXIT_VALIDATION
        assert err.startswith(f"validation error: cannot write {blocked}: ") and err.count("\n") == 1

    def test_unknown_preset_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--preset", "sprinter"])


class TestCompareCommand:
    def test_paired_comparison_table(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--seeds", "12", "--latent", "TT3"], capsys
        )
        assert code == EXIT_OK
        m = re.search(r"first_keystroke_ms.*win rate ([0-9.]+)", out)
        assert m and float(m.group(1)) >= 0.95

    def test_identical_presets_tie(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--preset-a", "head_starter", "--preset-b", "head_starter",
             "--seeds", "8", "--latent", "TT3"],
            capsys,
        )
        assert code == EXIT_OK
        for line in out.splitlines():
            m = re.search(r"win rate ([0-9.]+)", line)
            if m:
                assert abs(float(m.group(1)) - 0.5) <= 1e-9

    def test_gamma_sweep_is_monotone(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--preset-a", "large_context_planner", "--seeds", "25",
             "--latent", "TT3", "--gamma-sweep", "1,2,4,8,16"],
            capsys,
        )
        assert code == EXIT_OK
        means = [float(m) for m in re.findall(r"mean epistemic actions ([0-9.]+)", out)]
        assert len(means) == 5
        assert all(a >= b - 1e-9 for a, b in zip(means, means[1:]))
        rho = float(re.search(r"spearman.* = (-?[0-9.]+)", out).group(1))
        assert rho <= -0.9

    def test_gamma_sweep_with_constant_means_reports_rho_undefined(self, capsys):
        # the head starter reads once and never pauses at either gamma here
        code, out, err = run_cli(
            ["compare", "--preset-a", "head_starter", "--gamma-sweep", "8,16", "--seeds", "2"],
            capsys,
        )
        assert code == EXIT_OK
        assert err == ""
        assert re.findall(r"mean epistemic actions ([0-9.]+)", out) == ["1.000", "1.000"]
        assert out.splitlines()[-1] == (
            "spearman(gamma, epistemic actions) undefined: the means are constant"
        )

    @pytest.mark.parametrize("sweep", [[], ["--gamma-sweep", "1,2"]], ids=["paired", "sweep"])
    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seed_count_below_one_is_validation_error(self, sweep, seeds, capsys):
        code, out, err = run_cli(["compare", "--seeds", seeds, "--latent", "TT3"] + sweep, capsys)
        assert code == EXIT_VALIDATION
        assert "--seeds must be at least 1" in err
        assert out == ""

    @pytest.mark.parametrize("sweep", ["4", "4,4"])
    def test_gamma_sweep_needs_two_distinct_values(self, sweep, capsys, monkeypatch):
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran before the sweep was validated")

        monkeypatch.setattr(cli, "run_episode", no_episode)
        code, out, err = run_cli(["compare", "--latent", "TT3", "--gamma-sweep", sweep], capsys)
        assert code == EXIT_VALIDATION
        assert err == f"validation error: --gamma-sweep needs two distinct values, got {sweep}\n"
        assert out == ""

    @pytest.mark.parametrize("sweep", ["1,inf", "2,0", "1,nan", "4,-1"])
    def test_gamma_sweep_values_are_validated_before_any_episode(self, sweep, capsys, monkeypatch):
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran before the sweep was validated")

        monkeypatch.setattr(cli, "run_episode", no_episode)
        code, out, err = run_cli(["compare", "--latent", "TT3", "--gamma-sweep", sweep], capsys)
        assert code == EXIT_VALIDATION
        assert err.startswith("validation error: gamma_max must be positive and finite")
        assert out == ""

    @pytest.mark.parametrize(
        "x, y",
        [
            ([1.0, 2.0, 4.0, 8.0, 16.0], [6.0, 4.5, 4.5, 3.25, 3.25]),  # ties in y
            ([1.0, 1.0, 2.0, 3.0, 3.0, 3.0], [0.5, 0.2, 0.9, 0.1, 0.4, 0.4]),  # ties in both
            ([1.0, 2.0, 4.0, 8.0], [0.3, 0.1, 0.4, 0.2]),  # untied
            ([16.0, 8.0, 4.0, 2.0, 1.0], [1.5, 2.5, 2.0, 4.0, 3.0]),  # reversed
            ([1.0, 2.0, 4.0], [9.0, 5.0, 1.0]),  # reversed, rho = -1
        ],
    )
    def test_rank_correlation_matches_spearmanr(self, x, y):
        assert f"{_spearman_rho(x, y):.4f}" == f"{spearmanr(x, y).statistic:.4f}"

    def test_gamma_sweep_does_not_import_scipy(self):
        # python -c puts its working directory, here src/, first on the path.
        code = (
            "import sys\n"
            "from abctrans.cli import main\n"
            "code = main(['compare', '--gamma-sweep', '1,2', '--seeds', '1', '--latent', 'TT3'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == f"{EXIT_OK} []"


class TestSegmentCommand:
    def craft(self, tmp_path, rows):
        data = (
            "\t".join(TSV_COLUMNS)
            + "\n"
            + "\n".join("\t".join([t, k, tgt, "", "0", "", ""]) for t, k, tgt in rows)
            + "\n"
        )
        path = tmp_path / "log.tsv"
        path.write_text(data, encoding="utf-8")
        return path

    def test_log_with_trailing_revision_cycles(self, tmp_path, capsys):
        rows, t = [], 0
        seq = [
            (env.FIXATE_SOURCE, "1"), (env.TYPE, "1@1"),
            (env.FIXATE_SOURCE, "2"), (env.TYPE, "2@2"),
            (env.FIXATE_SOURCE, "3"), (env.TYPE, "3@3"),
            (env.FIXATE_SOURCE, "4"), (env.TYPE, "4@4"), (env.DELETE, "@4"),
            (env.FIXATE_SOURCE, "1"), (env.TYPE, "5@5"), (env.DELETE, "@5"),
        ]
        for kind, tgt in seq:
            rows.append((str(t), kind, tgt))
            t += 100
        code, out, _ = run_cli(["segment", str(self.craft(tmp_path, rows))], capsys)
        assert code == EXIT_OK
        assert "cycles: OF OF OF OFR OFR" in out

    def test_log_with_mid_cycle_hesitation(self, tmp_path, capsys):
        rows, t = [], 0
        seq = [
            (env.FIXATE_SOURCE, "1"), (env.TYPE, "1@1"),
            (env.FIXATE_SOURCE, "2"), (env.TYPE, "2@2"),
            (env.PAUSE, ""), (env.TYPE, "3@3"),
            (env.FIXATE_SOURCE, "3"), (env.TYPE, "4@4"),
        ]
        for kind, tgt in seq:
            rows.append((str(t), kind, tgt))
            t += 100
        code, out, _ = run_cli(["segment", str(self.craft(tmp_path, rows))], capsys)
        assert code == EXIT_OK
        assert "cycles: OF OFHF OF" in out

    def test_exported_trace_round_trips(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["simulate", "--preset", "large_context_planner", "--seed", "5",
             "--latent", "TT5", "--out", str(tmp_path), "--formats", "tsv"],
            capsys,
        )
        assert code == EXIT_OK
        cycles_inline = re.search(r"cycles=([A-Z-]+)", out).group(1).replace("-", " ")
        trace_file = next(tmp_path.glob("*.tsv"))
        code, out2, _ = run_cli(["segment", str(trace_file)], capsys)
        assert code == EXIT_OK
        assert f"cycles: {cycles_inline}" in out2

    def test_theta_pause_option_sets_the_hesitation_gap(self, tmp_path, capsys):
        # A 500 ms target fixation between two typed chunks.
        rows = [("0", env.TYPE, "1@1"), ("100", env.FIXATE_TARGET, "@1"), ("600", env.TYPE, "2@2")]
        path = str(self.craft(tmp_path, rows))
        states = {}
        for extra in ([], ["--theta-pause", "200"]):
            code, out, _ = run_cli(["segment", path] + extra, capsys)
            assert code == EXIT_OK
            states[tuple(extra)] = re.findall(r"^  ([OHRF])  ", out, re.M)
        assert states[()] == ["F"]
        assert states[("--theta-pause", "200")] == ["F", "H", "F"]

    @pytest.mark.parametrize("theta", ["nan", "-5"])
    def test_theta_pause_must_be_a_non_negative_number(self, theta, tmp_path, capsys):
        rows = [("0", env.TYPE, "1@1"), ("100", env.FIXATE_TARGET, "@1"), ("2700", env.TYPE, "2@2")]
        code, out, err = run_cli(
            ["segment", str(self.craft(tmp_path, rows)), "--theta-pause", theta], capsys
        )
        assert code == EXIT_VALIDATION
        assert err.startswith("validation error: theta_pause_ms must be non-negative")
        assert out == ""

    def test_missing_column_is_ingest_error(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\n1\t2\n", encoding="utf-8")
        code, _, err = run_cli(["segment", str(path)], capsys)
        assert code == EXIT_INGEST
        assert "missing column" in err

    @pytest.mark.parametrize("target", ["missing.tsv", "."], ids=["missing file", "directory"])
    def test_unreadable_log_is_one_line_ingest_error(self, target, tmp_path, capsys):
        path = tmp_path / target
        code, out, err = run_cli(["segment", str(path)], capsys)
        assert code == EXIT_INGEST
        assert out == ""
        assert err.startswith(f"ingestion error: cannot read {path}: ") and err.count("\n") == 1

    def test_log_that_is_not_utf8_is_ingest_error_naming_the_row(self, tmp_path, capsys):
        path = self.craft(tmp_path, [("0", env.FIXATE_SOURCE, "1"), ("100", env.TYPE, "1@1")])
        path.write_bytes(path.read_bytes().replace(b"1@1", b"1@\xff"))
        code, out, err = run_cli(["segment", str(path)], capsys)
        assert code == EXIT_INGEST
        assert out == ""
        assert re.fullmatch(r"ingestion error: row 3: byte \d+ is not UTF-8\n", err)

    def test_two_columns_for_one_role_pair_is_one_line_ingest_error(self, tmp_path, capsys):
        path = self.craft(tmp_path, [("0", env.FIXATE_SOURCE, "1"), ("100", env.TYPE, "1@1")])
        code, out, err = run_cli(
            ["segment", str(path), "--time-col", "event_kind", "--kind-col", "event_kind"], capsys
        )
        assert code == EXIT_INGEST
        assert out == ""
        assert err == "ingestion error: row 1: time and kind both name column 'event_kind'\n"

    def test_segment_with_svg_builds_no_events(self, tmp_path, capsys, event_builds):
        rows = [("0", env.FIXATE_SOURCE, "1"), ("100", env.TYPE, "1@1"), ("300", env.DELETE, "@1")]
        svg = tmp_path / "plot.svg"
        code, out, _ = run_cli(
            ["segment", str(self.craft(tmp_path, rows)), "--svg", str(svg)], capsys
        )
        assert code == EXIT_OK and out.startswith("3 events, ")
        assert svg.read_bytes().startswith(b"<svg")
        assert event_builds == [0]

    def test_svg_output(self, tmp_path, capsys):
        rows = [("0", env.FIXATE_SOURCE, "1"), ("100", env.TYPE, "1@1")]
        svg = tmp_path / "plot.svg"
        code, _, _ = run_cli(
            ["segment", str(self.craft(tmp_path, rows)), "--svg", str(svg)], capsys
        )
        assert code == EXIT_OK
        assert svg.read_bytes().startswith(b"<svg")

    def test_unwritable_svg_is_one_line_validation_error(self, tmp_path, capsys):
        rows = [("0", env.FIXATE_SOURCE, "1"), ("100", env.TYPE, "1@1")]
        svg = tmp_path / "missing" / "plot.svg"
        code, _, err = run_cli(
            ["segment", str(self.craft(tmp_path, rows)), "--svg", str(svg)], capsys
        )
        assert code == EXIT_VALIDATION
        assert err.startswith(f"validation error: cannot write {svg}: ") and err.count("\n") == 1
