"""CLI tests for ``prob-slice``."""

import pytest

from repro.cli import main


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.prob"
    path.write_text(
        """
d ~ Bernoulli(0.6);
i ~ Bernoulli(0.7);
if (!i && !d) { g ~ Bernoulli(0.3); }
else { g ~ Bernoulli(0.5); }
observe(g == false);
if (!g) { l ~ Bernoulli(0.1); }
else    { l ~ Bernoulli(0.4); }
return l;
"""
    )
    return str(path)


class TestCLI:
    def test_basic_slice(self, model_file, capsys):
        assert main([model_file]) == 0
        out = capsys.readouterr().out
        assert "return l;" in out

    def test_stats(self, model_file, capsys):
        assert main([model_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "influencers:" in out
        assert "statements:" in out

    def test_show_pre(self, model_file, capsys):
        assert main([model_file, "--show-pre"]) == 0
        out = capsys.readouterr().out
        assert "after OBS; SVF; SSA" in out

    def test_simplify(self, model_file, capsys):
        assert main([model_file, "--simplify"]) == 0
        out = capsys.readouterr().out
        assert "observe" not in out

    def test_exact(self, model_file, capsys):
        assert main([model_file, "--exact"]) == 0
        out = capsys.readouterr().out
        assert "agree: True" in out

    def test_no_obs_flag(self, model_file, capsys):
        assert main([model_file, "--no-obs", "--stats"]) == 0
        with_obs = capsys.readouterr().out
        assert "removed" in with_obs

    def test_stdin(self, model_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("x ~ Bernoulli(0.5); return x;")
        )
        assert main(["-"]) == 0
        assert "Bernoulli(0.5)" in capsys.readouterr().out

    def test_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.prob"
        bad.write_text("x = ;")
        assert main([str(bad)]) == 1
        assert "syntax error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/path.prob"]) == 2

    def test_exact_unavailable_for_continuous(self, tmp_path, capsys):
        path = tmp_path / "c.prob"
        path.write_text("x ~ Gaussian(0.0, 1.0); return x;")
        assert main([str(path), "--exact"]) == 0
        assert "unavailable" in capsys.readouterr().err


class TestBenchmarkFlag:
    def test_benchmark_by_name(self, capsys):
        assert main(["--benchmark", "Ex3"]) == 0
        assert "return" in capsys.readouterr().out

    def test_benchmark_unknown_name(self, capsys):
        assert main(["--benchmark", "Nope"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_file_and_benchmark_exclusive(self, model_file, capsys):
        assert main([model_file, "--benchmark", "Ex3"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_neither_file_nor_benchmark(self, capsys):
        assert main([]) == 2
        assert "exactly one" in capsys.readouterr().err


class TestLiveTelemetryFlags:
    def test_stream_metrics_and_health_summary(self, tmp_path, capsys):
        out_file = tmp_path / "snap.ndjson"
        assert (
            main(
                [
                    "--benchmark",
                    "Ex3",
                    "--infer",
                    "mh",
                    "--samples",
                    "300",
                    "--compiled",
                    "--stream-metrics",
                    str(out_file),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "// health: ok" in out
        assert "ess_per_sec" in out
        import json

        lines = out_file.read_text().splitlines()
        assert lines
        snaps = [json.loads(line) for line in lines]
        assert all(s["type"] == "snapshot" for s in snaps)
        assert "r2-mh" in snaps[-1]["progress"]

    def test_blr_collapse_flagged_in_summary(self, capsys):
        assert (
            main(
                [
                    "--benchmark",
                    "BayesianLinearRegression",
                    "--infer",
                    "mh",
                    "--samples",
                    "1000",
                    "--compiled",
                    "--watch",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "// health:" in captured.out
        assert "acceptance-collapse" in captured.out
        # ... and the dashboard carried the same warning line.
        assert "!! [critical] acceptance-collapse" in captured.err

    def test_watch_forced_non_tty(self, capsys):
        assert (
            main(
                [
                    "--benchmark",
                    "Ex3",
                    "--infer",
                    "mh",
                    "--samples",
                    "300",
                    "--compiled",
                    "--watch",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "watch t=" in captured.err
        assert "[r2-mh]" in captured.err
        assert "\x1b" not in captured.err  # plain blocks off-TTY


class TestShippedModels:
    """The .prob files under examples/models slice cleanly."""

    @pytest.fixture
    def models_dir(self):
        import pathlib

        path = pathlib.Path(__file__).parent.parent / "examples" / "models"
        if not path.exists():
            pytest.skip("examples/models not present")
        return path

    def test_all_models_slice_and_agree(self, models_dir, capsys):
        files = sorted(models_dir.glob("*.prob"))
        assert len(files) >= 3
        for f in files:
            assert main([str(f), "--exact"]) == 0
            out = capsys.readouterr().out
            assert "agree: True" in out

    def test_student_model_keeps_observation(self, models_dir, capsys):
        assert main([str(models_dir / "student.prob")]) == 0
        out = capsys.readouterr().out
        assert "observe(q6);" in out  # the SVF variable for l == true

    def test_explain_flag(self, models_dir, capsys):
        assert main([str(models_dir / "student.prob"), "--explain", "d"]) == 0
        out = capsys.readouterr().out
        assert "activated by observing" in out

    def test_dot_flag(self, models_dir, capsys):
        assert main([str(models_dir / "student.prob"), "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_emit_cfg_flag(self, models_dir, capsys):
        assert main([str(models_dir / "student.prob"), "--emit-cfg"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "B0" in out
        assert "entry" in out

    def test_cross_chain_and_health_print_one_ess(
        self, models_dir, tmp_path, capsys
    ):
        argv = [
            str(models_dir / "student.prob"),
            "--infer", "mh", "--samples", "2000", "--jobs", "2",
            "--stream-metrics", str(tmp_path / "snap.ndjson"),
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        cross = next(line for line in lines if "// cross-chain:" in line)
        health = next(line for line in lines if line.startswith("//   ess = "))
        cross_ess = float(cross.split("ESS")[1].split()[0])
        health_ess = float(health.split("=")[1])
        assert cross_ess == pytest.approx(health_ess, abs=0.06)
