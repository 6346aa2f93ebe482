"""Tests for the EXPERIMENTS.md report generator (tiny scale)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.config import RunSettings
from repro.experiments.report import generate_report, main
from repro.core.ga import GAConfig

FAST = RunSettings(
    batch_interval=2000.0,
    seed=3,
    ga=GAConfig(population_size=16, generations=8, stall_generations=4,
                flow_weight=1.0),
)


@pytest.fixture(scope="module")
def report_text():
    return generate_report(scale=0.003, settings=FAST)


class TestGenerateReport:
    def test_all_sections_present(self, report_text):
        for heading in (
            "# EXPERIMENTS",
            "Figure 7(a)",
            "Figure 7(b)",
            "Figure 8",
            "Figure 9",
            "Table 2",
            "Figure 10",
            "Figure 5 (concept)",
        ):
            assert heading in report_text

    def test_verdicts_rendered(self, report_text):
        assert report_text.count("**REPRODUCED**") + report_text.count(
            "**DEVIATION**"
        ) >= 7

    def test_paper_values_cited(self, report_text):
        assert "1.314" in report_text or "1.31" in report_text  # Table 2

    def test_markdown_tables_well_formed(self, report_text):
        for line in report_text.splitlines():
            if line.startswith("|") and not line.startswith("|-"):
                assert line.rstrip().endswith("|")


class TestMain:
    def test_stdout(self, capsys):
        # main() with its default RunSettings would use the paper GA;
        # the tiny scale keeps it tractable regardless.
        assert main(["--scale", "0.002", "-o", "-"]) == 0
        out = capsys.readouterr().out
        assert "# EXPERIMENTS" in out

    def test_file_output(self, tmp_path, capsys):
        target = tmp_path / "EXP.md"
        assert main(["--scale", "0.002", "-o", str(target)]) == 0
        assert target.read_text().startswith("# EXPERIMENTS")

    def test_invalid_scale(self, capsys):
        assert main(["--scale", "2.0"]) == 2

    def test_module_runs_without_import_warning(self, tmp_path):
        """``python -m repro.experiments.report`` must not find the
        module already imported by its package (runpy warns then)."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning",
                "-m", "repro.experiments.report",
                "--scale", "0.002", "-o", str(tmp_path / "EXP.md"),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert (tmp_path / "EXP.md").read_text().startswith("# EXPERIMENTS")
