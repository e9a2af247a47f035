"""Integration smoke tests: every example runs, doctests pass, the
markdown report generator covers every experiment."""

from __future__ import annotations

import doctest
import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: Every example script and roughly how long it may take (sanity only).
EXAMPLE_SCRIPTS = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


class TestExamples:
    def test_examples_exist(self):
        assert len(EXAMPLE_SCRIPTS) >= 9
        assert "quickstart.py" in EXAMPLE_SCRIPTS

    @pytest.mark.parametrize("script", EXAMPLE_SCRIPTS)
    def test_example_runs_clean(self, script, capsys):
        """Each example executes end-to-end without raising."""
        runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
        out = capsys.readouterr().out
        assert out.strip()  # every example narrates its result


class TestDoctests:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro",
            "repro.core.scaddar",
            "repro.prng.sequence",
            "repro.storage.array",
            "repro.storage.hetero",
            "repro.server.cmserver",
        ],
    )
    def test_module_doctests(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0


class TestMarkdownReport:
    def test_report_covers_every_experiment(self, quick_report):
        """``scaddar report --quick`` (rendered once per session by the
        ``quick_report`` fixture): exit code, header, every experiment's
        section and a few headline numbers."""
        from repro.experiments import EXPERIMENTS

        code, document = quick_report
        assert code == 0
        for name in EXPERIMENTS:
            assert f"## {name}" in document
        assert document.startswith("# SCADDAR reproduction")
        assert "```text" in document
        # Spot-check a few headline numbers survived into the document.
        assert "paper: 8" in document  # cov-curve budget
        assert "disks 0, 2 ignored" in document  # fig1
