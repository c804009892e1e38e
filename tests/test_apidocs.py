"""Tests for repro.tools.apidocs (API-reference generation)."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.tools import apidocs


class TestModuleWalk:
    def test_covers_every_subpackage(self):
        names = list(apidocs.iter_module_names())
        for expected in ("repro", "repro.core.flops",
                         "repro.hardware.gemm", "repro.sim.executor",
                         "repro.models.zoo", "repro.experiments.registry"):
            assert expected in names

    def test_sorted(self):
        names = list(apidocs.iter_module_names())
        assert names == sorted(names)


class TestRendering:
    def test_module_section_contains_members(self):
        section = apidocs.render_module("repro.core.algebra")
        assert "## `repro.core.algebra`" in section
        assert "edge_complexity" in section
        assert "Equation 6" in section

    def test_classes_marked(self):
        section = apidocs.render_module("repro.core.hyperparams")
        assert "### class `ModelConfig`" in section

    def test_full_reference_renders(self):
        text = apidocs.render_reference()
        assert "# repro API reference" in text
        assert "## `repro.sim.engine`" in text
        assert "run_schedule" in text

    def test_write_reference(self, tmp_path):
        target = apidocs.write_reference(tmp_path / "docs" / "API.md")
        assert target.exists()
        assert "repro API reference" in target.read_text()

    def test_reference_names_no_checkout_path(self):
        """The reference renders the same from any checkout."""
        text = apidocs.render_reference()
        assert str(Path(repro.__file__).parent) not in text
        assert "iter_module_names(package=None)" in text


class TestMain:
    def test_help_prints_usage_and_writes_nothing(self, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            apidocs.main(["--help"])
        assert exit_info.value.code == 0
        assert "usage:" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_writes_the_given_path(self, tmp_path):
        target = tmp_path / "out" / "API.md"
        apidocs.main([str(target)])
        assert "repro API reference" in target.read_text()
