"""Import hygiene: a command loads only the modules it uses.

Each check runs in a fresh interpreter, so the modules this pytest
process has already imported cannot hide an eager import.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Set

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
QUERIES = SRC.parent / "perfbench" / "queries.py"

#: Modules a query that neither sweeps nor checks must never load.
HEAVY = ("numpy", "repro.sim.checker", "repro.core.autotune",
         "repro.models.pipeline", "multiprocessing")

#: The only ``repro.experiments`` modules that are not runners.
EXPERIMENT_SUPPORT = {"repro.experiments.base", "repro.experiments.registry"}

PACKAGES = ("repro", "repro.core", "repro.sim", "repro.runtime",
            "repro.hardware", "repro.models", "repro.experiments")


def _loaded(code: str, env: Optional[Dict[str, str]] = None) -> Set[str]:
    """``sys.modules`` after running ``code`` in a fresh interpreter."""
    child_env = {key: value for key, value in os.environ.items()
                 if not key.startswith("REPRO_")}
    child_env["PYTHONPATH"] = str(SRC)
    child_env.update(env or {})
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=300, env=child_env,
    )
    assert completed.returncode == 0, completed.stderr
    return set(json.loads(completed.stdout.splitlines()[-1]))


def _assert_light(modules: Set[str]) -> None:
    assert [name for name in HEAVY if name in modules] == []
    runners = {name for name in modules
               if name.startswith("repro.experiments.")}
    assert runners <= EXPERIMENT_SUPPORT


class TestColdImports:
    def test_import_cli(self):
        modules = _loaded("import repro.cli")
        _assert_light(modules)
        assert "repro.sim.executor" not in modules

    def test_session_suite_and_fingerprint(self):
        modules = _loaded(
            "import repro.cli\n"
            "from repro.runtime.session import Session\n"
            "session = Session()\n"
            "session.fingerprint\n"
            "session.suite()\n"
        )
        _assert_light(modules)

    def test_warm_experiment_replay(self, tmp_path):
        def run(out: Path) -> Set[str]:
            return _loaded(
                "from repro.cli import main\n"
                f"assert main(['experiment', 'table-2', '--cache-dir', "
                f"{str(tmp_path / 'cache')!r}, '-o', {str(out)!r}]) == 0\n"
            )

        cold = run(tmp_path / "cold.txt")
        warm = run(tmp_path / "warm.txt")
        assert "repro.experiments.table2_zoo" in cold
        _assert_light(warm)
        assert ((tmp_path / "warm.txt").read_bytes()
                == (tmp_path / "cold.txt").read_bytes())

    def test_experiment_list(self):
        _assert_light(_loaded(
            "from repro.cli import main\n"
            "assert main(['experiment', 'list']) == 0\n"
        ))

    def test_checking_still_loads_the_checker(self, tmp_path):
        modules = _loaded(
            "from repro.cli import main\n"
            "assert main(['search', '--hidden', '1024,2048', '--seq-len', "
            "'512', '--tp', '1,2', '--reduce', 'top-k', '-o', "
            f"{str(tmp_path / 'search.txt')!r}]) == 0\n",
            env={"REPRO_CHECK": "1"},
        )
        assert "repro.sim.checker" in modules


class TestLazyNamespaces:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve_and_are_listed(self, package):
        module = importlib.import_module(package)
        listing = dir(module)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
            assert name in listing, name

    @pytest.mark.parametrize("package", PACKAGES)
    def test_unknown_attribute_raises(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(module, "no_such_name")
        assert not hasattr(module, "_no_such_private_name")

    def test_names_come_from_their_modules(self):
        from repro.core.batch import batch_execute
        from repro.sim.checker import check_enabled
        from repro.sim.checkflag import check_enabled as flag

        assert repro.core.batch_execute is batch_execute
        assert repro.sim.check_enabled is flag is check_enabled

    def test_submodules_resolve_as_attributes(self):
        assert repro.core.__getattr__("flops") is importlib.import_module(
            "repro.core.flops")


class TestRegistry:
    def test_ids_match_the_frozen_benchmark_list(self):
        if not QUERIES.is_file():
            pytest.skip("benchmark sources not beside the package")
        spec = importlib.util.spec_from_file_location("_perfbench_queries",
                                                      QUERIES)
        queries = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(queries)
        from repro.experiments import registry

        assert list(registry.EXPERIMENTS) == list(queries.EXPERIMENT_IDS)

    def test_read_only(self):
        from repro.experiments import registry

        with pytest.raises(TypeError):
            registry.EXPERIMENTS["figure-99"] = lambda: None  # type: ignore
