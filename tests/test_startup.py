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
from typing import Dict, List, Optional, Sequence, Set

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
QUERIES = SRC.parent / "perfbench" / "queries.py"

#: Modules a query that neither sweeps nor checks must never load.
HEAVY = ("numpy", "repro.sim.checker", "repro.core.autotune",
         "repro.models.pipeline", "multiprocessing")

#: The only ``repro.experiments`` modules that are not runners.
EXPERIMENT_SUPPORT = {"repro.experiments.base", "repro.experiments.registry"}

#: Scalar simulator and projection layers a warm experiment replay
#: never runs.
NOT_IN_REPLAY = ("repro.core.projection", "repro.sim.executor",
                 "repro.sim.engine", "repro.sim.profiler",
                 "repro.models.graph", "repro.models.trace",
                 "repro.core.hyperparams")

#: Layers an execute-mode search never runs: it times operators with the
#: batch engine and neither fits, projects, schedules nor renders an
#: experiment, and it builds no graph op, ``ModelConfig`` or
#: ``ParallelConfig``.
NOT_IN_SEARCH = ("repro.core.projection", "repro.core.evolution",
                 "repro.sim.engine", "repro.sim.profiler",
                 "repro.models.trace", "repro.experiments.base",
                 "repro.models.graph", "repro.core.hyperparams")

#: Experiments that time a few dozen points on the scalar path only.
SMALL_SWEEPS = ("figure-10", "figure-11", "figure-12", "figure-13",
                "table-2", "extension-forecast", "extension-hwtrends")

#: Modules no command loads for itself: a ``@dataclass`` compiles its
#: methods with ``exec`` at import (about a millisecond per class), and
#: ``dataclasses`` loads ``inspect`` (about 6 ms).  Every record is a
#: ``repro._frozen.Frozen`` instead.  NumPy imports ``inspect`` on its
#: own, so only a command that loads no NumPy is held to both.
NO_DATACLASSES = ("dataclasses",)
NO_INSPECT = ("dataclasses", "inspect")

#: A small search whose reducers all prune.
SEARCH = ["search", "--hidden", "1024,2048", "--seq-len", "512",
          "--tp", "1,2", "--reduce", "top-k", "--reduce", "pareto"]

PACKAGES = ("repro", "repro.core", "repro.sim", "repro.runtime",
            "repro.hardware", "repro.models", "repro.experiments")


def _fresh(code: str, report: str,
           env: Optional[Dict[str, str]] = None) -> object:
    """Run ``code`` then ``report`` in a fresh interpreter and return
    the JSON that ``report`` prints."""
    child_env = {key: value for key, value in os.environ.items()
                 if not key.startswith("REPRO_")}
    child_env["PYTHONPATH"] = str(SRC)
    child_env.update(env or {})
    completed = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\n" + report],
        capture_output=True, text=True, timeout=300, env=child_env,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def _loaded(code: str, env: Optional[Dict[str, str]] = None) -> Set[str]:
    """``sys.modules`` after running ``code`` in a fresh interpreter."""
    return set(_fresh(code, "print(json.dumps(sorted(sys.modules)))\n",
                      env))


#: Lists the ``repro`` dataclasses alive in the interpreter, which are
#: all it defined: a module keeps its classes alive.
_LIST_DATACLASSES = """
found, seen, stack = [], set(), [object]
while stack:
    for cls in type.__subclasses__(stack.pop()):
        if id(cls) not in seen:
            seen.add(id(cls))
            stack.append(cls)
            if (cls.__module__.startswith("repro")
                    and "__dataclass_fields__" in vars(cls)):
                found.append(f"{cls.__module__}.{cls.__qualname__}")
print(json.dumps(sorted(found)))
"""


def _dataclasses(code: str) -> List[str]:
    """The ``repro`` dataclasses defined by running ``code`` in a fresh
    interpreter."""
    return _fresh(code, _LIST_DATACLASSES)


def _main(argv: List[str]) -> str:
    """Code that runs ``repro.cli.main(argv)`` and asserts it succeeds."""
    return f"from repro.cli import main\nassert main({argv!r}) == 0\n"


def _assert_absent(modules: Set[str], names: Sequence[str]) -> None:
    assert [name for name in names if name in modules] == []


def _assert_light(modules: Set[str]) -> None:
    assert [name for name in HEAVY if name in modules] == []
    runners = {name for name in modules
               if name.startswith("repro.experiments.")}
    assert runners <= EXPERIMENT_SUPPORT


class TestDataclassBudget:
    """Every dataclass compiles its generated methods at import, so the
    classes a command defines are part of what it waits for: no command
    defines one."""

    def test_probe_finds_a_repro_dataclass(self):
        defined = _dataclasses(
            "import dataclasses\n"
            "Probe = dataclasses.make_dataclass('Probe', ['a'])\n"
            "Probe.__module__ = 'repro.probe'\n")
        assert defined == ["repro.probe.Probe"]

    @pytest.mark.parametrize("extra", [[], ["--prune"]],
                             ids=["exhaustive", "prune"])
    def test_execute_search(self, tmp_path, extra):
        assert _dataclasses(_main(SEARCH + extra + [
            "-o", str(tmp_path / "search.txt")])) == []

    def test_project_search(self, tmp_path):
        assert _dataclasses(_main(SEARCH + [
            "--mode", "project", "-o", str(tmp_path / "search.txt")])) == []

    def test_cold_experiment_miss(self, tmp_path):
        assert _dataclasses(_main(["experiment", "figure-10", "-o",
                                   str(tmp_path / "out.txt")])) == []

    def test_warm_experiment_replay(self, tmp_path):
        from repro.cli import main

        argv = ["experiment", "table-2", "--cache-dir",
                str(tmp_path / "cache")]
        assert main(argv + ["-o", str(tmp_path / "cold.txt")]) == 0
        assert _dataclasses(_main(argv + [
            "-o", str(tmp_path / "warm.txt")])) == []


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
            "assert session.suite_fit_count == 1\n"
        )
        _assert_light(modules)
        assert "repro.core.projection" in modules

    def test_warm_experiment_replay(self, tmp_path):
        def run(out: Path) -> Set[str]:
            return _loaded(_main(["experiment", "table-2", "--cache-dir",
                                  str(tmp_path / "cache"), "-o", str(out)]))

        cold = run(tmp_path / "cold.txt")
        warm = run(tmp_path / "warm.txt")
        assert "repro.experiments.table2_zoo" in cold
        _assert_light(warm)
        _assert_absent(warm, NOT_IN_REPLAY + NO_INSPECT)
        assert ((tmp_path / "warm.txt").read_bytes()
                == (tmp_path / "cold.txt").read_bytes())

    @pytest.mark.parametrize("extra", [[], ["--prune"]],
                             ids=["exhaustive", "prune"])
    def test_execute_search(self, tmp_path, extra):
        modules = _loaded(_main(SEARCH + extra
                                + ["-o", str(tmp_path / "search.txt")]))
        _assert_absent(modules, NOT_IN_SEARCH)
        _assert_absent(modules, NO_DATACLASSES)
        assert "repro.core.batch" in modules

    def test_memory_only_search_keys_nothing(self, tmp_path):
        """A search without ``--cache-dir`` never reads its chunk
        records back, so it computes no cache key and loads no
        hashlib."""
        modules = _loaded(
            "from repro.runtime import keys\n"
            "calls = []\n"
            "real_key = keys.cache_key\n"
            "def counted(*parts):\n"
            "    calls.append(parts)\n"
            "    return real_key(*parts)\n"
            "keys.cache_key = counted\n"
            + _main(SEARCH + ["-o", str(tmp_path / "search.txt")])
            + "assert calls == [], len(calls)\n"
        )
        _assert_absent(modules, ("hashlib", "_hashlib"))
        assert "repro.core.batch" in modules

    def test_cache_dir_search_replays_every_chunk(self, tmp_path):
        from repro.cli import main

        argv = SEARCH + ["--format", "json", "--cache-dir",
                         str(tmp_path / "cache")]
        documents = []
        for name in ("cold.json", "warm.json"):
            assert main(argv + ["-o", str(tmp_path / name)]) == 0
            documents.append(json.loads((tmp_path / name).read_text()))
        cold, warm = documents
        assert cold["cache_hits"] == 0
        assert warm["cache_hits"] == warm["chunk_count"] > 0
        assert warm["reductions"] == cold["reductions"]

    def test_project_search_still_fits(self, tmp_path):
        modules = _loaded(_main(SEARCH + ["--mode", "project", "-o",
                                          str(tmp_path / "search.txt")]))
        assert "repro.core.projection" in modules

    @pytest.mark.parametrize("experiment_id", SMALL_SWEEPS)
    def test_small_sweep_loads_no_numpy(self, tmp_path, experiment_id):
        modules = _loaded(_main(["experiment", experiment_id, "-o",
                                 str(tmp_path / "out.txt")]))
        assert (tmp_path / "out.txt").read_text()
        _assert_absent(modules, ("numpy", "repro.core.batch") + NO_INSPECT)

    def test_experiment_list(self):
        _assert_light(_loaded(
            "from repro.cli import main\n"
            "assert main(['experiment', 'list']) == 0\n"
        ))

    def test_checking_still_loads_the_checker(self, tmp_path):
        modules = _loaded(
            _main(["search", "--hidden", "1024,2048", "--seq-len", "512",
                   "--tp", "1,2", "--reduce", "top-k", "-o",
                   str(tmp_path / "search.txt")]),
            env={"REPRO_CHECK": "1"},
        )
        assert "repro.sim.checker" in modules


def _run_module(argv: List[str]) -> None:
    """``python -m repro argv`` in a fresh process; asserts exit 0."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *argv], capture_output=True,
        text=True, timeout=300, env=env,
    )
    assert completed.returncode == 0, completed.stderr


class TestExitFreeze:
    """``main`` freezes the heap at exit instead of collecting it."""

    def test_registered_once_per_process(self, monkeypatch, tmp_path):
        import atexit
        import gc

        from repro import cli

        registered = []
        monkeypatch.setattr(cli, "_exit_freeze_registered", False)
        monkeypatch.setattr(atexit, "register",
                            lambda func, *args: registered.append(func))
        assert cli.main(["experiment", "list"]) == 0
        assert cli.main(["experiment", "list", "-o",
                         str(tmp_path / "ids.txt")]) == 0
        assert registered == [gc.freeze]
        assert gc.isenabled()

    def test_subprocess_output_matches_in_process(self, tmp_path):
        from repro.cli import main

        argv = SEARCH + ["--format", "json"]
        assert main(argv + ["-o", str(tmp_path / "inline.json")]) == 0
        _run_module(argv + ["-o", str(tmp_path / "process.json")])
        assert ((tmp_path / "process.json").read_bytes()
                == (tmp_path / "inline.json").read_bytes())

        argv = ["experiment", "table-2", "--no-cache"]
        assert main(argv + ["-o", str(tmp_path / "inline.txt")]) == 0
        _run_module(["experiment", "table-2", "--cache-dir",
                     str(tmp_path / "cache"), "-o",
                     str(tmp_path / "process.txt")])
        assert ((tmp_path / "process.txt").read_bytes()
                == (tmp_path / "inline.txt").read_bytes())

    def test_second_process_replays_cache_files(self, tmp_path):
        cache = str(tmp_path / "cache")
        argv = SEARCH + ["--format", "json", "--cache-dir", cache]
        _run_module(argv + ["-o", str(tmp_path / "cold.json")])
        _run_module(argv + ["-o", str(tmp_path / "warm.json")])
        cold = json.loads((tmp_path / "cold.json").read_text())
        warm = json.loads((tmp_path / "warm.json").read_text())
        assert cold["cache_hits"] == 0
        assert warm["cache_hits"] == warm["chunk_count"] > 0
        assert warm["reductions"] == cold["reductions"]

        argv = ["experiment", "table-2", "--cache-dir", cache]
        _run_module(argv + ["-o", str(tmp_path / "cold.txt")])
        _run_module(argv + ["--meta", "-o", str(tmp_path / "warm.txt")])
        warm_text = (tmp_path / "warm.txt").read_text()
        assert "(cache hit," in warm_text.splitlines()[-1]
        assert warm_text.startswith((tmp_path / "cold.txt").read_text())


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

    def test_moved_names_keep_their_old_paths(self):
        from repro.core import hyperparams
        from repro.hardware import gemm, specs
        from repro.models import graph, layers

        assert hyperparams.Precision is specs.Precision is repro.Precision
        assert (gemm.GemmShape is graph.GemmShape
                is repro.hardware.GemmShape)
        for name in ("Phase", "SubLayer", "CommGroup", "CollectiveKind"):
            assert (getattr(graph, name) is getattr(layers, name)
                    is getattr(repro.models, name)), name

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
