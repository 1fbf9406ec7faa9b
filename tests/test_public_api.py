"""Tests of the top-level public API (the `repro` package namespace)."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro


class TestPublicAPI:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_exist(self):
        modules = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if not info.name.endswith("__main__")
        ]
        exporting = [module for module in modules if hasattr(module, "__all__")]
        assert {"repro", "repro.exec", "repro.compiled"} <= {m.__name__ for m in exporting}
        for module in exporting:
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_import_leaves_the_http_stack_unloaded(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = "import sys, repro; print(sorted({'http.server', 'http.client'} & set(sys.modules)))"
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.strip() == "[]"

    def test_quickstart_flow(self):
        config = repro.BroadcastConfig(n_nodes=144, n_agents=8, radius=0.0)
        result = repro.BroadcastSimulation(config, rng=0).run()
        assert result.completed
        assert result.broadcast_time >= 0

    def test_theory_helpers_exported(self):
        assert repro.broadcast_time_scale(1024, 16) == 256.0
        assert repro.percolation_radius(1024, 64) == 4.0

    def test_experiment_listing(self):
        experiments = repro.available_experiments()
        assert "E1" in experiments and "E16" in experiments
