"""Tests of the top-level public API (the `repro` package namespace)."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Runs the four perfbench workloads' paths with scipy and networkx blocked:
#: neither is among the package's dependencies, only the helpers that name
#: one in their docstrings may need it.
WITHOUT_TEST_ORACLES = '''
import sys, tempfile
sys.modules["scipy"] = sys.modules["networkx"] = None
import numpy as np
import repro
from repro.analysis.sweep import ParameterSweep
from repro.connectivity import visibility_graph
from repro.core import BroadcastConfig
from repro.exec import SweepExecutor
from repro.grid import Grid2D
from repro.walks import chi_square_uniformity, stationarity_check

for eid in repro.available_experiments():
    repro.run_experiment(eid, scale="tiny", seed=0).render()
for radius in (0.0, 0.5, 2.0):
    config = BroadcastConfig(n_nodes=256, n_agents=8, radius=radius, max_steps=400)
    repro.run_broadcast_replications(config, 2, seed=0)
sweep = ParameterSweep("n_agents", [4, 6], {"n_nodes": 64, "radius": 0.0})
with tempfile.TemporaryDirectory() as store:
    with SweepExecutor(jobs=1, store=store) as executor:
        executor.run_sweep(sweep, lambda point: BroadcastConfig(**point.as_kwargs()), 2, seed=0)
for helper in (
    lambda: chi_square_uniformity(np.ones(4)),
    lambda: stationarity_check(Grid2D(4), n_walkers=4, steps=1, rng=0),
    lambda: visibility_graph(np.zeros((2, 2), dtype=np.int64), 1),
):
    try:
        helper()
    except ModuleNotFoundError:
        continue
    raise AssertionError("a test-oracle helper ran without its package")
print("ok")
'''


def run_python(source: str) -> str:
    """Stdout of ``source`` run in a fresh interpreter that imports this tree."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout.strip()


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

    @pytest.mark.filterwarnings(r"ignore:Support for `\[tool\.setuptools\]`")
    def test_package_metadata_reads_this_version(self):
        pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
        root = Path(repro.__file__).resolve().parents[2]
        config = pyprojecttoml.read_configuration(root / "pyproject.toml")
        assert config["project"]["version"] == repro.__version__

    def test_import_leaves_the_http_stack_unloaded(self):
        unloaded = {"http.server", "http.client", "scipy", "networkx"}
        probe = f"import sys, repro; print(sorted({unloaded!r} & set(sys.modules)))"
        assert run_python(probe) == "[]"

    def test_runs_without_scipy_or_networkx(self):
        assert run_python(WITHOUT_TEST_ORACLES) == "ok"

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
