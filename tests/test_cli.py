"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments import available_experiments


class TestHelpTextStaysInSyncWithRegistry:
    """The id range in help text must be derived from the registry.

    Regression test: the help used to hard-code "E1..E16" after E17 was
    registered.
    """

    def _help_output(self, capsys, *command) -> str:
        with pytest.raises(SystemExit):
            main([*command, "--help"])
        return capsys.readouterr().out

    def test_run_help_covers_every_registered_experiment(self, capsys):
        ids = available_experiments()
        out = self._help_output(capsys, "run")
        assert f"{ids[0]}..{ids[-1]}" in out
        stale_span = f"{ids[0]}..E{int(ids[-1][1:]) - 1})"
        assert stale_span not in out

    def test_workload_help_covers_every_registered_experiment(self, capsys):
        ids = available_experiments()
        out = self._help_output(capsys, "workload")
        assert f"{ids[0]}..{ids[-1]}" in out


class TestListCommand:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E17" in out
        assert "Broadcast time vs number of agents" in out


class TestWorkloadCommand:
    def test_shows_parameters(self, capsys):
        assert main(["workload", "E1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "E1 @ tiny" in out
        assert "n_nodes" in out

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["workload", "E99"])


class TestRunCommand:
    def test_runs_single_experiment(self, capsys):
        assert main(["run", "E1", "--scale", "tiny", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "E1:" in out
        assert "fitted_exponent_in_k" in out

    def test_writes_json(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["run", "E4", "--scale", "tiny", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["experiment_id"] == "E4"
        assert payload["rows"]

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "E1", "--scale", "huge"])


class TestBackendFlag:
    def test_backend_flag_accepted(self, capsys):
        assert main(["run", "E1", "--scale", "tiny", "--backend", "auto"]) == 0
        out = capsys.readouterr().out
        assert "E1:" in out

    def test_backend_choice_is_scriptable(self, capsys):
        # The same experiment, seed and scale must give the same report text
        # under both backends (they are bit-for-bit interchangeable).
        assert main(["run", "E1", "--scale", "tiny", "--seed", "3", "--backend", "serial"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["run", "E1", "--scale", "tiny", "--seed", "3", "--backend", "batched"]) == 0
        batched_out = capsys.readouterr().out
        assert serial_out == batched_out

    def test_invalid_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "E1", "--backend", "gpu"])

    def test_override_is_restored_after_run(self):
        from repro.core import runner

        main(["run", "E4", "--scale", "tiny", "--backend", "serial"])
        assert runner._BACKEND_OVERRIDE is None


class TestJobsFlag:
    def test_jobs_runs_are_bit_for_bit_identical(self, capsys):
        assert main(["run", "E1", "--scale", "tiny", "--seed", "3"]) == 0
        plain_out = capsys.readouterr().out
        assert main(["run", "E1", "--scale", "tiny", "--seed", "3", "--jobs", "2"]) == 0
        pooled_out = capsys.readouterr().out
        assert (
            main(["run", "E1", "--scale", "tiny", "--seed", "3", "--jobs", "2", "--chunk-size", "1"])
            == 0
        )
        chunked_out = capsys.readouterr().out
        assert plain_out == pooled_out == chunked_out

    def test_dispatch_follows_jobs(self):
        from repro.exec import SweepExecutor

        assert SweepExecutor(jobs=1).dispatch == "inline"
        assert SweepExecutor(jobs=2).dispatch == "pool"

    def test_only_a_non_default_option_builds_an_executor(self, tmp_path):
        # All-default options keep the in-process path: no executor at all.
        from repro.exec import SweepExecutor

        assert SweepExecutor.from_options() is None
        assert SweepExecutor.from_options(pool_chunk=1) is None
        for option in (
            {"jobs": 2}, {"chunk_size": 3}, {"store": str(tmp_path)},
            {"retries": 1}, {"unit_timeout": 5.0}, {"pool_chunk": 4},
        ):
            executor = SweepExecutor.from_options(**option)
            assert executor is not None, option
            executor.close()

    def test_executor_override_is_restored_after_run(self):
        from repro.exec import current_executor

        main(["run", "E1", "--scale", "tiny", "--jobs", "2"])
        assert current_executor() is None

    def test_invalid_jobs_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["run", "E1", "--scale", "tiny", "--jobs", "0"])
        with pytest.raises(SystemExit):
            main(["run", "E1", "--scale", "tiny", "--chunk-size", "-2"])


class TestConnectivityFlag:
    def test_connectivity_flag_accepted(self, capsys):
        assert main(["run", "E1", "--scale", "tiny", "--connectivity", "auto"]) == 0
        out = capsys.readouterr().out
        assert "E1:" in out

    def test_connectivity_choice_is_scriptable(self, capsys):
        # The same experiment, seed and scale must give the same report text
        # under both engines (they are bit-for-bit interchangeable).
        args = ["run", "E1", "--scale", "tiny", "--seed", "3", "--connectivity"]
        assert main(args + ["recompute"]) == 0
        recompute_out = capsys.readouterr().out
        assert main(args + ["incremental"]) == 0
        incremental_out = capsys.readouterr().out
        assert recompute_out == incremental_out

    def test_invalid_connectivity_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "E1", "--connectivity", "magic"])

    def test_override_is_restored_after_run(self):
        from repro.core import runner

        main(["run", "E4", "--scale", "tiny", "--connectivity", "recompute"])
        assert runner._CONNECTIVITY_OVERRIDE is None


class TestRetiredFlags:
    @pytest.mark.parametrize(
        "flag", [["--aggregate", "streaming"], ["--lease-ttl", "5"]], ids=["aggregate", "lease-ttl"]
    )
    def test_retired_flag_is_a_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "E1", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
