"""Ablation — the paper's lazy walk vs the simple (always-move) walk.

The paper uses the lazy kernel because it keeps the uniform distribution over
grid nodes stationary (the "density condition" in the proof of Theorem 1) and
because laziness removes parity constraints: with strictly simple walks and
``r = 0`` two agents at odd Manhattan distance can never be co-located, so
the comparison is run at radius 1 where both kernels can always communicate.
The scaling behaviour is identical — the kernel choice is about proof
hygiene, not performance.
"""

from __future__ import annotations

import pytest

from repro.core.config import BroadcastConfig
from repro.core.runner import run_broadcast_replications

N_NODES = 32 * 32
N_AGENTS = 32
REPLICATIONS = 4
# Radius 1 avoids the parity obstruction of the simple (non-lazy) kernel.
RADIUS = 1.0


def _mean_broadcast_time(rule: str) -> float:
    config = BroadcastConfig(
        n_nodes=N_NODES,
        n_agents=N_AGENTS,
        radius=RADIUS,
        mobility="random_walk",
        mobility_kwargs={"rule": rule},
    )
    summary, _ = run_broadcast_replications(config, REPLICATIONS, seed=123)
    return summary.mean


@pytest.mark.benchmark(group="ablation-walk-rule")
def test_ablation_lazy_walk(benchmark):
    mean_tb = benchmark.pedantic(_mean_broadcast_time, args=("lazy",), rounds=1, iterations=1)
    print(f"\nlazy walk: mean T_B = {mean_tb:.1f}")
    assert mean_tb > 0


@pytest.mark.benchmark(group="ablation-walk-rule")
def test_ablation_simple_walk(benchmark):
    mean_tb = benchmark.pedantic(_mean_broadcast_time, args=("simple",), rounds=1, iterations=1)
    print(f"\nsimple walk: mean T_B = {mean_tb:.1f}")
    assert mean_tb > 0


def test_ablation_rules_agree_up_to_constant():
    lazy = _mean_broadcast_time("lazy")
    simple = _mean_broadcast_time("simple")
    # The lazy walk idles ~1/5 of the time, so it is mildly slower; the two
    # stay within a small constant factor of each other.
    ratio = lazy / simple
    assert 0.5 <= ratio <= 3.0, ratio
