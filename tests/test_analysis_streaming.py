"""The mergeable accumulators of :mod:`repro.analysis.statistics`.

Property tests pin their contract: folding values through
:class:`StreamingMoments` / :class:`QuantileSketch` /
:class:`ReplicationAggregate` under *any* chunking and merge order
reproduces the buffered statistics of
:func:`~repro.core.runner.summarise_values` (counts, min and max exactly;
mean and variance up to floating-point associativity; quantiles within the
sketch's relative accuracy).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.statistics import (
    QuantileSketch,
    ReplicationAggregate,
    StreamingMoments,
)
from repro.core.runner import ReplicationSummary, summarise_values
from tests.strategies import max_examples

#: Finite, moderately-sized observations (keeps variance comparisons sane).
finite_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)
positive_values = st.lists(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)
#: Replication-style outcomes: non-negative times with -1 failure sentinels.
outcome_values = st.lists(
    st.one_of(st.just(-1.0), st.floats(min_value=0.0, max_value=1e4, allow_nan=False)),
    min_size=1,
    max_size=60,
)


def _chunked(values, n_chunks: int, order_seed: int):
    """Deterministically shuffle ``values`` and split them into chunks."""
    rng = np.random.default_rng(order_seed)
    shuffled = list(values)
    rng.shuffle(shuffled)
    bounds = sorted(rng.integers(0, len(shuffled) + 1, size=max(n_chunks - 1, 0)))
    chunks, start = [], 0
    for bound in [*bounds, len(shuffled)]:
        chunks.append(shuffled[start:bound])
        start = bound
    return chunks


# --------------------------------------------------------------------------- #
# StreamingMoments
# --------------------------------------------------------------------------- #
class TestStreamingMoments:
    @settings(max_examples=max_examples(100), deadline=None)
    @given(values=finite_values, n_chunks=st.integers(1, 6), order_seed=st.integers(0, 2**16))
    def test_chunked_merge_matches_buffered(self, values, n_chunks, order_seed):
        arr = np.asarray(values, dtype=np.float64)
        merged = StreamingMoments()
        for chunk in _chunked(values, n_chunks, order_seed):
            partial = StreamingMoments()
            partial.extend(chunk)
            merged.merge(partial)
        assert merged.count == arr.size
        assert merged.min == arr.min() and merged.max == arr.max()
        assert merged.mean == pytest.approx(arr.mean(), rel=1e-9, abs=1e-9)
        expected_var = float(arr.var(ddof=1)) if arr.size > 1 else 0.0
        assert merged.variance == pytest.approx(expected_var, rel=1e-6, abs=1e-6)

    def test_empty_merge_identities(self):
        empty, loaded = StreamingMoments(), StreamingMoments()
        loaded.extend([1.0, 2.0, 3.0])
        reference = loaded.copy()
        loaded.merge(empty)  # merging empty changes nothing
        assert (loaded.count, loaded.mean, loaded.variance) == (
            reference.count,
            reference.mean,
            reference.variance,
        )
        empty.merge(loaded)  # merging into empty adopts the other side
        assert (empty.count, empty.mean, empty.min, empty.max) == (3, 2.0, 1.0, 3.0)

    def test_variance_needs_two_points(self):
        moments = StreamingMoments()
        assert moments.variance == 0.0
        moments.add(5.0)
        assert moments.variance == 0.0 and moments.std == 0.0


# --------------------------------------------------------------------------- #
# QuantileSketch
# --------------------------------------------------------------------------- #
class TestQuantileSketch:
    @settings(max_examples=max_examples(100), deadline=None)
    @given(values=positive_values, q=st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_within_relative_accuracy(self, values, q):
        sketch = QuantileSketch(relative_accuracy=0.01)
        sketch.extend(values)
        ordered = sorted(values)
        # The winning bucket always contains the value at rank
        # floor(q * (n - 1)), and every value in a bucket is within the
        # sketch's relative accuracy of the bucket midpoint.
        anchor = ordered[int(math.floor(q * (len(ordered) - 1)))]
        estimate = sketch.quantile(q)
        assert abs(estimate - anchor) <= 0.01 * anchor + 1e-9

    @settings(max_examples=max_examples(60), deadline=None)
    @given(values=finite_values, n_chunks=st.integers(1, 6), order_seed=st.integers(0, 2**16))
    def test_merge_is_order_and_chunking_independent(self, values, n_chunks, order_seed):
        direct = QuantileSketch()
        direct.extend(values)
        chunks = _chunked(values, n_chunks, order_seed)
        partials = []
        for chunk in chunks:
            sketch = QuantileSketch()
            sketch.extend(chunk)
            partials.append(sketch)
        forward, backward = QuantileSketch(), QuantileSketch()
        for sketch in partials:
            forward.merge(sketch)
        for sketch in reversed(partials):
            backward.merge(sketch)
        # Bucket-count addition is exact: every merge order produces the
        # *identical* sketch, hence bit-identical quantiles.
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert forward.quantile(q) == direct.quantile(q) == backward.quantile(q)
        assert forward.count == direct.count == len(values)

    def test_zeros_and_negatives(self):
        sketch = QuantileSketch()
        sketch.extend([-5.0, 0.0, 5.0])
        assert sketch.median == 0.0
        assert sketch.quantile(0.0) == pytest.approx(-5.0, rel=0.01)
        assert sketch.quantile(1.0) == pytest.approx(5.0, rel=0.01)

    def test_empty_sketch_is_nan(self):
        assert math.isnan(QuantileSketch().quantile(0.5))

    def test_q_out_of_range_raises(self):
        with pytest.raises(ValueError):
            QuantileSketch().quantile(1.5)

    def test_mismatched_accuracy_merge_raises(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_relative_accuracy_validation(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.0)
        with pytest.raises(ValueError):
            QuantileSketch(1.0)

    def test_memory_is_bucket_bounded(self):
        sketch = QuantileSketch()
        sketch.extend(float(v) for v in range(1, 100_001))
        # 100k distinct values over 5 decades collapse into O(log-range /
        # log-gamma) buckets — the O(1)-per-sweep-point memory claim.
        assert sketch.n_buckets < 1000
        assert sketch.count == 100_000


# --------------------------------------------------------------------------- #
# ReplicationAggregate
# --------------------------------------------------------------------------- #
class TestReplicationAggregate:
    @settings(max_examples=max_examples(60), deadline=None)
    @given(values=outcome_values, n_chunks=st.integers(1, 5), order_seed=st.integers(0, 2**16))
    def test_chunked_merge_matches_buffered_summary(self, values, n_chunks, order_seed):
        buffered = summarise_values(values)
        merged = ReplicationAggregate()
        for chunk in _chunked(values, n_chunks, order_seed):
            partial = ReplicationAggregate()
            partial.extend(chunk)
            merged.merge(partial)
        assert merged.n_total == buffered.n_replications
        assert merged.n_completed == buffered.n_completed
        assert merged.completion_rate == buffered.completion_rate
        if merged.n_completed:
            assert merged.min == buffered.completed_values.min()
            assert merged.max == buffered.completed_values.max()
            assert merged.mean == pytest.approx(buffered.mean, rel=1e-9, abs=1e-9)
        else:
            assert math.isnan(merged.mean)

    def test_negative_sentinels_are_excluded_from_statistics(self):
        aggregate = ReplicationAggregate()
        aggregate.extend([3.0, -1.0, 5.0, -1.0])
        assert aggregate.n_total == 4
        assert aggregate.n_completed == 2
        assert aggregate.completion_rate == 0.5
        assert aggregate.mean == 4.0
        assert (aggregate.min, aggregate.max) == (3.0, 5.0)

    def test_all_failed_is_nan(self):
        aggregate = ReplicationAggregate()
        aggregate.extend([-1.0, -1.0])
        assert aggregate.n_total == 2 and aggregate.n_completed == 0
        assert aggregate.completion_rate == 0.0
        for stat in (aggregate.mean, aggregate.std, aggregate.min, aggregate.max):
            assert math.isnan(stat)


# --------------------------------------------------------------------------- #
# summarise_values against the accumulators
# --------------------------------------------------------------------------- #
class TestSummariseValues:
    def test_buffered_default_unchanged(self):
        summary = summarise_values([1.0, -1.0, 3.0])
        assert isinstance(summary, ReplicationSummary)
        assert np.array_equal(summary.values, [1.0, -1.0, 3.0])
        assert summary.n_completed == 2

    def test_streaming_matches_buffered_statistics(self):
        values = [4.0, 9.0, -1.0, 16.0, 25.0]
        buffered = summarise_values(values)
        streaming = ReplicationAggregate()
        streaming.extend(values)
        assert streaming.n_total == buffered.n_replications
        assert streaming.n_completed == buffered.n_completed
        assert streaming.min == float(buffered.completed_values.min())
        assert streaming.max == float(buffered.completed_values.max())
        assert streaming.mean == pytest.approx(buffered.mean, rel=1e-12)
        assert streaming.std == pytest.approx(buffered.std, rel=1e-9)
