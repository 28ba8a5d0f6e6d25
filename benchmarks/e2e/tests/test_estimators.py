"""The noise-normalised rate on synthetic batches."""

import random

import pytest

from benchmarks.e2e import estimators


def _batches(true_rate, slow_from, slow_to, slowdown, rng):
    """100 batches of 100 ops at ``true_rate`` ops per nominal second; the
    machine runs ``slowdown`` times slower during [slow_from, slow_to) and
    the reference reads exactly that slowness before and after each."""
    seconds, ops, before, after = [], [], [], []
    speed = [slowdown if slow_from <= i < slow_to else 1.0 for i in range(101)]
    for i in range(100):
        jitter = 1.0 + rng.uniform(-0.03, 0.03)
        seconds.append(100 / true_rate * speed[i] * jitter)
        ops.append(100)
        before.append(speed[i])
        after.append(speed[i + 1])
    return seconds, ops, before, after


def test_slow_epoch_is_normalised_away():
    rng = random.Random(1)
    seconds, ops, before, after = _batches(4000.0, 30, 80, 1.7, rng)
    raw = sum(ops) / sum(seconds)
    assert raw < 4000.0 * 0.8  # the raw rate is off by far more than a tenth
    costs = estimators.normalised_costs(seconds, ops, before, after)
    assert estimators.ops_per_s_norm(costs) == pytest.approx(4000.0, rel=0.10)


def test_two_runs_of_one_rate_agree_whatever_the_epochs():
    quiet = _batches(2500.0, 0, 0, 1.0, random.Random(2))
    noisy = _batches(2500.0, 10, 95, 1.7, random.Random(3))
    a = estimators.ops_per_s_norm(estimators.normalised_costs(*quiet))
    b = estimators.ops_per_s_norm(estimators.normalised_costs(*noisy))
    assert a == pytest.approx(b, rel=0.05)


def test_a_disturbed_minority_of_batches_does_not_move_the_rate():
    seconds, ops, before, after = _batches(3000.0, 0, 0, 1.0, random.Random(4))
    for i in range(0, 100, 3):  # every third batch hit by something the
        seconds[i] *= 1.5       # reference kernel did not see
    costs = estimators.normalised_costs(seconds, ops, before, after)
    assert estimators.ops_per_s_norm(costs) == pytest.approx(3000.0, rel=0.05)


def test_set_up_seconds_are_restated_at_nominal_speed():
    assert estimators.normalised_seconds(2.0, 1.0, 1.0) == pytest.approx(2.0)
    assert estimators.normalised_seconds(3.4, 1.7, 1.7) == pytest.approx(2.0)


def test_reference_reads_a_positive_slowness_from_both_kernels():
    reference = estimators.Reference()
    try:
        first, second = reference.slowness(), reference.slowness()
    finally:
        reference.close()
    assert first > 0.0 and second > 0.0
    assert len(reference.loop_seconds) == 2
    assert reference.spent_seconds > sum(reference.loop_seconds)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert estimators.percentile(values, 0.50) == 50
    assert estimators.percentile(values, 0.99) == 99
    assert estimators.percentile([7.0], 0.99) == 7.0

