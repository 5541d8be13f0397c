"""The reference clock's arithmetic: what it scales, and how.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import calibrate  # noqa: E402


def test_scaled_multiplies_times_divides_rates_and_keeps_counts():
    assert calibrate.scaled(2.0, "s", 1.5) == pytest.approx(3.0)
    assert calibrate.scaled(2.0, "ms", 1.5) == pytest.approx(3.0)
    assert calibrate.scaled(3.0, "items/s", 1.5) == pytest.approx(2.0)
    assert calibrate.scaled(3.0, "GFLOP/s", 1.5) == pytest.approx(2.0)
    assert calibrate.scaled(7.0, "count", 1.5) == 7.0
    assert calibrate.scaled(0.9, "share", 1.5) == 0.9


def test_clock_probes_after_each_timed_call():
    clock = calibrate.ReferenceClock()
    assert len(clock.probes) == calibrate.PROBE_CALLS
    cpu, wall, result = clock.time(sum, [1, 2, 3])
    assert result == 6
    assert 0.0 <= cpu and 0.0 <= wall
    assert len(clock.probes) == 2 * calibrate.PROBE_CALLS
    assert all(p > 0.0 for p in clock.probes)


def test_scale_follows_the_probes_around_a_segment():
    """Twice the kernel time, half the scale: a slow spell does not read as slow code."""
    n = calibrate.PROBE_CALLS
    clock = calibrate.ReferenceClock()
    clock.probes = [0.010] * (2 * n)
    mark = clock.mark()
    clock.probes += [0.020] * (2 * n)
    # The segment's probes: the last probe before it and every probe after.
    assert clock.scale_since(mark) == pytest.approx(calibrate.REFERENCE_S / 0.020)
    assert clock.scale_since(0) == pytest.approx(calibrate.REFERENCE_S / 0.015)
