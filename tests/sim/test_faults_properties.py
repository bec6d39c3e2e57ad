"""Property-based tests for repro.sim.faults transforms.

Hypothesis drives synthetic report batches through the fault transforms
and checks the structural invariants each transform must preserve —
count bounds, phase ranges, untouched bystander tags and composition
order.  Synthetic batches (not simulated collections) keep the property
search fast enough for many examples.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.geometry import Point3
from repro.hardware.llrp import ReportBatch, TagReportData
from repro.hardware.rotator import horizontal_disk
from repro.sim.faults import (
    bias_timestamps,
    chain,
    corrupt_quantization,
    drop_reads,
    duplicate_reports,
    jam_window,
    pi_slips,
    shuffle_reports,
    silence_tag,
    stall_disk,
)

EPCS = ("E2-SPIN-1", "E2-SPIN-2", "E2-STATIC-1")


@st.composite
def report_batches(draw, min_reports=1, max_reports=60):
    n = draw(st.integers(min_reports, max_reports))
    reports = []
    for i in range(n):
        reports.append(
            TagReportData(
                epc=draw(st.sampled_from(EPCS)),
                antenna_port=1,
                channel_index=draw(st.integers(0, 15)),
                reader_timestamp_us=draw(st.integers(0, 20_000_000)),
                host_timestamp_us=draw(st.integers(0, 20_000_000)),
                phase_rad=draw(
                    st.floats(0.0, 2.0 * math.pi, exclude_max=True)
                ),
                rssi_dbm=draw(st.floats(-90.0, -30.0)),
            )
        )
    return ReportBatch(reports)


seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=50, deadline=None)
@given(batch=report_batches(), fraction=st.floats(0.0, 1.0), seed=seeds)
def test_drop_reads_count_invariant(batch, fraction, seed):
    """drop_reads never adds reports, keeps all at 0.0 and none at 1.0."""
    rng = np.random.default_rng(seed)
    thinned = drop_reads(batch, fraction, rng)
    assert len(thinned) <= len(batch)
    if fraction == 0.0:
        assert thinned.reports == batch.reports
    if fraction == 1.0:
        assert len(thinned) == 0
    # Survivors appear in their original order.
    survivors = iter(batch.reports)
    for report in thinned.reports:
        assert report in survivors


@settings(max_examples=50, deadline=None)
@given(batch=report_batches(), epc=st.sampled_from(EPCS))
def test_silence_tag_count_invariant(batch, epc):
    """silence_tag removes exactly the silenced tag's reports."""
    silenced = silence_tag(batch, epc)
    removed = sum(1 for r in batch.reports if r.epc == epc)
    assert len(silenced) == len(batch) - removed
    assert all(r.epc != epc for r in silenced.reports)
    assert [r for r in batch.reports if r.epc != epc] == silenced.reports


@settings(max_examples=50, deadline=None)
@given(
    batch=report_batches(),
    start=st.floats(0.0, 10.0),
    width=st.floats(0.1, 10.0),
    seed=seeds,
)
def test_jam_window_phase_range_invariant(batch, start, width, seed):
    """Jamming preserves count and keeps every phase inside [0, 2*pi);
    reads outside the window are untouched."""
    rng = np.random.default_rng(seed)
    jammed = jam_window(batch, start, start + width, rng)
    assert len(jammed) == len(batch)
    for before, after in zip(batch.reports, jammed.reports):
        assert 0.0 <= after.phase_rad < 2.0 * math.pi
        if not (start <= before.reader_time_s <= start + width):
            assert after.phase_rad == before.phase_rad
        assert after.reader_timestamp_us == before.reader_timestamp_us
        assert after.epc == before.epc


@settings(max_examples=50, deadline=None)
@given(batch=report_batches(), stuck=st.floats(0.01, 1.0))
def test_stall_disk_leaves_bystanders_untouched(batch, stuck):
    """Stalling one tag's disk never drops another tag's reads."""
    disk = horizontal_disk(
        center=Point3(0.0, 0.0, 0.0), radius=0.1, angular_speed=1.0
    )
    target = EPCS[0]
    stalled = stall_disk(batch, disk, target, stuck_fraction=stuck)
    bystanders_before = [r for r in batch.reports if r.epc != target]
    bystanders_after = [r for r in stalled.reports if r.epc != target]
    assert bystanders_before == bystanders_after
    kept_target = [r for r in stalled.reports if r.epc == target]
    assert len(kept_target) <= sum(1 for r in batch.reports if r.epc == target)


@settings(max_examples=50, deadline=None)
@given(batch=report_batches(), fraction=st.floats(0.0, 1.0), seed=seeds)
def test_duplicate_reports_count_invariant(batch, fraction, seed):
    rng = np.random.default_rng(seed)
    doubled = duplicate_reports(batch, fraction, rng)
    assert len(batch) <= len(doubled) <= 2 * len(batch)
    if fraction == 0.0:
        assert doubled.reports == batch.reports
    if fraction == 1.0:
        assert len(doubled) == 2 * len(batch)


def _tied_batch():
    """Three reads that agree on epc, reader time and phase and differ only
    in host time: any sort key short of the whole record leaves them tied."""
    return ReportBatch(
        [
            TagReportData(
                epc="E2-SPIN-1",
                antenna_port=1,
                channel_index=0,
                reader_timestamp_us=0,
                host_timestamp_us=host_us,
                phase_rad=0.0,
                rssi_dbm=-30.0,
            )
            for host_us in (0, 0, 1)
        ]
    )


@settings(max_examples=50, deadline=None)
@given(batch=report_batches(), seed=seeds)
@example(batch=_tied_batch(), seed=0)
def test_shuffle_reports_is_a_permutation(batch, seed):
    """The shuffled batch holds exactly the original reads, each as often
    as before (compared as multisets of whole records)."""
    rng = np.random.default_rng(seed)
    shuffled = shuffle_reports(batch, rng)
    assert len(shuffled) == len(batch)
    assert Counter(shuffled.reports) == Counter(batch.reports)


@settings(max_examples=50, deadline=None)
@given(batch=report_batches(), prob=st.floats(0.0, 1.0), seed=seeds)
def test_pi_slips_phase_range_invariant(batch, prob, seed):
    rng = np.random.default_rng(seed)
    slipped = pi_slips(batch, prob, rng)
    assert len(slipped) == len(batch)
    for before, after in zip(batch.reports, slipped.reports):
        assert 0.0 <= after.phase_rad < 2.0 * math.pi + 1e-12
        delta = abs(after.phase_rad - before.phase_rad)
        assert (
            math.isclose(delta, 0.0)
            or math.isclose(delta, math.pi, rel_tol=1e-9)
        )


@settings(max_examples=50, deadline=None)
@given(batch=report_batches(), fraction=st.floats(0.0, 1.0), seed=seeds)
def test_corrupt_quantization_marks_out_of_range(batch, fraction, seed):
    """Corrupted phases land in [2*pi, 4*pi) — provably detectable —
    and clean reports are byte-identical."""
    rng = np.random.default_rng(seed)
    corrupted = corrupt_quantization(batch, fraction, rng)
    assert len(corrupted) == len(batch)
    for before, after in zip(batch.reports, corrupted.reports):
        if after.phase_rad != before.phase_rad:
            assert 2.0 * math.pi <= after.phase_rad < 4.0 * math.pi
        else:
            assert after == before


@settings(max_examples=30, deadline=None)
@given(batch=report_batches(), epc=st.sampled_from(EPCS), seed=seeds)
def test_chain_composition_order(batch, epc, seed):
    """chain applies left-to-right: silencing then duplicating equals the
    manual composition, and differs from the reverse when the tag has
    reads (duplicating first doubles reads the silencer then removes)."""
    rng1, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
    chained = chain(
        batch,
        lambda b: silence_tag(b, epc),
        lambda b: duplicate_reports(b, 1.0, rng1),
    )
    manual = duplicate_reports(silence_tag(batch, epc), 1.0, rng2)
    assert chained.reports == manual.reports
    assert all(r.epc != epc for r in chained.reports)


# ----------------------------------------------------------------------
# Chained-fault accounting (ISSUE 6 satellite): however transport faults
# compose, the total number of offered reports must stay derivable —
# shedding/quarantine accounting downstream relies on it.
# ----------------------------------------------------------------------
def _multiset(reports):
    counts = {}
    for r in reports:
        counts[r] = counts.get(r, 0) + 1
    return counts


@settings(max_examples=50, deadline=None)
@given(
    batch=report_batches(),
    fraction=st.floats(0.0, 1.0),
    seed=seeds,
    shuffle_first=st.booleans(),
)
def test_duplicate_shuffle_chain_preserves_accounting(
    batch, fraction, seed, shuffle_first
):
    """Property: any duplicate/shuffle composition keeps exact accounting.

    Every delivered report is one of the originals, each original appears
    1 or 2 times (never 0 — neither fault drops), and the total equals
    the original count plus the number of duplications, in either order.
    """
    rng = np.random.default_rng(seed)
    if shuffle_first:
        result = chain(
            batch,
            lambda b: shuffle_reports(b, rng),
            lambda b: duplicate_reports(b, fraction, rng),
        )
    else:
        result = chain(
            batch,
            lambda b: duplicate_reports(b, fraction, rng),
            lambda b: shuffle_reports(b, rng),
        )
    before = _multiset(batch.reports)
    after = _multiset(result.reports)
    assert set(after) == set(before)  # nothing invented, nothing dropped
    duplicated = 0
    for report, count in after.items():
        base = before[report]
        assert base <= count <= 2 * base
        duplicated += count - base
    assert len(result) == len(batch) + duplicated


@settings(max_examples=30, deadline=None)
@given(batch=report_batches(), fraction=st.floats(0.0, 1.0), seed=seeds)
def test_duplicate_then_shuffle_order_matters_but_not_totals(
    batch, fraction, seed
):
    """The two composition orders deliver different sequences (chain is
    left-to-right, not commutative) yet identical multisets and totals
    when driven by the same RNG stream."""
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    dup_then_shuffle = chain(
        batch,
        lambda b: duplicate_reports(b, fraction, rng_a),
        lambda b: shuffle_reports(b, rng_a),
    )
    shuffle_then_dup = chain(
        batch,
        lambda b: shuffle_reports(b, rng_b),
        lambda b: duplicate_reports(b, fraction, rng_b),
    )
    # Totals agree run-to-run only in the degenerate fractions; the
    # multiset-vs-original invariant must hold for both orders always.
    for result in (dup_then_shuffle, shuffle_then_dup):
        assert set(_multiset(result.reports)) <= set(_multiset(batch.reports))
        assert len(batch) <= len(result) <= 2 * len(batch)
    if fraction == 0.0:
        assert len(dup_then_shuffle) == len(shuffle_then_dup) == len(batch)
    if fraction == 1.0:
        assert (
            len(dup_then_shuffle) == len(shuffle_then_dup) == 2 * len(batch)
        )


@settings(max_examples=30, deadline=None)
@given(
    batch=report_batches(),
    epc=st.sampled_from(EPCS),
    fraction=st.floats(0.0, 1.0),
    seed=seeds,
)
def test_three_fault_chain_accounting(batch, epc, fraction, seed):
    """silence -> duplicate -> shuffle: offered-report accounting stays
    exact through a three-deep chain (total = survivors + duplications)."""
    rng = np.random.default_rng(seed)
    result = chain(
        batch,
        lambda b: silence_tag(b, epc),
        lambda b: duplicate_reports(b, fraction, rng),
        lambda b: shuffle_reports(b, rng),
    )
    survivors = [r for r in batch.reports if r.epc != epc]
    after = _multiset(result.reports)
    assert set(after) <= set(_multiset(survivors))
    assert len(survivors) <= len(result) <= 2 * len(survivors)
    assert all(r.epc != epc for r in result.reports)


@settings(max_examples=50, deadline=None)
@given(batch=report_batches(), offset=st.integers(0, 10_000_000))
def test_skew_clock_shifts_reader_time_only(batch, offset):
    """skew_clock shifts every reader timestamp by the same constant and
    touches nothing else."""
    from repro.sim.faults import skew_clock

    skewed = skew_clock(batch, offset)
    assert len(skewed) == len(batch)
    for before, after in zip(batch.reports, skewed.reports):
        assert after.reader_timestamp_us == before.reader_timestamp_us + offset
        assert after.host_timestamp_us == before.host_timestamp_us
        assert after.phase_rad == before.phase_rad
        assert after.epc == before.epc


def test_skew_clock_rejects_negative_result():
    import pytest

    from repro.errors import ConfigurationError
    from repro.sim.faults import skew_clock

    report = TagReportData(
        epc="E2-SPIN-1",
        antenna_port=1,
        channel_index=0,
        reader_timestamp_us=100,
        host_timestamp_us=100,
        phase_rad=1.0,
        rssi_dbm=-60.0,
    )
    with pytest.raises(ConfigurationError):
        skew_clock(ReportBatch([report]), -200)


# ----------------------------------------------------------------------
# bias_timestamps regression (ISSUE 1 satellite): int() truncation used
# to swallow sub-ppm drifts for small timestamps entirely.
# ----------------------------------------------------------------------
class TestBiasTimestampsRounding:
    def test_small_timestamp_drift_not_swallowed(self):
        """A 0.9 us drift on a small timestamp must round up, not
        truncate to zero shift."""
        report = TagReportData(
            epc="E2-SPIN-1",
            antenna_port=1,
            channel_index=0,
            reader_timestamp_us=900_000,
            host_timestamp_us=900_000,
            phase_rad=1.0,
            rssi_dbm=-60.0,
        )
        drifted = bias_timestamps(ReportBatch([report]), drift_ppm=1.0)
        # 900_000 * (1 + 1e-6) = 900_000.9 -> round() gives 900_001;
        # the old int() truncation returned 900_000 (drift swallowed).
        assert drifted.reports[0].reader_timestamp_us == 900_001

    @settings(max_examples=100, deadline=None)
    @given(
        timestamp=st.integers(0, 10**9),
        drift_ppm=st.floats(-100.0, 100.0),
    )
    def test_rounding_error_bounded(self, timestamp, drift_ppm):
        """round() keeps the applied drift within half a microsecond of
        the exact value for any timestamp/drift combination."""
        report = TagReportData(
            epc="E2-SPIN-1",
            antenna_port=1,
            channel_index=0,
            reader_timestamp_us=timestamp,
            host_timestamp_us=timestamp,
            phase_rad=1.0,
            rssi_dbm=-60.0,
        )
        drifted = bias_timestamps(ReportBatch([report]), drift_ppm)
        exact = timestamp * (1.0 + drift_ppm * 1e-6)
        assert abs(drifted.reports[0].reader_timestamp_us - exact) <= 0.5 + 1e-6
