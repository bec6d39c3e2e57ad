"""Seeded wire recordings: the only input the benchmark gives the program.

A recording is one simulated calibration session, captured the way the
reader streams it (:meth:`repro.sim.wire_recording.WireRecording.capture`
at ``REPORTS_PER_FRAME`` reports per RO_ACCESS_REPORT frame).  From the
workload seed each recording draws a disk layout (two or three disks and
their spacing), a tag model and a reader pose.  Disk counts follow a
checkerboard over a grid of pose cells, and recording ``i`` samples its
pose inside cell ``i mod 8``, so every seed serves the same mix of fix
costs and geometries while no two seeds share an input byte.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.geometry import Point3
from repro.hardware.llrp import ReportBatch
from repro.hardware.tags import TABLE_I
from repro.sim.faults import duplicate_reports, pi_slips
from repro.sim.scenario import ScenarioConfig, TagspinScenario
from repro.sim.scene import DeploymentSpec, sample_reader_positions_2d
from repro.sim.wire_recording import WireRecording

#: Payload bytes per TCP segment: each frame reaches the parser in chunks
#: of at most this size.
MTU_BYTES = 1460
REPORTS_PER_FRAME = 50
#: The part of the reader plane poses are drawn from, cut into POSE_GRID
#: (columns, rows) cells.  Wider angles to the disk row dilute the
#: triangulation past the 10 cm the checks allow.
POSE_X = (-1.6, 1.6)
POSE_Y = (1.2, 2.6)
POSE_GRID = (4, 2)
#: Center-to-center disk spacing [m].
SPACING_M = (0.40, 0.60)
#: Faults injected before capture when ``faults`` is set.
DUPLICATE_FRACTION = 0.05
PI_SLIP_FRACTION = 0.02
#: Scenario and pose redraws allowed when the first frame cannot support
#: a fix.
ATTEMPTS = 20


@dataclass(frozen=True)
class Recording:
    """One captured session plus what the checks need to know about it."""

    seed: int
    index: int
    wire: WireRecording
    #: Per frame, the frame's bytes cut into MTU-sized chunks.
    chunks: Tuple[Tuple[bytes, ...], ...]
    disks: int
    tag_model: str
    #: Reads the fault injector delivered twice (0 without faults).
    duplicates: int

    @property
    def frames(self) -> int:
        return len(self.chunks)

    @property
    def truth(self) -> Point3:
        return self.wire.truth


def _first_frame_fixable(reports, min_snapshots: int) -> bool:
    """Whether the first frame alone gives two disks a usable series.

    A disk is usable once one channel holds ``min_snapshots`` distinct
    reads.  Poses failing this are redrawn, so the per-frame poll never
    asks for a fix that has to fail.
    """
    distinct = {
        (r.epc, r.channel_index, r.reader_timestamp_us)
        for r in reports[:REPORTS_PER_FRAME]
    }
    per_channel = Counter((epc, channel) for epc, channel, _t in distinct)
    usable = {
        epc for (epc, _channel), n in per_channel.items() if n >= min_snapshots
    }
    return len(usable) >= 2


def generate(
    seed: int,
    index: int,
    *,
    stream: int = 0,
    length: float = 1.0,
    faults: bool = False,
) -> Recording:
    """Recording ``index`` of pool ``stream`` for ``seed``.

    ``length`` scales the paper's collection length (two disk
    rotations).  ``faults`` delivers DUPLICATE_FRACTION of the reads
    twice and then pi-slips PI_SLIP_FRACTION of them, before capture.
    """
    rng = np.random.default_rng([seed, stream, index])
    columns, rows = POSE_GRID
    cell = index % (columns * rows)
    column, row = cell % columns, cell // columns
    disks = 2 + (column + row) % 2
    spacing = float(rng.uniform(*SPACING_M))
    centers = tuple(
        Point3((k - (disks - 1) / 2.0) * spacing, 0.0, 0.0)
        for k in range(disks)
    )
    tag_model = str(rng.choice(sorted(TABLE_I)))
    width = (POSE_X[1] - POSE_X[0]) / columns
    height = (POSE_Y[1] - POSE_Y[0]) / rows
    x_range = (POSE_X[0] + column * width, POSE_X[0] + (column + 1) * width)
    y_range = (POSE_Y[0] + row * height, POSE_Y[0] + (row + 1) * height)
    for _attempt in range(ATTEMPTS):
        # A fresh scenario each attempt: a tag that reads poorly from the
        # whole cell would fail every pose.
        config = ScenarioConfig(
            deployment=DeploymentSpec(disk_centers=centers, tag_model=tag_model),
            seed=int(rng.integers(2**31)),
        )
        scenario = TagspinScenario(config)
        scenario.run_orientation_prelude()
        pose = sample_reader_positions_2d(
            1, rng, x_range=x_range, y_range=y_range, disk_centers=centers
        )[0]
        truth = Point3(pose.x, pose.y, 0.0)
        batch, _reader = scenario.collect(
            truth, duration_s=config.collection_duration() * length
        )
        clean = len(batch)
        if faults:
            batch = duplicate_reports(batch, DUPLICATE_FRACTION, rng)
        duplicates = len(batch) - clean
        if faults:
            batch = pi_slips(batch, PI_SLIP_FRACTION, rng)
        reports = batch.sorted_by_reader_time().reports
        if _first_frame_fixable(reports, config.pipeline.min_snapshots):
            break
    else:
        raise RuntimeError(
            f"seed {seed} stream {stream} recording {index}: no draw in "
            f"{ATTEMPTS} gives a fixable first frame"
        )
    # EPCs come from a process-wide counter; renaming them keeps the
    # bytes a function of (seed, stream, index) alone.
    names = {
        record.epc: f"E200{stream:04X}{index:08X}{k:08X}"
        for k, record in enumerate(scenario.scene.registry)
    }
    records = [
        dataclasses.replace(record, epc=names[record.epc])
        for record in scenario.scene.registry
    ]
    renamed = ReportBatch(
        [dataclasses.replace(r, epc=names[r.epc]) for r in reports]
    )
    wire = WireRecording.capture(
        renamed,
        records,
        truth=truth,
        label=f"perfbench seed={seed} stream={stream} index={index}",
        reports_per_frame=REPORTS_PER_FRAME,
    )
    chunks = tuple(
        tuple(
            frame.payload[start : start + MTU_BYTES]
            for start in range(0, len(frame.payload), MTU_BYTES)
        )
        for frame in wire.frames
    )
    return Recording(
        seed=seed,
        index=index,
        wire=wire,
        chunks=chunks,
        disks=disks,
        tag_model=tag_model,
        duplicates=duplicates,
    )


def pool(seed: int, count: int, **options) -> List[Recording]:
    """Recordings ``0 .. count-1`` of ``seed`` (options as :func:`generate`)."""
    return [generate(seed, index, **options) for index in range(count)]
