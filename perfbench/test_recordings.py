"""The seeded generator: the same seed gives the same bytes, another seed
gives other bytes.  Run from the repository root::

    python3 -m pytest perfbench/test_recordings.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench.recordings import generate  # noqa: E402


def test_same_seed_gives_identical_bytes():
    first = generate(11, 1)
    assert first.wire.to_bytes() == generate(11, 1).wire.to_bytes()


def test_other_seed_gives_other_bytes():
    assert generate(11, 1).wire.to_bytes() != generate(12, 1).wire.to_bytes()


def test_faulty_long_recordings_are_seeded_too():
    first = generate(11, 0, stream=1, length=4.0, faults=True)
    again = generate(11, 0, stream=1, length=4.0, faults=True)
    assert first.wire.to_bytes() == again.wire.to_bytes()
    assert first.duplicates > 0
