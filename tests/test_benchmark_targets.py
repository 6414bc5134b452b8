"""The names the benchmark's tracer wraps must exist where it looks them up.

`perfbench/probe.py` patches each of its targets by name on its owner (a
module or a class of `krt`). A name that no longer exists there makes a
traced benchmark run fail, so it is checked here without running anything.
The tracer reads each original from the owner's `__dict__`, so the name
must be the owner's own: a name a class only inherits fails there too.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import probe  # noqa: E402

TARGETS = probe.BOUNDARY + probe.LAYERS


@pytest.mark.parametrize("target", TARGETS, ids=[t.key for t in TARGETS])
def test_every_wrapped_name_exists_on_its_owner(target):
    assert callable(vars(target.owner).get(target.attr)), target.key
