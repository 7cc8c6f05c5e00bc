"""The command line against its pinned battery, one SHA-256 per request.

The digests in tests/golden/cli_battery.json come from
``python tests/cli_battery.py``; the test only reads them.  A mismatch
names the subcommand and the indices of the requests that moved.
"""

from __future__ import annotations

import json

import pytest

from cli_battery import BATTERY_PATH, GROUPS, digests

PINNED = json.loads(BATTERY_PATH.read_text(encoding="utf-8"))


def test_battery_covers_every_subcommand():
    assert sorted(PINNED) == sorted(GROUPS)


@pytest.mark.parametrize("group", GROUPS)
def test_cli_battery(group):
    pinned = PINNED[group]
    got = digests(group)
    assert len(got) == len(pinned)
    moved = [k for k, (a, b) in enumerate(zip(got, pinned)) if a != b]
    assert not moved, f"{group}: requests {moved} differ from the battery"
