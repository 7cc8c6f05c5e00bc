"""The Jacobian and compact-picture maps against their pinned battery,
one SHA-256 per case.

The digests in tests/golden/jacobian_battery.json come from
``python tests/jacobian_battery.py``; the test only reads them.  A
mismatch names the config and the indices of the cases that moved.
"""

from __future__ import annotations

import json

import pytest

from jacobian_battery import BATTERY_PATH, CONFIGS, config_key, digests

PINNED = json.loads(BATTERY_PATH.read_text(encoding="utf-8"))


def test_battery_covers_every_config():
    assert sorted(PINNED) == sorted(config_key(f, r) for f, r in CONFIGS)


@pytest.mark.parametrize("family,rank", CONFIGS, ids=[config_key(f, r) for f, r in CONFIGS])
def test_jacobian_battery(family, rank):
    pinned = PINNED[config_key(family, rank)]
    got = digests(family, rank)
    assert len(got) == len(pinned)
    moved = [k for k, (a, b) in enumerate(zip(got, pinned)) if a != b]
    assert not moved, f"{config_key(family, rank)}: cases {moved} differ from the battery"
