"""The command line's help texts against their pinned copies, byte for byte.

The texts in tests/golden/cli_help.json come from
``python tests/cli_help.py``; the test only reads them.
"""

from __future__ import annotations

import json

import pytest

from cli_help import COMMANDS, HELP_PATH, help_text

PINNED = json.loads(HELP_PATH.read_text(encoding="utf-8"))


def test_help_covers_every_subcommand():
    assert sorted(PINNED) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS, ids=[c or "rootfact" for c in COMMANDS])
def test_help_text(command):
    assert help_text(command) == PINNED[command]
