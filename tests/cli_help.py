"""The command line's help texts and the script that pins them.

``rootfact --help`` and ``rootfact <subcommand> --help`` for every
subcommand, each run in process through ``rootfact.cli.main`` at a
width of 80 columns, since argparse wraps its text to the terminal.
The texts live verbatim in tests/golden/cli_help.json, keyed by the
subcommand ("" for the top level).

Running this module as a script regenerates that file:

    PYTHONPATH=src python tests/cli_help.py

Do it only for a deliberate change of the parser, and say why in
CHANGES.md; the test never writes the file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

from rootfact import cli

HELP_PATH = Path(__file__).parent / "golden" / "cli_help.json"

COMMANDS = ["", *cli._COMMANDS]


def help_text(command: str) -> str:
    """What --help prints for the subcommand; raises unless it exits 0."""
    out = io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out):
            cli.main([command, "--help"] if command else ["--help"])
    except SystemExit as exc:
        if exc.code != 0:
            raise
    else:
        raise AssertionError(f"{command or 'rootfact'} --help did not exit")
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return out.getvalue()


def main() -> None:
    texts = {command: help_text(command) for command in COMMANDS}
    HELP_PATH.write_text(json.dumps(texts, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("wrote", HELP_PATH, len(texts), "help texts")


if __name__ == "__main__":
    main()
