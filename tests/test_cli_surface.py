"""The option strings the tambara command accepts, globally and per
command.  Adding or removing an option changes this list on purpose."""

import argparse

from tambara.cli import build_parser

EXPECTED = {
    None: {"--fiber-bound", "--budget"},
    "check": set(),
    "decompose": {"--lambda", "--out"},
    "lewis": {"--chain"},
    "coinduce": {"--from", "--out"},
    "restrict": {"--to", "--out"},
    "iso": set(),
}


def _options(parser):
    return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}


def test_option_surface():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    got = {None: _options(parser)}
    got.update((name, _options(p)) for name, p in commands.items())
    assert got == EXPECTED
