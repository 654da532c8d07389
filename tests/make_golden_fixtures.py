#!/usr/bin/env python3
"""Regenerate the committed regression fixtures under tests/golden/.

    python tests/make_golden_fixtures.py [NAME ...]

With no NAME every fixture is rewritten; otherwise only the named ones.
"""

import pathlib
import sys

from hombeat.cli import main

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from fixture_defs import FIXTURES, SVG_FIXTURES, render_svg_fixture  # noqa: E402

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def regenerate(names=None) -> None:
    names = list(names or [*FIXTURES, *SVG_FIXTURES])
    unknown = set(names) - set(FIXTURES) - set(SVG_FIXTURES)
    if unknown:
        raise SystemExit(f"unknown fixtures: {', '.join(sorted(unknown))}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        target = GOLDEN_DIR / name
        if name in FIXTURES:
            code = main(FIXTURES[name] + ["--out", str(target)])
        else:
            code = render_svg_fixture(name, target)
        if code != 0:
            raise SystemExit(f"fixture {name} failed with exit code {code}")
        print(f"wrote {target}")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
