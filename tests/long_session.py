"""A generated TDD session of any length, for the scaling tests and CI.

    python tests/long_session.py DIRECTORY [CYCLES]

writes DIRECTORY/div.prog, the correct integer division of the bundled
kata, and DIRECTORY/long.session: CYCLES cycles (40 by default) over the
kata's domain, each with a new test and a contract from one of four
precondition families, every cycle naming div.prog as its snapshot and the
session naming it as its final program. Every check of its replay passes
(exit 0); the union gains a disjunct per cycle, so what replay does per
cycle grows with the cycle count unless the union's facts are composed.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tddslicer.corpus import corpus_path

DOMAIN = "x in 0..16, y in 1..9"
POSTS = (
    "0 <= r && r < y && x == y * q + r",
    "x == y * q + r && r < y && r >= 0",
)


def long_session_text(cycles: int = 40) -> str:
    """The text of the generated session with the given number of cycles."""
    lines = [
        "[session]",
        "name = long-div",
        "final = div.prog",
        f"domain = {DOMAIN}",
        "outrange = q in 0..16, r in 0..16",
    ]
    for index in range(1, cycles + 1):
        x, y = 5 * index % 17, index % 9 + 1
        pre = (
            f"x == {x} && y == {y}",
            f"exists k in 0..16 : x == y * k + {x % y}",
            f"y == {y}",
            f"x >= {x} && y <= {y}",
        )[index % 4]
        lines += [
            "",
            f"[cycle {index}]",
            f"test.name = divide_{x}_by_{y}_{index}",
            f"test.inputs = x={x}, y={y}",
            f"test.expect = q={x // y}, r={x % y}",
            f"contract.pre = {pre}",
            f"contract.post = {POSTS[index % 2]}",
            "snapshot = div.prog",
        ]
    return "\n".join(lines) + "\n"


def write_long_session(directory: str | Path, cycles: int = 40) -> Path:
    """Write div.prog and long.session into directory; the session's path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "div.prog").write_text(corpus_path("div_oracle.prog").read_text(encoding="utf-8"))
    session = directory / "long.session"
    session.write_text(long_session_text(cycles), encoding="utf-8")
    return session


if __name__ == "__main__":
    print(write_long_session(sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else 40))
