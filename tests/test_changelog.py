"""CHANGES.md stays small enough to review by eye: a scripted edit that
multiplies it (one once spread a paragraph between every character of
fourteen lines, 21 KB -> 22 MB) fails here instead of being committed."""

from pathlib import Path

CHANGES = Path(__file__).resolve().parent.parent / "CHANGES.md"


def test_changelog_size_and_line_length_are_bounded():
    data = CHANGES.read_bytes()
    assert len(data) <= 1_000_000, f"CHANGES.md is {len(data)} bytes"
    longest = max(len(line) for line in data.decode("utf-8").splitlines())
    assert longest <= 20_000, f"CHANGES.md has a {longest}-character line"
