#!/usr/bin/env python3
"""Counts the non-test Rust lines under crates/, per crate and in total.

A line counts when its `.rs` file sits outside every `tests/` directory
and comes before the file's first `#[cfg(test)]` line (blank and comment
lines included). This is the rule the net line deltas in CHANGES.md and
CHANGELOG.md are quoted by. Informational only; nothing gates on it.

Run from anywhere:

  python3 scripts/loc.py
"""
from pathlib import Path

CRATES = Path(__file__).resolve().parent.parent / "crates"


def non_test_lines(path):
    """Lines of `path` before its first `#[cfg(test)]`."""
    count = 0
    for line in path.read_text().splitlines():
        if line.strip() == "#[cfg(test)]":
            break
        count += 1
    return count


def main():
    total = 0
    for krate in sorted(p for p in CRATES.iterdir() if (p / "Cargo.toml").exists()):
        n = sum(
            non_test_lines(f)
            for f in krate.rglob("*.rs")
            if "tests" not in f.relative_to(krate).parts
        )
        total += n
        print(f"{krate.name:<16}{n:>8}")
    print(f"{'total':<16}{total:>8}")


if __name__ == "__main__":
    main()
