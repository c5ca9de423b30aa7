#!/usr/bin/env python3
"""Counts the non-test Rust lines under crates/, per crate and in total.

A line counts when its `.rs` file sits outside every `tests/` directory
and comes before the file's first `#[cfg(test)]` line (blank and comment
lines included). This is the rule the net line deltas in CHANGES.md and
CHANGELOG.md are quoted by. Informational only; nothing gates on it.

Run from anywhere:

  python3 scripts/loc.py                 # counts of the working tree
  python3 scripts/loc.py --against REV   # and the delta against git REV

With `--against`, the files of REV are read through `git show` and
counted by the same rule, so a crate that exists on one side only
counts as zero on the other.
"""
import argparse
import subprocess
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRATES = ROOT / "crates"


def non_test_lines(text):
    """Lines of `text` before its first `#[cfg(test)]`."""
    count = 0
    for line in text.splitlines():
        if line.strip() == "#[cfg(test)]":
            break
        count += 1
    return count


def count(paths, read):
    """Per-crate non-test lines of the `crates/`-relative `paths`, each
    read with `read`. Only crates whose `Cargo.toml` is among `paths`
    count, and no file under a `tests/` directory does."""
    paths = [Path(p).parts for p in paths]
    crates = {parts[0] for parts in paths if parts[1:] == ("Cargo.toml",)}
    counts = Counter({name: 0 for name in crates})
    for parts in paths:
        if parts[0] in crates and parts[-1].endswith(".rs") and "tests" not in parts[1:]:
            counts[parts[0]] += non_test_lines(read(Path(*parts)))
    return counts


def working_tree():
    """Per-crate counts of the checked-out files."""
    files = (f for f in CRATES.rglob("*") if f.name == "Cargo.toml" or f.suffix == ".rs")
    return count((f.relative_to(CRATES) for f in files), lambda p: (CRATES / p).read_text())


def git(*args):
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout


def at_revision(rev):
    """Per-crate counts of the files of git revision `rev`."""
    tree = git("ls-tree", "-r", "--name-only", rev, "--", "crates/").splitlines()
    files = (Path(p).relative_to("crates") for p in tree)
    return count(files, lambda p: git("show", f"{rev}:crates/{p.as_posix()}"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="also print the delta against REV")
    args = parser.parse_args()
    now = working_tree()
    if args.against is None:
        for name in sorted(now):
            print(f"{name:<16}{now[name]:>8}")
        print(f"{'total':<16}{sum(now.values()):>8}")
        return
    then = at_revision(args.against)
    print(f"{'':<16}{args.against[:10]:>10}{'now':>8}{'delta':>8}")
    for name in sorted(set(now) | set(then)):
        print(f"{name:<16}{then[name]:>10}{now[name]:>8}{now[name] - then[name]:>+8}")
    total_then, total_now = sum(then.values()), sum(now.values())
    print(f"{'total':<16}{total_then:>10}{total_now:>8}{total_now - total_then:>+8}")


if __name__ == "__main__":
    main()
