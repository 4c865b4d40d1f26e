#!/usr/bin/env python3
"""Checks that README.md's knob table and the library's knobs agree.

Fails when a SPDISTAL_* name the library reads (a string literal under
src/) is missing from the README "Environment knobs" table, or when the
table lists a name no code reads.

Usage: check_knobs.py [REPO_ROOT]   (default: the parent of this directory)
"""
import pathlib
import re
import sys

NAME = re.compile(r'"(SPDISTAL_[A-Z0-9_]+)"')
ROW = re.compile(r"^\|\s*`(SPDISTAL_[A-Z0-9_]+)`\s*\|")


def source_names(root):
    names = set()
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in (".h", ".cpp"):
            names.update(NAME.findall(path.read_text(encoding="utf-8")))
    return names


def readme_names(root):
    text = (root / "README.md").read_text(encoding="utf-8")
    section = text.split("## Environment knobs", 1)
    if len(section) < 2:
        return None
    body = section[1].split("\n## ", 1)[0]
    return {m.group(1) for line in body.splitlines() if (m := ROW.match(line))}


def main():
    here = pathlib.Path(__file__).resolve().parent
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else here.parent
    code = source_names(root)
    table = readme_names(root)
    if table is None:
        print("README.md has no '## Environment knobs' section")
        return 1
    ok = True
    for name in sorted(code - table):
        print(f"{name} is read in src/ but missing from the README knob table")
        ok = False
    for name in sorted(table - code):
        print(f"{name} is in the README knob table but no code in src/ reads it")
        ok = False
    if ok:
        print(f"{len(code)} knobs: README table and src/ agree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
