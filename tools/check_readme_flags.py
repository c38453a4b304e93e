#!/usr/bin/env python3
"""Check that tools/README.md lists exactly the flags each command reads.

    tools/check_readme_flags.py <cstf binary> <tools/README.md>

`cstf` with no arguments prints each command's synopsis from the CLI's
flag table: a line `  cstf <command> ...`, continued on lines indented
further. The README's "Flags by command" table has one row per command,
`| `<command>` | <flags> | <needs> |`. Every flag named in a command's
synopsis must appear in its row, and every flag in the row must be one
the command reads. Exits 1 naming each difference, 0 when they agree.
"""
import re
import subprocess
import sys

FLAG = re.compile(r"--[a-z][a-z0-9-]*")


def usage_flags(binary):
    err = subprocess.run([binary], capture_output=True, text=True).stderr
    flags, cmd = {}, None
    for line in err.splitlines():
        start = re.match(r"  cstf (\S+)", line)
        if start:
            cmd = start.group(1)
            flags[cmd] = set()
        elif not line.startswith("      "):
            cmd = None
        if cmd:
            flags[cmd].update(FLAG.findall(line))
    return flags


def readme_flags(path):
    flags, inside = {}, False
    for line in open(path, encoding="utf-8"):
        if line.startswith("## "):
            inside = line.strip() == "## Flags by command"
        row = re.match(r"\| `([a-z-]+)` \|(.*)\|\s*$", line)
        if inside and row:
            flags[row.group(1)] = set(FLAG.findall(row.group(2)))
    return flags


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    want = usage_flags(sys.argv[1])
    have = readme_flags(sys.argv[2])
    if not want:
        print("no command synopsis in the usage", file=sys.stderr)
        return 1
    problems = []
    for cmd in sorted(set(want) | set(have)):
        for flag in sorted(want.get(cmd, set()) - have.get(cmd, set())):
            problems.append(f"{cmd}: {flag} is missing from the README")
        for flag in sorted(have.get(cmd, set()) - want.get(cmd, set())):
            problems.append(f"{cmd}: the README lists {flag}, "
                            "which the command does not read")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
