#!/usr/bin/env python3
"""Fail when a src/ module is not reachable from the mpcn CLI.

Every module must sit on a path the `mpcn` binary can run: a registry
scenario, an axis value or a CLI subcommand. This script walks the
`#include "src/..."` edges from src/cli/mpcn_main.cc. Reaching a header
also reaches the same-stem .cc beside it, whose includes are walked too.
A module is a path under src/ without its extension.

Usage:
    tools/check_reachable.py [REPO_ROOT]

Exits 0 when every module is reached, 1 after naming each one that is not.
"""

import re
import sys
from pathlib import Path

INCLUDE = re.compile(r'^\s*#\s*include\s+"(src/[^"]+)"', re.MULTILINE)
ENTRY = "src/cli/mpcn_main.cc"


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    files = {p.relative_to(root).as_posix()
             for p in (root / "src").rglob("*") if p.suffix in (".h", ".cc")}
    seen, todo = set(), [ENTRY]
    while todo:
        f = todo.pop()
        if f in seen or f not in files:
            continue
        seen.add(f)
        todo.extend(INCLUDE.findall((root / f).read_text()))
        if f.endswith(".h"):
            todo.append(f[:-2] + ".cc")
    modules = {f.rsplit(".", 1)[0] for f in files}
    reached = {f.rsplit(".", 1)[0] for f in seen}
    unreached = sorted(modules - reached)
    for m in unreached:
        print(f"unreached from {ENTRY}: {m}")
    print(f"{len(reached)} of {len(modules)} src/ modules reached")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
