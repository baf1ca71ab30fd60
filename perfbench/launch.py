"""Run one or more skolemhop commands in a single process, optionally traced.

    python3 perfbench/launch.py [--trace STATS.json] CMD [ARGS...] [+ CMD [ARGS...]]...

Each `+`-separated command is passed to `skolemhop.cli.main`, in order, in
this process (so `theorems 4 + theorems 5` builds both orders in one
interpreter).  The exit code is the largest one returned.  With `--trace`,
the per-layer timers of `tracer.py` are installed first and their merged
counters are written to STATS.json when the commands finish.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path


def split_commands(argv: list[str]) -> list[list[str]]:
    commands, current = [], []
    for arg in argv:
        if arg == "+":
            commands.append(current)
            current = []
        else:
            current.append(arg)
    commands.append(current)
    return [c for c in commands if c]


def main(argv: list[str]) -> int:
    stats_path = None
    if argv[:1] == ["--trace"]:
        stats_path, argv = Path(argv[1]), argv[2:]
    commands = split_commands(argv)
    if not commands:
        print(__doc__, file=sys.stderr)
        return 2
    from skolemhop import cli

    if stats_path is None:
        return max(cli.main(command) for command in commands)

    import tracer

    with tempfile.TemporaryDirectory(dir=stats_path.parent) as chunk_dir:
        tracer.install(chunk_dir)
        code = max(cli.main(command) for command in commands)
        stats_path.write_text(json.dumps(tracer.collect(chunk_dir)))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
