"""One traced CLI call: imports twogroups.cli, wraps the layers, runs the
subcommand and writes its self times and counts to a JSON file.  The import
and the call are each timed and normalised by refclock.Clock.

    python3 perfbench/cli_child.py <trace-file> <twogroups arguments...>
"""

import json
import sys

from groups import SRC
from layertrace import Tracer
from refclock import Clock


def load_cli():
    from twogroups import cli

    return cli


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, SRC)
    clock = Clock()
    cli, _raw, import_s = clock.time(load_cli)
    tracer = Tracer()
    tracer.install()
    try:
        code, raw, norm = clock.time(cli.main, argv)
        sys.stdout.flush()
    finally:
        tracer.remove()
    scale = norm / raw if raw > 0 else 1.0
    self_s = {k: v * scale for k, v in tracer.self_times().items()}
    self_s["cli.import"] = import_s
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"argv": argv, "self_s": self_s, **tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
