"""One benchmark job in a fresh interpreter: a liecomm CLI command or a library sequence.

Usage: python3 perfbench/child.py JOB.json

JOB.json holds either {"cli": [argv...]} or {"lib": name, "params": {...}},
plus "trace": a path to write spans to, or null.  A CLI job prints the CLI's
own JSON and exits with its code; a library job prints its result as one
JSON line.  liecomm must be imported from this checkout's src/.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    start = time.perf_counter()
    import liecomm
    import liecomm.cli

    import_s = time.perf_counter() - start
    origin = Path(liecomm.__file__).resolve()
    if origin.parent.parent != SRC:
        print(f"perfbench: liecomm imported from {origin}, not from {SRC}", file=sys.stderr)
        return 97
    tracer = None
    if spec.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if "cli" in spec:
            return liecomm.cli.main(spec["cli"])
        from jobs import JOBS

        result = JOBS[spec["lib"]](**spec["params"])
        sys.stdout.write(json.dumps(result) + "\n")
        return 0
    finally:
        if tracer is not None:
            tracer.dump(spec["trace"], import_s)


if __name__ == "__main__":
    sys.exit(main())
