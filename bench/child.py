"""One measured run of a workload, in a fresh interpreter.

    python3 bench/child.py SPEC.json

SPEC names the workload's set-up command line (its `run` line with
`--runs 0`; none for a warm-up child, which only imports), the command
lines of the full workload, whether to trace, and where to write the
result. The set-up time counts from before
`import phonesim.cli`, so it includes what every invocation pays before its
first episode. The full workload then runs through `phonesim.cli.main` in
the same interpreter; with tracing on, the wrappers are installed only after
set-up, so the spans cover the full workload alone.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text("utf-8"))
    start = time.perf_counter()
    import phonesim.cli as cli
    setup_code = cli.main(spec["setup_argv"]) if spec["setup_argv"] else 0
    setup_s = time.perf_counter() - start

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    codes = [cli.main(argv) for argv in spec["argvs"]]
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spec["spans"])

    result = {
        "module": cli.__file__,
        "setup_code": setup_code,
        "codes": codes,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    Path(spec["result"]).write_text(json.dumps(result), "utf-8")


if __name__ == "__main__":
    main()
