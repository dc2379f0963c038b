"""One round of a workload in a fresh interpreter.

Usage (from ``run.py``): ``python3 perfbench/child.py <workload> <spec>``
where ``<spec>`` is a JSON object.  Prints the round's report as one JSON
line.  With ``"setup_only": true`` it only measures set-up: interpreter
start, imports, and the workload's own preparation.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def main(argv) -> int:
    workload, spec = argv[1], json.loads(argv[2])
    common.require_program()
    if workload == "compile-full":
        import compile_full as module
    elif workload == "sweep-small":
        import sweep_small as module
    else:
        raise common.BenchError(f"no child rounds for workload {workload!r}")
    module.setup()
    setup_s = time.time() - spec["spawn_wall"]
    report = {"setup_s": setup_s, "setup_probe": common.probe()}
    if not spec.get("setup_only"):
        report.update(module.round_main(spec))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
