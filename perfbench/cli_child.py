"""Traced stand-in for ``python -m spinfid.cli`` used by the traced cli workload.

Times ``import spinfid.cli``, wraps the layer boundaries as the cli module sees
them, runs ``spinfid.cli.main`` on the given arguments, and writes the spans
as one JSON line on stderr, after anything the cli itself wrote there.

    python perfbench/cli_child.py fidelity --path A --gamma 1 --delta 1e-3 --c 1 --N 1000
"""

import sys
import time

t0 = time.perf_counter()
import spinfid  # noqa: E402
import spinfid.cli  # noqa: E402

import_s = time.perf_counter() - t0

import json  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import SPANS_MARK  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install(spinfid)
    try:
        code = spinfid.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write("\n" + SPANS_MARK + json.dumps({"import_s": import_s, "spans": tracer.spans}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
