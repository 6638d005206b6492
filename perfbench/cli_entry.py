#!/usr/bin/env python3
"""Start the euclidmin command line the way its console script does.

The benchmark runs every CLI operation through this file, with PYTHONPATH
pointing at the checkout's src/. When PERFBENCH_TRACE names a file, the
public functions are wrapped for the run and their spans written there.
"""

import os
import sys
from pathlib import Path


def main() -> int:
    from euclidmin.cli import main as cli_main

    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        return cli_main()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing

    tracer = tracing.Tracer().install()
    try:
        return cli_main()
    finally:
        tracer.uninstall()
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
