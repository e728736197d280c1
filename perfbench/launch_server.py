"""Start one ``repro serve`` shard for the serving workload.

Equivalent to ``python -m repro serve --workers N --port P --cache-dir D
--log-level warning`` (result cache and journal on), except that with
``--trace-out`` it first installs the serving-layer wrappers and, once SIGTERM
has drained the server, writes the recorded spans and per-layer totals to
that file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    from repro.obs.logs import configure_logging
    from repro.service.server import ServiceConfig, serve

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install_serve()
    configure_logging("warning")
    serve(ServiceConfig(
        host="127.0.0.1", port=args.port, workers=args.workers, cache_dir=args.cache_dir,
    ))
    if tracer is not None:
        Path(args.trace_out).write_text(json.dumps({
            "events": tracer.chrome_events(pid=os.getpid(), process_name="repro serve"),
            "layers": tracer.layer_totals(),
            "missing": tracer.missing,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
