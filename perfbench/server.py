"""Server process of the benchmark.

Builds the service from a model file through ``proxauth.cli.build_service``,
serves it on an ephemeral loopback port with ``proxauth.wire.AuthWireServer``
and prints one line, ``READY <port> <build_service_ms>``. It serves until a
``STOP`` line or end of file arrives on standard input, then shuts down.
With ``--spans PATH`` it installs the timing shims first and writes the
recorded spans to PATH at shutdown.

    python3 perfbench/server.py --model M --data-dir D [--spans PATH]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import common


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--spans", help="trace the serving path and write spans here")
    args = parser.parse_args()

    common.use_source_tree()
    import spans
    from proxauth import cli, wire

    tracer = None
    if args.spans:
        tracer = spans.Tracer()
        spans.install_server_shims(tracer)

    started = time.perf_counter()
    service = cli.build_service(args.model, None, data_dir=args.data_dir)
    build_service_ms = (time.perf_counter() - started) * 1e3
    server = wire.AuthWireServer(service, "127.0.0.1", 0).start()
    print(f"READY {server.address[1]} {build_service_ms!r}", flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "STOP":
                break
    finally:
        server.shutdown()
        if tracer is not None:
            tracer.dump(Path(args.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
