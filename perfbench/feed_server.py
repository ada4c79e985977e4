"""The ``feed`` workload's server process: ``IndexService`` + ``make_server``.

Configured exactly as ``repro serve`` configures it (the service and
index configs come from the CLI's own argument parser).  Prints one JSON
line ``{"port": ..., "service_lock": ...}`` once it accepts connections.

With ``--spans PATH`` the layer probes are installed from the start (so
set-up builds are traced); ``SIGUSR2`` removes them for an untraced
stretch, ``SIGUSR1`` puts them back for the traced phase, and the spans
are written to ``PATH`` when ``SIGTERM`` stops the server.

    python3 perfbench/feed_server.py --data-dir DIR [--spans PATH] -- <serve args>
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import probes  # noqa: E402
from perfbench.common import fix_mmap_threshold, serve_configs  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("serve_args", nargs="*")
    args = parser.parse_args()
    fix_mmap_threshold()

    from repro.service import IndexService, make_server

    tracer = None
    if args.spans:
        tracer = Tracer()
        probes.register(tracer)
        tracer.install()
    mbi_config, service_config, serve = serve_configs(args.serve_args)
    service = IndexService.open(
        args.data_dir, dim=serve.dim, metric=serve.metric, mbi_config=mbi_config, config=service_config
    )
    server = make_server(service, "127.0.0.1", 0)

    def stop(signum, frame):
        threading.Thread(target=server.shutdown, daemon=True).start()

    def traced(signum, frame):
        tracer.resume()

    def untraced(signum, frame):
        tracer.pause()

    signal.signal(signal.SIGTERM, stop)
    if tracer is not None:
        signal.signal(signal.SIGUSR1, traced)
        signal.signal(signal.SIGUSR2, untraced)
    print(json.dumps({"port": server.server_address[1], "service_lock": id(service._rwlock)}), flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        service.close()
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
