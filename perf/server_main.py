"""The server child: ``python3 -m perf.server_main --workload ws_lookup ...``.

Populates a catalog, serves it over SOAP on a loopback port and obeys the
parent's commands on stdin (``trace_on``, ``trace_off <path>``, ``counters``,
``quit``), answering each with one JSON line on stdout.  End of input is a
``quit``, so the child never outlives the load generator.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional

from repro.aserve import AsyncSoapServer
from repro.soap.server import SoapServer

from perf import gen
from perf.deploy import counters, open_service, populate
from perf.trace import Tracer, aggregate, patch_points, write_spans
from perf.workloads import SWITCH_INTERVAL_S, WORKLOADS, Workload


def serve(workload: Workload, seed: int, files: int, directory: Optional[str]) -> None:
    """The child process: populate, serve, obey commands until ``quit``/EOF."""
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    service = open_service(directory)
    populate(service, gen.Population(seed, files))

    # Looked up on every request, so that a wrapper installed on
    # MCSService.handle later takes effect (a bound method would not).
    def handler(method: str, args: dict[str, Any]) -> Any:
        return service.handle(method, args)

    front_end = AsyncSoapServer if workload.deployment == "async" else SoapServer
    server = front_end(
        handler, description=service.description(), fault_mapper=service.fault_mapper
    )
    server.start()
    tracer: Optional[Tracer] = None

    def answer(payload: dict[str, Any]) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    try:
        answer({"port": server.port})
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "trace_on":
                tracer = Tracer()
                tracer.install(patch_points(server))
                answer({})
            elif command == "trace_off" and tracer is not None:
                tracer.uninstall()
                spans = tracer.spans()
                tracer = None
                write_spans(argument, spans)
                answer({"aggregate": aggregate(spans)})
            elif command == "counters":
                answer(counters(service))
            elif command == "quit":
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        server.stop()
        service.catalog.db.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--files", type=int, required=True)
    parser.add_argument("--directory")
    args = parser.parse_args()
    serve(WORKLOADS[args.workload], args.seed, args.files, args.directory)


if __name__ == "__main__":
    main()
