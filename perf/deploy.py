"""Set-up and tear-down of the system under test.

A deployment is a populated catalog behind an :class:`MCSService`, reached
either in process (:class:`Direct`) or through a SOAP server in a child
process (:class:`Child`, see :mod:`perf.server_main`), so that client codec
and server work do not share one interpreter lock.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

from repro.core.catalog import MetadataCatalog
from repro.core.client import MCSClient
from repro.core.model import ObjectType, UserInfo
from repro.core.service import MCSService
from repro.db import Database
from repro.security.acl import Permission

from perf import gen
from perf.workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
POPULATE_BATCH = 500
CHILD_TIMEOUT_S = 120


def open_service(directory: Optional[str]) -> MCSService:
    """A catalog (durable iff ``directory``) behind an object-level service."""
    db = Database(directory=directory, durable_sync=True) if directory else Database()
    return MCSService(MetadataCatalog(db), granularity="object")


def populate(service: MCSService, population: gen.Population) -> None:
    """Schema, the collection tree, the caller's grants, the static files.

    The caller is registered and not an administrator: read and write on the
    service, and read/write/delete only on the root collection, so that
    deleting a file is allowed by the union up the collection hierarchy.
    """
    catalog = service.catalog
    for name, kind in gen.ATTRIBUTES:
        catalog.define_attribute(name, kind, (ObjectType.FILE,), creator="setup")
    for name, parent in population.collections():
        catalog.create_collection(name, parent, creator="setup")
    catalog.register_user(UserInfo(gen.CALLER, description="perf load generator"))
    catalog.set_permissions(
        ObjectType.SERVICE, None, gen.CALLER, Permission.READ | Permission.WRITE
    )
    catalog.set_permissions(
        ObjectType.COLLECTION,
        gen.ROOT_COLLECTION,
        gen.CALLER,
        Permission.READ | Permission.WRITE | Permission.DELETE,
    )
    for start in range(0, population.n_files, POPULATE_BATCH):
        stop = min(start + POPULATE_BATCH, population.n_files)
        catalog.bulk_create_files(
            [population.entry(i) for i in range(start, stop)], creator="setup"
        )


def counters(service: MCSService) -> dict[str, Any]:
    """Counts read from outside: cache outcomes, bytes on disk, memory."""
    directory = service.catalog.db.directory
    sizes = {}
    if directory:
        sizes = {
            entry.name: entry.stat().st_size for entry in os.scandir(directory)
        }
    return {
        "cache": service.catalog.cache.stats(),
        "wal_bytes": sizes.get("wal.log", 0),
        "disk_bytes": sum(sizes.values()),
        "files": service.catalog.stats()["files"],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


class Direct:
    """The catalog in this process; clients call the service directly."""

    def __init__(self, population: gen.Population, directory: Optional[str]) -> None:
        self.service = open_service(directory)
        populate(self.service, population)

    def connect(self) -> MCSClient:
        return MCSClient.in_process(self.service, caller=gen.CALLER)

    # The load generator's own tracer already covers this process.
    def start_trace(self) -> None:
        pass

    def stop_trace(self, spans_path: str) -> dict[str, dict[str, int]]:
        return {}

    def counters(self) -> dict[str, Any]:
        return dict(counters(self.service), rss_kb=0)

    def close(self) -> None:
        self.service.catalog.db.close()


class Child:
    """The catalog behind a SOAP server in a child process.

    The parent writes one command per line to the child's stdin and reads
    one JSON answer per line from its stdout.
    """

    def __init__(
        self, workload: Workload, population: gen.Population, directory: Optional[str]
    ) -> None:
        command = [
            sys.executable, "-m", "perf.server_main",
            "--workload", workload.name,
            "--seed", str(population.seed),
            "--files", str(population.n_files),
        ]
        if directory:
            command += ["--directory", directory]
        self._proc = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1,
        )
        try:
            self.port = self._read()["port"]
        except BaseException:
            self.close()
            raise

    def _read(self) -> dict[str, Any]:
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited with code {self._proc.wait(CHILD_TIMEOUT_S)}"
            )
        return json.loads(line)

    def _ask(self, command: str) -> dict[str, Any]:
        self._proc.stdin.write(command + "\n")
        self._proc.stdin.flush()
        return self._read()

    def connect(self) -> MCSClient:
        client = MCSClient.connect("127.0.0.1", self.port, caller=gen.CALLER)
        client.ping()  # opens the keep-alive connection
        return client

    def start_trace(self) -> None:
        self._ask("trace_on")

    def stop_trace(self, spans_path: str) -> dict[str, dict[str, int]]:
        return self._ask(f"trace_off {spans_path}")["aggregate"]

    def counters(self) -> dict[str, Any]:
        return self._ask("counters")

    def close(self) -> None:
        """Stop the server, close its catalog and wait for the child."""
        proc = self._proc
        if proc.poll() is None:
            try:
                proc.stdin.write("quit\n")
                proc.stdin.flush()
            except OSError:
                pass
        try:
            proc.wait(CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        finally:
            proc.stdin.close()
            proc.stdout.close()


def deploy(
    workload: Workload, population: gen.Population, directory: Optional[str]
) -> "Direct | Child":
    if workload.deployment == "direct":
        return Direct(population, directory)
    return Child(workload, population, directory)
