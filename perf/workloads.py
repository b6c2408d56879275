"""The five pinned workloads, the end-to-end metrics and the run shape."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from perf import gen

#: Closed loop: each client sends its next request when the reply arrived.
CLIENTS = 2
#: Full set-ups per run; ``setup_s`` is their median.
SETUPS_PER_RUN = 3
#: Window lengths as shares of ``--seconds`` (12 by default: 2 s warm-up,
#: 12 s measured, and in a full record a further 4.8 s traced).
DEFAULT_SECONDS = 12
WARMUP_SHARE = 1 / 6
TRACED_SHARE = 0.4
#: ``--trace 1`` alone: an untraced reference window, then the traced one.
REFERENCE_SHARE = 0.3


def windows(seconds: float, mode: str) -> dict[str, float]:
    """Lengths of the warm-up, measured and traced windows of one run.

    ``mode`` is ``"end_to_end"`` (no traced window), ``"layers"`` (a short
    untraced reference window, then the traced one) or ``"both"`` (the full
    measured window, then a traced one).
    """
    measured = {"end_to_end": 1, "layers": REFERENCE_SHARE, "both": 1}[mode]
    traced = {"end_to_end": 0, "layers": 1 - REFERENCE_SHARE, "both": TRACED_SHARE}[mode]
    return {
        "warmup": seconds * WARMUP_SHARE,
        "measured": seconds * measured,
        "traced": seconds * traced,
    }


#: Interpreter switch interval of the load generator and the server child.
#: With the default 5 ms, two busy threads of one process trade the
#: interpreter lock in 5 ms turns, and whether a 3 ms operation takes 3 ms or
#: 8 ms depends on where in a turn it starts: medians then jump between runs
#: of the same commit.  0.5 ms turns make latency follow the work done.
SWITCH_INTERVAL_S = 0.0005

FLUSH_POLICY = "Database(durable_sync=True): the WAL is fsynced on every commit"
NETWORK = "HttpTransport(simulated_latency_s=0) over the host loopback"


@dataclass(frozen=True)
class Workload:
    name: str
    #: "direct" (MCSClient.in_process), "soap" (child SoapServer) or
    #: "async" (child AsyncSoapServer).
    deployment: str
    #: The workload writes, to a catalog on disk; what it wrote is checked
    #: after the windows and again after closing and reopening the catalog.
    durable: bool
    #: Size of the discovery-query pool (0: the workload has none).
    pool: int
    stream: Callable[[gen.Population, int, int], Iterator[tuple]]
    why: str


#: Static files of every workload (see perf/README.md for why not more).
FILES = 1500

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ws_lookup", deployment="soap", durable=False,
            pool=0, stream=gen.lookup_stream,
            why="name lookups over SOAP whose working set fits the caches: client, "
            "codec, HTTP and dispatch do the work, catalog and db little",
        ),
        Workload(
            name="aws_lookup", deployment="async", durable=False,
            pool=0, stream=gen.lookup_stream,
            why="the same byte-identical stream against AsyncSoapServer: only an "
            "aserve change may move it while ws_lookup stays flat",
        ),
        Workload(
            name="direct_discover", deployment="direct", durable=False,
            pool=4096, stream=gen.discover_stream,
            why="a pool of 4096 attribute queries, 4x the result cache, in process: "
            "catalog, db and mql do all the work and soap none",
        ),
        Workload(
            name="durable_ingest", deployment="direct", durable=True,
            pool=0, stream=gen.ingest_stream,
            why="creates, updates, deletes and bulks with fsync on every commit: "
            "locks, index and stats upkeep, WAL append and fsync dominate",
        ),
        Workload(
            name="ws_mixed", deployment="soap", durable=True,
            pool=64, stream=gen.mixed_stream,
            why="discover-then-register over SOAP on a durable catalog: the query "
            "pool fits the cache but every committed write empties it",
        ),
    )
}

#: name -> (unit, better, bound).  ``bound`` is the share of the baseline
#: median by which the metric may worsen; for ``error_share`` it is absolute.
#: The time bounds are the widest the benchmark driver accepts: in this
#: shared two-core sandbox the spread (q3 - q1 over ten seeds, as a share of
#: the median) is 1.5-7 % in a quiet quarter of an hour and up to 12 % in a
#: noisy one, and medians drift by up to 25 % over twenty minutes.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "p50_ms": ("ms", "lower", 0.25),
    "p95_ms": ("ms", "lower", 0.25),
    "error_share": ("ratio", "lower", 0.001),
    "peak_rss_mb": ("MB", "lower", 0.12),
}
