"""Seeded population, operation streams and the pure-Python answer model.

Nothing here imports the program under test: the generator decides what is
stored and what is asked, and its model says what the right answer is.  All
randomness comes from :func:`rng_for`, which derives a ``random.Random`` from
the seed and a label by SHA-256 — never from ``hash()``, which is salted per
process — so one seed gives one byte-identical stream in every process.

Values are handled as *ranks*: attribute ``j`` of a file is an integer in
``range(CARDINALITIES[j])`` and :func:`typed_value` maps it, order-preserving,
onto the attribute's type.  The model can therefore answer every equality and
range condition on ranks alone.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import itertools
import json
import random
from typing import Any, Iterator, Optional, Sequence

#: The registered, non-admin caller every measured operation runs as.
CALLER = "/O=Grid/OU=perf/CN=loadgen"

#: The ten user attributes: the paper's §7 type mix.
ATTRIBUTES: tuple[tuple[str, str], ...] = (
    ("site", "string"),
    ("run", "int"),
    ("gain", "float"),
    ("night", "date"),
    ("shot", "datetime"),
    ("owner", "string"),
    ("event", "int"),
    ("energy", "float"),
    ("calib", "date"),
    ("stamp", "datetime"),
)
#: Distinct values per attribute — 2, 8, 32, ... — so that the selectivity of
#: a conjunction depends on which attributes it names.
CARDINALITIES: tuple[int, ...] = tuple(2 * 4**j for j in range(len(ATTRIBUTES)))

ROOT_COLLECTION = "perf-root"
FILES_PER_LEAF = 100
LEAVES_PER_MID = 5
#: Hot names of the lookup workloads; fits the catalog's 1 024-entry result
#: cache and 4 096-entry object cache.
HOT_SET = 512
PAGE_LIMIT = 50
#: Clients start this fraction of the discovery pool apart.
CLIENT_SPREAD = 2
BULK_SIZE = 16

_EPOCH_DATE = dt.date(1900, 1, 1)
_EPOCH_DATETIME = dt.datetime(2003, 1, 1)

Ranks = tuple[int, ...]
#: (form, equality conditions, optional range condition, paged?)
QuerySpec = tuple[str, tuple[tuple[int, int], ...], Optional[tuple[int, int, int]], bool]


def rng_for(seed: int, *labels: Any) -> random.Random:
    """A generator that depends on ``seed`` and ``labels`` and nothing else."""
    text = ":".join(str(part) for part in (seed, *labels))
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def typed_value(attr: int, rank: int) -> Any:
    """The stored value of ``rank`` for attribute ``attr`` (order-preserving)."""
    name, kind = ATTRIBUTES[attr]
    if kind == "string":
        return f"{name}-{rank:07d}"
    if kind == "int":
        return rank
    if kind == "float":
        return rank * 0.25
    if kind == "date":
        return _EPOCH_DATE + dt.timedelta(days=rank)
    return _EPOCH_DATETIME + dt.timedelta(minutes=rank)


def typed_attributes(ranks: Sequence[int]) -> dict[str, Any]:
    return {ATTRIBUTES[j][0]: typed_value(j, r) for j, r in enumerate(ranks)}


def mql_literal(attr: int, rank: int) -> str:
    value = typed_value(attr, rank)
    kind = ATTRIBUTES[attr][1]
    if kind == "string":
        return f'"{value}"'
    if kind == "int":
        return str(value)
    if kind == "float":
        return repr(value)
    return f'{kind} "{value.isoformat()}"'


class Population:
    """The static files: names, a 3-deep collection tree, attribute ranks."""

    def __init__(self, seed: int, n_files: int) -> None:
        self.seed = seed
        self.n_files = n_files
        rng = rng_for(seed, "population")
        self.names = [f"lfn.{i:06d}" for i in range(n_files)]
        self.ranks: list[Ranks] = [
            tuple(rng.randrange(card) for card in CARDINALITIES)
            for _ in range(n_files)
        ]
        n_leaves = max(1, -(-n_files // FILES_PER_LEAF))
        self.leaves = [
            f"perf-m{leaf // LEAVES_PER_MID:02d}-l{leaf:03d}"
            for leaf in range(n_leaves)
        ]
        hot = rng_for(seed, "hot").sample(range(n_files), min(HOT_SET, n_files))
        self.hot = sorted(hot)
        self._postings: dict[int, dict[int, list[int]]] = {}

    # -- what gets stored ---------------------------------------------------

    def collections(self) -> list[tuple[str, Optional[str]]]:
        """(name, parent) in creation order: root, middle level, leaves."""
        out: list[tuple[str, Optional[str]]] = [(ROOT_COLLECTION, None)]
        mids = sorted({leaf.rsplit("-", 1)[0] for leaf in self.leaves})
        out.extend((mid, ROOT_COLLECTION) for mid in mids)
        out.extend((leaf, leaf.rsplit("-", 1)[0]) for leaf in self.leaves)
        return out

    def leaf_of(self, index: int) -> str:
        return self.leaves[index // FILES_PER_LEAF]

    def entry(self, index: int) -> dict[str, Any]:
        """``create_logical_file`` keyword arguments for one static file."""
        return {
            "name": self.names[index],
            "collection": self.leaf_of(index),
            "attributes": typed_attributes(self.ranks[index]),
        }

    # -- the answer model ---------------------------------------------------

    def _posting(self, attr: int) -> dict[int, list[int]]:
        posting = self._postings.get(attr)
        if posting is None:
            posting = {}
            for index, ranks in enumerate(self.ranks):
                posting.setdefault(ranks[attr], []).append(index)
            self._postings[attr] = posting
        return posting

    def expected(self, spec: QuerySpec) -> list[str]:
        """The exact name list the catalog must return for ``spec``.

        Names are zero-padded, so ascending file index is ascending name;
        an unpaged query's answer is compared as a sorted list.
        """
        _form, equalities, span, paged = spec
        candidates: Sequence[int] = range(self.n_files)
        rest = list(equalities)
        if rest:
            attr, rank = min(
                rest, key=lambda cond: len(self._posting(cond[0]).get(cond[1], ()))
            )
            rest.remove((attr, rank))
            candidates = self._posting(attr).get(rank, ())
        names = []
        for index in candidates:
            ranks = self.ranks[index]
            if any(ranks[attr] != rank for attr, rank in rest):
                continue
            if span is not None and not span[1] <= ranks[span[0]] <= span[2]:
                continue
            names.append(self.names[index])
            if paged and len(names) == PAGE_LIMIT:
                break
        return names


# --------------------------------------------------------------------------
# Discovery queries
# --------------------------------------------------------------------------

#: One stratum per (conjunction count, form, range?) combination.
STRATA = 80
#: First attribute of a query's run of attributes, one entry per residue.
#: ``site`` leads twice: an ObjectQuery led by it joins from a thousand
#: candidate rows and costs several times any other, and as a tenth of the
#: operations (not a twentieth) that class holds the 95th percentile inside
#: it and not on its edge.
FIRST_ATTRIBUTE = (0, 0, 1, 2, 3, 4, 5, 6, 7, 8)


def query_pool(population: Population, size: int) -> list[QuerySpec]:
    """``size`` query-by-example specs of a seed-independent shape.

    Query ``q`` has ``1 + q % 10`` equality conditions, alternates between
    the ObjectQuery and the MQL form every ten queries, and one score of
    queries in four adds a range condition plus ``order by name limit 50``.
    Its attributes are a run of consecutive attributes whose start moves
    through ``FIRST_ATTRIBUTE``, so every seed asks the same mix of
    selective and unselective conjunctions; only the values, those of a
    random stored file, depend on the seed.  No answer is empty.  Where an attribute has
    few values (``site`` has two) the pool repeats a query; those repeats
    are the only result-cache hits a pool larger than the cache gets.
    """
    rng = rng_for(population.seed, "pool")
    n_attrs = len(ATTRIBUTES)
    pool: list[QuerySpec] = []
    for q in range(size):
        form = "object" if (q // 10) % 2 == 0 else "mql"
        ranged = (q // 20) % 4 == 0
        k = min(1 + q % 10, n_attrs - 1) if ranged else 1 + q % 10
        start = FIRST_ATTRIBUTE[(7 * q + q // STRATA) % len(FIRST_ATTRIBUTE)]
        attrs = [(start + i) % n_attrs for i in range(k)]
        ranks = population.ranks[rng.randrange(population.n_files)]
        equalities = tuple((attr, ranks[attr]) for attr in attrs)
        span = None
        if ranged:
            attr = (start + k) % n_attrs
            card = CARDINALITIES[attr]
            width = max(1, card // 8)
            low = max(0, ranks[attr] - rng.randrange(width))
            span = (attr, low, min(card - 1, low + width))
        pool.append((form, equalities, span, ranged))
    return pool


def mql_text(spec: QuerySpec) -> str:
    _form, equalities, span, paged = spec
    parts = [
        f"{ATTRIBUTES[attr][0]} = {mql_literal(attr, rank)}"
        for attr, rank in equalities
    ]
    if span is not None:
        attr, low, high = span
        parts.append(
            f"{ATTRIBUTES[attr][0]} between {mql_literal(attr, low)} "
            f"and {mql_literal(attr, high)}"
        )
    text = "files where " + " and ".join(parts)
    if paged:
        text += f" order by name limit {PAGE_LIMIT}"
    return text


def _stratified(rng: random.Random, pool_size: int, first_cycle: int) -> Iterator[int]:
    """Pool indices, one per stratum per cycle, the strata in a seeded order.

    Every run of ``STRATA`` consecutive queries holds one query of each
    stratum, so two windows of equal length do the same mix of cheap and
    expensive queries whatever the seed.
    """
    strata = [range(s, pool_size, STRATA) for s in range(min(STRATA, pool_size))]
    order = list(range(len(strata)))
    for cycle in itertools.count(first_cycle):
        rng.shuffle(order)
        for s in order:
            yield strata[s][cycle % len(strata[s])]


# --------------------------------------------------------------------------
# Operation streams, each ``stream(population, pool_size, client)``; those
# without discovery queries ignore ``pool_size``.  An operation is a
# JSON-serialisable tuple:
#   ("query_name", name)
#   ("get_attributes", name, ranks)
#   ("discover", pool_index)
#   ("create", name, collection, ranks, audit_enabled)
#   ("set_attributes", name, ((attr, rank), (attr, rank)), ranks_afterwards)
#   ("delete", name)
#   ("bulk_create", ((name, collection, ranks), ...))
# --------------------------------------------------------------------------


def _static_target(rng: random.Random, population: Population) -> int:
    """80 % of lookups go to the hot set, 20 % anywhere."""
    if rng.random() < 0.8:
        return rng.choice(population.hot)
    return rng.randrange(population.n_files)


def lookup_stream(
    population: Population, _pool_size: int, client: int
) -> Iterator[tuple]:
    """``ws_lookup`` / ``aws_lookup``: 70 % name query, 30 % get_attributes."""
    rng = rng_for(population.seed, "lookup", client)
    block = ["query_name"] * 7 + ["get_attributes"] * 3
    while True:
        rng.shuffle(block)
        for kind in block:
            index = _static_target(rng, population)
            name = population.names[index]
            if kind == "query_name":
                yield ("query_name", name)
            else:
                yield ("get_attributes", name, population.ranks[index])


def discover_stream(
    population: Population, pool_size: int, client: int
) -> Iterator[tuple]:
    """``direct_discover``: the pool, stratum by stratum."""
    rng = rng_for(population.seed, "discover", client)
    # Each client starts in its own part of the pool, so that one client
    # does not find the other's answers in the result cache.
    first_cycle = client * (pool_size // STRATA // CLIENT_SPREAD)
    for index in _stratified(rng, pool_size, first_cycle):
        yield ("discover", index)


class _Writer:
    """Creates, changes and deletes files under names only this client uses."""

    def __init__(
        self, population: Population, label: str, client: int, scratch: bool
    ) -> None:
        self.rng = rng_for(population.seed, label, client)
        self.population = population
        self.leaves = population.leaves
        self.prefix = f"w{client}.{population.seed}."
        # Scratch files take ranks no static file has, so they match no
        # pooled query however the writes interleave with the reads.
        self.offset = CARDINALITIES if scratch else (0,) * len(CARDINALITIES)
        self.live: list[tuple[str, Ranks]] = []
        self.created = 0

    def _new(self) -> tuple[str, str, Ranks]:
        name = f"{self.prefix}{self.created:07d}"
        self.created += 1
        ranks = tuple(
            base + self.rng.randrange(card)
            for base, card in zip(self.offset, CARDINALITIES)
        )
        return name, self.rng.choice(self.leaves), ranks

    def create(self) -> tuple:
        name, collection, ranks = self._new()
        self.live.append((name, ranks))
        # Every fourth file is audited, so the audit path does some work.
        return ("create", name, collection, ranks, self.created % 4 == 0)

    def bulk_create(self) -> tuple:
        entries = tuple(self._new() for _ in range(BULK_SIZE))
        self.live.extend((name, ranks) for name, _coll, ranks in entries)
        return ("bulk_create", entries)

    def set_attributes(self) -> tuple:
        if not self.live:
            return self.create()
        slot = self.rng.randrange(len(self.live))
        name, ranks = self.live[slot]
        changed = list(ranks)
        changes = []
        for attr in sorted(self.rng.sample(range(len(CARDINALITIES)), 2)):
            changed[attr] = self.offset[attr] + self.rng.randrange(CARDINALITIES[attr])
            changes.append((attr, changed[attr]))
        self.live[slot] = (name, tuple(changed))
        return ("set_attributes", name, tuple(changes), tuple(changed))

    def delete(self) -> tuple:
        if not self.live:
            return self.create()
        slot = self.rng.randrange(len(self.live))
        self.live[slot], self.live[-1] = self.live[-1], self.live[slot]
        name, _ranks = self.live.pop()
        return ("delete", name)

    def read_static(self) -> tuple:
        index = _static_target(self.rng, self.population)
        return ("get_attributes", self.population.names[index], self.population.ranks[index])

    def read_own(self) -> tuple:
        if not self.live:
            return self.read_static()
        name, ranks = self.rng.choice(self.live)
        return ("get_attributes", name, ranks)


def ingest_stream(
    population: Population, _pool_size: int, client: int
) -> Iterator[tuple]:
    """``durable_ingest``: 60 % create, 15 % set, 15 % delete, 10 % bulk of 16."""
    writer = _Writer(population, "ingest", client, scratch=False)
    block = ["create"] * 12 + ["set_attributes"] * 3 + ["delete"] * 3 + ["bulk_create"] * 2
    while True:
        writer.rng.shuffle(block)
        for kind in block:
            yield getattr(writer, kind)()


def mixed_stream(
    population: Population, pool_size: int, client: int
) -> Iterator[tuple]:
    """``ws_mixed``: 50 % discover, 30 % get_attributes, 20 % writes."""
    writer = _Writer(population, "mixed", client, scratch=True)
    queries = _stratified(rng_for(population.seed, "mixed-pool", client), pool_size, 0)
    block = (
        ["discover"] * 10
        + ["read_static"] * 5
        + ["read_own"]
        + ["create"] * 2
        + ["set_attributes", "delete"]
    )
    while True:
        writer.rng.shuffle(block)
        for kind in block:
            if kind == "discover":
                yield ("discover", next(queries))
            else:
                yield getattr(writer, kind)()


def stream_bytes(stream: Iterator[tuple], count: int) -> bytes:
    """The first ``count`` operations as canonical bytes (for comparing streams)."""
    lines = (json.dumps(next(stream), separators=(",", ":")) for _ in range(count))
    return "\n".join(lines).encode("ascii")
