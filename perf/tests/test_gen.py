"""The generator: determinism across processes and a correct answer model."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from perf import gen
from perf.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent.parent
OPS = 400

_DIGEST_SCRIPT = """
import hashlib, sys
from perf import gen
from perf.workloads import WORKLOADS
seed, files = int(sys.argv[1]), int(sys.argv[2])
population = gen.Population(seed, files)
for name, workload in WORKLOADS.items():
    stream = workload.stream(population, workload.pool, 1)
    digest = hashlib.sha256(gen.stream_bytes(stream, %d)).hexdigest()
    print(name, digest)
print("pool", hashlib.sha256(repr(gen.query_pool(population, 200)).encode()).hexdigest())
print("ranks", hashlib.sha256(repr(population.ranks).encode()).hexdigest())
""" % OPS


def _digests(seed: int, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT, str(seed), "300"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return done.stdout


def test_same_seed_same_bytes_in_every_process():
    first = _digests(7, "1")
    assert first == _digests(7, "2") == _digests(7, "random")
    assert len(first.splitlines()) == len(WORKLOADS) + 2


def test_another_seed_gives_another_stream():
    a = dict(line.split() for line in _digests(7, "0").splitlines())
    b = dict(line.split() for line in _digests(8, "0").splitlines())
    assert all(a[key] != b[key] for key in a)


def test_both_lookup_workloads_receive_identical_bytes():
    population = gen.Population(3, 300)
    ws, aws = WORKLOADS["ws_lookup"], WORKLOADS["aws_lookup"]
    for client in range(2):
        assert gen.stream_bytes(ws.stream(population, 0, client), OPS) == gen.stream_bytes(
            aws.stream(population, 0, client), OPS
        )
    assert gen.stream_bytes(ws.stream(population, 0, 0), OPS) != gen.stream_bytes(
        ws.stream(population, 0, 1), OPS
    )


def _brute_force(population: gen.Population, spec: gen.QuerySpec) -> list[str]:
    _form, equalities, span, paged = spec
    names = [
        name
        for name, ranks in zip(population.names, population.ranks)
        if all(ranks[attr] == rank for attr, rank in equalities)
        and (span is None or span[1] <= ranks[span[0]] <= span[2])
    ]
    return names[: gen.PAGE_LIMIT] if paged else names


def test_model_answers_match_a_full_scan():
    population = gen.Population(5, 700)
    pool = gen.query_pool(population, 2 * gen.STRATA)
    for spec in pool:
        answer = population.expected(spec)
        assert answer == _brute_force(population, spec)
        assert answer, "query by example never has an empty answer"


def test_pool_shape_does_not_depend_on_the_seed():
    def shape(seed: int):
        pool = gen.query_pool(gen.Population(seed, 300), 3 * gen.STRATA)
        return [
            (form, [attr for attr, _rank in eq], span and span[0], paged)
            for form, eq, span, paged in pool
        ]

    assert shape(1) == shape(2)
    forms = [entry[0] for entry in shape(1)]
    assert forms.count("object") == forms.count("mql")


def test_every_run_of_strata_covers_each_stratum_once():
    population = gen.Population(1, 300)
    stream = gen.discover_stream(population, 4 * gen.STRATA, 0)
    for _cycle in range(3):
        indices = [next(stream)[1] for _ in range(gen.STRATA)]
        assert sorted(i % gen.STRATA for i in indices) == list(range(gen.STRATA))


def test_operation_mixes():
    population = gen.Population(2, 300)
    kinds = [next_op[0] for next_op, _ in zip(gen.ingest_stream(population, 0, 0), range(2000))]
    assert kinds.count("bulk_create") == 200
    assert kinds.count("set_attributes") + kinds.count("delete") <= 600
    mixed = [op[0] for op, _ in zip(gen.mixed_stream(population, 64, 0), range(2000))]
    assert mixed.count("discover") == 1000
    assert mixed.count("get_attributes") == 600
    lookups = [op[0] for op, _ in zip(gen.lookup_stream(population, 0, 0), range(1000))]
    assert lookups.count("query_name") == 700


def test_scratch_files_match_no_pooled_query():
    population = gen.Population(4, 300)
    creates = [
        op for op, _ in zip(gen.mixed_stream(population, 64, 0), range(400))
        if op[0] == "create"
    ]
    assert creates
    for _kind, _name, _coll, ranks, _audit in creates:
        assert all(rank >= card for rank, card in zip(ranks, gen.CARDINALITIES))


@pytest.mark.parametrize("attr", range(len(gen.ATTRIBUTES)))
def test_typed_values_keep_the_order_of_ranks(attr):
    card = gen.CARDINALITIES[attr]
    ranks = sorted({0, 1, card // 2, card - 1, card, 2 * card - 1})
    values = [gen.typed_value(attr, rank) for rank in ranks]
    assert values == sorted(values) and len(set(values)) == len(values)
