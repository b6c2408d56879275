"""Ablation: EAV attribute storage vs a wide per-application table.

The MCS stores user-defined attributes in an entity-attribute-value
table (extensible, but 10-way joins for complex queries).  The obvious
alternative — one wide table with a column per attribute, as a
non-extensible schema would use — answers the same conjunctive query
with a single indexed scan.  This bench quantifies what extensibility
costs, the trade-off behind the ESG observations in §6.2.
"""

from repro.bench.timing import count_until_stopped, run_workers
from repro.bench.sweeps import get_environment
from repro.core import ObjectQuery
from repro.db import Database
from repro.workloads import (
    STANDARD_ATTRIBUTES,
    PopulationSpec,
    QueryWorkload,
    attribute_values_for,
)


def _build_wide_db(spec: PopulationSpec) -> Database:
    db = Database()
    conn = db.connect()
    columns = ", ".join(
        f"{name} {'STRING' if t == 'string' else 'INTEGER' if t == 'int' else 'FLOAT' if t == 'float' else 'DATE' if t == 'date' else 'DATETIME'}"
        for name, t in STANDARD_ATTRIBUTES
    )
    conn.execute(
        f"CREATE TABLE wide (id INTEGER PRIMARY KEY AUTOINCREMENT, "
        f"name STRING NOT NULL, {columns})"
    )
    conn.execute("CREATE INDEX wide_first ON wide (wl_str_a)")
    names = [n for n, _ in STANDARD_ATTRIBUTES]
    placeholders = ", ".join("?" for _ in range(len(names) + 1))
    sql = f"INSERT INTO wide (name, {', '.join(names)}) VALUES ({placeholders})"
    for index in range(spec.total_files):
        values = attribute_values_for(index, spec)
        conn.execute(sql, (spec.file_name(index), *[values[n] for n in names]))
    return db


def _measure(op, threads: int, duration: float) -> float:
    worker_fns = [
        (lambda stop, op=op: count_until_stopped(op, stop)) for _ in range(threads)
    ]
    return run_workers(worker_fns, duration).rate


def test_ablation_eav_vs_wide_table(benchmark, config):
    size = config.db_sizes[0]
    spec = PopulationSpec(
        total_files=size,
        files_per_collection=config.files_per_collection,
        value_cardinality=config.value_cardinality,
    )
    env = get_environment(config, size)
    wide_db = _build_wide_db(spec)
    wide_conn_pool = [wide_db.connect() for _ in range(2)]
    names = [n for n, _ in STANDARD_ATTRIBUTES]
    wide_sql = "SELECT name FROM wide WHERE " + " AND ".join(
        f"{n} = ?" for n in names
    )

    def sweep():
        rates = {}
        client = env.make_client("direct")
        workload = QueryWorkload(spec, seed=77)

        def eav_op(_):
            client.query(ObjectQuery().where_equal(workload.complex_query_conditions(10)))

        rates["eav"] = _measure(eav_op, threads=2, duration=config.duration)

        wide_workload = QueryWorkload(spec, seed=77)
        counter = [0]

        def wide_op(_):
            conditions = wide_workload.complex_query_conditions(10)
            conn = wide_conn_pool[counter[0] % len(wide_conn_pool)]
            counter[0] += 1
            conn.execute(wide_sql, tuple(conditions[n] for n in names)).fetchall()

        rates["wide"] = _measure(wide_op, threads=1, duration=config.duration)
        return rates

    rates = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n== Ablation: EAV vs wide-table attribute storage (10-attr query) ==")
    print(f"  EAV (extensible):      {rates['eav']:10.1f} q/s")
    print(f"  wide (fixed schema):   {rates['wide']:10.1f} q/s")
    ratio = rates["wide"] / rates["eav"] if rates["eav"] else 0
    print(f"  extensibility cost: {ratio:.1f}x")
    assert rates["eav"] > 0 and rates["wide"] > 0
