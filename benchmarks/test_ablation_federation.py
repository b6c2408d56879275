"""Extension bench: federated catalogs — index routing and scatter cost.

Two workloads against the §9 federated design, with the same data loaded
into one monolithic catalog for comparison:

* **site-scoped queries** — conditions whose values exist in exactly one
  local catalog (each site hosts a different science run).  The index
  node routes the query to 1 of N catalogs: no scatter cost, and each
  catalog is N× smaller than the monolith.
* **global queries** — conditions matching data at every site.  The
  federation pays N subqueries; this is the scatter overhead the paper's
  design accepts for administrative scalability.
"""

from repro.bench.timing import count_until_stopped, run_workers
from repro.core import MetadataCatalog, ObjectQuery
from repro.federation import FederatedMCS, LocalMCS, MCSIndexNode
from repro.ligo import generate_products
from repro.ligo.ontology import LIGO_ATTRIBUTES

N_SITES = 4
FILES_PER_SITE = 400


def _register(catalog: MetadataCatalog) -> None:
    from repro.core.errors import DuplicateObjectError

    for name, (value_type, description) in LIGO_ATTRIBUTES.items():
        try:
            catalog.define_attribute(name, value_type, description=description)
        except DuplicateObjectError:
            pass


def _measure(op, duration: float) -> float:
    worker_fns = [
        (lambda stop, op=op: count_until_stopped(op, stop)) for _ in range(2)
    ]
    return run_workers(worker_fns, duration).rate


def test_ablation_federated_routing(benchmark, config):
    runs = [f"S{n + 1}" for n in range(N_SITES)]

    mono = MetadataCatalog()
    _register(mono)
    members = {}
    for n, run in enumerate(runs):
        member = LocalMCS(f"site-{n}")
        _register(member.catalog)
        for product in generate_products(FILES_PER_SITE, seed=n, run=run):
            name = f"{run}.{product.logical_name}"
            mono.create_file(name, data_type="gwf", attributes=product.attributes)
            member.catalog.create_file(
                name, data_type="gwf", attributes=product.attributes
            )
        members[f"site-{n}"] = member
    index = MCSIndexNode(timeout=3600)
    federation = FederatedMCS(index, members)
    federation.refresh_all()

    site_scoped = {"run": "S2", "interferometer": "H1",
                   "data_product": "pulsar_search"}
    global_query = {"interferometer": "H1", "data_product": "pulsar_search"}

    def sweep():
        rates = {}
        rates["mono_scoped"] = _measure(
            lambda _: mono.query(ObjectQuery().where_equal(site_scoped)), config.duration
        )
        before = federation.subqueries_issued
        rates["fed_scoped"] = _measure(
            lambda _: federation.query(ObjectQuery().where_equal(site_scoped)),
            config.duration,
        )
        scoped_calls = federation.subqueries_issued - before
        rates["scoped_fanout"] = scoped_calls and scoped_calls / max(
            1, int(rates["fed_scoped"] * config.duration)
        )
        rates["mono_global"] = _measure(
            lambda _: mono.query(ObjectQuery().where_equal(global_query)), config.duration
        )
        rates["fed_global"] = _measure(
            lambda _: federation.query(ObjectQuery().where_equal(global_query)),
            config.duration,
        )
        return rates

    rates = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n== Extension: federated routing vs monolithic catalog ==")
    print(f"  site-scoped query:  monolithic {rates['mono_scoped']:8.1f} q/s   "
          f"federated {rates['fed_scoped']:8.1f} q/s "
          f"(~{rates['scoped_fanout']:.1f} subqueries/query)")
    print(f"  global query:       monolithic {rates['mono_global']:8.1f} q/s   "
          f"federated {rates['fed_global']:8.1f} q/s "
          f"(scatter to {N_SITES} sites)")
    assert all(
        rates[k] > 0 for k in ("mono_scoped", "fed_scoped", "mono_global", "fed_global")
    )
    # Routing claim: the index prunes site-scoped queries to ~1 subquery.
    assert rates["scoped_fanout"] <= 1.5
