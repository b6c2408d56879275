"""Ablation: relational backend vs native XML backend (§9 redesign).

The paper's authors were "studying whether a native XML database would
provide better functionality than a relational database backend; however,
the performance of open source XML databases is not currently sufficient
to support the query rates required by ESG applications."  This bench
loads the same §7 workload into both backends and compares rates,
reproducing that conclusion.
"""

from repro.bench.sweeps import get_environment
from repro.bench.timing import count_until_stopped, run_workers
from repro.core import ObjectQuery
from repro.core.xmlbackend import XmlMetadataBackend
from repro.workloads import PopulationSpec, QueryWorkload, attribute_values_for


def _measure(op, threads: int, duration: float) -> float:
    worker_fns = [
        (lambda stop, op=op: count_until_stopped(op, stop)) for _ in range(threads)
    ]
    return run_workers(worker_fns, duration).rate


def test_ablation_relational_vs_xml_backend(benchmark, config):
    size = config.db_sizes[0]
    spec = PopulationSpec(
        total_files=size,
        files_per_collection=config.files_per_collection,
        value_cardinality=config.value_cardinality,
    )
    env = get_environment(config, size)

    xml = XmlMetadataBackend()
    for index in range(spec.total_files):
        xml.create_file(
            spec.file_name(index),
            data_type="binary",
            attributes=attribute_values_for(index, spec),
        )

    def sweep():
        rates = {}
        client = env.make_client("direct")

        rel_wl = QueryWorkload(spec, seed=5)

        def rel_simple(_):
            field, value = rel_wl.simple_query_args()
            client.query(ObjectQuery().where_field(field, "=", value))

        def rel_complex(_):
            client.query(ObjectQuery().where_equal(rel_wl.complex_query_conditions(10)))

        xml_wl = QueryWorkload(spec, seed=5)

        def xml_simple(_):
            _, value = xml_wl.simple_query_args()
            xml.simple_query(value)

        def xml_complex(_):
            xml.query_files_by_attributes(xml_wl.complex_query_conditions(10))

        rates["relational_simple"] = _measure(rel_simple, 2, config.duration)
        rates["xml_simple"] = _measure(xml_simple, 2, config.duration)
        rates["relational_complex"] = _measure(rel_complex, 2, config.duration)
        rates["xml_complex"] = _measure(xml_complex, 2, config.duration)
        return rates

    rates = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n== Ablation: relational vs native-XML metadata backend ==")
    print(f"  simple queries:  relational {rates['relational_simple']:10.1f} q/s   "
          f"xml {rates['xml_simple']:10.1f} q/s")
    print(f"  complex queries: relational {rates['relational_complex']:10.1f} q/s   "
          f"xml {rates['xml_complex']:10.1f} q/s")
    ratio = (
        rates["relational_complex"] / rates["xml_complex"]
        if rates["xml_complex"]
        else float("inf")
    )
    print(f"  relational advantage on complex queries: {ratio:.1f}x "
          "(the paper's §9 finding: XML backends too slow)")
    assert all(rate > 0 for rate in rates.values())
    # The paper's conclusion: the XML backend cannot sustain the
    # relational backend's complex-query rate.
    assert rates["relational_complex"] > rates["xml_complex"]
