"""Tests for the LIGO ontology and workload."""

import pytest

from repro.core import MCSClient, MCSService, ObjectQuery
from repro.ligo import (
    LIGO_ATTRIBUTES,
    generate_products,
    pulsar_search_workflow,
    register_ligo_attributes,
)


@pytest.fixture
def client():
    return MCSClient.in_process(MCSService(), caller="ligo")


class TestOntology:
    def test_exactly_23_attributes(self):
        assert len(LIGO_ATTRIBUTES) == 23

    def test_registration(self, client):
        assert register_ligo_attributes(client) == 23
        assert register_ligo_attributes(client) == 0
        defined = {d.name for d in client.list_attribute_defs()}
        assert set(LIGO_ATTRIBUTES) <= defined

    def test_types_are_valid(self):
        assert all(
            vt in ("string", "int", "float") for vt, _ in LIGO_ATTRIBUTES.values()
        )


class TestWorkload:
    def test_products_have_all_attributes(self):
        products = generate_products(10)
        for product in products:
            assert set(product.attributes) == set(LIGO_ATTRIBUTES)

    def test_deterministic(self):
        assert generate_products(5, seed=3)[2].logical_name == \
               generate_products(5, seed=3)[2].logical_name

    def test_gps_times_consistent(self):
        for product in generate_products(20):
            a = product.attributes
            assert a["gps_end_time"] - a["gps_start_time"] == a["duration"]

    def test_publication_and_discovery(self, client):
        register_ligo_attributes(client)
        for product in generate_products(30, seed=9):
            client.create_logical_file(
                product.logical_name, data_type="gwf",
                attributes=product.attributes,
            )
        found = client.query(ObjectQuery().where("interferometer", "=", "H1"))
        for name in found:
            assert name.startswith("H1-")
        # frequency band range query (the paper's motivating example)
        q = ObjectQuery().where("frequency_band_low", ">=", 100.0)
        for name in client.query(q):
            attrs = client.get_attributes("file", name)
            assert attrs["frequency_band_low"] >= 100.0


class TestPulsarWorkflow:
    def test_shape(self):
        wf = pulsar_search_workflow(["raw0", "raw1", "raw2"], search_id="ps-1")
        # per raw input: SFT + band jobs, plus one search job
        assert len(wf.jobs) == 7
        assert wf.external_inputs() == {"raw0", "raw1", "raw2"}
        assert wf.final_outputs() == {"ps-1-result.xml"}
        wf.validate()

    def test_search_depends_on_all_bands(self):
        wf = pulsar_search_workflow(["r0", "r1"], search_id="ps-2")
        dag = wf.dependency_dag()
        assert dag.predecessors("search") == {"band-0000", "band-0001"}

    def test_output_metadata_carries_search_id(self):
        wf = pulsar_search_workflow(["r0"], search_id="ps-3")
        job = wf.jobs["search"]
        metadata = job.output_metadata["ps-3-result.xml"]
        assert metadata["pulsar_search_id"] == "ps-3"
        assert metadata["data_product"] == "pulsar_search"
