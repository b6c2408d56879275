"""Tests for the ESG integration (Dublin Core, netCDF XML, shredder)."""

import datetime as dt

import pytest

from repro.core import MCSClient, MCSService, ObjectQuery
from repro.esg import (
    DUBLIN_CORE_ELEMENTS,
    DatasetMetadata,
    ESGShredder,
    VariableMetadata,
    generate_dataset,
    register_dublin_core,
)
from repro.esg.dublincore import dc_attribute


@pytest.fixture
def client():
    return MCSClient.in_process(MCSService(), caller="esg-loader")


class TestDublinCore:
    def test_fifteen_elements(self):
        assert len(DUBLIN_CORE_ELEMENTS) == 15

    def test_registration_idempotent(self, client):
        assert register_dublin_core(client) == 15
        assert register_dublin_core(client) == 0

    def test_date_element_is_date_typed(self, client):
        register_dublin_core(client)
        defs = {d.name: d.value_type.value for d in client.list_attribute_defs()}
        assert defs["dc_date"] == "date"
        assert defs["dc_title"] == "string"

    def test_unknown_element_rejected(self):
        with pytest.raises(ValueError):
            dc_attribute("nonsense")


class TestNetcdfXml:
    def test_round_trip(self):
        dataset = DatasetMetadata(
            "esg.test.1",
            global_attributes={
                "model": "CCSM2",
                "run_number": 7,
                "resolution_degrees": 1.0,
                "start_date": dt.date(1990, 1, 1),
            },
            variables=[
                VariableMetadata("TS", "surface_temperature", "K",
                                 {"cell_methods": "time: mean"})
            ],
        )
        restored = DatasetMetadata.from_xml(dataset.to_xml())
        assert restored.dataset_id == "esg.test.1"
        assert restored.global_attributes == dataset.global_attributes
        assert restored.variables[0].units == "K"
        assert restored.variables[0].attributes == {"cell_methods": "time: mean"}

    def test_generator_deterministic(self):
        a = generate_dataset(5, seed=1)
        b = generate_dataset(5, seed=1)
        assert a.to_xml() == b.to_xml()
        c = generate_dataset(6, seed=1)
        assert c.dataset_id != a.dataset_id

    def test_generator_fields_present(self):
        dataset = generate_dataset(0)
        assert {"model", "experiment", "institution", "start_date"} <= set(
            dataset.global_attributes
        )
        assert dataset.variables


class TestShredder:
    def test_shred_registers_file_with_attributes(self, client):
        shredder = ESGShredder(client)
        dataset = generate_dataset(1)
        name = shredder.shred(dataset)
        attrs = client.get_attributes("file", name)
        assert attrs["esg_model"] == dataset.global_attributes["model"]
        assert attrs["dc_title"] == dataset.dataset_id
        for variable in dataset.variables:
            assert attrs[f"var_{variable.name}"] == 1

    def test_shred_from_xml_bytes(self, client):
        shredder = ESGShredder(client)
        name = shredder.shred_xml(generate_dataset(2).to_xml())
        assert client.get_logical_file(name)["data_type"] == "netcdf"

    def test_collection_per_model(self, client):
        shredder = ESGShredder(client)
        dataset = generate_dataset(3)
        name = shredder.shred(dataset)
        model = dataset.global_attributes["model"]
        assert name in client.list_collection(f"esg-{model}")

    def test_reshred_updates(self, client):
        shredder = ESGShredder(client)
        dataset = generate_dataset(4)
        shredder.shred(dataset)
        dataset.global_attributes["model"] = "PCM"
        shredder.shred(dataset)  # no DuplicateObjectError escape
        attrs = client.get_attributes("file", dataset.dataset_id)
        assert attrs["esg_model"] == "PCM"

    def test_discovery_by_shredded_attributes(self, client):
        shredder = ESGShredder(client)
        names = shredder.shred_many([generate_dataset(i) for i in range(25)])
        target = generate_dataset(7)
        matches = client.query(
            ObjectQuery().where_equal(
                {"esg_model": target.global_attributes["model"],
                 "esg_experiment": target.global_attributes["experiment"]}
            )
        )
        assert target.dataset_id in matches
        assert set(matches) <= set(names)

    def test_numeric_range_discovery(self, client):
        shredder = ESGShredder(client)
        shredder.shred_many([generate_dataset(i) for i in range(25)])
        q = ObjectQuery().where("esg_years_simulated", ">=", 50)
        results = client.query(q)
        for name in results:
            attrs = client.get_attributes("file", name)
            assert attrs["esg_years_simulated"] >= 50

    def test_without_dublin_core(self, client):
        shredder = ESGShredder(client, use_dublin_core=False)
        name = shredder.shred(generate_dataset(8))
        attrs = client.get_attributes("file", name)
        assert not any(k.startswith("dc_") for k in attrs)
