"""Tests for the federated MCS (§9 future-work design)."""

import datetime as dt

import pytest

from repro.core import ObjectQuery
from repro.federation import FederatedMCS, LocalMCS, MCSIndexNode


def make_member(catalog_id, experiment, runs):
    member = LocalMCS(catalog_id)
    member.client.define_attribute("experiment", "string")
    member.client.define_attribute("run", "int")
    for run in runs:
        member.client.create_logical_file(
            f"{catalog_id}-{experiment}-r{run}",
            attributes={"experiment": experiment, "run": run},
        )
    return member


@pytest.fixture
def federation():
    members = {
        "isi": make_member("isi", "pulsar", [1, 2, 3]),
        "ncar": make_member("ncar", "climate", [10, 11]),
        "cern": make_member("cern", "pulsar", [7]),
    }
    index = MCSIndexNode()
    fed = FederatedMCS(index, members)
    fed.refresh_all()
    return fed, members, index


class TestSummaries:
    def test_summary_contents(self, federation):
        fed, members, index = federation
        summary = members["isi"].make_summary()
        assert "experiment" in summary.attribute_names
        assert summary.file_count == 3
        assert summary.might_match("experiment", "=", "pulsar")
        assert not summary.might_match("nonexistent", "=", "x")

    def test_numeric_range_pruning(self, federation):
        fed, members, index = federation
        summary = members["ncar"].make_summary()
        assert summary.might_match("run", "=", 10)
        assert not summary.might_match("run", "=", 99)
        assert summary.might_match("run", ">=", 11)
        assert not summary.might_match("run", ">=", 12)

    def test_float_range_prunes_and_date_is_only_named(self):
        member = make_member("slac", "beam", [1])
        member.client.define_attribute("energy", "float")
        member.client.define_attribute("taken", "date")
        for i, energy in enumerate((1.5, 3)):  # 3 is stored as 3.0
            member.client.create_logical_file(
                f"slac-e{i}", attributes={"energy": energy, "taken": dt.date(2003, 11, i + 1)}
            )
        summary = member.make_summary()
        assert summary.numeric_ranges["energy"] == (1.5, 3.0)
        assert summary.might_match("energy", "=", 2)
        assert summary.might_match("energy", "<=", 1.5)
        assert not summary.might_match("energy", "=", 9.5)
        assert not summary.might_match("energy", ">", 3)
        assert not summary.might_match("energy", "<", 1.5)
        assert "taken" in summary.attribute_names
        assert "taken" not in summary.numeric_ranges
        assert "taken" not in summary.string_values
        for op, value in (("=", dt.date(1999, 1, 1)), (">", dt.date(2099, 1, 1)),
                          ("=", "1999-01-01"), ("=", 5)):
            assert summary.might_match("taken", op, value)


class TestIndexNode:
    def test_candidates_filtered_by_conditions(self, federation):
        fed, members, index = federation
        assert index.candidate_catalogs([("experiment", "=", "pulsar")]) == [
            "cern",
            "isi",
        ]
        assert index.candidate_catalogs([("experiment", "=", "climate")]) == ["ncar"]

    def test_stale_sequence_dropped(self, federation):
        fed, members, index = federation
        old = members["isi"].make_summary()
        newer = members["isi"].make_summary()
        assert index.receive_summary(newer)
        assert not index.receive_summary(old)

    def test_soft_state_expiry(self):
        clock = [0.0]
        index = MCSIndexNode(timeout=5.0, clock=lambda: clock[0])
        member = make_member("x", "e", [1])
        index.receive_summary(member.make_summary())
        assert index.known_catalogs() == ["x"]
        clock[0] = 6.0
        assert index.candidate_catalogs([("experiment", "=", "e")]) == []
        assert index.expire() == 1

    def test_total_files(self, federation):
        fed, members, index = federation
        assert index.total_files() == 6


class TestFederatedQueries:
    def test_scatter_only_to_candidates(self, federation):
        fed, members, index = federation
        results = fed.query(ObjectQuery().where("experiment", "=", "climate"))
        assert set(results) == {"ncar"}
        # only the one candidate got a subquery
        assert fed.subqueries_issued == 1

    def test_merged_results(self, federation):
        fed, members, index = federation
        results = fed.query(ObjectQuery().where("experiment", "=", "pulsar"))
        assert set(results) == {"isi", "cern"}
        assert results["isi"] == ["isi-pulsar-r1", "isi-pulsar-r2", "isi-pulsar-r3"]

    def test_flat_query(self, federation):
        fed, members, index = federation
        names = fed.flat_query({"experiment": "pulsar", "run": 7})
        assert names == ["cern-pulsar-r7"]

    def test_object_query_across_federation(self, federation):
        fed, members, index = federation
        q = ObjectQuery().where("run", ">=", 10)
        results = fed.query(q)
        assert set(results) == {"ncar"}

    def test_new_data_visible_after_refresh(self, federation):
        fed, members, index = federation
        members["ncar"].client.create_logical_file(
            "ncar-newexp-r1", attributes={"experiment": "newexp", "run": 1}
        )
        # Before refresh the index doesn't know the new value.
        assert fed.query(ObjectQuery().where("experiment", "=", "newexp")) == {}
        fed.refresh_all()
        assert set(fed.query(ObjectQuery().where("experiment", "=", "newexp"))) == {"ncar"}
