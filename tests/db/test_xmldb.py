"""Tests for the native XML database and its XPath engine."""

import xml.etree.ElementTree as ET

import pytest

from repro.xmldb import XMLDatabase, XPath, XPathError


DOC = b"""
<dataset id="d1">
  <globalAttributes>
    <attribute name="model" type="string">CCSM2</attribute>
    <attribute name="runs" type="int">7</attribute>
  </globalAttributes>
  <variables>
    <variable name="TS" units="K"><attribute name="cm">time: mean</attribute></variable>
    <variable name="PS" units="Pa"/>
  </variables>
</dataset>
"""


def root():
    return ET.fromstring(DOC)


class TestXPathParsing:
    def test_simple_path(self):
        assert len(XPath("/dataset/variables/variable").steps) == 3

    def test_requires_leading_slash(self):
        with pytest.raises(XPathError):
            XPath("dataset/variable")

    def test_empty_rejected(self):
        with pytest.raises(XPathError):
            XPath("/")

    def test_bad_predicate(self):
        with pytest.raises(XPathError):
            XPath("/a[=]")

    def test_unclosed_predicate(self):
        with pytest.raises(XPathError):
            XPath("/a[@b")


class TestXPathSelection:
    def test_child_steps(self):
        matches = XPath("/dataset/variables/variable").select(root())
        assert [m.get("name") for m in matches] == ["TS", "PS"]

    def test_wildcard(self):
        matches = XPath("/dataset/*").select(root())
        assert [m.tag for m in matches] == ["globalAttributes", "variables"]

    def test_descendant_axis(self):
        matches = XPath("//attribute").select(root())
        assert len(matches) == 3

    def test_attr_eq_predicate(self):
        matches = XPath("//variable[@name='TS']").select(root())
        assert len(matches) == 1 and matches[0].get("units") == "K"

    def test_attr_ne_predicate(self):
        matches = XPath("//variable[@name!='TS']").select(root())
        assert [m.get("name") for m in matches] == ["PS"]

    def test_attr_exists_predicate(self):
        matches = XPath("//variable[@units]").select(root())
        assert len(matches) == 2

    def test_own_text_predicate(self):
        matches = XPath("//attribute[text()='CCSM2']").select(root())
        assert len(matches) == 1 and matches[0].get("name") == "model"

    def test_child_text_predicate(self):
        matches = XPath("/dataset/globalAttributes[attribute='CCSM2']").select(root())
        assert len(matches) == 1

    def test_position_predicate(self):
        matches = XPath("/dataset/variables/variable[2]").select(root())
        assert [m.get("name") for m in matches] == ["PS"]

    def test_stacked_predicates(self):
        matches = XPath("//attribute[@name='model'][text()='CCSM2']").select(root())
        assert len(matches) == 1
        assert XPath("//attribute[@name='model'][text()='PCM']").select(root()) == []

    def test_no_match(self):
        assert XPath("/nonexistent").select(root()) == []
        assert not XPath("/nonexistent").matches(root())


class TestXMLDatabase:
    def make(self, **kwargs):
        db = XMLDatabase(**kwargs)
        db.store("d1", DOC)
        db.store(
            "d2",
            b"<dataset id='d2'><globalAttributes>"
            b"<attribute name='model'>PCM</attribute>"
            b"</globalAttributes></dataset>",
        )
        return db

    def test_store_get_delete(self):
        db = self.make()
        assert len(db) == 2
        assert db.get("d1").tag == "dataset"
        assert db.delete("d1") is True
        assert db.delete("d1") is False
        assert db.get("d1") is None

    def test_malformed_document_rejected(self):
        db = XMLDatabase()
        with pytest.raises(ValueError):
            db.store("bad", b"<unclosed")

    def test_replace_document(self):
        db = self.make()
        db.store("d1", b"<dataset id='d1'/>")
        assert len(db.get("d1")) == 0

    def test_query_pairs(self):
        db = self.make()
        hits = db.query("//attribute[@name='model']")
        assert {name for name, _ in hits} == {"d1", "d2"}

    def test_query_names(self):
        db = self.make()
        assert db.query_names("//attribute[text()='CCSM2']") == ["d1"]
        assert db.query_names("//attribute[text()='PCM']") == ["d2"]

    def test_conjunctive_query(self):
        db = self.make()
        names = db.query_names_all(
            ["//attribute[text()='CCSM2']", "//variable[@name='TS']"]
        )
        assert names == ["d1"]
        assert db.query_names_all(
            ["//attribute[text()='PCM']", "//variable[@name='TS']"]
        ) == []

    def test_attribute_index_candidates(self):
        db = self.make(index_attributes=("name",))
        # The index narrows candidates without changing results.
        assert db.query_names("//attribute[@name='model'][text()='PCM']") == ["d2"]
        path = XPath("//attribute[@name='model']")
        assert set(db._candidates(path)) == {"d1", "d2"}

    def test_index_updated_on_delete_and_replace(self):
        db = self.make(index_attributes=("name",))
        db.delete("d2")
        assert db.query_names("//attribute[@name='model']") == ["d1"]
        db.store("d1", b"<dataset/>")
        assert db.query_names("//attribute[@name='model']") == []


class TestXmlMetadataBackend:
    def test_mirror_of_relational_semantics(self):
        import datetime as dt

        from repro.core.errors import DuplicateObjectError, ObjectNotFoundError
        from repro.core.xmlbackend import XmlMetadataBackend

        backend = XmlMetadataBackend()
        backend.create_file(
            "f1", data_type="binary", collection="c1",
            attributes={"s": "x", "i": 3, "f": 2.5, "d": dt.date(2003, 1, 1)},
        )
        assert backend.get_file("f1")["data_type"] == "binary"
        assert backend.get_attributes("f1") == {
            "s": "x", "i": 3, "f": 2.5, "d": dt.date(2003, 1, 1)
        }
        assert backend.query_files_by_attributes({"s": "x", "i": 3}) == ["f1"]
        assert backend.query_files_by_attributes({"s": "x", "i": 4}) == []
        assert backend.simple_query("f1") == ["f1"]
        with pytest.raises(DuplicateObjectError):
            backend.create_file("f1")
        backend.delete_file("f1")
        with pytest.raises(ObjectNotFoundError):
            backend.get_file("f1")
        with pytest.raises(ObjectNotFoundError):
            backend.delete_file("f1")

    def test_agreement_with_relational_backend(self):
        """Both backends answer the same workload queries identically."""
        from repro.core import MetadataCatalog, ObjectQuery
        from repro.core.xmlbackend import XmlMetadataBackend
        from repro.workloads import (
            PopulationSpec,
            QueryWorkload,
            attribute_values_for,
            populate_catalog,
        )

        spec = PopulationSpec(total_files=60, files_per_collection=20,
                              value_cardinality=5)
        relational = MetadataCatalog()
        populate_catalog(relational, spec)
        xml = XmlMetadataBackend()
        for index in range(spec.total_files):
            xml.create_file(
                spec.file_name(index),
                data_type="binary",
                attributes=attribute_values_for(index, spec),
            )
        workload = QueryWorkload(spec, seed=11)
        for _ in range(10):
            conditions = workload.complex_query_conditions(10)
            assert sorted(relational.query(ObjectQuery().where_equal(conditions))) == \
                   xml.query_files_by_attributes(conditions)
