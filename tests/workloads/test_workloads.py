"""Tests for the §7 workload generators."""

import pytest

from repro.core import MetadataCatalog, ObjectQuery, ObjectType
from repro.workloads import (
    STANDARD_ATTRIBUTES,
    PopulationSpec,
    QueryWorkload,
    attribute_values_for,
    populate_catalog,
)


class TestSpec:
    def test_collection_count(self):
        spec = PopulationSpec(total_files=2500, files_per_collection=1000)
        assert spec.collections == 3

    def test_names_deterministic(self):
        spec = PopulationSpec(total_files=10)
        assert spec.file_name(3) == spec.file_name(3)
        assert spec.file_name(3) != spec.file_name(4)


class TestAttributeValues:
    def test_ten_attributes_of_mixed_types(self):
        assert len(STANDARD_ATTRIBUTES) == 10
        types = {t for _, t in STANDARD_ATTRIBUTES}
        assert types == {"string", "int", "float", "date", "datetime"}

    def test_deterministic(self):
        spec = PopulationSpec(total_files=100)
        assert attribute_values_for(5, spec) == attribute_values_for(5, spec)

    def test_cardinality_bound(self):
        spec = PopulationSpec(total_files=1000, value_cardinality=7)
        values = {attribute_values_for(i, spec)["wl_int_a"] for i in range(1000)}
        assert len(values) <= 7

    def test_full_vector_recurs_with_db_size(self):
        """Files index and index+cardinality share the full attribute
        vector — this is what makes complex-query result sizes grow with
        the database (the paper's degradation mechanism)."""
        spec = PopulationSpec(total_files=1000, value_cardinality=50)
        assert attribute_values_for(3, spec) == attribute_values_for(53, spec)


class TestPopulate:
    def test_small_population(self):
        catalog = MetadataCatalog()
        spec = PopulationSpec(total_files=25, files_per_collection=10)
        populate_catalog(catalog, spec)
        stats = catalog.stats()
        assert stats["files"] == 25
        assert stats["collections"] == 3
        assert stats["attributes"] == 10
        # 10 per file + 10 per collection
        assert stats["attribute_values"] == 25 * 10 + 3 * 10

    def test_files_assigned_to_collections(self):
        catalog = MetadataCatalog()
        spec = PopulationSpec(total_files=25, files_per_collection=10)
        populate_catalog(catalog, spec)
        assert len(catalog.list_collection(spec.collection_name(0))) == 10
        assert len(catalog.list_collection(spec.collection_name(2))) == 5

    def test_collection_attributes_set(self):
        catalog = MetadataCatalog()
        spec = PopulationSpec(total_files=5, files_per_collection=5)
        populate_catalog(catalog, spec)
        attrs = catalog.get_attributes(
            ObjectType.COLLECTION, spec.collection_name(0)
        )
        assert len(attrs) == 10


class TestQueryWorkload:
    @pytest.fixture
    def loaded(self):
        catalog = MetadataCatalog()
        spec = PopulationSpec(total_files=60, files_per_collection=20,
                              value_cardinality=5)
        populate_catalog(catalog, spec)
        return catalog, spec

    def test_simple_queries_hit(self, loaded):
        catalog, spec = loaded
        workload = QueryWorkload(spec, seed=1)
        for _ in range(10):
            field, value = workload.simple_query_args()
            assert field == "name"
            assert catalog.file_exists(value)

    def test_complex_queries_nonempty(self, loaded):
        catalog, spec = loaded
        workload = QueryWorkload(spec, seed=2)
        for _ in range(5):
            conditions = workload.complex_query_conditions(10)
            assert len(conditions) == 10
            assert catalog.query(ObjectQuery().where_equal(conditions))

    def test_attribute_count_truncation(self, loaded):
        catalog, spec = loaded
        workload = QueryWorkload(spec, seed=3)
        assert len(workload.complex_query_conditions(3)) == 3
        with pytest.raises(ValueError):
            workload.complex_query_conditions(11)

    def test_fewer_attributes_match_superset(self, loaded):
        catalog, spec = loaded
        workload = QueryWorkload(spec, seed=4)
        ten = workload.complex_query_conditions(10)
        three = {k: ten[k] for k in list(ten)[:3]}
        full = set(catalog.query(ObjectQuery().where_equal(ten)))
        loose = set(catalog.query(ObjectQuery().where_equal(three)))
        assert full <= loose

    def test_add_names_unique(self, loaded):
        catalog, spec = loaded
        workload = QueryWorkload(spec, seed=5)
        names = {workload.add_args("w")[0] for _ in range(50)}
        assert len(names) == 50

    def test_add_args_have_ten_attributes(self, loaded):
        catalog, spec = loaded
        workload = QueryWorkload(spec, seed=6)
        _, attributes = workload.add_args("w")
        assert len(attributes) == 10
