"""Cross-module integration tests: the paper's scenarios end to end."""

import threading

import pytest

from repro.core import MCSClient, MCSService, MetadataCatalog, ObjectQuery, ObjectType
from repro.db import Database
from repro.gridftp import GridFTPServer, StorageSite
from repro.ligo import generate_products, pulsar_search_workflow, register_ligo_attributes
from repro.pegasus import PegasusPlanner, WorkflowExecutor
from repro.rls import LocalReplicaCatalog, ReplicaLocationIndex, RLSClient
from repro.security import (
    CertificateAuthority,
    DistinguishedName,
    GSIContext,
    Permission,
)
from repro.security.gsi import create_proxy
from repro.soap import SoapServer


class TestDurableMCS:
    """The MCS catalog on a durable database survives restart."""

    def test_metadata_survives_restart(self, tmp_path):
        db = Database(directory=str(tmp_path))
        catalog = MetadataCatalog(db)
        catalog.define_attribute("exp", "string")
        catalog.create_collection("c1")
        catalog.create_file("f1", collection="c1", attributes={"exp": "x"})
        catalog.annotate(ObjectType.FILE, "f1", "note", "alice")
        db.close()

        db2 = Database(directory=str(tmp_path))
        catalog2 = MetadataCatalog(db2)
        assert catalog2.get_file("f1").collection_id is not None
        assert catalog2.get_attributes(ObjectType.FILE, "f1") == {"exp": "x"}
        assert catalog2.annotations(ObjectType.FILE, "f1")[0].text == "note"
        assert catalog2.query(ObjectQuery().where("exp", "=", "x")) == ["f1"]
        db2.close()

    def test_checkpoint_then_more_writes(self, tmp_path):
        db = Database(directory=str(tmp_path))
        catalog = MetadataCatalog(db)
        catalog.define_attribute("n", "int")
        catalog.create_file("a", attributes={"n": 1})
        db.checkpoint()
        catalog.create_file("b", attributes={"n": 2})
        db.close()
        catalog2 = MetadataCatalog(Database(directory=str(tmp_path)))
        assert catalog2.stats()["files"] == 2


class TestGSIOverSoap:
    """GSI-authenticated requests over the real HTTP transport."""

    def test_authenticated_flow(self):
        ca = CertificateAuthority(key_bits=256)
        alice = ca.issue_credential(DistinguishedName.make("Alice"), key_bits=256)
        proxy = create_proxy(alice, key_bits=256)
        server_cred = ca.issue_credential(DistinguishedName.make("MCS"), key_bits=256)
        service = MCSService(
            gsi_context=GSIContext(server_cred, trust_anchors=[ca.certificate]),
            granularity="service",
        )
        service.catalog.set_permissions(
            ObjectType.SERVICE, None, str(alice.subject), Permission.all()
        )
        with SoapServer(service.handle, fault_mapper=service.fault_mapper) as srv:
            client = MCSClient.connect(*srv.endpoint)
            client._gsi = GSIContext(proxy)
            client.define_attribute("k", "int")
            client.create_logical_file("f1", attributes={"k": 1})
            record = client.get_logical_file("f1")
            assert record["creator"] == str(alice.subject)
            client.close()

    def test_anonymous_rejected_over_soap(self):
        ca = CertificateAuthority(key_bits=256)
        server_cred = ca.issue_credential(DistinguishedName.make("MCS"), key_bits=256)
        service = MCSService(
            gsi_context=GSIContext(server_cred, trust_anchors=[ca.certificate]),
            granularity="service",
        )
        from repro.core.errors import NotAuthenticatedError

        with SoapServer(service.handle, fault_mapper=service.fault_mapper) as srv:
            client = MCSClient.connect(*srv.endpoint, caller="/O=G/CN=Nobody")
            with pytest.raises(NotAuthenticatedError):
                client.create_logical_file("f1")
            client.close()


class TestConcurrentSoapClients:
    def test_parallel_publication_and_discovery(self):
        service = MCSService()
        setup = MCSClient.in_process(service, caller="setup")
        setup.define_attribute("worker", "int")
        errors = []

        with SoapServer(service.handle, fault_mapper=service.fault_mapper) as srv:
            def worker(n):
                try:
                    client = MCSClient.connect(*srv.endpoint, caller=f"w{n}")
                    for i in range(10):
                        client.create_logical_file(
                            f"w{n}-f{i}", attributes={"worker": n}
                        )
                    found = client.query(ObjectQuery().where("worker", "=", n))
                    assert len(found) == 10
                    client.close()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(n,)) for n in range(5)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert service.catalog.stats()["files"] == 50


class TestLigoPegasusPipeline:
    """The §6.1 pipeline: publish → discover → plan → execute → reuse."""

    @pytest.fixture
    def world(self):
        service = MCSService()
        mcs = MCSClient.in_process(service, caller="pegasus")
        register_ligo_attributes(mcs)
        sites = {n: StorageSite(n) for n in ("a", "b")}
        gridftp = GridFTPServer(sites)
        lrcs = {f"lrc-{n}": LocalReplicaCatalog(f"lrc-{n}") for n in sites}
        rls = RLSClient(ReplicaLocationIndex(), lrcs)
        raws = []
        for product in generate_products(20, seed=4):
            if product.attributes["data_product"] != "time_series":
                continue
            raws.append(product.logical_name)
            sites["a"].store(product.logical_name, b"x" * 512)
            mcs.create_logical_file(
                product.logical_name, data_type="gwf",
                attributes=product.attributes,
            )
            lrcs["lrc-a"].add_mapping(
                product.logical_name, f"gsiftp://a/{product.logical_name}"
            )
            if len(raws) == 3:
                break
        rls.refresh_all()
        return mcs, rls, gridftp, sites, raws

    def test_full_cycle(self, world):
        mcs, rls, gridftp, sites, raws = world
        discovered = mcs.query(ObjectQuery().where("data_product", "=", "time_series"))
        assert set(raws) <= set(discovered)

        workflow = pulsar_search_workflow(raws, search_id="it-1")
        planner = PegasusPlanner(mcs, rls, sites=list(sites))
        plan = planner.plan(workflow)
        executor = WorkflowExecutor(
            mcs, rls, gridftp, lrc_for_site={n: f"lrc-{n}" for n in sites}
        )
        report = executor.execute(plan)
        assert "it-1-result.xml" in report.registered_files

        # Derived product discoverable by its search id
        hits = mcs.query(ObjectQuery().where("pulsar_search_id", "=", "it-1"))
        assert "it-1-result.xml" in hits

        # Replanning prunes everything
        replan = planner.plan(workflow)
        assert len(replan.jobs) == 0

        # Provenance chain recorded for the final product
        history = mcs.get_transformations("it-1-result.xml")
        assert any("search" in t["description"] for t in history)

    def test_partial_reuse(self, world):
        mcs, rls, gridftp, sites, raws = world
        workflow = pulsar_search_workflow(raws, search_id="it-2")
        planner = PegasusPlanner(mcs, rls, sites=["a"])
        executor = WorkflowExecutor(
            mcs, rls, gridftp, lrc_for_site={n: f"lrc-{n}" for n in sites}
        )
        executor.execute(planner.plan(workflow))
        # A new search over the same frames but a different band: SFTs are
        # shared names? They are namespaced by search id, so nothing is
        # reused — but the *previous* search's own jobs all are.
        replan = planner.plan(workflow)
        assert set(replan.pruned_jobs) == set(workflow.jobs)
