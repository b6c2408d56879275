"""A changed policy is obeyed by the very next request, on any connection.

Strict consistency is a stated policy of the paper (§4), and it covers
authorization too: a grant, a revoke, a move or a re-parent committed on
one connection decides the next request on another, however warm the
authorization entries are.  Each case first caches a decision on this
thread, then changes the policy from another thread (the catalog keeps one
connection per thread), then asks again.  Run with the cache on and off:
the answers must be the same.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import MCSService, MetadataCatalog, ObjectType
from repro.core.errors import PermissionDeniedError
from repro.security import Permission
from repro.soap.envelope import SoapFault

pytestmark = pytest.mark.cache

USER = "/O=Grid/CN=User"
ROUNDS = 60
READERS = 4


@pytest.fixture(params=[True, False], ids=["cached", "uncached"])
def service(request):
    catalog = MetadataCatalog(cache=request.param)
    catalog.create_collection("root")
    catalog.create_collection("mid", "root")
    catalog.create_collection("leaf", "mid")
    catalog.create_collection("granted")
    catalog.set_permissions(ObjectType.COLLECTION, "granted", USER, Permission.READ)
    catalog.create_file("f", collection="leaf")
    return MCSService(catalog, granularity="object")


def allowed(service: MCSService) -> bool:
    """May USER read the attributes of file ``f``?"""
    try:
        service.handle("get_attributes", {"caller": USER, "object_type": "file", "name": "f"})
    except SoapFault as fault:
        assert fault.code == PermissionDeniedError.fault_code, fault
        return False
    return True


def elsewhere(change) -> None:
    """Commit *change* on another thread's connection."""
    errors: list[BaseException] = []

    def run() -> None:
        try:
            change()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    if errors:
        raise errors[0]


def test_a_grant(service):
    catalog = service.catalog
    assert not allowed(service) and not allowed(service)
    elsewhere(lambda: catalog.set_permissions(
        ObjectType.COLLECTION, "root", USER, Permission.READ))
    assert allowed(service)


def test_a_revoke(service):
    catalog = service.catalog
    catalog.set_permissions(ObjectType.COLLECTION, "mid", USER, Permission.READ)
    assert allowed(service) and allowed(service)
    elsewhere(lambda: catalog.set_permissions(
        ObjectType.COLLECTION, "mid", USER, Permission.NONE))
    assert not allowed(service)


def test_a_service_acl_revoke(service):
    catalog = service.catalog
    catalog.set_permissions(ObjectType.SERVICE, None, USER, Permission.READ)
    assert allowed(service) and allowed(service)
    elsewhere(lambda: catalog.set_permissions(
        ObjectType.SERVICE, None, USER, Permission.NONE))
    assert not allowed(service)


def test_a_move_into_and_out_of_a_granted_collection(service):
    catalog = service.catalog
    assert not allowed(service) and not allowed(service)
    elsewhere(lambda: catalog.move_file_to_collection("f", "granted"))
    assert allowed(service) and allowed(service)
    elsewhere(lambda: catalog.move_file_to_collection("f", "leaf"))
    assert not allowed(service)


def test_a_reparent_under_a_granted_ancestor(service):
    catalog = service.catalog
    assert not allowed(service) and not allowed(service)
    elsewhere(lambda: catalog.set_collection_parent("mid", "granted"))
    assert allowed(service) and allowed(service)
    elsewhere(lambda: catalog.set_collection_parent("mid", "root"))
    assert not allowed(service)


def test_a_recreated_file_does_not_inherit_the_old_files_acl(service):
    catalog = service.catalog
    catalog.set_permissions(ObjectType.FILE, "f", USER, Permission.READ)
    assert allowed(service) and allowed(service)

    def recreate() -> None:
        catalog.delete_file("f")
        catalog.create_file("f", collection="leaf")

    elsewhere(recreate)
    assert not allowed(service)


def test_no_decision_lags_a_committed_policy_under_churn(service):
    """Writer step j grants READ on ``root`` to ``P j`` and revokes it from
    ``Q j``; neither is undone later.  A reader that saw step c return must
    find ``P c`` allowed and ``Q c`` denied, however warm the entries are."""
    catalog = service.catalog

    def may_read(who: str) -> bool:
        try:
            service.handle("get_attributes", {"caller": who, "object_type": "file", "name": "f"})
        except SoapFault:
            return False
        return True

    for j in range(1, ROUNDS + 1):
        catalog.set_permissions(ObjectType.COLLECTION, "root", f"Q{j}", Permission.READ)
    committed = [0]  # the last step whose grant and revoke have returned
    errors: list[BaseException] = []
    done = threading.Event()

    def writer() -> None:
        try:
            for j in range(1, ROUNDS + 1):
                catalog.set_permissions(ObjectType.COLLECTION, "root", f"P{j}", Permission.READ)
                catalog.set_permissions(ObjectType.COLLECTION, "root", f"Q{j}", Permission.NONE)
                committed[0] = j
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
        finally:
            done.set()

    def reader() -> None:
        try:
            while not done.is_set():
                c = committed[0]
                if c:
                    assert may_read(f"P{c}"), f"step {c}'s grant not obeyed"
                    assert not may_read(f"Q{c}"), f"step {c}'s revoke not obeyed"
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader) for _ in range(READERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    assert committed[0] == ROUNDS
