"""The client operations are declared once, for both flavours.

``ClientOperations`` is the one place an operation is written down;
``MCSClient`` and ``AsyncMCSClient`` only add how a call is carried out.
These checks keep that true and keep the declaration in step with the
server half: the ``OPERATIONS`` rows and the service's ``op_*`` bodies.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core import AsyncMCSClient, MCSClient, MCSService
from repro.core.client import READ_METHODS, ClientOperations, is_read_method
from repro.core.operations import OPERATIONS

#: Client-side sugar composed from other operations; no wire method.
COMPOSED = {"invalidate_logical_file"}
#: Public client methods that are not catalog operations.
LIFECYCLE = {"in_process", "connect", "bulk"}


def declared_operations() -> dict[str, object]:
    return {
        name: member
        for name, member in vars(ClientOperations).items()
        if not name.startswith("_") and name not in LIFECYCLE
    }


def test_rows_bodies_and_client_operations_are_one_set():
    rows = [row.name for row in OPERATIONS]
    bodies = {
        name[len("op_"):] for name in vars(MCSService) if name.startswith("op_")
    }
    assert len(rows) == len(set(rows))
    assert set(rows) == bodies == set(declared_operations()) - COMPOSED


def test_a_body_without_a_row_or_a_row_without_a_body_fails_construction(monkeypatch):
    class ExtraBody(MCSService):
        def op_undeclared(self, caller: str) -> bool:
            return True

    with pytest.raises(TypeError, match="undeclared"):
        ExtraBody()

    from repro.core import operations, service

    extra_row = operations.Operation("unbodied", None)
    monkeypatch.setattr(service, "BY_NAME", {**operations.BY_NAME, "unbodied": extra_row})
    with pytest.raises(TypeError, match="unbodied"):
        MCSService()


def test_no_body_takes_the_assertion_or_states_a_rule():
    for name in vars(MCSService):
        if name.startswith("op_"):
            parameters = list(inspect.signature(getattr(MCSService, name)).parameters)
            assert parameters[:2] == ["self", "caller"], name
            assert "assertion" not in parameters, name


def test_operations_are_declared_only_on_the_shared_base():
    for flavor in (MCSClient, AsyncMCSClient):
        assert not set(vars(flavor)) & set(declared_operations())


def test_both_flavours_expose_identical_signatures_and_docstrings():
    for name in [*declared_operations(), *LIFECYCLE]:
        sync_method, async_method = getattr(MCSClient, name), getattr(AsyncMCSClient, name)
        assert inspect.signature(sync_method) == inspect.signature(async_method), name
        assert inspect.getdoc(sync_method), f"{name} lost its docstring"
        assert inspect.getdoc(sync_method) == inspect.getdoc(async_method)


def test_signatures_are_real_not_catch_alls():
    """``help(MCSClient.create_logical_file)`` shows names, not ``**kwargs``."""
    parameters = inspect.signature(MCSClient.create_logical_file).parameters
    assert list(parameters)[:3] == ["self", "name", "version"]
    assert parameters["version"].default == 1


def test_read_methods_are_the_read_rows():
    assert READ_METHODS == {row.name for row in OPERATIONS if row.read}
    assert is_read_method("query") and is_read_method("bulk_query")
    assert not is_read_method("create_logical_file")
    # Not wire methods, so never read methods (the retired shims were).
    assert not is_read_method("simple_query")
    assert not is_read_method("invalidate_logical_file")
