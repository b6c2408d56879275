"""Run one test body against both the blocking and the asyncio I/O shell.

``flavor`` is a fixture, available to every test, parametrized over
``sync``/``async``.  A test picks the class for its flavour
(``flavor.pick(SyncThing, AsyncThing)``) and wraps the instance in ``flavor.drive(...)``: calls pass straight
through for the blocking shell and run to completion on the fixture's
private event loop for the asyncio one, so the assertions that follow
read the same either way.  One loop per test, because pooled asyncio
streams cannot outlive the loop that opened them.
"""

from __future__ import annotations

import asyncio
import inspect
from typing import Any, Iterator

import pytest


class Driven:
    """Calls through to *target*, finishing any awaitable on *flavor*'s loop."""

    def __init__(self, target: Any, flavor: "Flavor") -> None:
        self._target = target
        self._flavor = flavor

    def __getattr__(self, name: str) -> Any:
        attribute = getattr(self._target, name)
        if not callable(attribute):
            return attribute

        def run(*args: Any, **kwargs: Any) -> Any:
            return self._flavor.finish(attribute(*args, **kwargs))

        return run


class Flavor:
    def __init__(self, asynchronous: bool) -> None:
        self.asynchronous = asynchronous
        self._loop = asyncio.new_event_loop() if asynchronous else None

    def pick(self, blocking: Any, awaiting: Any) -> Any:
        return awaiting if self.asynchronous else blocking

    def drive(self, target: Any) -> Driven:
        return Driven(target, self)

    def finish(self, outcome: Any) -> Any:
        if not inspect.isawaitable(outcome):
            return outcome
        assert self._loop is not None, "the blocking shell returned an awaitable"
        return self._loop.run_until_complete(outcome)

    def close(self) -> None:
        if self._loop is not None:
            self._loop.close()


@pytest.fixture(params=["sync", "async"])
def flavor(request: pytest.FixtureRequest) -> Iterator[Flavor]:
    chosen = Flavor(request.param == "async")
    yield chosen
    chosen.close()
