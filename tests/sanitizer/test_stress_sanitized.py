"""The ``pytest -m sanitizer`` lane: the existing bulk/cache concurrency
stress suites (the cache's twice: hot-writer churn, and the bystander
churn that drives row-keyed invalidation) re-run with the runtime
lock-order sanitizer installed.

The stress tests assert their own invariants (no stale reads, no torn
batches, no wedged threads); this lane adds the sanitizer's: while all
of that ran, no code path ever acquired engine locks in contradictory
orders, and no acquisition timed out.
"""

from __future__ import annotations

import pytest

from repro.analysis import sanitizer
from repro.core import MCSService

from tests.cache.test_cache_concurrency import (
    test_bystander_churn_keeps_unrelated_entries_hot as _bystander_churn,
    test_readers_never_see_stale_values_under_write_churn as _cache_churn,
)
from tests.integration.test_bulk_concurrency import (
    test_bulk_writers_never_expose_torn_batches as _bulk_torn,
)

pytestmark = pytest.mark.sanitizer


@pytest.fixture()
def san():
    with sanitizer.enabled() as active:
        yield active


def test_cache_churn_under_sanitizer(san) -> None:
    _cache_churn()
    assert san.violations == 0
    assert san.timeouts_observed == 0
    assert san.order_graph(), "stress never touched instrumented locks"


def test_bystander_churn_under_sanitizer(san) -> None:
    _bystander_churn()
    assert san.violations == 0
    assert san.timeouts_observed == 0
    assert san.order_graph(), "stress never touched instrumented locks"


def test_bulk_concurrency_under_sanitizer(san) -> None:
    service = MCSService()
    service.catalog.define_attribute("batch_tag", "string")
    service.catalog.define_attribute("state", "string")
    _bulk_torn(service)
    assert san.violations == 0
    assert san.timeouts_observed == 0
    assert san.order_graph(), "stress never touched instrumented locks"
