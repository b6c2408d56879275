"""Concurrency stress: interleaved bulk writes and single-op reads.

N writer threads issue atomic bulk creates and atomic bulk attribute
flips against one service while reader threads run attribute queries and
single-op reads.  Strict consistency is asserted the whole time:

* no torn batches — a query never sees a strict subset of an atomic
  batch (every batch is visible fully or not at all);
* no deadlocks — every thread finishes within the join timeout;
* no unexpected faults anywhere.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import MCSClient, MCSService, ObjectQuery

BATCH = 8
ROUNDS = 5
WRITERS = 3
READERS = 2
FLIPS = 3


@pytest.fixture()
def service() -> MCSService:
    svc = MCSService()
    svc.catalog.define_attribute("batch_tag", "string")
    svc.catalog.define_attribute("state", "string")
    return svc


def test_bulk_writers_never_expose_torn_batches(service: MCSService) -> None:
    errors: list[BaseException] = []
    committed: list[str] = []  # tags whose create-batch has committed
    committed_lock = threading.Lock()
    writers_done = threading.Event()

    def writer(w: int) -> None:
        client = MCSClient.in_process(service, caller=f"writer-{w}")
        try:
            for r in range(ROUNDS):
                tag = f"w{w}-r{r}"
                names = [f"{tag}-f{k}" for k in range(BATCH)]
                response = client.bulk_create_files(
                    [
                        {
                            "name": name,
                            "attributes": {"batch_tag": tag, "state": "a"},
                        }
                        for name in names
                    ],
                    atomic=True,
                )
                assert response["ok"] == BATCH
                with committed_lock:
                    committed.append(tag)
                # Atomically flip the whole batch's state back and forth;
                # a reader must never catch it half-flipped.
                for flip in range(FLIPS):
                    state = "b" if flip % 2 == 0 else "a"
                    response = client.bulk_set_attributes(
                        [
                            {"name": name, "attributes": {"state": state}}
                            for name in names
                        ],
                        atomic=True,
                    )
                    assert response["ok"] == BATCH
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)
        finally:
            client.close()

    def reader(r: int) -> None:
        client = MCSClient.in_process(service, caller=f"reader-{r}")
        try:
            while not writers_done.is_set():
                with committed_lock:
                    tags = list(committed)
                if not tags:
                    continue
                tag = tags[r % len(tags)]
                # One query is one consistent statement: an atomic batch
                # is all-visible or not-yet-visible, and an atomic flip
                # moves all BATCH members at once.
                total = client.query(ObjectQuery().where("batch_tag", "=", tag))
                assert len(total) in (0, BATCH), (
                    f"torn batch {tag}: saw {len(total)}/{BATCH} files"
                )
                for state in ("a", "b"):
                    seen = client.query(
                        ObjectQuery().where_equal({"batch_tag": tag, "state": state})
                    )
                    assert len(seen) in (0, BATCH), (
                        f"torn flip {tag} state={state}: "
                        f"saw {len(seen)}/{BATCH}"
                    )
                # Single-op read mixed in with the queries.
                client.get_logical_file(f"{tag}-f0")
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)
        finally:
            client.close()

    writer_threads = [
        threading.Thread(target=writer, args=(w,), daemon=True)
        for w in range(WRITERS)
    ]
    reader_threads = [
        threading.Thread(target=reader, args=(r,), daemon=True)
        for r in range(READERS)
    ]
    for thread in writer_threads + reader_threads:
        thread.start()
    for thread in writer_threads:
        thread.join(timeout=60)
    writers_done.set()
    for thread in reader_threads:
        thread.join(timeout=60)
    stuck = [t for t in writer_threads + reader_threads if t.is_alive()]
    assert not stuck, f"deadlock: {len(stuck)} thread(s) never finished"
    assert not errors, f"concurrent bulk errors: {errors[:3]}"
    assert service.catalog.stats()["files"] == WRITERS * ROUNDS * BATCH
