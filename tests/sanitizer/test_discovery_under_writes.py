"""Discovery leaves read the engine's trees while writers commit.

The index leaf answers without a statement: it holds one statement's
read locks (``Connection.read``) and walks B+tree postings and rows
itself.  Here readers run it, with the result cache off so every query
does, while writers move files into and out of the answers
(``set_attributes`` of two attributes at once), create files and delete
them.  Every commit is mirrored into a model under one guard, so the
model's states form the commit sequence; each answer must equal the
model's answer at one point between two commits that bracket the
query — never a mix of two commits.  The lock-order sanitizer is
installed throughout and must report nothing.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.analysis import sanitizer
from repro.core import MetadataCatalog, ObjectType
from repro.core.query import ObjectQuery

pytestmark = pytest.mark.sanitizer

WRITERS = 2
READERS = 3
ROUNDS = 120
COLORS = ("red", "blue")
SIZES = (1, 2, 3, 4)

#: (how to ask, which model rows answer), over ``name -> (color, size)``.
QUESTIONS = (
    (
        lambda c: c.query_mql('files where color = "red" and size >= 3'),
        lambda color, size: color == "red" and size >= 3,
    ),
    (
        lambda c: c.query_mql('files where size = 2 and color != "blue"'),
        lambda color, size: size == 2 and color != "blue",
    ),
    (
        lambda c: c.query(ObjectQuery().where("size", "between", (2, 3))),
        lambda color, size: 2 <= size <= 3,
    ),
)


def _answer(state: dict, matches) -> list[str]:
    return sorted(name for name, (color, size) in state.items() if matches(color, size))


def test_index_leaves_see_whole_commits_under_write_churn() -> None:
    catalog = MetadataCatalog(cache=False)
    catalog.define_attribute("color", "string")
    catalog.define_attribute("size", "int")
    catalog.mql_strategy = "index"
    state = {}
    for i in range(24):
        state[f"f{i:02d}"] = (COLORS[i % 2], SIZES[i % 4])
        catalog.create_file(
            f"f{i:02d}", attributes={"color": COLORS[i % 2], "size": SIZES[i % 4]}
        )
    history = [dict(state)]  # the model after each commit, in commit order
    guard = threading.Lock()  # one commit and its model update at a time
    errors: list[BaseException] = []
    done = threading.Event()
    answers = [0]

    def writer(w: int) -> None:
        rng = random.Random(w)
        try:
            for j in range(ROUNDS):
                with guard:
                    names = sorted(state)
                    action = rng.randrange(4)
                    if action == 0 or len(names) < 8:
                        name = f"w{w}-{j:03d}"
                        color, size = rng.choice(COLORS), rng.choice(SIZES)
                        catalog.create_file(
                            name, attributes={"color": color, "size": size}
                        )
                        state[name] = (color, size)
                    elif action == 1:
                        name = rng.choice(names)
                        catalog.delete_file(name)
                        del state[name]
                    else:
                        name = rng.choice(names)
                        color, size = rng.choice(COLORS), rng.choice(SIZES)
                        catalog.set_attributes(
                            ObjectType.FILE, name, {"color": color, "size": size}
                        )
                        state[name] = (color, size)
                    history.append(dict(state))
                # The guard is not fair: pause, or the writers starve the
                # readers of it until they are done.
                time.sleep(0.0005)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    def reader(r: int) -> None:
        rng = random.Random(100 + r)
        try:
            while not done.is_set():
                ask, matches = rng.choice(QUESTIONS)
                with guard:
                    first = len(history) - 1
                got = ask(catalog)
                with guard:
                    last = len(history) - 1
                    states = history[first : last + 1]
                legal = [_answer(s, matches) for s in states]
                assert got in legal, (
                    f"answer {got} matches no state between commits "
                    f"{first} and {last}"
                )
                answers[0] += 1
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    switch = sys.getswitchinterval()
    # Switch threads often, so that a reader does land inside a commit.
    sys.setswitchinterval(1e-5)
    try:
        with sanitizer.enabled() as san:
            _churn(writer, reader, done, errors)
            assert san.violations == 0
            assert san.timeouts_observed == 0
            assert san.order_graph(), "the churn never touched instrumented locks"
    finally:
        sys.setswitchinterval(switch)
    assert len(history) == WRITERS * ROUNDS + 1
    assert answers[0] > 10 * READERS, "the readers barely ran"
    catalog.db.close()


def _churn(writer, reader, done: threading.Event, errors: list) -> None:
    """Run the writers to the end, then stop the readers; surface failures."""
    writers = [threading.Thread(target=writer, args=(w,)) for w in range(WRITERS)]
    readers = [threading.Thread(target=reader, args=(r,)) for r in range(READERS)]
    for t in writers + readers:
        t.start()
    for t in writers:
        t.join(timeout=120)
    done.set()
    for t in readers:
        t.join(timeout=120)
    for t in writers + readers:
        assert not t.is_alive(), "thread wedged (possible deadlock)"
    assert not errors, f"failures under churn: {errors!r}"
