"""Row-keyed invalidation: a commit drops only the entries its rows can change.

Table generations (:mod:`repro.cache.generations`) invalidate every entry
that reads a table whenever anything in it commits.  For the catalog's
two hottest caches that is far too coarse: a discover-then-register
stream writes ``attribute_value`` and ``logical_file`` on every
registration, and each write used to empty the query cache although the
new file matched no cached query.  So commits to the *keyed tables*
(``attribute_value`` and the three object tables) also publish the row
images they changed, and entries whose validity those rows decide carry
a :class:`KeyedDependency` instead of depending on the tables' plain
generations:

* a **query leaf with user-attribute conditions** depends on each
  condition: ``=`` is indexed by ``(attr_id, value)``, every other
  operator by ``attr_id`` and tested against the changed values;
* a **name resolution** depends on ``(object table, name)``, which covers
  the ``(name, version)`` and version-less keys alike.

A changed attribute row can change a conjunctive leaf only if the leaf
has a condition on its attribute that the row's old or new value
satisfies (a missing row, or NULL, satisfies nothing): if neither image
satisfies it, the object fails the leaf before and after.  Object-row
changes are events only for names.  For attribute-conditioned leaves an
object INSERT with an auto-assigned id is harmless (the object has no
attribute rows yet; any it gets in the same commit publish themselves),
and an object DELETE is covered by the attribute rows the same commit
deletes.  What rows cannot explain bumps the object table's
:func:`leaves_counter` instead — an UPDATE (valid flag, move, rename,
any predefined field), an INSERT with an explicit id, a DELETE that
leaves attribute rows behind — and a change whose images were never
published (replication apply, DDL, recovery) bumps
:func:`rows_counter`, which keyed entries stamp in place of the plain
generation.

Strictness follows the generation argument: the engine publishes while
the commit still holds its write locks.  A miss takes :attr:`seq` before
it reads; storing registers the dependency only after replaying every
event published since, under the registry guard, so a commit that
landed during the read is never lost — it either shows in the replay
(the store is dropped) or finds the dependency registered (the entry is
invalidated).
"""

from __future__ import annotations

import functools
import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.storage import Catalog

ATTRIBUTE_TABLE = "attribute_value"
#: Object table -> the ``object_type`` its attribute rows carry.
OBJECT_TYPES = {
    "logical_file": "file",
    "logical_collection": "collection",
    "logical_view": "view",
}
#: Tables whose commits publish row images.
KEYED_TABLES = frozenset((ATTRIBUTE_TABLE, *OBJECT_TYPES))

#: One commit's row images, per keyed table: the table's column names and
#: ``(old image or None, new image or None, inserted with an explicit
#: auto-column value)`` per changed row.
RowImages = dict[str, tuple[tuple[str, ...], list[tuple[Any, Any, bool]]]]

#: An event is ``("n", table, name)`` (an object row named *name* changed)
#: or ``("v", attr_id, value)`` (an attribute row of *attr_id* held, or
#: now holds, *value*; NULL matches no key and no test).
Event = tuple

#: A publish with more events than this is logged as "everything
#: changed": a store racing it is dropped rather than replayed.
_MAX_LOGGED_EVENTS = 256
#: Publishes the log keeps for replay.  A read that spans more of them
#: is not stored (a spurious miss, never a stale hit).
_LOG_SIZE = 64


def rows_counter(table: str) -> str:
    """Counter of *table*'s changes that published no row images."""
    return table + "@rows"


def leaves_counter(table: str) -> str:
    """Counter of object-table changes no attribute row accounts for."""
    return table + "@leaves"


@functools.lru_cache(maxsize=64)
def leaf_counters(tables: tuple[str, ...], object_table: str) -> tuple[str, ...]:
    """What an attribute-conditioned leaf over *tables* stamps.

    ``attribute_value`` and the leaf's object table are replaced by the
    counters of what their row images cannot explain; every other table
    (``attribute_def``, a collection filter's ``logical_collection``)
    stays table-level.
    """
    counters = set()
    for table in tables:
        if table == ATTRIBUTE_TABLE:
            counters.add(rows_counter(table))
        elif table == object_table:
            counters.add(rows_counter(table))
            counters.add(leaves_counter(table))
        else:
            counters.add(table)
    return tuple(sorted(counters))


class KeyedDependency:
    """The rows one cached entry's validity hangs on.

    ``names`` are ``(object table, name)`` pairs; ``equalities`` are
    ``(attr_id, value)`` pairs of ``=`` conditions, matched by equality
    (a float value equals an int literal); ``tests`` are ``(attr_id,
    predicate)`` pairs for every other condition.  A predicate that
    raises counts as satisfied.  ``valid`` turns False, once, when a
    published row change matches.  Names and equalities are kept only as
    the index keys an event carries.
    """

    __slots__ = ("keys", "tests", "valid")

    def __init__(
        self,
        names: Iterable[tuple[str, str]] = (),
        equalities: Iterable[tuple[int, Any]] = (),
        tests: Iterable[tuple[int, Callable[[Any], bool]]] = (),
    ) -> None:
        self.tests = tuple(tests)
        keys = [("n", table, name) for table, name in names]
        keys += [("=", attr_id, value) for attr_id, value in equalities]
        keys += [("a", attr_id) for attr_id, _test in self.tests]
        self.keys = tuple(dict.fromkeys(keys))
        self.valid = True

    def affected_by(self, event: Event) -> bool:
        if event[0] == "n":
            return event in self.keys
        _kind, attr_id, value = event
        if value is None:
            return False
        return ("=", attr_id, value) in self.keys or self.tested_by(attr_id, value)

    def tested_by(self, attr_id: int, value: Any) -> bool:
        """True when non-NULL *value* satisfies one of the tests on *attr_id*."""
        for test_attr, test in self.tests:
            if test_attr == attr_id:
                try:
                    if test(value):
                        return True
                except Exception:  # noqa: BLE001 - unevaluable: invalidate
                    return True
        return False


class KeyedRegistry:
    """Registered dependencies, indexed by the keys row events carry.

    Shared by every cache of one database (it lives on the database's
    :class:`~repro.cache.generations.GenerationMap`).  The index holds
    only the dependencies of live entries: an invalidated dependency
    leaves it at once, and a cache unregisters the dependency of every
    entry it evicts, replaces or clears, so the index is bounded by the
    caches' capacities.
    """

    def __init__(self) -> None:
        self._guard = threading.Lock()
        self._seq = 0
        self._log: deque[tuple[int, Optional[list[Event]]]] = deque(maxlen=_LOG_SIZE)
        # Index key -> its dependency, or a set of them when several
        # share the key (most keys have one: a bare entry saves a set).
        self._index: dict[tuple, Any] = {}

    @property
    def seq(self) -> int:
        """Publish sequence number; a miss takes it before it reads."""
        with self._guard:
            return self._seq

    def __len__(self) -> int:
        """Registered dependencies, each counted once."""
        with self._guard:
            return len({dep for slot in self._index.values() for dep in _deps(slot)})

    def publish(self, events: list[Event]) -> None:
        """Invalidate every registered dependency *events* can change.

        Called by the engine while the commit holds its write locks.
        """
        if not events:
            return
        with self._guard:
            self._seq += 1
            logged = events if len(events) <= _MAX_LOGGED_EVENTS else None
            self._log.append((self._seq, logged))
            index = self._index
            if not index:
                return
            hit: list[KeyedDependency] = []
            for event in events:
                if event[0] == "n":
                    hit.extend(_deps(index.get(event)))
                    continue
                _kind, attr_id, value = event
                if value is None:
                    continue
                hit.extend(_deps(index.get(("=", attr_id, value))))
                slot = index.get(("a", attr_id))
                if slot is not None:
                    hit.extend(
                        dep for dep in _deps(slot) if dep.tested_by(attr_id, value)
                    )
            for dep in dict.fromkeys(hit):
                dep.valid = False
                self._remove(dep)

    def register(self, dep: KeyedDependency, since: int) -> bool:
        """Index *dep*, read under sequence number *since*.

        False (and nothing indexed) when a publish after *since* changes
        it, or is no longer in the log to be checked: the value read may
        predate that commit, so it must not be stored.
        """
        with self._guard:
            if since < self._seq:
                log = self._log
                if not log or log[0][0] > since + 1:
                    return False
                for seq, events in log:
                    if seq <= since:
                        continue
                    if events is None or any(dep.affected_by(e) for e in events):
                        return False
            index = self._index
            for key in dep.keys:
                slot = index.get(key)
                if slot is None:
                    index[key] = dep
                elif type(slot) is set:
                    slot.add(dep)
                elif slot is not dep:
                    index[key] = {slot, dep}
            return True

    def unregister(self, dep: KeyedDependency) -> None:
        with self._guard:
            self._remove(dep)

    def _remove(self, dep: KeyedDependency) -> None:
        index = self._index
        for key in dep.keys:
            slot = index.get(key)
            if slot is dep:
                del index[key]
            elif type(slot) is set:
                slot.discard(dep)
                if len(slot) == 1:
                    index[key] = slot.pop()


def _deps(slot: Any) -> Iterable[KeyedDependency]:
    """The dependencies of one index slot (see ``KeyedRegistry._index``)."""
    if slot is None:
        return ()
    return slot if type(slot) is set else (slot,)


def row_events(
    images: RowImages, catalog: "Catalog"
) -> tuple[list[Event], set[str], set[str]]:
    """Read one commit's row images.

    Returns ``(events, leaf tables, unread tables)``: the events to
    publish, the object tables whose attribute-conditioned leaves must go
    table-level, and the tables whose images this function could not
    interpret (treated as if they had published none).  Runs under the
    commit's write locks; the only rows it reads besides the images are
    ``attribute_value``'s, and only when the commit wrote that table.
    """
    events: list[Event] = []
    leaves: set[str] = set()
    unread: set[str] = set()
    emptied: set[tuple[Any, Any]] = set()
    attributes = images.get(ATTRIBUTE_TABLE)
    if attributes is not None:
        columns, rows = attributes
        layout = _attribute_layout(columns)
        if layout is None:
            unread.add(ATTRIBUTE_TABLE)
        else:
            attr_pos, type_pos, id_pos, value_pos = layout
            for old, new, _explicit in rows:
                for image in (old, new):
                    if image is not None:
                        events.append(("v", image[attr_pos], image[value_pos]))
                if old is not None and new is None:
                    emptied.add((old[type_pos], old[id_pos]))
    for table, object_type in OBJECT_TYPES.items():
        change = images.get(table)
        if change is None:
            continue
        columns, rows = change
        try:
            id_pos = columns.index("id")
            name_pos = columns.index("name")
        except ValueError:
            unread.add(table)
            continue
        for old, new, explicit in rows:
            for image in (old, new):
                if image is not None:
                    events.append(("n", table, image[name_pos]))
            if old is not None and new is not None:
                leaves.add(table)
            elif new is not None:
                if explicit:
                    leaves.add(table)
            elif (object_type, old[id_pos]) not in emptied or _has_attribute_rows(
                catalog, object_type, old[id_pos]
            ):
                leaves.add(table)
    if ATTRIBUTE_TABLE in unread:
        # Deletes cannot be matched to attribute rows read from nowhere.
        leaves.update(t for t in OBJECT_TYPES if t in images)
    return events, leaves, unread


@functools.lru_cache(maxsize=8)
def _attribute_layout(columns: tuple[str, ...]) -> Optional[tuple[int, int, int, int]]:
    """Positions of ``attr_id``, ``object_type``, ``object_id`` and
    ``value`` in an ``attribute_value`` row."""
    try:
        return (
            columns.index("attr_id"),
            columns.index("object_type"),
            columns.index("object_id"),
            columns.index("value"),
        )
    except ValueError:
        return None


def _has_attribute_rows(catalog: "Catalog", object_type: str, object_id: Any) -> bool:
    """True when ``attribute_value`` still holds a row of the object.

    Only called for an object whose attribute rows the commit deleted, so
    the commit holds that table's write lock.
    """
    table = catalog.table(ATTRIBUTE_TABLE)
    name = table.find_index_on(("object_type", "object_id"))
    if name is None:
        return True
    return next(iter(table.indexes[name].prefix((object_type, object_id))), None) is not None
