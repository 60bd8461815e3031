"""The shared world database: one keyed store per (app, collection).

Records are plain JSON-serializable dicts, so dumps and digests are
byte-exact. Records change only through a store's four writes: `add`,
`remove`, `update(rid, **fields)` and `append(rid, field, item)`. A read
(`get`, `all`, `find`) returns the stored dicts themselves; callers read
them and never change them in place.

Records are listed in record order: by the key `(len(id), id)`. Ids of one
length list in string order, and ids from `Store.next_id` in numeric order,
so `E1000` follows `E999`. `Store.records` itself is kept in that order, so
`all`, `find` and `search` read it without sorting. An add, or a rollback
that puts a removed record back, whose id sorts before the last one marks
the store unsorted; the next read sorts it once.

`Store.search(fields, query)` matches a query against each record's folded
text: the record's `fields`, each read through `fold` (lower case, a
missing field as ""), joined by `SEP`. A store keeps that text per field
tuple and record, and fills it when a search first reads the record, so a
search lowercases only the records written since the last one. Every write
drops the text of the record it touches: `_put` (an add, and a rolled-back
remove), `remove`, `update`, `append` and each record `rollback` touches.
A query holding `SEP` could match across two fields' text, so it is matched
field by field instead.

A write that fails is rolled back through a per-call undo journal.
`WorldDatabase.copy_app` opens a journal on each store of the app: an empty
list. While it is open, each write appends its own inverse and nothing
else: the added id; the removed record object; the old values of the fields
an update sets, with `ABSENT` for a field the record lacked; the length of
the list before an append. Reads save nothing, and nothing is copied.
`restore_app` replays the journal newest first and puts the id counters
back, and `close_app` drops the journal; outside an open journal a write
pays one `is None` test.
"""

from __future__ import annotations

import copy
import hashlib
import json

from .errors import SeedDataInvalid


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def record_order(record_id: str) -> tuple[int, str]:
    return len(record_id), record_id


SEP = "\x1f"   # joins a record's folded fields in its search text


def fold(value) -> str:
    """A field's search text: the value as a lower-case string."""
    return (value if type(value) is str else str(value)).lower()


_PLAIN = frozenset((str, int, float, bool, type(None)))


def plain_copy(value):
    """A copy of JSON-like data: dicts and lists are copied recursively,
    strings, numbers, booleans and None are returned as they are, and
    anything else (a YAML date, say, or a dict subclass) goes to
    `copy.deepcopy`.

    Unlike `copy.deepcopy` it keeps no memo, so a dict or list that occurs
    twice inside `value` (a YAML alias) comes out as two equal, separate
    copies. A checkpoint written as JSON drops that aliasing too."""
    cls = type(value)
    if cls is dict:
        return {k: plain_copy(v) for k, v in value.items()}
    if cls is list:
        return [plain_copy(v) for v in value]
    if cls in _PLAIN:
        return value
    return copy.deepcopy(value)


# Journal entries, one per write: (ADD, rid), (REMOVE, rid, record),
# (UPDATE, rid, {field: old value or ABSENT}), (APPEND, rid, field, length).
ADD, REMOVE, UPDATE, APPEND = "add", "remove", "update", "append"
ABSENT = object()          # marks an updated field that the record lacked


class Store:
    """A keyed record collection with deterministic id assignment."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.records: dict[str, dict] = {}   # in record order while `ordered`
        self.ordered = True
        self.counter = 0
        self.undo: list[tuple] | None = None  # the open journal, newest last
        # fields -> {id: folded text}; see `search`.
        self._folded: dict[tuple[str, ...], dict[str, str]] = {}

    def next_id(self) -> str:
        self.counter += 1
        return f"{self.prefix}{self.counter:03d}"

    def _drop_text(self, rid: str) -> None:
        for texts in self._folded.values():
            texts.pop(rid, None)

    def _put(self, rid: str, record: dict) -> None:
        self._drop_text(rid)
        if self.ordered and self.records and (
                record_order(rid) < record_order(next(reversed(self.records)))):
            self.ordered = False
        self.records[rid] = record

    def add(self, record: dict) -> str:
        rid = record.get("id") or self.next_id()
        if rid in self.records:
            raise SeedDataInvalid(f"duplicate record id {rid!r}")
        record = dict(record)
        record["id"] = rid
        self._put(rid, record)
        if self.undo is not None:
            self.undo.append((ADD, rid))
        return rid

    def remove(self, record_id: str) -> dict | None:
        record = self.records.pop(record_id, None)
        self._drop_text(record_id)
        if record is not None and self.undo is not None:
            self.undo.append((REMOVE, record_id, record))
        return record

    def update(self, record_id: str, **fields) -> dict:
        """Set `fields` on the record and return it."""
        record = self.records[record_id]
        self._drop_text(record_id)
        if self.undo is not None:
            self.undo.append((UPDATE, record_id,
                              {name: record.get(name, ABSENT) for name in fields}))
        record.update(fields)
        return record

    def append(self, record_id: str, field: str, item) -> None:
        """Append `item` to the record's list `field`."""
        items = self.records[record_id][field]
        self._drop_text(record_id)
        if self.undo is not None:
            self.undo.append((APPEND, record_id, field, len(items)))
        items.append(item)

    def get(self, record_id: str) -> dict | None:
        return self.records.get(record_id)

    def _in_order(self) -> dict[str, dict]:
        """`records`, sorted first if a write left it out of record order."""
        if not self.ordered:
            self.records = {k: self.records[k] for k in sorted(self.records, key=record_order)}
            self.ordered = True
        return self.records

    def all(self) -> list[dict]:
        """Every record, in record order."""
        return list(self._in_order().values())

    def find(self, **fields) -> list[dict]:
        """The records whose `fields` equal the given values, in record order.
        One filter per field, the first over `records` itself: a per-record
        `all(<genexpr>)` costs ten times as much."""
        out = self._in_order().values()
        for name, value in fields.items():
            out = [rec for rec in out if rec.get(name) == value]
        return out if fields else list(out)

    def search(self, fields: tuple[str, ...], query: str) -> list[dict]:
        """The records, in record order, where any of `fields` contains
        `query`, ignoring case; a missing field reads as ""."""
        query = query.lower()
        records = self._in_order()
        if SEP in query:
            return [rec for rec in records.values()
                    if any(query in fold(rec.get(name, "")) for name in fields)]
        texts = self._folded.setdefault(fields, {})
        hits = []
        for rid, rec in records.items():
            text = texts.get(rid)
            if text is None:
                text = texts[rid] = SEP.join([fold(rec.get(name, "")) for name in fields])
            if query in text:
                hits.append(rec)
        return hits

    def removed(self) -> set[str]:
        """The ids the open journal saw removed."""
        return {entry[1] for entry in self.undo if entry[0] == REMOVE}

    def rollback(self) -> None:
        """Undo the open journal's writes, newest first, and start a new
        journal."""
        for kind, rid, *inverse in reversed(self.undo):
            self._drop_text(rid)
            if kind == ADD:
                del self.records[rid]
            elif kind == REMOVE:
                self._put(rid, inverse[0])
            elif kind == UPDATE:
                record = self.records[rid]
                for name, value in inverse[0].items():
                    if value is ABSENT:
                        del record[name]
                    else:
                        record[name] = value
            else:
                field, length = inverse
                del self.records[rid][field][length:]
        self.undo = []

    def __len__(self) -> int:
        return len(self.records)

    def to_dict(self) -> dict:
        return {"prefix": self.prefix, "counter": self.counter, "records": self.records}


class WorldDatabase:
    def __init__(self):
        self._stores: dict[str, dict[str, Store]] = {}

    def create_store(self, app_id: str, name: str, prefix: str) -> Store:
        app = self._stores.setdefault(app_id, {})
        if name not in app:
            app[name] = Store(prefix)
        return app[name]

    def store(self, app_id: str, name: str) -> Store:
        return self._stores[app_id][name]

    def app_stores(self, app_id: str) -> dict[str, Store]:
        return self._stores.get(app_id, {})

    def dump(self) -> dict:
        return {
            app: {name: store.to_dict() for name, store in stores.items()}
            for app, stores in self._stores.items()
        }

    def digest(self) -> str:
        return digest(self.dump())

    def copy_app(self, app_id: str) -> dict[str, int]:
        """Open an undo journal on each store of the app; return the stores'
        id counters for `restore_app`."""
        stores = self.app_stores(app_id)
        for store in stores.values():
            store.undo = []
        return {name: store.counter for name, store in stores.items()}

    def restore_app(self, app_id: str, saved: dict[str, int]) -> None:
        """Undo every journaled write since `copy_app` returned `saved`."""
        for name, store in self.app_stores(app_id).items():
            store.rollback()
            store.counter = saved[name]

    def close_app(self, app_id: str) -> None:
        """Close the app's journals, keeping whatever was written."""
        for store in self.app_stores(app_id).values():
            store.undo = None
