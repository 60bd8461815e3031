"""The shared world database: one keyed store per (app, collection).

Records are plain JSON-serializable dicts so snapshots, digests, and replay
comparisons are byte-exact. All mutation flows through tool handlers; nothing
else writes here.

Records are listed in record order: by the key `(len(id), id)`. Ids of one
length list in string order, and ids from `Store.next_id` in numeric order,
so `E1000` follows `E999`. `Store.records` itself is kept in that order, so
`all` and `find` read it without sorting. An add whose id sorts before the
last one, a rollback that puts a removed record back, and a load from a
snapshot mark the store unsorted; the next `all` or `find` sorts it once.

A write that fails is rolled back through a per-call undo journal, not a
copy of the app's stores. `WorldDatabase.copy_app` opens a journal on each
store of the app. While it is open, `get`, `remove`, `add`, `find` and `all`
save the prior value of every record id they touch or return, once per id: a
deep copy of the record, or `None` if it did not exist. Handlers may then
mutate the dicts those methods return in place. `restore_app` puts the saved
records and id counters back, and `close_app` drops the journal; outside an
open journal each method pays one `is None` test. `to_dict`/`from_dict` and
`dump`/`load` serve snapshots.
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


class Store:
    """A keyed record collection with deterministic id assignment."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.records: dict[str, dict] = {}   # in record order while `ordered`
        self.ordered = True
        self.counter = 0
        # record id -> prior value (a deep copy, or None if it did not exist),
        # kept while a write is open; None otherwise.
        self.undo: dict[str, dict | None] | None = None

    def next_id(self) -> str:
        self.counter += 1
        return f"{self.prefix}{self.counter:03d}"

    def add(self, record: dict, record_id: str | None = None) -> str:
        rid = record_id or record.get("id") or self.next_id()
        if rid in self.records:
            raise SeedDataInvalid(f"duplicate record id {rid!r}")
        if self.undo is not None:
            self._save(rid)
        if self.ordered and self.records and (
                record_order(rid) < record_order(next(reversed(self.records)))):
            self.ordered = False
        record = dict(record)
        record["id"] = rid
        self.records[rid] = record
        return rid

    def get(self, record_id: str) -> dict | None:
        if self.undo is not None:
            self._save(record_id)
        return self.records.get(record_id)

    def remove(self, record_id: str) -> dict | None:
        if self.undo is not None:
            self._save(record_id)
        return self.records.pop(record_id, None)

    def _listing(self) -> list[dict]:
        """Every record, in record order."""
        if not self.ordered:
            self.records = {k: self.records[k] for k in sorted(self.records, key=record_order)}
            self.ordered = True
        return list(self.records.values())

    def all(self) -> list[dict]:
        out = self._listing()
        if self.undo is not None:
            for rec in out:
                self._save(rec["id"])
        return out

    def find(self, **fields) -> list[dict]:
        out = self._listing()
        for name, value in fields.items():
            out = [rec for rec in out if rec.get(name) == value]
        if self.undo is not None:
            for rec in out:
                self._save(rec["id"])
        return out

    def _save(self, record_id: str) -> None:
        if record_id not in self.undo:
            rec = self.records.get(record_id)
            self.undo[record_id] = None if rec is None else copy.deepcopy(rec)

    def rollback(self) -> None:
        """Put back every record the open journal saved; records added since
        it opened are dropped."""
        for rid, prior in self.undo.items():
            if prior is None:
                self.records.pop(rid, None)
            else:
                if rid not in self.records:       # re-inserted at the end
                    self.ordered = False
                self.records[rid] = prior
        self.undo = {}

    def __len__(self) -> int:
        return len(self.records)

    def to_dict(self) -> dict:
        return {"prefix": self.prefix, "counter": self.counter, "records": self.records}

    @classmethod
    def from_dict(cls, data: dict) -> "Store":
        store = cls(data["prefix"])
        store.counter = data["counter"]
        store.records = {k: dict(v) for k, v in data["records"].items()}
        store.ordered = False                     # snapshots sort their keys as strings
        return store


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

    def load(self, data: dict) -> None:
        self._stores = {
            app: {name: Store.from_dict(sd) for name, sd in stores.items()}
            for app, stores in data.items()
        }

    def digest(self) -> str:
        return digest(self.dump())

    def copy_app(self, app_id: str) -> dict[str, int]:
        """Open an undo journal on each store of the app; return the stores'
        id counters for `restore_app`."""
        stores = self.app_stores(app_id)
        for store in stores.values():
            store.undo = {}
        return {name: store.counter for name, store in stores.items()}

    def restore_app(self, app_id: str, saved: dict[str, int]) -> None:
        """Undo every journaled change since `copy_app` returned `saved`."""
        for name, store in self.app_stores(app_id).items():
            store.rollback()
            store.counter = saved[name]

    def close_app(self, app_id: str) -> None:
        """Close the app's journals, keeping whatever was written."""
        for store in self.app_stores(app_id).values():
            store.undo = None
