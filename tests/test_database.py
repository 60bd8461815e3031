import builtins
import copy
import datetime
import json

import pytest
from hypothesis import example, given, settings, strategies as st

import phonesim.database
from phonesim.database import SEP, Store, WorldDatabase, canonical_json, digest, plain_copy
from phonesim.errors import GuardFailed, SeedDataInvalid
from phonesim.fsm import ToolContext, ToolSpec
from phonesim.world import World


def test_store_assigns_prefixed_sequential_ids():
    store = Store("E")
    assert store.add({"x": 1}) == "E001"
    assert store.add({"x": 2}) == "E002"


def test_store_rejects_duplicate_ids():
    store = Store("E")
    store.add({"id": "E001"})
    with pytest.raises(SeedDataInvalid):
        store.add({"id": "E001"})


def test_find_filters_on_equality():
    store = Store("N")
    store.add({"folder": "a", "title": "one"})
    store.add({"folder": "b", "title": "two"})
    assert [r["title"] for r in store.find(folder="a")] == ["one"]


def test_canonical_json_is_key_order_independent():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    assert digest({"b": 1, "a": 2}) == digest({"a": 2, "b": 1})


def test_database_dump_load_digest_roundtrip():
    """`dump` and `digest` are stable: the same writes give the same dump
    and digest, a dump read back from JSON digests the same, and taking
    them changes nothing."""
    def build():
        db = WorldDatabase()
        db.create_store("EmailApp", "emails", "E")
        db.store("EmailApp", "emails").add({"subject": "hi", "labels": ["a"]})
        return db

    db = build()
    before = db.digest()
    assert db.dump() == build().dump()
    assert digest(json.loads(json.dumps(db.dump()))) == before == build().digest()
    assert db.digest() == before


def _containers(value, out):
    """The ids of every dict and list inside `value`, itself included."""
    if isinstance(value, (dict, list)):
        out.add(id(value))
        for item in value.values() if isinstance(value, dict) else value:
            _containers(item, out)
    return out


_JSONISH = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text()
    | st.dates(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(_JSONISH)
def test_plain_copy_equals_a_deep_copy_and_shares_no_container(value):
    copied = plain_copy(value)
    assert copied == copy.deepcopy(value)
    assert not _containers(copied, set()) & _containers(value, set())


def test_plain_copy_copies_other_leaves_and_splits_aliases():
    day = datetime.date(2025, 6, 1)
    pair = (["x"],)
    shared = {"tags": ["a"]}
    copied = plain_copy({"day": day, "pair": pair, "one": shared, "two": shared})
    assert copied["day"] == day and copied["pair"] == pair
    assert copied["pair"][0] is not pair[0]          # a tuple goes to deepcopy
    assert copied["one"] == copied["two"] == shared
    assert copied["one"] is not copied["two"]        # the alias is not kept


def test_copy_restore_app_rolls_back_writes():
    db = WorldDatabase()
    db.create_store("EmailApp", "emails", "E")
    db.store("EmailApp", "emails").add({"subject": "keep", "labels": []})
    saved = db.copy_app("EmailApp")
    db.store("EmailApp", "emails").append("E001", "labels", "edited")
    db.store("EmailApp", "emails").update("E001", subject="edited", folder="x")
    db.store("EmailApp", "emails").add({"subject": "discard"})
    db.restore_app("EmailApp", saved)
    assert [r["subject"] for r in db.store("EmailApp", "emails").all()] == ["keep"]
    assert db.store("EmailApp", "emails").get("E001") == {
        "id": "E001", "subject": "keep", "labels": []}


# -- record order: (len(id), id), kept by the store rather than sorted per read

def record_order(record_id):
    return len(record_id), record_id


def _ids(records):
    return [rec["id"] for rec in records]


def _generated(n, prefix="E"):
    store = Store(prefix)
    for i in range(n):
        store.add({"n": i, "even": i % 2 == 0})
    return store


def test_generated_ids_past_999_list_in_numeric_order():
    store = _generated(1001)
    assert _ids(store.all())[-3:] == ["E999", "E1000", "E1001"]
    assert _ids(store.all())[99:101] == ["E100", "E101"]
    assert _ids(store.find(even=True))[-2:] == ["E999", "E1001"]


def test_explicit_out_of_order_ids_list_in_record_order():
    store = Store("B")
    for rid in ("B002", "B1000", "B001", "B999"):
        store.add({"id": rid})
    assert _ids(store.all()) == ["B001", "B002", "B999", "B1000"]
    store.add({"id": "B0001"})
    assert _ids(store.find()) == ["B001", "B002", "B999", "B0001", "B1000"]


def test_rolled_back_remove_puts_the_record_back_in_its_place():
    db = WorldDatabase()
    db.create_store("EmailApp", "emails", "E")
    store = db.store("EmailApp", "emails")
    for i in range(1001):
        store.add({"n": i})
    before = _ids(store.all())
    saved = db.copy_app("EmailApp")
    store.remove("E1000")
    store.remove(store.get("E500")["id"])
    db.restore_app("EmailApp", saved)
    db.close_app("EmailApp")
    assert _ids(store.all()) == before
    assert _ids(store.all())[-2:] == ["E1000", "E1001"]


# One step of a store's life. ("add", id) adds a record (id None: from
# next_id); ("remove", k) removes the k-th record; ("update", k, field,
# value) sets a field of the k-th record, `odd`, which every record has, or
# `extra`, which a record lacks until an update sets it; ("append", k, item)
# appends to the k-th record's `tags`; ("rollback", steps) runs the steps
# under a journal and rolls them back.
_ADD = st.tuples(st.just("add"), st.none() | st.from_regex(r"E[0-9]{1,4}", fullmatch=True))
_REMOVE = st.tuples(st.just("remove"), st.integers(0, 2000))
_UPDATE = st.tuples(st.just("update"), st.integers(0, 2000), st.sampled_from(("odd", "extra")),
                    st.integers(0, 1))
_APPEND = st.tuples(st.just("append"), st.integers(0, 2000), st.integers())
_WRITE = st.one_of(_ADD, _REMOVE, _UPDATE, _APPEND)
_STEPS = st.lists(st.one_of(
    _WRITE, st.tuples(st.just("rollback"), st.lists(_WRITE, max_size=6)),
), max_size=40)


def _step(db, step):
    store = db.store("EmailApp", "emails")
    if step[0] == "add":
        rid = step[1] or f"E{store.counter + 1:03d}"
        if rid not in store.records:
            store.add({"odd": len(store) % 2, "tags": [], "id": step[1]})
        elif step[1] is None:
            store.counter += 1                      # next_id would give a taken id
    elif step[0] == "rollback":
        before = canonical_json(db.dump())
        saved = db.copy_app("EmailApp")
        for inner in step[1]:
            _step(db, inner)
        db.restore_app("EmailApp", saved)
        db.close_app("EmailApp")
        assert canonical_json(db.dump()) == before
    elif len(store):
        rid = list(store.records)[step[1] % len(store)]
        if step[0] == "remove":
            store.remove(rid)
        elif step[0] == "update":
            store.update(rid, **{step[2]: step[3]})
        else:
            store.append(rid, "tags", step[2])


@settings(max_examples=150, deadline=None)
@given(_STEPS)
@example([("add", None), ("rollback", [("update", 0, "extra", 1), ("append", 0, 5)])])
def test_reads_list_records_in_record_order(steps):
    db = WorldDatabase()
    db.create_store("EmailApp", "emails", "E")
    for step in steps:
        _step(db, step)
        store = db.store("EmailApp", "emails")
        expected = sorted(store.records, key=record_order)
        assert _ids(store.all()) == expected
        assert _ids(store.find(odd=1)) == [
            rid for rid in expected if store.records[rid]["odd"] == 1]


def test_reads_sort_only_after_an_out_of_order_add_a_rollback_or_a_load(monkeypatch):
    """Reads sort only after an add, or a rolled-back remove, puts an id
    before the last one."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return builtins.sorted(*args, **kwargs)

    monkeypatch.setattr(phonesim.database, "sorted", counting, raising=False)

    def sorts_per_read():
        calls.clear()
        store.all(), store.find(even=True), store.all()
        return len(calls)

    db = WorldDatabase()
    db.create_store("EmailApp", "emails", "E")
    store = db.store("EmailApp", "emails")
    for i in range(1001):
        store.add({"even": i % 2 == 0})
    store.remove("E500")
    store.add({"id": "E5000"})
    assert sorts_per_read() == 0

    store.add({"id": "E0500"})                       # sorts before E5000
    assert sorts_per_read() == 1

    saved = db.copy_app("EmailApp")
    store.update("E002", even=None)                  # no re-insert
    store.remove("E5000")                            # put back at the end
    db.restore_app("EmailApp", saved)
    db.close_app("EmailApp")
    assert sorts_per_read() == 0

    saved = db.copy_app("EmailApp")
    store.remove("E003")
    db.restore_app("EmailApp", saved)
    db.close_app("EmailApp")
    assert sorts_per_read() == 1


# -- search: folded text kept per record, dropped by every write

# Text from a small alphabet, so queries often hit, now and then a number or
# a missing field; SEP joins a record's folded fields inside the store.
_VALUE = st.one_of(st.text(alphabet=f"aAb {SEP}", max_size=4), st.integers(-2, 12), st.none())
_QUERY = st.text(alphabet=f"aAb1 {SEP}", max_size=3)
SEARCHED = ("subject", "body", "tags")
_SEARCH_WRITE = st.one_of(
    st.tuples(st.just("add"), st.none() | st.from_regex(r"E[0-9]{1,4}", fullmatch=True),
              _VALUE, _VALUE),
    st.tuples(st.just("remove"), st.integers(0, 50)),
    st.tuples(st.just("update"), st.integers(0, 50), st.sampled_from(SEARCHED[:2]), _VALUE),
    st.tuples(st.just("append"), st.integers(0, 50), _VALUE),
)


def _search_write(store, step):
    """One write; a None value leaves the field out of an added record."""
    if step[0] == "add":
        rid = step[1] or f"E{store.counter + 1:03d}"
        if rid not in store.records:
            record = {"id": step[1], "tags": []}
            record.update({name: value for name, value in zip(SEARCHED, step[2:])
                           if value is not None})
            store.add(record)
    elif len(store):
        rid = list(store.records)[step[1] % len(store)]
        if step[0] == "remove":
            store.remove(rid)
        elif step[0] == "update":
            store.update(rid, **{step[2]: step[3]})
        else:
            store.append(rid, "tags", step[2])


def _naive_search(store, fields, query):
    query = query.lower()
    return [rec for rec in sorted(store.records.values(), key=lambda r: record_order(r["id"]))
            if any(query in str(rec.get(name, "")).lower() for name in fields)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_SEARCH_WRITE,
                          st.tuples(st.just("rollback"), st.lists(_SEARCH_WRITE, max_size=4))),
                max_size=30),
       st.lists(_QUERY, min_size=1, max_size=4))
@example([("add", None, "a", "b"), ("add", "E0001", 3, None)], [f"a{SEP}b", "3", ""])
@example([("add", None, "", ""), ("append", 0, "A")], ["A"])
@example([("add", None, "ab", None), ("rollback", [("update", 0, "subject", "b"),
                                                   ("append", 0, "a"), ("add", None, "b", "")]),
          ("remove", 0)],
         ["ab", "'a'", "b"])
def test_search_matches_a_naive_scan_after_any_writes(steps, queries):
    """After adds (out of order ones too, which force a re-sort), updates,
    appends, removes and writes that `World._guarded` rolls back, `search`
    returns what a scan that folds every field on every call returns, for
    queries holding SEP as well; and a store keeps search text only for
    records it holds."""
    world = World("2025-06-01 09")
    store = world.db.create_store("EmailApp", "emails", "E")
    ctx = ToolContext(db=world.db, app_id="EmailApp", clock=world.clock, session={}, args={})

    def check():
        for query in queries:
            for fields in (SEARCHED, SEARCHED[:1]):
                assert _ids(store.search(fields, query)) == _ids(
                    _naive_search(store, fields, query))
        assert all(texts.keys() <= store.records.keys() for texts in store._folded.values())

    def rejected(inner):
        """A handler that searches after each write, then fails."""
        def handler(ctx):
            for step in inner:
                _search_write(store, step)
                check()
            raise GuardFailed("rolled back")
        return handler

    for step in steps:
        if step[0] == "rollback":
            with pytest.raises(GuardFailed):
                world._guarded(ToolSpec("write"), rejected(step[1]), ctx)
        else:
            _search_write(store, step)
        check()


def test_search_reads_missing_and_non_string_fields_as_text():
    store = Store("E")
    store.add({"subject": 2024})                       # no body
    store.add({"subject": "Year 2024", "body": "a"})
    store.add({"subject": f"x{SEP}y", "body": "b"})
    fields = ("subject", "body")
    assert _ids(store.search(fields, "2024")) == ["E001", "E002"]
    assert _ids(store.search(fields, "YEAR")) == ["E002"]
    # A query holding SEP matches within one field, never across two.
    assert _ids(store.search(fields, f"2024{SEP}a")) == []
    assert _ids(store.search(fields, f"X{SEP}Y")) == ["E003"]
