import pytest

from phonesim.database import Store, WorldDatabase, canonical_json, digest
from phonesim.errors import SeedDataInvalid


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
    db = WorldDatabase()
    db.create_store("EmailApp", "emails", "E")
    db.store("EmailApp", "emails").add({"subject": "hi"})
    before = db.digest()
    db2 = WorldDatabase()
    db2.load(db.dump())
    assert db2.digest() == before


def test_copy_restore_app_rolls_back_writes():
    db = WorldDatabase()
    db.create_store("EmailApp", "emails", "E")
    db.store("EmailApp", "emails").add({"subject": "keep", "labels": []})
    saved = db.copy_app("EmailApp")
    db.store("EmailApp", "emails").get("E001")["labels"].append("edited")
    db.store("EmailApp", "emails").add({"subject": "discard"})
    db.restore_app("EmailApp", saved)
    assert [r["subject"] for r in db.store("EmailApp", "emails").all()] == ["keep"]
    assert db.store("EmailApp", "emails").get("E001")["labels"] == []
