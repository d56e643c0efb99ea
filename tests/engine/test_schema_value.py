"""A store's schema is a value: frozen on adoption, replaced only by
``change_schema``, and never polled.

* every mutator of an adopted schema raises :class:`SchemaError`, on the
  plain store, the shard router and the oracle alike;
* ``copy()`` is the next, unfrozen value, sharing the immutable attribute
  and constraint objects;
* writes build no index and no constraint-dependency index; one
  ``change_schema`` rebuilds each core's indexes once and builds one
  dependency index for the new value (shared by every core holding it);
* a snapshot reads under the schema it was taken under;
* a schema the stored objects do not fit is refused before anything is
  logged, and checking for that costs a rebind nothing.
"""

import pytest

from repro.engine import ObjectStore, ShardedStore
from repro.engine.incremental import ConstraintDependencyIndex
from repro.engine.indexes import IndexManager
from repro.engine.oracle import Oracle
from repro.errors import ConstraintViolation, EngineError, SchemaError, ShardingError
from repro.tm import parse_database
from repro.tm.schema import ClassDef
from repro.types import STRING, ClassRef, EnumType

SOURCE = """
Database Counting

constants
  CAP = 1000

Class Item
attributes
  name  : string
  price : real
  owner : string
object constraints
  oc1: price <= CAP
class constraints
  cc1: key name
end Item

Class Tag
attributes
  label : string
object constraints
  oc2: label != 'bad'
end Tag
"""


def _schema():
    return parse_database(SOURCE)


def _flavors():
    return {
        "plain": lambda schema: ObjectStore(schema, wal=False),
        "sharded": lambda schema: ShardedStore(schema, 2),
        "oracle": Oracle,
    }


@pytest.mark.parametrize("flavor", ["plain", "sharded", "oracle"])
def test_every_mutator_of_an_adopted_schema_raises(flavor):
    schema = _schema()
    store = _flavors()[flavor](schema)
    assert store.schema is schema and schema.frozen
    item = schema.class_named("Item")
    constraint = next(iter(schema.all_constraints()))
    mutators = [
        lambda: schema.add_class(ClassDef("Extra")),
        lambda: schema.new_class("Extra"),
        lambda: schema.remove_class("Tag"),
        lambda: schema.add_database_constraint(constraint),
        lambda: schema.set_constant("CAP", 1),
        lambda: item.add_attribute("extra", STRING),
        lambda: item.set_attribute("price", STRING),
        lambda: item.remove_attribute("owner"),
        lambda: item.add_constraint(constraint),
    ]
    for mutate in mutators:
        with pytest.raises(SchemaError, match="frozen"):
            mutate()
    assert set(schema.classes) == {"Item", "Tag"}
    assert set(item.attributes) == {"name", "price", "owner"}
    assert schema.constants == {"CAP": 1000}


def test_copy_is_the_next_unfrozen_value():
    schema = _schema().freeze()
    following = schema.copy()
    assert not following.frozen
    following.set_constant("CAP", 5)
    following.class_named("Item").add_attribute("note", STRING)
    following.remove_class("Tag")
    assert schema.constants["CAP"] == 1000
    assert "note" not in schema.effective_attributes("Item")
    assert schema.has_class("Tag")
    # The immutable parts are shared, not rebuilt.
    assert following.class_named("Item").attributes["name"] is (
        schema.class_named("Item").attributes["name"]
    )
    assert following.class_named("Item").constraints[0] is (
        schema.class_named("Item").constraints[0]
    )


def test_mutators_drop_memoised_lookups():
    schema = _schema()
    index = ConstraintDependencyIndex.for_schema(schema)
    assert ConstraintDependencyIndex.for_schema(schema) is index
    assert schema.attribute_type("Item", "owner") == STRING
    schema.class_named("Item").set_attribute("owner", ClassRef("Tag"))
    assert schema.attribute_type("Item", "owner") == ClassRef("Tag")
    assert ConstraintDependencyIndex.for_schema(schema) is not index


def _counting(monkeypatch):
    counts = {"rebuild": 0, "dependency_index": 0}
    rebuild = IndexManager.rebuild
    build = ConstraintDependencyIndex.__init__

    def counted_rebuild(self):
        counts["rebuild"] += 1
        return rebuild(self)

    def counted_build(self, schema):
        counts["dependency_index"] += 1
        return build(self, schema)

    monkeypatch.setattr(IndexManager, "rebuild", counted_rebuild)
    monkeypatch.setattr(ConstraintDependencyIndex, "__init__", counted_build)
    return counts


def _writes(store, count):
    """``count`` accepted writes mixing inserts, updates and deletes over
    both classes (which a 2-shard store places on different shards)."""
    items = []
    for step in range(count):
        kind = step % 4
        if kind == 0:
            items.append(store.insert("Item", name=f"i{step}", price=1.0, owner="x"))
        elif kind == 1:
            store.update(items[-1], price=float(step % 50))
        elif kind == 2:
            store.insert("Tag", label=f"t{step}")
        else:
            store.delete(items.pop())


@pytest.mark.parametrize("shards", [None, 2])
def test_writes_build_nothing_and_a_schema_change_builds_once(monkeypatch, shards):
    schema = _schema()
    store = ObjectStore(schema, wal=False) if shards is None else ShardedStore(schema, shards)
    cores = [store] if shards is None else store.cores
    counts = _counting(monkeypatch)
    _writes(store, 1_000)
    assert counts == {"rebuild": 0, "dependency_index": 0}

    store.set_constant("CAP", 2_000)
    # One index rebuild per core; one dependency index for the new value,
    # which every core (and the router) shares.
    assert counts == {"rebuild": len(cores), "dependency_index": 1}
    assert all(core.schema is store.schema for core in cores)
    store.insert("Item", name="after", price=1_500.0, owner="x")
    _writes(store, 100)
    assert counts == {"rebuild": len(cores), "dependency_index": 1}


@pytest.mark.parametrize("flavor", ["plain", "sharded", "oracle"])
def test_a_rebind_revalidates_the_standing_state(flavor):
    store = _flavors()[flavor](_schema())
    store.insert("Item", name="a", price=900.0, owner="x")
    store.set_constant("CAP", 500)
    with pytest.raises(ConstraintViolation, match="oc1"):
        store.insert("Tag", label="unrelated")
    store.set_constant("CAP", 1_000)
    store.insert("Tag", label="unrelated")
    assert len(store) == 2


@pytest.mark.parametrize("shards", [None, 2])
def test_snapshot_reads_under_the_schema_it_was_taken_under(shards):
    schema = _schema()
    store = ObjectStore(schema, wal=False) if shards is None else ShardedStore(schema, shards)
    first = store.insert("Item", name="a", price=1.0, owner="-")
    item = store.insert("Item", name="b", price=1.0, owner=first.oid)
    # Every owner names an Item, so both objects fit the retype below.
    store.update(first, owner=item.oid)
    before_rebind = store.snapshot()
    store.set_constant("CAP", 7)
    before_growth = store.snapshot()
    grown = store.schema.copy()
    grown.class_named("Tag").add_attribute("note", STRING)
    grown.class_named("Item").set_attribute("owner", ClassRef("Item"))
    store.change_schema(grown)
    after = store.snapshot()

    def schemas(snapshot):
        members = getattr(snapshot, "_members", [snapshot])
        return {id(member.schema) for member in members}, snapshot.schema

    ids, old = schemas(before_rebind)
    assert ids == {id(schema)} and old.constants["CAP"] == 1000
    ids, rebound = schemas(before_growth)
    assert len(ids) == 1 and rebound.constants["CAP"] == 7
    assert "note" not in rebound.effective_attributes("Tag")
    ids, current = schemas(after)
    assert ids == {id(grown)} and "note" in current.effective_attributes("Tag")
    # Reads follow the pinned schema: owner is a plain string before the
    # retype and dereferences to the Item it names after it.
    for snapshot in (before_rebind, before_growth):
        assert snapshot.get_attr(snapshot.get(item.oid), "owner") == first.oid
    assert after.get_attr(after.get(item.oid), "owner").oid == first.oid


def test_router_refuses_a_schema_its_placement_cannot_hold(tmp_path):
    store = ShardedStore.open(tmp_path / "db", _schema(), 2)
    schema = store.schema
    linked = schema.copy()
    linked.class_named("Item").set_attribute("owner", ClassRef("Tag"))
    with pytest.raises(ShardingError, match="splits connected classes"):
        store.change_schema(linked)
    assert store.schema is schema
    assert all(core.schema is schema for core in store.cores)
    assert all(core.wal.pending_records == 0 for core in store.cores)
    store.close()


def test_router_adopts_a_change_the_first_shard_logged(tmp_path):
    """A later core's failed append cannot undo the first shard's record,
    which a reopen reads the schema from: the value is adopted everywhere
    and the failing core's log is poisoned."""
    from repro.engine.faults import FaultInjector, FaultSpec

    failing = FaultInjector([FaultSpec("wal.append", "io_error", at=0)])
    store = ShardedStore.open(tmp_path / "db", _schema(), 2, faults={1: failing})
    with pytest.raises(OSError):
        store.set_constant("CAP", 5)
    assert store.schema.constants["CAP"] == 5
    assert all(core.schema is store.schema for core in store.cores)
    assert store.cores[1].wal.poisoned is not None
    store.close()
    reopened = ShardedStore.open(tmp_path / "db")
    assert reopened.schema.constants["CAP"] == 5
    reopened.close()


def _durable_flavors(tmp_path):
    return {
        "plain": lambda schema: ObjectStore.open(tmp_path / "db", schema),
        "sharded": lambda schema: ShardedStore.open(tmp_path / "db", schema, 2),
        "oracle": Oracle,
    }


def _logs(store):
    cores = getattr(store, "cores", [store])
    return [core.wal.pending_records for core in cores if getattr(core, "wal", None)]


@pytest.mark.parametrize("flavor", ["plain", "sharded", "oracle"])
def test_a_schema_the_stored_objects_do_not_fit_is_refused(flavor, tmp_path):
    """Adding an attribute to a class with stored objects would leave them
    unable to take any update ("missing attributes"); the change is refused
    with nothing logged and the old schema still adopted."""
    schema = _schema()
    store = _durable_flavors(tmp_path)[flavor](schema)
    item = store.insert("Item", name="a", price=1.0, owner="x")
    logged = _logs(store)
    grown = schema.copy()
    grown.class_named("Item").add_attribute("note", STRING)
    misfit = rf"{item.oid} does not fit .*missing attributes for Item: \['note'\]"
    with pytest.raises(EngineError, match=misfit):
        store.change_schema(grown)
    retyped = schema.copy()
    retyped.class_named("Item").set_attribute("owner", ClassRef("Item"))
    with pytest.raises(EngineError, match="reference to unknown object 'x'"):
        store.change_schema(retyped)
    dropped = schema.copy()
    dropped.remove_class("Item")
    with pytest.raises(EngineError, match=f"drops class Item, which {item.oid}"):
        store.change_schema(dropped)
    assert store.schema is schema
    assert all(core.schema is schema for core in getattr(store, "cores", []))
    assert _logs(store) == logged
    store.update(item, price=2.0)
    # The same attribute on a class with no objects fits.
    tagged = schema.copy()
    tagged.class_named("Tag").add_attribute("note", STRING)
    store.change_schema(tagged)
    assert store.schema is tagged
    store.insert("Tag", label="fine", note="n")
    if flavor != "oracle":
        store.close()


REPARENT_SOURCE = """
Database Owners

Class Base
attributes
  label : string
end Base

Class Sub isa Base
attributes
  rank : int
end Sub

Class Item
attributes
  owner : Base
end Item
"""


@pytest.mark.parametrize("flavor", ["plain", "sharded", "oracle"])
def test_a_reparent_that_strands_a_reference_is_refused(flavor, tmp_path):
    """Making ``Sub`` a root with the same attributes changes no attribute
    map, yet an ``Item.owner : Base`` pointing at a ``Sub`` would no longer
    point at a ``Base``: the change is refused before anything is logged."""
    schema = parse_database(REPARENT_SOURCE)
    store = _durable_flavors(tmp_path)[flavor](schema)
    sub = store.insert("Sub", label="s", rank=1)
    item = store.insert("Item", owner=sub)
    logged = _logs(store)
    rooted = schema.copy()
    rooted.remove_class("Sub")
    root = rooted.new_class("Sub")
    for attribute in schema.effective_attributes("Sub").values():
        root.add_attribute(attribute.name, attribute.tm_type)
    assert rooted.effective_attributes("Sub") == schema.effective_attributes("Sub")
    with pytest.raises(EngineError, match=rf"{item.oid} does not fit .*is a Sub, not a Base"):
        store.change_schema(rooted)
    assert store.schema is schema
    assert _logs(store) == logged
    store.update(item, owner=sub)
    if flavor != "oracle":
        store.close()


@pytest.mark.parametrize("flavor", ["plain", "sharded", "oracle"])
def test_a_rebind_checks_no_stored_object(flavor, monkeypatch):
    from repro.engine import objects

    store = _flavors()[flavor](_schema())
    for number in range(20):
        store.insert("Item", name=f"i{number}", price=1.0, owner="x")
    checked = []
    original = objects.check_types

    def counting(schema, stored, class_name, state):
        checked.append(class_name)
        return original(schema, stored, class_name, state)

    monkeypatch.setattr(objects, "check_types", counting)
    store.set_constant("CAP", 2_000)
    assert checked == []
    # Only the objects of a class whose attribute map changed are checked.
    tagged = store.schema.copy()
    tagged.class_named("Tag").add_attribute("note", STRING)
    store.change_schema(tagged)
    assert checked == []
    narrowed = store.schema.copy()
    narrowed.class_named("Item").set_attribute("owner", EnumType(frozenset({"x"})))
    store.change_schema(narrowed)
    assert checked == ["Item"] * 20
