"""Self-test of the full-check oracle (repro.engine.oracle), independent of
the store: every differential suite leans on its verdicts, so they are
pinned here by hand on the paper's Figure 1 schemas."""

import pytest

from repro.engine.oracle import Oracle
from repro.errors import ConstraintViolation, EngineError
from repro.fixtures import bookseller_schema, cslibrary_schema


def _publication(oracle, isbn, ourprice=10.0):
    return oracle.insert(
        "Publication",
        title=f"On {isbn}",
        isbn=isbn,
        publisher="ACM",
        shopprice=100.0,
        ourprice=ourprice,
    )


def _item(oracle, publisher, isbn="ISBN-1"):
    return oracle.insert(
        "Monograph",
        title="Readings",
        isbn=isbn,
        publisher=publisher,
        authors=frozenset(),
        shopprice=20.0,
        libprice=18.0,
        subjects=frozenset(),
    )


def test_cslibrary_cc1_rejects_a_duplicate_isbn():
    oracle = Oracle(cslibrary_schema())
    first = _publication(oracle, "ISBN-1")
    with pytest.raises(ConstraintViolation) as info:
        _publication(oracle, "ISBN-1")
    assert info.value.constraint_names == ("CSLibrary.Publication.cc1",)
    assert [obj.oid for obj in oracle.objects()] == [first.oid]
    with pytest.raises(ConstraintViolation, match="cc1"):
        oracle.update(_publication(oracle, "ISBN-2"), isbn="ISBN-1")
    assert oracle.get("Publication#3").state["isbn"] == "ISBN-2"


def test_cslibrary_cc2_rejects_the_sum_after_max_is_lowered():
    schema = cslibrary_schema()
    oracle = Oracle(schema)
    _publication(oracle, "ISBN-1", ourprice=60.0)
    _publication(oracle, "ISBN-2", ourprice=30.0)
    oracle.set_constant("MAX", 100)
    _publication(oracle, "ISBN-3", ourprice=9.0)  # sum 99 < 100
    oracle.set_constant("MAX", 90)
    # The standing state now violates cc2, so even an unrelated
    # operation's full check rejects it.
    with pytest.raises(ConstraintViolation) as info:
        oracle.update(oracle.extent("Publication")[0], title="Renamed")
    assert info.value.constraint_names == ("CSLibrary.Publication.cc2",)
    assert oracle.extent("Publication")[0].state["title"] == "On ISBN-1"
    assert oracle.check_all() == ["CSLibrary.Publication.cc2: extent of Publication"]
    with pytest.raises(ConstraintViolation, match="cc2"):
        oracle.delete(oracle.extent("Publication")[2])  # sum 90: not < 90
    assert len(oracle) == 3
    with oracle.transaction():
        oracle.delete(oracle.extent("Publication")[2])
        oracle.update(oracle.extent("Publication")[1], ourprice=29.0)
    assert oracle.audit() == []


def test_bookseller_db1_rejects_an_unreferenced_publisher_and_its_deletion():
    oracle = Oracle(bookseller_schema())
    with pytest.raises(ConstraintViolation) as info:
        oracle.insert("Publisher", name="Lonely", location="Nowhere")
    assert info.value.constraint_names == ("Bookseller.db1",)
    assert len(oracle) == 0
    with oracle.transaction():
        publisher = oracle.insert("Publisher", name="ACM", location="NY")
        item = _item(oracle, publisher)
        other = oracle.insert("Publisher", name="IEEE", location="P")
        _item(oracle, other, isbn="ISBN-2")
    assert [obj.oid for obj in oracle.extent("Publisher")] == [publisher.oid, other.oid]
    with pytest.raises(ConstraintViolation, match="db1"):
        oracle.insert("Publisher", name="Ghost", location="X")
    # Deleting a referenced publisher leaves its item dangling: checking
    # db1 for the other publisher dereferences it and fails, which the
    # full check reports as a violation.
    with pytest.raises(ConstraintViolation) as info:
        oracle.delete(publisher)
    assert info.value.constraint_names == ("Bookseller.db1",)
    assert "no object with identifier" in info.value.violations[0].detail
    assert publisher.oid in oracle
    assert oracle.get_attr(item, "publisher") is publisher


def test_publisher_item_pair_commits_only_as_a_transaction():
    oracle = Oracle(bookseller_schema())
    with oracle.transaction():
        publisher = oracle.insert("Publisher", name="ACM", location="NY")
        with oracle.transaction():
            _item(oracle, publisher)
    assert len(oracle.extent("Item")) == 1
    # A failing body restores the entry contents, nested levels included.
    with pytest.raises(RuntimeError):
        with oracle.transaction():
            other = oracle.insert("Publisher", name="IEEE", location="P")
            _item(oracle, other, isbn="ISBN-2")
            raise RuntimeError("abort")
    assert [obj.class_name for obj in oracle.objects()] == ["Publisher", "Monograph"]
    with oracle.transaction():
        with pytest.raises(RuntimeError):
            with oracle.transaction():
                oracle.delete(oracle.extent("Item")[0])
                raise RuntimeError("inner abort")
        assert len(oracle.extent("Item")) == 1


def test_rejected_insert_burns_its_oid():
    oracle = Oracle(bookseller_schema())
    with pytest.raises(ConstraintViolation):
        oracle.insert("Publisher", name="Lonely", location="Nowhere")
    with pytest.raises(EngineError, match="missing attributes"):
        oracle.insert("Publisher", name="Untyped")  # type-invalid: no oid
    with oracle.transaction():
        publisher = oracle.insert("Publisher", name="ACM", location="NY")
        item = _item(oracle, publisher)
    assert (publisher.oid, item.oid) == ("Publisher#2", "Monograph#3")
    with pytest.raises(ConstraintViolation):
        with oracle.transaction():
            oracle.insert("Publisher", name="Ghost", location="X")
    assert _item(oracle, publisher, isbn="ISBN-2").oid == "Monograph#5"


def test_unenforced_oracle_accepts_and_audits():
    oracle = Oracle(bookseller_schema(), enforce=False)
    publisher = oracle.insert("Publisher", name="Lonely", location="Nowhere")
    assert [v.constraint_name for v in oracle.audit()] == ["Bookseller.db1"]
    (core,) = oracle.explain_violations()
    assert core.oids() == (publisher.oid,)
    assert oracle.eval_context().indexes is None
