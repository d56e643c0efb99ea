"""Snapshot-free transactions with deferred, delta-driven checking.

Multi-object updates (e.g. inserting a Publisher and the Item referencing it
under the referential database constraint ``db1``) need constraint checking
deferred to commit time; a :class:`Transaction` disables per-operation
enforcement, and validates at exit, rolling back on failure.

A transaction adds no write path of its own.  Every operation is staged by
the store exactly as an auto-commit one is — applied, with its pre-image in
an undo entry and its effect in a
:class:`~repro.engine.incremental.MutationDelta` — and, while a transaction
is open, folded into the transaction's undo log (oid → pre-image, first
touch wins) and dirty set instead of committing on its own.  The outermost
exit then commits through the store's one commit tail,
:meth:`~repro.engine.store.ObjectStore._commit` (check → log → publish →
checkpoint policy), passing its own data: an exhaustive check, and the
store's one redo record per commit as its log stage.  Both sides are
proportional to what the transaction *touched*, not to the store size:

* Rollback replays the undo log (``ObjectStore._apply_undo``) instead of
  restoring a whole-store snapshot, so entering a transaction is O(1) and
  rolling back is O(touched objects).

* Commit-time validation is **delta-driven**: only the constraints whose
  read set (per the cached
  :class:`~repro.engine.incremental.ConstraintDependencyIndex`) intersects
  the accumulated delta are re-checked.  The transaction falls back to full
  revalidation when the store's last validated state belongs to another
  schema value (a ``change_schema`` since the last clean audit; the store
  refuses one inside a transaction, and its schema is frozen).

Transactions nest: an inner transaction inside an already-deferred store
keeps deferring to the *outermost* commit, which validates everything.  An
inner commit merges its undo log into the outer one (first-touch pre-images
win — insert pre-images are ``None`` entries and merge like any other, so
an object inserted in an inner transaction is removed again when the outer
transaction rolls back); an inner rollback restores the state and dirty set
captured at the inner entry, so reverted operations neither leak into nor
hide from the outer commit.

Shard cores (:mod:`repro.engine.sharding`) run the same transactions, one
per core under a router transaction.  Rollbacks and inner commits stay each
core's own, and neither checks.  The router's outermost exit instead unwinds
every core's bookkeeping (:meth:`Transaction._unwind`, the first step of
every exit here too) and runs the commit tail once over the cores it
wrote: checked against their merged delta, logged with
:meth:`~repro.engine.store.ObjectStore._log_commit` when at most one is
durable and by two-phase commit — each participant's redo set in a
``prepare``, the coordinator's ``decide``, ``resolve`` on every
participant — when several are.  Memory rollback stays the tail's either
way.

On durable stores a transaction writes nothing until its outermost commit
passed its check: that commit logs the net effect of the undo log as one
redo record (:mod:`repro.engine.wal`), so a rollback — inner or outer —
and a rejected commit leave the log untouched.  Entry refuses a
transaction on a poisoned log (it could never commit); that refusal runs
before any bookkeeping changes.

Concurrency: a transaction holds the store's coarse writer lock for its
whole extent (entry to exit), so there is exactly one writer at a time and
no reader of the *live* store can interleave with a half-applied
transaction.  Concurrent readers go through ``store.snapshot()`` instead,
which never takes the lock; the outermost commit publishes its touched set
to the snapshot history before releasing.  On ``sync=True`` durable stores
the commit's fsync is awaited *after* the lock is released, so concurrent
committers coalesce into one fsync (group commit).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine import incremental
from repro.engine.store import redeem

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.store import ObjectStore


class Transaction:
    """Context manager: ``with store.transaction(): ...``"""

    def __init__(self, store: "ObjectStore", validate: bool = True):
        self.store = store
        #: Commit-time validation switch.  ``False`` hands consistency to
        #: the caller.
        self.validate = validate
        self._was_deferred = False
        self._outer_undo: dict | None = None
        self._outer_delta = None
        self._delta_mark = None

    def __enter__(self) -> "Transaction":
        store = self.store
        # The writer lock is held from here until __exit__ returns: the
        # transaction IS the writer for its whole extent.
        store._lock.acquire()
        try:
            if store._wal is not None:
                # The only step that can fail, so it runs before any
                # bookkeeping changes: a refused entry leaves the store as
                # it was.
                store._wal.begin()
            self._was_deferred = store._deferred
            store._deferred = True
            self._outer_undo = store._undo
            store._undo = {}
            store._undo_stack.append(store._undo)
            if self._was_deferred:
                # Nested: keep accumulating into the outer delta, but
                # remember where we came in so a rollback can discard our
                # contribution.
                self._delta_mark = (
                    store._delta.copy() if store._delta is not None else None
                )
            else:
                self._outer_delta = store._delta
                store._delta = incremental.MutationDelta()
        except BaseException:
            store._lock.release()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        owed: list = []
        try:
            owed = self._exit_locked(exc_type)
        finally:
            self.store._lock.release()
        # The fsync wait happens with the writer lock released, so other
        # committers can append behind us and share one fsync.
        redeem(owed)
        return False

    def _unwind(self) -> dict:
        """Pop this level's bookkeeping off the store — deferred flag and
        undo stack — and return its undo log.  The first step of every
        exit; the router's outermost exit runs it on each shard core before
        committing the cores together."""
        store = self.store
        store._deferred = self._was_deferred
        store._undo_stack.pop()
        undo = store._undo
        store._undo = self._outer_undo
        return undo

    def _exit_locked(self, exc_type) -> list:
        store = self.store
        undo = self._unwind()
        if exc_type is not None:
            self._rollback(undo)
            return []
        if self._was_deferred:
            # Inner commit: the outermost transaction validates and logs.
            # Merge the undo log outward; the outer transaction's earlier
            # pre-images take precedence over ours.
            if self._outer_undo is not None:
                for oid, entry in undo.items():
                    self._outer_undo.setdefault(oid, entry)
            return []
        delta = store._delta
        store._delta = self._outer_delta
        return store._commit(((store, undo),), delta, self._check, store._log_commit)

    def _check(self, delta) -> None:
        """The check stage of an outermost commit
        (:meth:`~repro.engine.store._StoreSurface._check_transaction`),
        unless validation is off."""
        if self.validate:
            self.store._check_transaction(delta)

    def _rollback(self, undo: dict) -> None:
        store = self.store
        if undo:
            store._apply_undo(undo)
        # Restore the dirty set too: reverted operations must not force
        # (or worse, mask) re-checks at the outer commit.
        if self._was_deferred:
            store._delta = self._delta_mark
        else:
            store._delta = self._outer_delta

