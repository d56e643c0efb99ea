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
checkpoint policy), passing its own data: an exhaustive check and the
bracket's commit marker.  Both sides are proportional to what the
transaction *touched*, not to the store size:

* Rollback replays the undo log (``ObjectStore._apply_undo``) instead of
  restoring a whole-store snapshot, so entering a transaction is O(1) and
  rolling back is O(touched objects).

* Commit-time validation is **delta-driven**: only the constraints whose
  read set (per the cached
  :class:`~repro.engine.incremental.ConstraintDependencyIndex`) intersects
  the accumulated delta are re-checked.  The transaction falls back to full
  revalidation when the schema changed since the store's last validated
  state (detected by fingerprint comparison — whether the change happened
  before or during the transaction).

Transactions nest: an inner transaction inside an already-deferred store
keeps deferring to the *outermost* commit, which validates everything.  An
inner commit merges its undo log into the outer one (first-touch pre-images
win — insert pre-images are ``None`` entries and merge like any other, so
an object inserted in an inner transaction is removed again when the outer
transaction rolls back); an inner rollback restores the state and dirty set
captured at the inner entry, so reverted operations neither leak into nor
hide from the outer commit.

On durable stores each transaction also brackets the write-ahead log:
``begin`` at entry (written lazily with the first logged operation),
``commit`` or ``abort`` at exit.  Recovery applies an operation only once
every enclosing bracket committed, mirroring the undo-log merge exactly
(:mod:`repro.engine.wal`).  Opening the bracket is the only step of entry
that can fail (a poisoned log refuses it), so it runs before any
bookkeeping changes.

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
from repro.errors import ConstraintViolation

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.store import ObjectStore


class Transaction:
    """Context manager: ``with store.transaction(): ...``"""

    def __init__(self, store: "ObjectStore", validate: bool = True):
        self.store = store
        #: Commit-time validation switch.  ``False`` hands consistency to
        #: the caller — the commit router validates shard-core brackets
        #: against the merged cross-shard state itself.
        self.validate = validate
        self._was_deferred = False
        self._outer_undo: dict | None = None
        self._outer_delta = None
        self._delta_mark = None
        #: Undo log captured by :meth:`prepare_commit` for the 2PC decision
        #: (:meth:`finish_prepared` publishes or rolls it back).
        self._prepared_undo: dict | None = None

    def __enter__(self) -> "Transaction":
        store = self.store
        # The writer lock is held from here until __exit__ returns: the
        # transaction IS the writer for its whole extent.
        store._lock.acquire()
        try:
            if store._wal is not None:
                # Open a log bracket (the marker itself is written lazily,
                # with the transaction's first logged operation).  The only
                # step that can fail, so it runs before any bookkeeping
                # changes: a refused entry leaves the store as it was.
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
        store = self.store
        ticket = None
        try:
            ticket = self._exit_locked(exc_type)
        finally:
            abort_ticket, store._abort_ticket = store._abort_ticket, None
            store._lock.release()
            if abort_ticket is not None:
                # A rejected commit flushed an abort marker: redeem its
                # ticket best-effort — recovery discards open and aborted
                # brackets alike, so a failed fsync here must not mask the
                # propagating violation.
                try:
                    store._await_durability(abort_ticket)
                except Exception:
                    pass
        # The fsync wait happens with the writer lock released, so other
        # committers can append behind us and share one fsync.
        store._await_durability(ticket)
        return False

    def _exit_locked(self, exc_type) -> "int | None":
        store = self.store
        store._deferred = self._was_deferred
        store._undo_stack.pop()
        undo = store._undo
        store._undo = self._outer_undo
        if exc_type is not None:
            self._rollback(undo)
            if store._wal is not None:
                return store._wal.abort_transaction()
            return None
        if self._was_deferred:
            # Inner commit: the outermost transaction validates.  Merge the
            # undo log outward; the outer transaction's earlier pre-images
            # take precedence over ours.
            if self._outer_undo is not None:
                for oid, entry in undo.items():
                    self._outer_undo.setdefault(oid, entry)
            if store._wal is not None:
                # Close the log bracket; recovery merges our operations
                # into the enclosing transaction's buffer the same way.
                store._wal.commit_transaction()
            return None
        delta = store._delta
        store._delta = self._outer_delta
        return store._commit(undo, delta, self._check, self._log_commit)

    def _check(self, delta) -> None:
        """The check stage of an outermost commit: every violation the
        delta can have caused — delta-driven when the store holds a
        validated baseline for the current schema, a full audit otherwise
        (a rebound constant can invalidate constraints with no data delta,
        whether it changed mid-transaction or before).  Raises one
        :class:`ConstraintViolation` naming them all, with conflict cores
        extracted before the commit tail's undo destroys the violating
        state they explain."""
        store = self.store
        if not (store.enforce and self.validate):
            return
        if delta is None or store._schema_changed_since_validation():
            violations = store.audit()
        else:
            violations = incremental.delta_violations(store, delta)
        if violations:
            raise ConstraintViolation(
                "transaction",
                "; ".join(violation.describe() for violation in violations),
                violations=violations,
                cores=store._cores_for(violations),
            )

    def _log_commit(self, undo: dict) -> "int | None":
        """The log stage of an outermost commit: close the bracket with a
        flushed commit marker."""
        return self.store._wal.commit_transaction()

    # -- two-phase commit (router-driven) -----------------------------------------
    #
    # A cross-shard transaction cannot use the normal __exit__ commit: each
    # shard core's WAL bracket must close with a *prepare* marker, stay
    # undecided until every participant prepared, and only then learn its
    # fate (see repro.engine.sharding).  The router drives that split
    # life-cycle through the two methods below instead of __exit__; they are
    # only valid on an outermost transaction of their store.

    def prepare_commit(self, gid: str) -> "int | None":
        """2PC phase 1: close this store's WAL bracket with a ``prepare``
        marker for global transaction ``gid`` and flush it.

        Transaction bookkeeping (deferred flag, undo stack, dirty set) is
        unwound as on a normal commit, but the in-memory mutations stay
        applied, nothing is published to snapshots, and the writer lock
        stays held — :meth:`finish_prepared` completes or reverts once the
        coordinator decides.  Validation is the router's job (these
        transactions are created with ``validate=False``).  Returns the
        group-commit ticket of the prepare flush, if any; if the flush
        raises, the caller must still call ``finish_prepared(False)`` to
        roll the memory image back and release the lock.
        """
        store = self.store
        store._deferred = self._was_deferred
        store._undo_stack.pop()
        self._prepared_undo = store._undo
        store._undo = self._outer_undo
        store._delta = self._outer_delta
        if store._wal is not None:
            return store._wal.prepare_transaction(gid)
        return None

    def finish_prepared(self, ok: bool) -> None:
        """2PC phase 3: apply the coordinator's decision to this store.

        ``ok=True`` publishes the prepared mutations to the snapshot
        history (they are already applied in memory and durably prepared);
        ``ok=False`` rolls them back.  Releases the writer lock taken at
        ``__enter__`` either way — the transaction is finished.  The
        ``resolve`` WAL marker is the router's to write (it owns the
        ordering against the coordinator's ``decide`` record).
        """
        store = self.store
        try:
            undo = self._prepared_undo
            if undo is not None:
                if ok:
                    store._publish(undo)
                else:
                    store._apply_undo(undo)
        finally:
            self._prepared_undo = None
            store._lock.release()

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
