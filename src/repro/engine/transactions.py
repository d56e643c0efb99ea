"""Snapshot-free transactions with deferred, delta-driven checking.

Multi-object updates (e.g. inserting a Publisher and the Item referencing it
under the referential database constraint ``db1``) need constraint checking
deferred to commit time; a :class:`Transaction` disables per-operation
enforcement, and validates at exit, rolling back on failure.

Both sides of the transaction are proportional to what it *touched*, not to
the store size:

* Rollback uses an **undo log** kept by the store (oid → pre-image, recorded
  on first touch) instead of a whole-store snapshot, so entering a
  transaction is O(1) and rolling back is O(touched objects).

* Commit-time validation is **delta-driven**: the store accumulates a
  :class:`~repro.engine.incremental.MutationDelta` across the transaction's
  operations, and only the constraints whose read set (per the cached
  :class:`~repro.engine.incremental.ConstraintDependencyIndex`) intersects
  the delta are re-checked.  The transaction falls back to full revalidation
  when the schema changed since the store's last validated state (detected
  by fingerprint comparison — whether the change happened before or during
  the transaction).

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
(:mod:`repro.engine.wal`).

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
        #: Durability ticket of this transaction's abort marker, when an
        #: exit path raised after flushing one; redeemed best-effort.
        self._abort_ticket: "int | None" = None

    def __enter__(self) -> "Transaction":
        store = self.store
        # The writer lock is held from here until __exit__ returns: the
        # transaction IS the writer for its whole extent.
        store._lock.acquire()
        try:
            self._was_deferred = store._deferred
            store._deferred = True
            self._outer_undo = store._undo
            store._undo = {}
            store._undo_stack.append(store._undo)
            if store._wal is not None:
                # Open a log bracket; the marker itself is written lazily,
                # with the transaction's first logged operation.
                store._wal.begin()
            if self._was_deferred:
                # Nested: keep accumulating into the outer delta, but
                # remember where we came in so a rollback can discard our
                # contribution.
                self._delta_mark = (
                    store._delta.copy() if store._delta is not None else None
                )
            else:
                self._outer_delta = store._delta
                from repro.engine.incremental import MutationDelta

                store._delta = MutationDelta()
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
            store._lock.release()
            if self._abort_ticket is not None:
                # A raising exit path (commit-time violation) flushed an
                # abort marker: redeem its ticket best-effort — recovery
                # discards open and aborted brackets alike, so a failed
                # fsync here must not mask the propagating violation.
                try:
                    store._await_durability(self._abort_ticket)
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
        if exc_type is not None:
            self._rollback()
            if store._wal is not None:
                return store._wal.abort_transaction()
            return None
        undo = store._undo
        if self._was_deferred:
            # Inner commit: the outermost transaction validates.  Merge the
            # undo log outward; the outer transaction's earlier pre-images
            # take precedence over ours.
            if self._outer_undo is not None:
                for oid, entry in undo.items():
                    self._outer_undo.setdefault(oid, entry)
            store._undo = self._outer_undo
            if store._wal is not None:
                # Close the log bracket; recovery merges our operations
                # into the enclosing transaction's buffer the same way.
                store._wal.commit_transaction()
            return None
        store._undo = self._outer_undo
        delta = store._delta
        store._delta = self._outer_delta
        if store.enforce and self.validate:
            violations = self._validate(delta)
            if violations:
                # Conflict cores must be extracted before the undo below:
                # rollback destroys the violating state they explain.
                cores = store._cores_for(violations)
                self._apply_undo(undo)
                if store._wal is not None:
                    self._abort_ticket = store._wal.abort_transaction()
                raise ConstraintViolation(
                    "transaction",
                    "; ".join(
                        violation.describe() for violation in violations
                    ),
                    violations=violations,
                    cores=cores,
                )
        ticket = None
        if store._wal is not None:
            try:
                ticket = store._wal.commit_transaction()
            except BaseException:
                # The commit marker (or its flush) failed: the bracket may
                # be open in the durable log, so recovery will discard the
                # transaction — memory must drop it too, or it would run
                # ahead of the durable prefix.  The log poisoned itself;
                # undo everything touched and propagate.
                self._apply_undo(undo)
                raise
        # Publication happens after the flushed commit marker: snapshots
        # only ever show transactions the durable prefix can replay.  The
        # checkpoint policy runs after publication — its failure abandons
        # the unredeemed ticket (so close() cannot wait on it forever) but
        # the accepted commit stands.
        self._publish(undo)
        if store._wal is not None:
            try:
                if store._wal.should_checkpoint():
                    store.checkpoint()
            except BaseException:
                store._wal.abandon_ticket(ticket)
                raise
        return ticket

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
                    self._publish(undo)
                else:
                    self._apply_undo(undo)
        finally:
            self._prepared_undo = None
            store._lock.release()

    def _publish(self, undo: dict) -> None:
        """Thread the committed touched set into the snapshot history: the
        post-state of every object the transaction touched (tombstones for
        deletions), read off the live store under the still-held lock."""
        store = self.store
        if not store._concurrency.active or not undo:
            return
        changes = []
        for oid, entry in undo.items():
            obj = store._objects.get(oid)
            if obj is not None:
                changes.append((oid, obj.class_name, obj.state))
            elif entry is not None:
                changes.append((oid, entry[0].class_name, None))
            # entry None + object gone: inserted and deleted inside the
            # transaction — no committed version ever existed.
        store._publish_commit(changes)

    def _validate(self, delta) -> list:
        """Commit-time validation: delta-driven when possible, full otherwise.

        Returns structured :class:`~repro.engine.enforcement.Violation`
        objects, so a failing commit can name every violated constraint on
        the raised exception.  Full revalidation runs when the schema
        fingerprint differs from the one the store last validated under —
        whether the change happened mid-transaction or before it (a rebound
        constant can invalidate constraints with no data delta)."""
        store = self.store
        if delta is None or store._schema_changed_since_validation():
            return store.audit()
        from repro.engine.incremental import delta_violations

        return delta_violations(store, delta)

    def _rollback(self) -> None:
        store = self.store
        undo = store._undo
        store._undo = self._outer_undo
        if undo:
            self._apply_undo(undo)
        # Restore the dirty set too: reverted operations must not force
        # (or worse, mask) re-checks at the outer commit.
        if self._was_deferred:
            store._delta = self._delta_mark
        else:
            store._delta = self._outer_delta

    def _apply_undo(self, undo: dict) -> None:
        """Restore every touched object to its logged pre-image.

        Pre-images keep object identity: an updated object gets its old
        state dict back in place, and a deleted object is re-registered as
        the *same* :class:`DBObject` instance, so references held outside
        the store stay valid across a rollback.

        Maintained indexes roll back alongside, via the *inverse* mutation
        hook per touched object — an insert is undone as a delete, a delete
        as an insert, an update as the reverse state transition — keeping
        rollback O(touched), index maintenance included.  Reference-count
        indexes participate through the same hooks: a resurrected object
        re-joins the referenced side (its referrers stop dangling) and
        re-counts its own reference slots, in whichever order the undo log
        replays the touched objects.
        """
        store = self.store
        resurrected = False
        for oid, entry in undo.items():
            if entry is None:
                if oid in store._objects:
                    store._detach(store._objects[oid])
            else:
                obj, state = entry
                if oid in store._objects:
                    if obj.state is not state:
                        store._indexes.on_update(obj, obj.state, state)
                    obj.state = state
                else:
                    obj.state = state
                    resurrected = True
                    store._attach(obj)
        if resurrected:
            store._restore_object_order()
