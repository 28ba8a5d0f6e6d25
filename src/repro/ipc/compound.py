"""Compound remote invocation — several operations, one round trip.

The paper flags the cost of splitting a stack across domains and
machines as per-hop, per-operation round trips (sec. 6.4) and points to
caching as one remedy.  Production distributed file systems went
further: Lustre-style *intent* requests carry a whole lookup+open+attr
chain to the server in a single message.  This module supplies the
transport half of that idea for any Spring object.

Two layers of API:

* :func:`compound_region` — a context manager that *absorbs* the
  network hops issued by the domain that opened it.  Inside the region,
  every cross-node invocation made by that domain skips its individual
  ``Network.transfer`` and instead accumulates (op count, payload
  bytes) per destination node; on exit the region charges **one**
  round trip per destination carrying the summed payload.  Invocations
  on the local/cross-domain paths, and nested invocations made by
  *other* domains (e.g. a server calling further on), are unaffected.
  Reachability is still checked per absorbed op — a partition fails the
  sub-operation *before* its body runs server-side, so a dead link
  never leaves partial server-side state.

* :class:`CompoundInvocation` — an explicit batch: queue bound
  operations with :meth:`~CompoundInvocation.add`, run them with
  :meth:`~CompoundInvocation.commit`, and get a
  :class:`CompoundResult` that demultiplexes per-op results and
  exceptions.  With ``fail_fast`` (the default) a failing sub-op stops
  the batch; the ops after it never execute.

Everything here is opt-in: code that never opens a region or builds a
batch charges exactly what it did before, so the Table 2/3 calibration
is untouched.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import InvocationError
from repro.ipc import invocation


class CompoundSubOpError(InvocationError):
    """One sub-operation of a compound batch failed.

    Carries which sub-op it was (``index``, ``op_name``) and the
    underlying exception (``cause``), so callers can tell exactly where
    a batch stopped.
    """

    def __init__(self, index: int, op_name: str, cause: BaseException) -> None:
        super().__init__(
            f"compound sub-op #{index} ({op_name}) failed: "
            f"{type(cause).__name__}: {cause}"
        )
        self.index = index
        self.op_name = op_name
        self.cause = cause


class _Skipped:
    """Sentinel outcome for sub-ops never executed (fail-fast abort)."""

    def __repr__(self) -> str:  # pragma: no cover - repr only
        return "<skipped>"


SKIPPED = _Skipped()


class CompoundRegion:
    """Absorbs network hops issued by the opening domain (see module
    docstring).  Created via :func:`compound_region`."""

    def __init__(self, world) -> None:
        self.world = world
        #: The domain whose hops this region absorbs.  Nested
        #: invocations run with the *server's* domain active, so they
        #: never match and charge normally.
        self.origin = invocation.current_domain()
        #: (src node, dst node) -> [ops absorbed, request bytes].
        self._pairs: Dict[Tuple[Any, Any], List[int]] = {}

    def absorbs(self, caller, server) -> bool:
        return self.origin is not None and caller is self.origin

    def absorb(self, src_node, dst_node, nbytes: int) -> None:
        """Account one network invocation into the batch.  Raises
        :class:`~repro.ipc.network.NetworkPartitionError` if the pair is
        partitioned — before the op body runs."""
        self.world.network.ensure_reachable(src_node, dst_node)
        entry = self._pairs.setdefault((src_node, dst_node), [0, 0])
        entry[0] += 1
        entry[1] += nbytes

    def flush(self) -> None:
        """Charge one round trip per destination carrying the summed
        request payload.

        Delivery was already validated when each sub-op was *absorbed*
        (reachability is checked before the op body runs), so the flush
        charges those sends without re-checking: a fault-plane partition
        that arrives between absorption and flush must not retroactively
        "unsend" messages whose operations already executed server-side.
        """
        counters = self.world.counters
        for (src, dst), (nops, nbytes) in self._pairs.items():
            self.world.network.transfer(src, dst, nbytes, checked=False)
            counters.inc("compound.batches")
            counters.inc("compound.batched_ops", nops)
            # Round trips the batch avoided relative to one-per-op.
            counters.inc("compound.messages_saved", nops - 1)
        self._pairs.clear()


@contextlib.contextmanager
def compound_region(world) -> Iterator[CompoundRegion]:
    """Open a compound region for the currently active domain.

    The round trips for the absorbed invocations are charged when the
    region exits — including on the error path, since ops that already
    ran did go over the wire.
    """
    region = CompoundRegion(world)
    invocation.push_compound_region(region)
    try:
        yield region
    finally:
        invocation.pop_compound_region()
        region.flush()


class CompoundResult:
    """Demultiplexed outcomes of a committed compound batch.

    ``result[i]`` returns sub-op ``i``'s value, or raises: the sub-op's
    own :class:`CompoundSubOpError` if it failed, or the batch's first
    failure if the sub-op was skipped by fail-fast.
    """

    def __init__(self, outcomes: List[Any]) -> None:
        self.outcomes = outcomes

    @property
    def error(self) -> Optional[CompoundSubOpError]:
        """The first sub-op failure, or None if the batch succeeded."""
        for outcome in self.outcomes:
            if isinstance(outcome, CompoundSubOpError):
                return outcome
        return None

    @property
    def failed_index(self) -> Optional[int]:
        error = self.error
        return None if error is None else error.index

    @property
    def ok(self) -> bool:
        return self.error is None

    def __getitem__(self, index: int) -> Any:
        outcome = self.outcomes[index]
        if isinstance(outcome, CompoundSubOpError):
            raise outcome
        if outcome is SKIPPED:
            raise self.error  # the failure that aborted the batch
        return outcome

    def values(self) -> List[Any]:
        """All sub-op values; raises on the first failed/skipped op."""
        return [self[i] for i in range(len(self.outcomes))]


class CompoundInvocation:
    """An explicit batch of operations committed in one round trip per
    destination node.

    >>> batch = CompoundInvocation(world)
    >>> batch.add(remote_dir.open_intent, "a.dat")
    0
    >>> batch.add(remote_dir.open_intent, "b.dat")
    1
    >>> result = batch.commit()    # one Network.transfer, two opens
    >>> result[0].attributes.size  # doctest: +SKIP
    """

    def __init__(self, world=None, fail_fast: bool = True) -> None:
        #: May be None for batches made purely of socket-transport stub
        #: operations (a split-process client has no simulated world).
        self.world = world
        self.fail_fast = fail_fast
        self._calls: List[Tuple[str, Callable[..., Any], tuple, dict]] = []

    def add(self, op: Callable[..., Any], *args: Any, **kwargs: Any) -> int:
        """Queue a bound operation; returns its index in the batch."""
        label = getattr(op, "__name__", repr(op))
        self._calls.append((label, op, args, kwargs))
        return len(self._calls) - 1

    def __len__(self) -> int:
        return len(self._calls)

    @staticmethod
    def _destination_node(op: Callable[..., Any]):
        """The node a bound operation executes on, if discoverable."""
        target = getattr(op, "__self__", None)
        domain = getattr(target, "domain", None)
        return getattr(domain, "node", None)

    def _run_pass(
        self, indices: List[int], outcomes: List[Any], executed: List[bool]
    ) -> None:
        """One attempt at the sub-ops in ``indices``, inside a compound
        region.  Reachability of each sub-op's destination is
        re-validated *at commit time*, right before its body runs — the
        fault plane can cut a link between batch construction and
        commit (or mid-batch, as earlier sub-ops advance the clock), and
        an op whose batch message could not have been delivered must not
        execute server-side.  ``executed`` records whether a sub-op's
        body ran (even partially): only never-executed sub-ops are safe
        to retry.
        """
        caller = invocation.current_domain()
        network = self.world.network
        with compound_region(self.world):
            for position, index in enumerate(indices):
                label, op, args, kwargs = self._calls[index]
                failed = False
                try:
                    if caller is not None:
                        destination = self._destination_node(op)
                        if (
                            destination is not None
                            and destination is not caller.node
                        ):
                            network.ensure_reachable(caller.node, destination)
                except Exception as exc:
                    # Send-time failure: the body never ran.
                    outcomes[index] = CompoundSubOpError(index, label, exc)
                    failed = True
                if not failed:
                    try:
                        outcomes[index] = op(*args, **kwargs)
                        executed[index] = True
                    except Exception as exc:  # demuxed, not propagated
                        # The body started; it may have left server-side
                        # state, so this sub-op is never retried.
                        executed[index] = True
                        outcomes[index] = CompoundSubOpError(index, label, exc)
                        failed = True
                if failed and self.fail_fast:
                    for later in indices[position + 1 :]:
                        outcomes[later] = SKIPPED
                    break

    def _transport_calls(self):
        """If every queued op is a transport stub operation (see
        :class:`repro.ipc.transport.StubOperation`) on one shared
        transport, the batch can ship as a single compound frame —
        returns ``(transport, wire_calls)``; otherwise None."""
        transport = None
        wire_calls = []
        for label, op, args, kwargs in self._calls:
            wire_call = getattr(op, "_wire_call", None)
            if wire_call is None:
                return None
            op_transport, target, op_name, _idempotent = wire_call
            if transport is None:
                transport = op_transport
            elif op_transport is not transport:
                return None
            wire_calls.append((target, op_name, args, kwargs))
        if transport is None:
            return None
        return transport, wire_calls

    def _commit_via_transport(self, transport, wire_calls) -> CompoundResult:
        """One compound frame out, per-op outcomes demuxed back — the
        socket backend's equivalent of the region flush.  Send failures
        are the transport's to retry (its policy is send-only safe);
        executed sub-op errors come back demultiplexed, exactly like the
        simulated path."""
        from repro.ipc import transport as transport_mod

        outcomes: List[Any] = []
        raw = transport.invoke_compound(wire_calls, fail_fast=self.fail_fast)
        for index, (status, value) in enumerate(raw):
            if status == transport_mod.OK:
                outcomes.append(value)
            elif status == transport_mod.ERRORED:
                outcomes.append(
                    CompoundSubOpError(index, self._calls[index][0], value)
                )
            else:
                outcomes.append(SKIPPED)
        if self.world is not None:
            counters = self.world.counters
            counters.inc("compound.batches")
            counters.inc("compound.batched_ops", len(wire_calls))
            counters.inc("compound.messages_saved", len(wire_calls) - 1)
        return CompoundResult(outcomes)

    def commit(self) -> CompoundResult:
        """Run the batch inside a compound region and demultiplex the
        per-op outcomes.

        Under the world's retry policy (``World.enable_retries``), transient
        send-time failures are retried with backoff — *idempotence-
        aware*: only sub-ops that never executed (the failed send and
        everything fail-fast skipped after it) are re-run; sub-ops whose
        bodies ran, and non-transient failures, surface as before.

        A batch made entirely of transport stub operations (the
        split-process client) bypasses the region machinery and ships as
        one compound frame per :meth:`_commit_via_transport`.
        """
        if self.world is not None:
            self.world.counters.inc("compound.commit")
        via_transport = self._transport_calls()
        if via_transport is not None:
            return self._commit_via_transport(*via_transport)
        if self.world is None:
            raise InvocationError(
                "CompoundInvocation without a world can only batch "
                "transport stub operations"
            )
        policy = self.world.retry_policy
        total = len(self._calls)
        outcomes: List[Any] = [SKIPPED] * total
        executed: List[bool] = [False] * total
        pending = list(range(total))
        attempt = 0
        waited_us = 0.0
        while True:
            self._run_pass(pending, outcomes, executed)
            if policy is None:
                break
            retryable = [
                index
                for index in pending
                if not executed[index]
                and isinstance(outcomes[index], CompoundSubOpError)
                and isinstance(outcomes[index].cause, policy.retry_on)
            ]
            if not retryable:
                break
            cause = outcomes[retryable[0]].cause
            if not policy.should_retry(attempt, waited_us, cause):
                break
            backoff = policy.backoff_us(attempt)
            self.world.counters.inc("compound.retries")
            self.world.clock.advance(backoff, "retry_backoff")
            waited_us += backoff
            attempt += 1
            # Never-executed sub-ops only: the transient failures plus
            # everything fail-fast skipped behind them.
            pending = [index for index in pending if not executed[index]]
        return CompoundResult(outcomes)
