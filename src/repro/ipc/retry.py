"""Invocation retry with timeout and capped exponential backoff.

Production distributed file systems treat a dropped message or a
bouncing server as a delay, not an error (cf. Lustre's recovery design):
the client backs off, the link heals or the node recovers, and the
request goes through.  A :class:`RetryPolicy` installed on the world
(:meth:`repro.world.World.enable_retries`) gives the invocation layer
exactly that behaviour for *transient* network failures
(:class:`~repro.errors.TransientNetworkError`: partitions, crashed
nodes, dropped messages).

Safety: the invocation layer retries only the request *send* — a
failure raised by ``Network.transfer`` means the operation body never
ran server-side, so resending cannot double-execute anything.  The
compound layer applies the same rule batch-wide: only sub-operations
that never executed are retried (see
:meth:`repro.ipc.compound.CompoundInvocation.commit`).

Backoff advances the *virtual* clock (category ``retry_backoff``), which
is also what lets a retry succeed: scheduled heal/recover events fire
when the clock passes their time, so "back off 800us" can carry the
caller across a fault window deterministically.

Off by default: ``world.retry_policy`` is None and every failure
surfaces exactly as before.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple, Type

from repro.errors import TransientNetworkError


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Retry knobs for transient cross-node failures.

    ``max_attempts`` counts every try including the first; the backoff
    before retry *n* (0-based) is ``base_backoff_us * factor**n`` capped
    at ``max_backoff_us``; ``timeout_us`` bounds the total virtual time
    spent backing off for one logical operation — whichever limit is hit
    first stops the retrying and the last error surfaces unchanged.
    """

    max_attempts: int = 8
    base_backoff_us: float = 100.0
    backoff_factor: float = 2.0
    max_backoff_us: float = 10_000.0
    timeout_us: float = 100_000.0
    retry_on: Tuple[Type[BaseException], ...] = (TransientNetworkError,)

    def backoff_us(self, attempt: int) -> float:
        """Backoff charged before retry number ``attempt`` (0-based)."""
        return min(
            self.base_backoff_us * self.backoff_factor**attempt,
            self.max_backoff_us,
        )

    def should_retry(
        self, attempt: int, waited_us: float, exc: BaseException
    ) -> bool:
        """May retry number ``attempt`` happen, having already waited
        ``waited_us`` in backoff, after failure ``exc``?"""
        if not isinstance(exc, self.retry_on):
            return False
        if attempt + 1 >= self.max_attempts:
            return False
        return waited_us + self.backoff_us(attempt) <= self.timeout_us


def retry_send(world, target, policy: RetryPolicy, src_node, dst_node,
               nbytes: int) -> None:
    """Send one request message with retries under ``policy``.

    ``target`` is the invocation target, used only for telemetry: every
    retry counts under ``invoke.retries`` and — when the target belongs
    to a file system layer — ``<layer>.retries``, so the per-layer
    fault-tolerance breakdown sees it.
    """
    attempt = 0
    waited_us = 0.0
    while True:
        try:
            world.network.transfer(src_node, dst_node, nbytes)
            return
        except TransientNetworkError as exc:
            if not policy.should_retry(attempt, waited_us, exc):
                raise
            backoff = policy.backoff_us(attempt)
            world.counters.inc("invoke.retries")
            layer = getattr(target, "layer", None)
            if layer is not None:
                world.counters.inc(layer.fs_type() + ".retries")
            world.trace(
                "retry",
                "backoff",
                attempt=attempt,
                backoff_us=backoff,
                dst=dst_node.name,
                error=type(exc).__name__,
            )
            world.clock.advance(backoff, "retry_backoff")
            waited_us += backoff
            attempt += 1
