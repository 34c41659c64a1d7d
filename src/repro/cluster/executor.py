"""Scatter-gather execution across a shard fleet.

:class:`ScatterGatherExecutor` fans one operation out to many shards from
the caller's own thread and gathers per-shard :class:`ShardOutcome`\\ s.
There is no thread pool and no event loop.  A call is either

* a *socket call* -- an object with ``start()``, ``fileno()``,
  ``events()``, ``advance()``, ``result()`` and ``close()``, as
  :class:`~repro.net.client.RemoteCall` provides for a remote shard --
  or
* a plain *thunk*, run inline (an in-process shard, or any call that is
  not split at the wire).  The router's small management fan-outs
  (register, relation names, drop, per-shard counts) are thunks, so they
  call the shards one at a time, each bounded by the proxy timeout;
  whole-relation fetches and logical counts are socket calls.

One scatter first starts every socket call, then runs the thunks one
after another, then waits on all the sockets with one ``selectors`` wait,
advancing each call whenever its socket is ready, until each reply is
complete.  A socket call never blocks -- connecting, the hello and sending
wait on the socket like the reply does -- so remote shards work in
parallel with each other and with the inline calls, and a slow, frozen or
unreachable shard costs its own latency, not a thread and not the other
shards' budget.

Failure handling is a *policy*, not hard-coded:

* :data:`FAIL_FAST` -- any shard failure fails the whole operation
  (:class:`ShardFailedError` carries every outcome for diagnosis).  Always
  used for writes: a partially applied write is corruption.
* :data:`DEGRADED` -- a read that loses some shards still answers from the
  survivors; the caller is told which shards were missing so it can surface
  the result as partial.  At least one shard must answer.

A per-shard ``timeout`` is one budget that every shard's clock spends at
the same time, from the start of the scatter: one gather takes at most
``timeout`` (plus whatever an inline thunk overruns, since a running thunk
cannot be interrupted).  A socket call still unanswered at the deadline is
closed -- its connection is dropped, never reused, so its late reply
cannot reach a later caller -- and reported with
:class:`ShardTimeoutError`; so is a thunk whose own run took longer than
the budget (its result is discarded).  Replies that arrived by the
deadline are always read, even when inline work ran past it.  A socket
call may carry its own ``timeout`` (the proxy's timeout), which bounds its
wait when the scatter has no budget or a longer one -- the same bound a
thunk's round trip through the proxy has.
"""

from __future__ import annotations

import selectors
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.outsourcing.server import ServerError

#: Any shard failure fails the operation.
FAIL_FAST = "fail_fast"
#: Serve reads from the surviving shards and flag the result as partial.
DEGRADED = "degraded"

PARTIAL_FAILURE_POLICIES = (FAIL_FAST, DEGRADED)


class ClusterError(ServerError):
    """A cluster operation failed (subclasses the provider error, so the
    session facade's error translation applies unchanged)."""


class ShardTimeoutError(ClusterError):
    """One shard did not answer within the per-shard timeout."""


class ShardFailedError(ClusterError):
    """One or more shards failed a scatter; ``outcomes`` has the full picture."""

    def __init__(self, message: str, outcomes: Sequence["ShardOutcome"]) -> None:
        super().__init__(message)
        self.outcomes = tuple(outcomes)

    @property
    def failed_shard_ids(self) -> tuple[str, ...]:
        return tuple(o.shard_id for o in self.outcomes if not o.ok)


@dataclass
class ShardOutcome:
    """What one shard returned (or why it did not)."""

    shard_id: str
    value: Any = None
    error: Exception | None = None
    elapsed_s: float = 0.0
    #: Wall-clock instant the shard's thunk started (or the gather began
    #: waiting on it); what per-shard trace spans are anchored to.
    started_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class GatherResult:
    """A policy-resolved scatter: the surviving values, in scatter order."""

    values: tuple[Any, ...]
    #: Shards that failed but were tolerated by the DEGRADED policy.
    missing_shard_ids: tuple[str, ...] = ()
    outcomes: tuple[ShardOutcome, ...] = field(default=())

    @property
    def degraded(self) -> bool:
        return bool(self.missing_shard_ids)


class ScatterGatherExecutor:
    """Scatters calls across shards from the caller's thread."""

    def __init__(self, timeout: float | None = None) -> None:
        self._timeout = timeout

    @property
    def timeout(self) -> float | None:
        """Per-shard gather timeout in seconds (None waits forever)."""
        return self._timeout

    def scatter(
        self,
        calls: Sequence[tuple[str, Any]],
        timeout: float | None = None,
    ) -> list[ShardOutcome]:
        """Run every ``(shard_id, call)`` concurrently; never raises itself.

        Socket calls are started first, thunks then run inline, and one
        ``selectors`` wait drives the calls to their replies (see the
        module docstring).
        Outcomes come back in ``calls`` order.
        """
        if timeout is None:
            timeout = self._timeout
        outcomes: list[ShardOutcome | None] = [None] * len(calls)
        waiting: dict[int, _Waiting] = {}
        selector = selectors.DefaultSelector()

        def finish(index, started_wall, started_mono, value=None, error=None):
            outcomes[index] = ShardOutcome(
                shard_id=calls[index][0],
                value=value,
                error=error,
                elapsed_s=time.monotonic() - started_mono,
                started_s=started_wall,
            )

        def settle(index, started_wall, started_mono, error=None):
            """Close a socket call and record its outcome."""
            call = calls[index][1]
            value = None
            if error is None:
                try:
                    value = call.result()
                except Exception as exc:  # noqa: BLE001 - per-shard failures are data
                    error = exc
            call.close()
            finish(index, started_wall, started_mono, value, error)

        try:
            scatter_started = time.monotonic()
            for index, (_, call) in enumerate(calls):
                if callable(call):
                    continue
                started_wall, started_mono = time.time(), time.monotonic()
                try:
                    call.start()
                    fd, events = call.fileno(), call.events()
                except Exception as exc:  # noqa: BLE001 - per-shard failures are data
                    settle(index, started_wall, started_mono, exc)
                    continue
                # The scatter budget, or the call's own (a proxy's timeout)
                # when that is shorter or the scatter has none.
                budget = timeout
                own = getattr(call, "timeout", None)
                if own is not None and (budget is None or own < budget):
                    budget = own
                selector.register(fd, events, index)
                waiting[index] = _Waiting(
                    fd, events, started_wall, started_mono, budget,
                    None if budget is None else scatter_started + budget,
                )
            for index, (shard_id, thunk) in enumerate(calls):
                if not callable(thunk):
                    continue
                started_wall, started_mono = time.time(), time.monotonic()
                try:
                    value = thunk()
                except Exception as exc:  # noqa: BLE001 - per-shard failures are data
                    finish(index, started_wall, started_mono, error=exc)
                    continue
                if timeout is not None and time.monotonic() - started_mono > timeout:
                    value, error = None, _timeout_error(shard_id, timeout)
                else:
                    error = None
                finish(index, started_wall, started_mono, value, error)
            while waiting:
                deadlines = [w.deadline for w in waiting.values() if w.deadline is not None]
                wait_s = None
                if deadlines:
                    wait_s = max(min(deadlines) - time.monotonic(), 0.0)
                ready = set()
                for key, _ in selector.select(wait_s):
                    index = key.data
                    ready.add(index)
                    call = calls[index][1]
                    entry = waiting[index]
                    try:
                        done, error = call.advance(), None
                        if not done:
                            fd, events = call.fileno(), call.events()
                    except Exception as exc:  # noqa: BLE001 - per-shard failures are data
                        done, error = True, exc
                    if done:
                        selector.unregister(entry.fd)
                        del waiting[index]
                        settle(index, entry.started_wall, entry.started_mono, error)
                    elif fd != entry.fd:
                        # The call replaced its connection.
                        selector.unregister(entry.fd)
                        entry.fd, entry.events = fd, events
                        selector.register(fd, events, index)
                    elif events != entry.events:
                        entry.events = events
                        selector.modify(fd, events, index)
                # Past its deadline, a call is given up only after a wait
                # that found its socket idle: bytes that arrived in time
                # are always read.
                now = time.monotonic()
                for index, entry in list(waiting.items()):
                    if index not in ready and entry.deadline is not None and entry.deadline <= now:
                        selector.unregister(entry.fd)
                        del waiting[index]
                        settle(index, entry.started_wall, entry.started_mono,
                               _timeout_error(calls[index][0], entry.budget))
        finally:
            # Calls still waiting here were cut short by a BaseException
            # (e.g. KeyboardInterrupt): drop their connections.
            for index in waiting:
                calls[index][1].close()
            selector.close()
        return outcomes

    #: ``perfbench/layers.py`` wraps both names; the router calls ``scatter``.
    scatter_on_loop = scatter

    def gather(
        self,
        operation: str,
        calls: Sequence[tuple[str, Any]],
        *,
        policy: str = FAIL_FAST,
        timeout: float | None = None,
    ) -> GatherResult:
        """Scatter, then resolve the outcomes under a partial-failure policy."""
        return resolve_outcomes(
            operation, self.scatter(calls, timeout=timeout), policy=policy
        )


@dataclass
class _Waiting:
    """A started socket call the scatter is waiting on."""

    fd: int
    events: int
    started_wall: float
    started_mono: float
    budget: float | None
    deadline: float | None


def _timeout_error(shard_id: str, budget: float | None) -> ShardTimeoutError:
    return ShardTimeoutError(
        f"shard {shard_id!r} did not answer within its {budget}s budget"
    )


def resolve_outcomes(
    operation: str, outcomes: Sequence[ShardOutcome], *, policy: str = FAIL_FAST
) -> GatherResult:
    """Apply a partial-failure policy to raw scatter outcomes.

    Raises :class:`ShardFailedError` when the policy does not tolerate the
    observed failures; otherwise returns the surviving values (in scatter
    order) plus the ids of any shards the DEGRADED policy papered over.
    """
    if policy not in PARTIAL_FAILURE_POLICIES:
        raise ClusterError(
            f"unknown partial-failure policy {policy!r} "
            f"(choose from {PARTIAL_FAILURE_POLICIES})"
        )
    failures = [o for o in outcomes if not o.ok]
    if not failures:
        return GatherResult(
            values=tuple(o.value for o in outcomes), outcomes=tuple(outcomes)
        )
    detail = "; ".join(
        f"{o.shard_id}: {o.error}" for o in failures[:3]
    ) + ("; ..." if len(failures) > 3 else "")
    if policy == FAIL_FAST or len(failures) == len(outcomes):
        raise ShardFailedError(
            f"{operation} failed on {len(failures)}/{len(outcomes)} shard(s): {detail}",
            outcomes,
        )
    return GatherResult(
        values=tuple(o.value for o in outcomes if o.ok),
        missing_shard_ids=tuple(o.shard_id for o in failures),
        outcomes=tuple(outcomes),
    )
