"""Deterministic fault injection for the simulated distributed runtime.

The paper's distributed kernels are dominated by fine-grained gather/scatter
traffic (§IV); real distributed GraphBLAS stacks (CombBLAS 2.0, Azad et al.)
treat communication robustness as a first-class concern.  This module makes
the simulator's communication fallible — deterministically, so every chaos
test replays bit-for-bit from a seed.

Fault taxonomy (see ``docs/faults.md``):

=====================  ====================================================
``transient``          a fine-grained or bulk transfer attempt fails and is
                       retried under the :class:`RetryPolicy`
``drop``               an element-wise put is lost; the sender detects the
                       missing ack after a timeout and re-sends
``duplicate``          an element-wise put is delivered twice; the receiver
                       de-duplicates by the (source, sequence) tag
``straggler``          a locale runs slower by a constant factor
``locale-failure``     a locale is permanently down
=====================  ====================================================

The first four are *covered*: kernels repair them through the retry policy
and return results bit-identical to fault-free local execution — only the
simulated cost changes, and the repair overhead is charged to the
:data:`RETRY_STEP` component so robustness shows up in every
:class:`~repro.runtime.clock.Breakdown`.  Locale failure — and a transient
burst longer than the retry budget — is *uncovered*: kernels raise a typed
:class:`LocaleFailure` instead of silently corrupting the result.

Determinism: every fault draw comes from a stream seeded by ``(plan.seed,
site, superstep, locale)`` — the superstep counter advances once per SPMD
op entry (:meth:`FaultInjector.check_grid`) and the locale is the
receiving endpoint.  Keying on the *position* of the draw rather than on
call order makes the sequences order-independent: two runs of the same
(plan, policy, workload) observe identical faults even if the per-locale
work is executed in a different interleaving.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .telemetry import registry as _metrics

__all__ = [
    "RETRY_STEP",
    "TRANSIENT",
    "DROP",
    "DUPLICATE",
    "STRAGGLER",
    "LOCALE_FAILURE",
    "FaultEvent",
    "FaultPlan",
    "RetryPolicy",
    "FaultInjector",
    "LocaleFailure",
    "RetryExhausted",
]

#: Breakdown component that all retry/repair overhead is charged to, so the
#: robustness cost is visible next to the paper's "Gather Input" etc.
RETRY_STEP = "Retries"

# -- fault kinds -----------------------------------------------------------
TRANSIENT = "transient"
DROP = "drop"
DUPLICATE = "duplicate"
STRAGGLER = "straggler"
LOCALE_FAILURE = "locale-failure"


class LocaleFailure(RuntimeError):
    """An uncovered fault: a locale is down (or a retry budget ran out).

    Kernels raise this instead of returning silently corrupted results.
    ``locale`` is the failed locale id; ``site`` names the communication
    site that observed the failure.
    """

    def __init__(self, locale: int, site: str, reason: str) -> None:
        super().__init__(f"locale {locale} at {site!r}: {reason}")
        self.locale = locale
        self.site = site
        self.reason = reason


class RetryExhausted(LocaleFailure):
    """A transient-fault burst outlasted the retry policy's attempt budget."""


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, recorded in :attr:`FaultInjector.events`."""

    kind: str
    site: str
    locale: int
    attempt: int = 0
    count: int = 1


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seed-driven plan of what goes wrong.

    Parameters
    ----------
    seed:
        Root seed of every per-site fault stream.
    transient_rate:
        Per-attempt probability that a fine-grained/bulk transfer fails.
    max_burst:
        Hard cap on consecutive transient failures of one transfer.  A
        :class:`RetryPolicy` with ``max_attempts > max_burst`` therefore
        *covers* the plan's transient faults deterministically.
    drop_rate / dup_rate:
        Per-element probabilities that an element-wise put is lost /
        delivered twice.
    stragglers:
        ``locale id -> slowdown factor (>= 1)`` for slow locales.
    failed_locales:
        Locales that are permanently down — always uncovered.
    """

    seed: int = 0
    transient_rate: float = 0.0
    max_burst: int = 2
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    stragglers: Mapping[int, float] = field(default_factory=dict)
    failed_locales: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        for name in ("transient_rate", "drop_rate", "dup_rate"):
            r = getattr(self, name)
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {r}")
        if self.max_burst < 0:
            raise ValueError("max_burst must be >= 0")
        for loc, f in self.stragglers.items():
            if f < 1.0:
                raise ValueError(f"straggler factor for locale {loc} must be >= 1")
        object.__setattr__(self, "stragglers", dict(self.stragglers))
        object.__setattr__(self, "failed_locales", frozenset(self.failed_locales))

    @classmethod
    def fault_free(cls) -> "FaultPlan":
        """The do-nothing plan (kernels behave exactly as without faults)."""
        return cls()

    @property
    def quiet(self) -> bool:
        """True when the plan can never produce any fault."""
        return (
            self.transient_rate == 0.0
            and self.drop_rate == 0.0
            and self.dup_rate == 0.0
            and not self.stragglers
            and not self.failed_locales
        )

    def covered_by(self, policy: "RetryPolicy") -> bool:
        """Whether ``policy`` repairs every fault this plan can produce."""
        return not self.failed_locales and policy.max_attempts > self.max_burst


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout / retry / exponential-backoff policy for covered faults.

    All times are *simulated* seconds: every failed attempt charges the
    wasted transfer time plus ``detect_timeout`` plus
    ``backoff_base * backoff_factor ** attempt`` to :data:`RETRY_STEP`.
    """

    max_attempts: int = 4
    detect_timeout: float = 1.0e-4
    backoff_base: float = 5.0e-5
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.detect_timeout < 0 or self.backoff_base < 0:
            raise ValueError("timeouts must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Back-off delay charged before re-attempt number ``attempt + 1``."""
        return self.backoff_base * self.backoff_factor**attempt


class FaultInjector:
    """Binds a :class:`FaultPlan` to a :class:`RetryPolicy` and injects.

    The communication layer (:mod:`repro.runtime.comm` fault-tolerant
    wrappers, and the distributed kernels directly) calls into this object
    at every communication site.  All injected faults are appended to
    :attr:`events` for assertions and diagnostics.
    """

    def __init__(self, plan: FaultPlan, policy: RetryPolicy | None = None) -> None:
        self.plan = plan
        self.policy = policy if policy is not None else RetryPolicy()
        self.events: list[FaultEvent] = []
        self._superstep = 0
        self._streams: dict[tuple[str, int, int], random.Random] = {}

    def _note(self, event: FaultEvent) -> None:
        """Log one injected fault and count it (``faults.events{kind}``)."""
        self.events.append(event)
        _metrics.counter("faults.events").inc(event.count, kind=event.kind)

    # -- determinism -------------------------------------------------------

    @property
    def superstep(self) -> int:
        """The current SPMD-op counter (bumped by :meth:`check_grid`)."""
        return self._superstep

    def _stream(self, site: str, locale: int) -> random.Random:
        """The PRNG for draws at ``(site, current superstep, locale)``.

        Each triple owns an independent stream derived from the plan seed,
        so the draws one endpoint consumes are a pure function of *where*
        it is in the computation, never of how many draws other locales
        made first — serial and pooled execution read identical sequences.
        """
        key = (site, self._superstep, locale)
        rs = self._streams.get(key)
        if rs is None:
            digest = hashlib.blake2b(
                f"{self.plan.seed}:{site}:{self._superstep}:{locale}".encode(),
                digest_size=8,
            ).digest()
            rs = self._streams[key] = random.Random(int.from_bytes(digest, "big"))
        return rs

    def begin_superstep(self) -> int:
        """Advance to the next SPMD superstep and drop the old streams.

        Called once per distributed-op entry (via :meth:`check_grid`).
        Streams of earlier supersteps can never be drawn from again — the
        counter only grows — so they are freed rather than cached.
        """
        self._superstep += 1
        self._streams.clear()
        return self._superstep

    def reset(self) -> None:
        """Rewind every fault stream and clear the event log.

        After a reset the injector replays exactly the same faults for the
        same sequence of calls — the determinism the chaos suite pins.
        """
        self.events.clear()
        self._superstep = 0
        self._streams.clear()

    # -- queries -----------------------------------------------------------

    def failed(self, locale: int) -> bool:
        """Whether ``locale`` is permanently down."""
        return locale in self.plan.failed_locales

    def check_locale(self, locale: int, site: str = "") -> None:
        """Raise :class:`LocaleFailure` if ``locale`` is down (uncovered)."""
        if self.failed(locale):
            self._note(FaultEvent(LOCALE_FAILURE, site, locale))
            raise LocaleFailure(locale, site, "locale is down")

    def check_grid(self, grid, site: str = "") -> None:
        """Check every locale of a grid before an SPMD region starts.

        Doubles as the superstep boundary: every distributed kernel calls
        this exactly once at op entry, which is where the per-(site,
        superstep, locale) fault streams re-key.
        """
        self.begin_superstep()
        for loc in grid:
            self.check_locale(loc.id, site)

    def slowdown(self, locale: int) -> float:
        """Straggler slowdown factor of ``locale`` (1.0 when healthy)."""
        return self.plan.stragglers.get(locale, 1.0)

    # -- covered fault channels --------------------------------------------

    def transfer(
        self, site: str, base_seconds: float, *, src: int = 0, dst: int = 0
    ) -> tuple[float, float]:
        """One (fine-grained batch or bulk) transfer under transient faults.

        Returns ``(goodput_seconds, retry_seconds)``: the successful
        attempt's cost (straggler-stretched) and the overhead of every
        failed attempt — wasted transfer time, detection timeout, and
        exponential backoff.  Raises :class:`RetryExhausted` when the burst
        outlasts ``policy.max_attempts`` and :class:`LocaleFailure` when an
        endpoint is down.
        """
        self.check_locale(src, site)
        self.check_locale(dst, site)
        slow = max(self.slowdown(src), self.slowdown(dst))
        rs = self._stream(site, dst)
        burst = 0
        while burst < self.plan.max_burst and rs.random() < self.plan.transient_rate:
            burst += 1
        overhead = 0.0
        for attempt in range(burst):
            self._note(FaultEvent(TRANSIENT, site, dst, attempt))
            overhead += (
                base_seconds * slow
                + self.policy.detect_timeout
                + self.policy.backoff(attempt)
            )
            if attempt + 1 >= self.policy.max_attempts:
                raise RetryExhausted(
                    dst,
                    site,
                    f"transient burst of {burst} outlasted "
                    f"{self.policy.max_attempts} attempts",
                )
        if overhead:
            _metrics.counter("faults.retry.seconds").inc(overhead, channel="transfer")
        return base_seconds * slow, overhead

    def batched_transfer(
        self,
        site: str,
        n_batches: int,
        batch_seconds: float,
        *,
        src: int = 0,
        dst: int = 0,
    ) -> tuple[float, float]:
        """A sequence of flush batches from an aggregation buffer.

        The aggregation layer (:mod:`repro.runtime.aggregation`) ships data
        as sequence-tagged batches, so *every* covered fault repairs at
        batch granularity and the payload is never perturbed: a transient
        failure or a dropped batch re-sends the whole batch verbatim, and a
        duplicated batch is discarded at the receiver by its (source,
        sequence) tag.  Delivery is therefore idempotent and exact — only
        time is lost, all of it charged to :data:`RETRY_STEP`.

        Returns ``(goodput_seconds, retry_seconds)`` for all ``n_batches``
        batches together.  Raises :class:`RetryExhausted` when one batch's
        transient burst outlasts the policy and :class:`LocaleFailure` when
        an endpoint is down.
        """
        self.check_locale(src, site)
        self.check_locale(dst, site)
        if n_batches <= 0:
            return 0.0, 0.0
        slow = max(self.slowdown(src), self.slowdown(dst))
        per_batch = batch_seconds * slow
        rs = self._stream(site, dst)
        overhead = 0.0
        for _ in range(n_batches):
            burst = 0
            while (
                burst < self.plan.max_burst
                and rs.random() < self.plan.transient_rate
            ):
                burst += 1
            for attempt in range(burst):
                self._note(FaultEvent(TRANSIENT, site, dst, attempt))
                overhead += (
                    per_batch
                    + self.policy.detect_timeout
                    + self.policy.backoff(attempt)
                )
                if attempt + 1 >= self.policy.max_attempts:
                    raise RetryExhausted(
                        dst,
                        site,
                        f"transient burst of {burst} outlasted "
                        f"{self.policy.max_attempts} attempts",
                    )
            if self.plan.drop_rate > 0.0 and rs.random() < self.plan.drop_rate:
                # the whole batch is lost; timeout, back off, re-send it
                self._note(FaultEvent(DROP, site, dst))
                overhead += (
                    self.policy.detect_timeout
                    + self.policy.backoff(0)
                    + per_batch
                )
            elif self.plan.dup_rate > 0.0 and rs.random() < self.plan.dup_rate:
                # redelivered batch is discarded by its sequence tag; the
                # wasted delivery time is the only cost
                self._note(FaultEvent(DUPLICATE, site, dst))
                overhead += per_batch
        if overhead:
            _metrics.counter("faults.retry.seconds").inc(overhead, channel="batched")
        return n_batches * per_batch, overhead

    def deliver_puts(
        self,
        site: str,
        indices: np.ndarray,
        values: np.ndarray,
        *,
        src: int = 0,
        dst: int = 0,
        per_element_seconds: float = 0.0,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Element-wise puts of ``(index, value)`` pairs with drops/dups.

        The returned arrays are *reconstructed from what the receiver
        observed*: first-pass survivors plus duplicates, de-duplicated by
        the (source, sequence) tag, plus the re-sent dropped elements — so
        a bug in the repair logic corrupts the kernel's result instead of
        silently passing.  Returns ``(indices, values, retry_seconds)``.
        """
        self.check_locale(src, site)
        self.check_locale(dst, site)
        n = int(len(indices))
        if n == 0 or (self.plan.drop_rate == 0.0 and self.plan.dup_rate == 0.0):
            return indices, values, 0.0
        rs = self._stream(site, dst)
        rng = np.random.default_rng(rs.getrandbits(64))
        dropped = rng.random(n) < self.plan.drop_rate
        doubled = (rng.random(n) < self.plan.dup_rate) & ~dropped
        seq = np.arange(n, dtype=np.int64)
        # first pass: survivors arrive once, doubled elements arrive twice
        first_pass = np.concatenate([seq[~dropped], seq[doubled]])
        # receiver de-duplicates by sequence tag (the sparse layer sits
        # above the runtime, hence the late import)
        from ..sparse.sort import unique_sorted

        observed = unique_sorted(first_pass)
        # sender times out on the missing acks and re-sends exactly those
        final = np.sort(np.concatenate([observed, seq[dropped]]))
        overhead = 0.0
        n_drop = int(dropped.sum())
        n_dup = int(doubled.sum())
        if n_drop:
            self._note(FaultEvent(DROP, site, dst, count=n_drop))
            overhead += (
                self.policy.detect_timeout
                + self.policy.backoff(0)
                + n_drop * per_element_seconds
            )
        if n_dup:
            self._note(FaultEvent(DUPLICATE, site, dst, count=n_dup))
            overhead += n_dup * per_element_seconds
        if overhead:
            _metrics.counter("faults.retry.seconds").inc(overhead, channel="puts")
        return indices[final], values[final], overhead

    # -- summaries ---------------------------------------------------------

    def event_counts(self) -> dict[str, int]:
        """Injected fault totals by kind."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + e.count
        return out

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"FaultInjector(seed={self.plan.seed}, events={len(self.events)}, "
            f"covered={self.plan.covered_by(self.policy)})"
        )
