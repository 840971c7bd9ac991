"""Pluggable registries behind every name a campaign spec can mention.

A :class:`~repro.experiments.api.CampaignSpec` describes a campaign
purely as *data* — scheduler, network, topology, executor, and store
backends all appear by name.  This module is the single place those
names resolve: one generic :class:`Registry` plus five instances, with
``register_*`` entry points so downstream code can plug in new
implementations without touching any dispatch site::

    from repro.experiments.registry import register_scheduler

    register_scheduler("my-heft", lambda inst, eps, rng, model, fast=True: ...)

Builtin entries are registered by the modules that own them (schedulers
by ``experiments.harness``, executors by ``experiments.executors``,
stores by ``experiments.store``); network models and topology shapes
live in the lower ``repro.comm`` / ``repro.platform`` layers, whose
``register_network`` / ``register_topology`` are re-exported here so
one import surface covers every extension point.

Lookups of unknown names raise
:class:`~repro.utils.errors.CampaignConfigError` naming the offending
key and listing what *is* registered — the uniform configuration error
the API and the CLI share.  Duplicate registrations raise a plain
``ValueError`` (that is a programming error, not a bad config).

Registrations are **process-local**.  A campaign whose spec names a
plugin (a registered scheduler, network, ...) validates on the process
that registered it; every executor worker process must perform the same
registrations before computing units, or its lookups fail.  Fork-started
local pools inherit them automatically; spawn-started pools and remote
``repro-ftsched campaign worker`` processes do not — put the
``register_*`` calls in an importable module and import it on the
workers (e.g. via ``sitecustomize`` or a wrapper entry point).
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Optional, TypeVar

from repro.comm import network_names, register_network
from repro.experiments.arrival import (
    arrival_process_names,
    register_arrival_process,
)
from repro.fault.model import failure_model_names, register_failure_model
from repro.platform.topology import register_topology, topology_names
from repro.utils.errors import CampaignConfigError
from repro.utils.registry import check_registration

T = TypeVar("T")


class Registry:
    """A named collection of implementations of one campaign concept.

    A thin mapping with campaign-flavoured errors: :meth:`get` on an
    unknown name raises :class:`CampaignConfigError` that names the
    spec key being resolved and lists the registered alternatives.
    """

    def __init__(self, kind: str) -> None:
        #: what the entries are, e.g. ``"executor"`` (used in messages)
        self.kind = kind
        self._entries: dict[str, object] = {}

    def register(self, name: str, value: T, *, overwrite: bool = False) -> T:
        check_registration(self.kind, name, name in self._entries, overwrite)
        self._entries[name] = value
        return value

    def remove(self, name: str) -> None:
        """Drop a registration (tests unplug what they plugged in)."""
        self._entries.pop(name, None)

    def get(self, name: str, key: Optional[str] = None):
        """Resolve ``name``; unknown names are a :class:`CampaignConfigError`.

        ``key`` names the spec field being resolved (defaults to the
        registry kind) so the error points at the user's input.
        """
        try:
            return self._entries[name]
        except KeyError:
            where = f" (key {key!r})" if key else ""
            raise CampaignConfigError(
                f"unknown {self.kind} {name!r}{where}; "
                f"registered: {', '.join(self.names()) or '(none)'}",
                key=key or self.kind,
            ) from None

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)


class SchedulerEntry(NamedTuple):
    """How one algorithm name runs: fault-tolerant and fault-free forms."""

    #: ``runner(instance, epsilon, rng, model, fast=True) -> Schedule``
    runner: Callable
    #: ``faultfree(instance, rng, model, fast=True) -> Schedule`` —
    #: the ε = 0 reference the overhead metrics normalize against
    faultfree: Callable


#: algorithm names a config's ``algorithms`` tuple may use
SCHEDULERS = Registry("scheduler")
#: scheduler name -> representative of its fault-free equivalence class
#: (see :func:`register_scheduler`).  Kept beside ``SCHEDULERS`` rather
#: than in each entry, so re-registering a wrapped entry with
#: ``SCHEDULERS.register(..., overwrite=True)`` (as a profiler does)
#: keeps the declaration.
FAULTFREE_CLASSES: dict[str, str] = {}
#: executor kinds (``--executor`` / ``executor.kind``)
EXECUTORS = Registry("executor")
#: results-store backends (``store.backend``)
STORES = Registry("store")


def register_scheduler(
    name: str,
    runner: Callable,
    faultfree: Optional[Callable] = None,
    *,
    faultfree_class: Optional[str] = None,
    overwrite: bool = False,
) -> Callable:
    """Register a scheduling algorithm under ``name``.

    ``runner(instance, epsilon, rng, model, fast=True)`` must return a
    :class:`~repro.schedule.schedule.Schedule`.  ``faultfree`` defaults
    to ``runner`` at ε = 0, which is correct for any scheduler whose
    fault-free form is simply "no replication".  Registered names are
    valid in ``ExperimentConfig.algorithms`` and show up in every
    campaign's per-algorithm columns.  Returns ``runner``.

    ``faultfree_class`` names the representative of the scheduler's
    fault-free equivalence class; the representative names itself.  It
    declares that this scheduler's fault-free schedule equals the
    representative's whenever the representative certifies its own by
    reporting ``schedule.metadata["near_ties"] == 0``.  The harnesses
    then run one fault-free reference per class and fall back to each
    member's own ``faultfree`` when the certificate fails.
    """
    if faultfree is None:
        def faultfree(inst, rng, model, fast=True, _runner=runner):
            return _runner(inst, 0, rng, model, fast)

    SCHEDULERS.register(name, SchedulerEntry(runner, faultfree), overwrite=overwrite)
    if faultfree_class is None:
        FAULTFREE_CLASSES.pop(name, None)
    else:
        FAULTFREE_CLASSES[name] = faultfree_class
    return runner


def faultfree_representative(name: str) -> Optional[str]:
    """The registered representative of ``name``'s fault-free class.

    ``None`` when ``name`` declares no class, or when its representative
    is not registered as the representative of its own class.
    """
    rep = FAULTFREE_CLASSES.get(name)
    if rep is None or rep not in SCHEDULERS or FAULTFREE_CLASSES.get(rep) != rep:
        return None
    return rep


def register_executor(
    name: str, factory: Callable, *, overwrite: bool = False
) -> Callable:
    """Register an executor factory under ``name``.

    ``factory(workers=None, lease=None, **options)`` must return an
    object satisfying the :class:`~repro.experiments.executors.Executor`
    protocol.  The name becomes valid for ``--executor``, executor spec
    strings (``"name"`` / ``"name:N"`` — the ``:N`` suffix arrives as
    ``workers``), and ``executor.kind`` in campaign specs, whose extra
    fields (e.g. ``bind``/``timeout`` for sockets) arrive as keyword
    ``options``.  Returns ``factory``.
    """
    return EXECUTORS.register(name, factory, overwrite=overwrite)


def register_store(
    name: str, factory: Callable, *, overwrite: bool = False
) -> Callable:
    """Register a results-store backend under ``name``.

    ``factory(directory=None)`` must return a
    :class:`~repro.experiments.store.RunStore` (or a compatible
    object).  The name becomes valid for ``store.backend`` in campaign
    specs.  Returns ``factory``.
    """
    return STORES.register(name, factory, overwrite=overwrite)


def scheduler_names() -> tuple[str, ...]:
    return SCHEDULERS.names()


def executor_names() -> tuple[str, ...]:
    return EXECUTORS.names()


def store_names() -> tuple[str, ...]:
    return STORES.names()


__all__ = [
    "Registry",
    "SchedulerEntry",
    "SCHEDULERS",
    "FAULTFREE_CLASSES",
    "EXECUTORS",
    "STORES",
    "register_scheduler",
    "faultfree_representative",
    "register_executor",
    "register_store",
    "register_network",
    "register_topology",
    "register_arrival_process",
    "register_failure_model",
    "scheduler_names",
    "executor_names",
    "store_names",
    "network_names",
    "topology_names",
    "arrival_process_names",
    "failure_model_names",
]
