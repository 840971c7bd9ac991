"""Campaign executors: where the work units of a grid actually run.

Three implementations of the same :class:`Executor` protocol — inline
(:class:`SerialExecutor`), process-pool (:class:`ProcessExecutor`) and
distributed TCP master/worker (:class:`SocketExecutor`).  Work units are
pure functions of their fields, so all three produce bit-identical
stores — whatever the worker count or :class:`LeasePolicy` batch size.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.experiments.executors.base import (
    Executor,
    LeasePolicy,
    LeaseSpec,
    ProgressFn,
    SerialExecutor,
    SpeculationPolicy,
    SpeculationSpec,
    parse_steal,
    unit_progress_line,
)
from repro.experiments.executors.process import ProcessExecutor, effective_workers
from repro.experiments.executors.socket import (
    PROTO_VERSION,
    WORKER_EXIT_ERROR,
    WORKER_EXIT_FAULT_INJECTED,
    WORKER_EXIT_OK,
    WORKER_RESPAWN_LIMIT,
    SocketExecutor,
    WorkerPool,
    run_worker,
    sockets_available,
)

from repro.experiments.registry import EXECUTORS, register_executor
from repro.utils.errors import CampaignConfigError


def parse_bind(spec: Union[str, tuple, list, None]) -> tuple[str, int]:
    """Resolve a bind address (``"host:port"`` or a pair) to a tuple.

    The serializable spec form is the string; the CLI's ``--bind``
    parser hands over a tuple.  ``None`` means an ephemeral localhost
    port.  Malformed addresses are a :class:`CampaignConfigError`.
    """
    if spec is None:
        return ("127.0.0.1", 0)
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        return (str(spec[0]), int(spec[1]))
    if isinstance(spec, str):
        host, _, port = spec.rpartition(":")
        if host and port.isdigit():
            return (host, int(port))
    raise CampaignConfigError(
        f"bad bind address {spec!r} (key 'executor.bind' / --bind): "
        "expected HOST:PORT",
        key="executor.bind",
    )


def _serial_factory(workers=None, lease=None, **_options) -> Executor:
    return SerialExecutor()


def _process_factory(workers=None, lease=None, clamp=True, **_options) -> Executor:
    # Asking for the process executor without a count means "use the
    # machine", not "run serially".
    count = int(workers) if workers else (os.cpu_count() or 1)
    return ProcessExecutor(count, clamp=clamp, lease=lease)


def _socket_factory(
    workers=None,
    lease=None,
    bind=None,
    spawn_workers=None,
    timeout=None,
    speculate=None,
    steal=None,
    **_options,
) -> Executor:
    host, port = parse_bind(bind)
    spawn = spawn_workers or workers or 0
    if not spawn and bind is None:
        # An ephemeral port nobody was told about would wait forever:
        # without an explicit bind the master hosts its own workers.
        spawn = 2
    kwargs = {}
    if timeout is not None:
        # None defers to SocketExecutor's own default, so every entry
        # point (direct construction, make_executor, specs, CLI) shares
        # one no-activity deadline.
        kwargs["timeout"] = float(timeout)
    return SocketExecutor(
        host=host,
        port=port,
        spawn_workers=int(spawn),
        lease=lease,
        speculate=speculate,
        steal=steal,
        **kwargs,
    )


def _service_factory(
    workers=None,
    lease=None,
    address=None,
    tenant=None,
    priority=None,
    timeout=None,
    **_options,
) -> Executor:
    # Imported lazily: service.py imports api.py which imports this
    # package (the same cycle-dodge as the columnar store factory).
    from repro.experiments.service import ServiceExecutor

    if address is None:
        raise CampaignConfigError(
            "executor kind 'service' needs the address of a running "
            "campaign service (key 'executor.address' / --address): "
            "expected HOST:PORT",
            key="executor.address",
        )
    kwargs = {}
    if tenant is not None:
        kwargs["tenant"] = str(tenant)
    if priority is not None:
        kwargs["priority"] = int(priority)
    if timeout is not None:
        kwargs["timeout"] = float(timeout)
    return ServiceExecutor(address, **kwargs)


register_executor("serial", _serial_factory)
register_executor("process", _process_factory)
register_executor("socket", _socket_factory)
register_executor("service", _service_factory)

#: the specs `make_executor` accepts by name (import-time snapshot;
#: ``repro.experiments.registry.executor_names()`` is the live view)
EXECUTOR_NAMES: tuple[str, ...] = EXECUTORS.names()


def make_executor(
    spec: Union[Executor, str, None] = None,
    workers: Optional[int] = None,
    clamp: bool = True,
    lease: LeaseSpec = None,
) -> Executor:
    """Resolve an executor from a spec string, instance, or worker count.

    ``None`` picks :class:`ProcessExecutor` when ``workers`` asks for
    parallelism and :class:`SerialExecutor` otherwise.  A string names a registered
    executor (``"serial"``, ``"process"``, ``"process:4"``, ``"socket"``
    — the latter binds an ephemeral localhost port and spawns
    ``workers`` local worker processes, which is the zero-config way to
    try the distributed path); the ``:N`` suffix overrides ``workers``.
    Dispatch goes through the :data:`~repro.experiments.registry.
    EXECUTORS` registry, so kinds added via ``register_executor`` work
    everywhere this is called (API, spec files, CLI).  ``lease`` sizes
    worker leases / pool chunks (``"auto"`` or an int; see
    :class:`LeasePolicy`).  An :class:`Executor` instance passes
    through unchanged — configured :class:`SocketExecutor` masters
    carry their own lease policy.
    """
    if spec is None:
        if workers is not None and int(workers) > 1:
            return ProcessExecutor(workers, clamp=clamp, lease=lease)
        return SerialExecutor()
    if isinstance(spec, str):
        name, _, arg = spec.partition(":")
        factory = EXECUTORS.get(name, key="executor")
        if arg:
            try:
                workers = int(arg)
            except ValueError:
                raise CampaignConfigError(
                    f"bad executor spec {spec!r} (key 'executor'): the "
                    "suffix after ':' must be a worker count",
                    key="executor",
                ) from None
        return factory(workers=workers, lease=lease, clamp=clamp)
    return spec


__all__ = [
    "Executor",
    "LeasePolicy",
    "LeaseSpec",
    "ProgressFn",
    "SerialExecutor",
    "ProcessExecutor",
    "SocketExecutor",
    "WorkerPool",
    "SpeculationPolicy",
    "SpeculationSpec",
    "effective_workers",
    "make_executor",
    "parse_bind",
    "parse_steal",
    "run_worker",
    "sockets_available",
    "unit_progress_line",
    "EXECUTOR_NAMES",
    "PROTO_VERSION",
    "WORKER_EXIT_OK",
    "WORKER_EXIT_ERROR",
    "WORKER_EXIT_FAULT_INJECTED",
    "WORKER_RESPAWN_LIMIT",
]
