"""Shared execution-target layer (ParallelFor/ReduceData/use_backend).

Targets plug in through the registry API (:func:`register_target` /
:func:`available_targets`).  See :mod:`repro.backend.launch` for the
design notes and :mod:`repro.backend.fused` for the optimizing target.
"""

from repro.backend.launch import (COUNTER_FIELDS, KERNEL_CLASSES,
                                  DeviceBackend, ExecutionBackend,
                                  HostBackend, LaunchCounter, LaunchSpec,
                                  UnknownTargetError, available_targets,
                                  counters_delta, current_backend,
                                  make_exec_backend, parallel_for,
                                  reduce_data, register_target,
                                  resolve_target, set_backend,
                                  unregister_target, use_backend)

# importing the module registers the `fused` target with the registry
from repro.backend.fused import FusedBackend, ScratchCache  # noqa: E402

__all__ = [
    "COUNTER_FIELDS", "KERNEL_CLASSES", "DeviceBackend", "ExecutionBackend",
    "FusedBackend", "HostBackend", "LaunchCounter", "LaunchSpec",
    "ScratchCache", "UnknownTargetError", "available_targets",
    "counters_delta", "current_backend", "make_exec_backend", "parallel_for",
    "reduce_data", "register_target", "resolve_target", "set_backend",
    "unregister_target", "use_backend",
]
