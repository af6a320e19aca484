"""Pluggable compute backends for the lowered decision kernels.

A *backend* turns a sequence of declarative
:class:`~repro.core.kernelspec.KernelSpec` objects — one for a solo run, a
fleet bucket's specs otherwise, all sharing an op and a table shape — into
one executable program whose ``decide(state_index, times, members)``
returns ``(rows, steps, late)`` for one lockstep invocation: ``members`` is
the scalar index of the member owning every lane (``0`` for a solo run) or
one member index per lane, and ``late`` is ``None`` for ops without a late
path.  A program's ``one_step`` attribute declares that every answer is one
step, which lets the lockstep loop skip its relaxation-window bookkeeping.
The engine (:mod:`repro.core.engine`) binds overhead charges and
accounting around the program, so backends only implement the primitive
math — and because every primitive answers exactly what the scalar
managers decide, outcomes stay bit-identical to the scalar loop.

One backend ships: ``numpy`` (the default), pure NumPy programs for all six
primitives.  The registry is the extension seam: :func:`register_backend`
adds a named factory, and a factory returning ``None`` marks its backend
unavailable, so selecting it raises :class:`BackendError` instead of
falling back.

Selection: :func:`get_backend` resolves an explicit name, else the
``REPRO_BACKEND`` environment variable, else ``numpy``.  The choice is
plumbed end-to-end — ``Session.backend()``, the CLI ``--backend`` flags and
the sweep :class:`~repro.runtime.plan.ExecutionPayload` all carry it, so
pool, spool and service workers execute under the same backend as a local
run, and fleet buckets key on it.
"""

from __future__ import annotations

import os
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.kernelspec import KernelSpec

__all__ = [
    "ENV_BACKEND",
    "BackendError",
    "KernelProgram",
    "KernelBackend",
    "register_backend",
    "registered_backends",
    "available_backends",
    "backend_available",
    "get_backend",
]

#: environment variable naming the default backend
ENV_BACKEND = "REPRO_BACKEND"


class BackendError(ValueError):
    """Unknown backend name, or a registered backend that is not installed."""


@runtime_checkable
class KernelProgram(Protocol):
    """An executable lowering of member-stacked specs: decisions, no accounting."""

    #: every answer is one step (the loop decides on every lane at every action)
    one_step: bool

    def decide(
        self, state_index: int, times: np.ndarray, members: int | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Return ``(rows, steps, late)`` for one lockstep invocation.

        ``members`` is one member index for every lane, or one per lane.
        ``late`` flags the lanes on the spec's late path (``None`` when the
        op has no late/normal distinction, or the specs charge no distinct
        late work).  Any result may be a scalar that broadcasts against
        ``times``.
        """
        ...


@runtime_checkable
class KernelBackend(Protocol):
    """A registry entry: compiles specs into :class:`KernelProgram` objects."""

    name: str

    def compile(self, specs: Sequence[KernelSpec]) -> KernelProgram:
        """Build one program over specs sharing an op and a table shape."""
        ...


#: factories return the backend instance, or ``None`` when unavailable
_FACTORIES: dict[str, Callable[[], "KernelBackend | None"]] = {}
_INSTANCES: dict[str, "KernelBackend | None"] = {}


def register_backend(name: str, factory: Callable[[], "KernelBackend | None"]) -> None:
    """Register a backend factory; the factory returns ``None`` if unavailable."""
    _FACTORIES[str(name)] = factory
    _INSTANCES.pop(str(name), None)


def _instance(name: str) -> "KernelBackend | None":
    if name not in _INSTANCES:
        _INSTANCES[name] = _FACTORIES[name]()
    return _INSTANCES[name]


def registered_backends() -> tuple[str, ...]:
    """Every registered backend name, available or not, sorted."""
    return tuple(sorted(_FACTORIES))


def backend_available(name: str) -> bool:
    """True when the named backend exists and its dependencies are installed."""
    return name in _FACTORIES and _instance(name) is not None


def available_backends() -> tuple[str, ...]:
    """The registered backends usable in this environment, sorted."""
    return tuple(name for name in registered_backends() if backend_available(name))


def get_backend(name: str | None = None) -> KernelBackend:
    """Resolve a backend: explicit name, else ``$REPRO_BACKEND``, else numpy.

    Raises :class:`BackendError` for unknown names and for registered
    backends whose factory reports them unavailable.
    """
    if name is None:
        name = os.environ.get(ENV_BACKEND, "").strip() or "numpy"
    name = str(name)
    if name not in _FACTORIES:
        raise BackendError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(registered_backends())}"
        )
    backend = _instance(name)
    if backend is None:
        raise BackendError(
            f"backend {name!r} is registered but not available in this "
            "environment (its optional dependency is not installed); "
            f"available backends: {', '.join(available_backends())}"
        )
    return backend


def _numpy_factory() -> "KernelBackend | None":
    from .numpy_backend import NumpyKernelBackend

    return NumpyKernelBackend()


register_backend("numpy", _numpy_factory)
