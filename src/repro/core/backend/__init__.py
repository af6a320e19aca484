"""The NumPy kernel programs that execute lowered decision kernels.

:func:`compile_program` turns a sequence of declarative
:class:`~repro.core.kernelspec.KernelSpec` objects — one for a solo run, a
fleet bucket's specs otherwise, all sharing an op and a table shape — into
one executable program whose ``decide(state_index, times, members)``
returns ``(rows, steps, late)`` for one lockstep invocation: ``members`` is
the scalar index of the member owning every lane (``0`` for a solo run) or
one member index per lane, and ``late`` is ``None`` for ops without a late
path.  A program's ``one_step`` attribute declares that every answer is one
step, which lets the lockstep loop skip its relaxation-window bookkeeping.
The engine (:mod:`repro.core.engine`) binds overhead charges and
accounting around the program, so programs only implement the primitive
math — and because every primitive answers exactly what the scalar
managers decide, outcomes stay bit-identical to the scalar loop.

The NumPy programs (:mod:`~repro.core.backend.numpy_backend`) are the only
implementation, so nothing selects one.  :func:`get_backend` remains as
the name tools query (it returns the NumPy compiler, ``.name ==
"numpy"``); it refuses any other name, and so does :func:`compile_program`
when ``$REPRO_BACKEND`` names anything but ``numpy`` — a request for
another backend is refused, never served by NumPy in silence.
"""

from __future__ import annotations

import os
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.kernelspec import KernelSpec

from .numpy_backend import NumpyKernelBackend

__all__ = ["ENV_BACKEND", "BackendError", "KernelProgram", "compile_program", "get_backend"]

#: environment variable that may only name ``numpy``
ENV_BACKEND = "REPRO_BACKEND"

_NUMPY = NumpyKernelBackend()


class BackendError(ValueError):
    """A request for a kernel backend other than the NumPy programs."""


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


def get_backend(name: str | None = None) -> NumpyKernelBackend:
    """The NumPy program compiler; ``name`` (else ``$REPRO_BACKEND``) must be
    unset or ``"numpy"``, anything else raises :class:`BackendError`."""
    if name is None:
        requested = os.environ.get(ENV_BACKEND, "").strip() or "numpy"
        if requested != "numpy":
            raise BackendError(
                f"${ENV_BACKEND} is {requested!r}, but the NumPy programs are the "
                f"only kernel backend; unset {ENV_BACKEND} or set it to 'numpy'"
            )
    elif str(name) != "numpy":
        raise BackendError(
            f"unknown kernel backend {name!r}; the NumPy programs ('numpy') are "
            "the only one"
        )
    return _NUMPY


def compile_program(specs: Sequence[KernelSpec]) -> KernelProgram:
    """One member-stacked NumPy program over ``specs`` (same op and shape)."""
    return get_backend().compile(specs)
