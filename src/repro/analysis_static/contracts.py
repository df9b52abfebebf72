"""Runtime contract layer: ``@invariant``-checked debug mode.

The static rules prove *shape* properties of the source; this module
checks the corresponding *state* properties while the algorithms run.
Both enforce the same discipline (see ``docs/contracts.md``), so a
property test exercising :class:`~repro.spanning.brtree.BRPlusTree`
under ``REPRO_CHECK_INVARIANTS=1`` validates exactly the contracts the
linter cannot see statically — parent/depth consistency, the single
strictly-shallower backward link, drank monotonicity.

The layer is nearly free when disabled: :func:`invariant` wraps methods
with one attribute check — hosts resolve ``REPRO_CHECK_INVARIANTS``
once, into a ``contracts_enabled`` attribute, when they are built — and
checkers only run when the variable is set to a truthy value.
"""

from __future__ import annotations

import functools
import os
from typing import Any, Callable, TypeVar

from repro.exceptions import ContractViolation

#: Environment variable gating the runtime checks.
ENV_VAR = "REPRO_CHECK_INVARIANTS"

_FALSY = frozenset({"", "0", "false", "no", "off"})

_Method = TypeVar("_Method", bound=Callable[..., Any])


def invariants_enabled() -> bool:
    """Whether runtime invariant checking is switched on.

    Controlled by the ``REPRO_CHECK_INVARIANTS`` environment variable;
    any value other than ``""``, ``0``, ``false``, ``no`` or ``off``
    (case-insensitive) enables the checks.
    """
    return os.environ.get(ENV_VAR, "").strip().lower() not in _FALSY


def require(condition: object, message: str) -> None:
    """Raise :class:`~repro.exceptions.ContractViolation` unless true."""
    if not condition:
        raise ContractViolation(message)


def invariant(*checker_names: str) -> Callable[[_Method], _Method]:
    """Decorate a method to run named checker methods after it returns.

    Each name in ``checker_names`` must be a zero-argument method on the
    same object; the checkers run — in order — only when the object's
    ``contracts_enabled`` attribute is true (hosts without one consult
    :func:`invariants_enabled` per call), and raise
    :class:`~repro.exceptions.ContractViolation` on breakage.  The
    wrapped method's return value is passed through untouched.
    """

    def decorate(method: _Method) -> _Method:
        @functools.wraps(method)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            result = method(self, *args, **kwargs)
            enabled = getattr(self, "contracts_enabled", None)
            if enabled is None:
                enabled = invariants_enabled()
            if enabled:
                for name in checker_names:
                    getattr(self, name)()
            return result

        return wrapper  # type: ignore[return-value]

    return decorate
