"""Protocol registry and shared helpers for ceiling-based baselines."""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Callable, Dict, Optional, Set, Tuple, Type

from repro.core.ceilings import CeilingTable
from repro.engine.interfaces import ConcurrencyControlProtocol, Deny, Grant
from repro.exceptions import ProtocolError, UnknownProtocolError
from repro.model.spec import DUMMY_PRIORITY, LockMode, TaskSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.job import Job
    from repro.engine.lock_table import LockEntry, LockTable

_REGISTRY: Dict[str, Callable[[], ConcurrencyControlProtocol]] = {}

#: Every built-in protocol name -> the module defining its class, which
#: registers it on import (PCP-DA's is registered at the bottom of this
#: module); :func:`make_protocol` imports that module on first use.
_BUILTIN: Dict[str, str] = {
    "pcp-da": "repro.core.pcp_da",
    "rw-pcp": "repro.protocols.rw_pcp",
    "ccp": "repro.protocols.ccp",
    "pcp": "repro.protocols.original_pcp",
    "pip-2pl": "repro.protocols.pip_2pl",
    "2pl-hp": "repro.protocols.two_pl_hp",
    "2pl": "repro.protocols.plain_2pl",
    "ipcp": "repro.protocols.ipcp",
    "occ-bc": "repro.protocols.occ_bc",
    "rw-pcp-abort": "repro.protocols.rw_pcp_abort",
    "pcp-da-checked": "repro.verify.lemmas",
    "weak-pcp-da": "repro.protocols.weak_pcp_da",
}


def register_protocol(
    cls: Type[ConcurrencyControlProtocol],
) -> Type[ConcurrencyControlProtocol]:
    """Class decorator: register ``cls`` under its ``name`` attribute.

    A built-in name is reserved for the module :data:`_BUILTIN` lists,
    whether or not that module has been imported yet.
    """
    if not cls.name:
        raise ProtocolError(f"{cls.__name__} has no registry name")
    if (
        cls.name in _REGISTRY
        or _BUILTIN.get(cls.name, cls.__module__) != cls.__module__
    ):
        raise ProtocolError(f"protocol name {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def make_protocol(name: str, **kwargs) -> ConcurrencyControlProtocol:
    """Instantiate a protocol by name, importing a built-in one's module
    on first use."""
    if name not in _REGISTRY and name in _BUILTIN:
        importlib.import_module(_BUILTIN[name])
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownProtocolError(name, available_protocols()) from None
    return factory(**kwargs)


def available_protocols() -> Tuple[str, ...]:
    """Built-in and registered protocol names, sorted (imports nothing)."""
    return tuple(sorted(_REGISTRY.keys() | _BUILTIN.keys()))


#: The P>Sysceil family's denial text when the requested item is free.
_CEILING_REASON = "ceiling blocking: P <= Sysceil"


class CeilingProtocolBase(ConcurrencyControlProtocol):
    """Shared machinery for protocols that use static ceiling tables, and
    the P>Sysceil family's one decision rule (RW-PCP, CCP, original
    PCP): a member names its runtime item ceiling
    (:meth:`_item_ceiling`), the kernel opcode for it
    (:attr:`level_source`) and its conflict-denial text
    (:attr:`conflict_reason`)."""

    #: Name of the ``repro.engine.kernel.tables`` ``LEVEL_*`` opcode that
    #: computes :meth:`_item_ceiling` in the array kernel.
    level_source = ""
    #: Denial text when the requested item itself is locked by another
    #: transaction (conflict blocking rather than ceiling blocking).
    conflict_reason = ""

    def __init__(self) -> None:
        super().__init__()
        self._ceilings: Optional[CeilingTable] = None

    def bind(self, taskset: TaskSet, table: "LockTable") -> None:
        super().bind(taskset, table)
        self._ceilings = CeilingTable(taskset)

    @property
    def ceilings(self) -> CeilingTable:
        assert self._ceilings is not None, "protocol used before bind()"
        return self._ceilings

    # ------------------------------------------------------------------
    # Sysceil — one from-scratch walk, the array kernel's reference
    # ------------------------------------------------------------------
    def _item_ceiling(self, item: str, entry: "LockEntry") -> int:
        """The runtime ceiling of a locked item — the one expression the
        P>Sysceil protocols differ in."""
        raise NotImplementedError

    def _sysceil_and_holders(
        self, exclude: "Optional[Job]"
    ) -> Tuple[int, Tuple["Job", ...]]:
        """``(Sysceil, holders)`` in one walk of the lock table: the
        highest :meth:`_item_ceiling` among items locked by a job other
        than ``exclude``, and the jobs other than ``exclude`` holding the
        items at that level, by release sequence."""
        level = DUMMY_PRIORITY
        holders: "Set[Job]" = set()
        for item, entry in self.table.all_entries().items():
            ceil = self._item_ceiling(item, entry)
            if ceil < level or ceil == DUMMY_PRIORITY:
                continue
            others = (entry.readers | entry.writers) - {exclude}
            if not others:
                continue
            if ceil > level:
                level, holders = ceil, others
            else:
                holders |= others
        return level, tuple(sorted(holders, key=lambda j: j.seq))

    def system_ceiling(self, exclude: "Optional[Job]" = None) -> int:
        return self._sysceil_and_holders(exclude)[0]

    # ------------------------------------------------------------------
    # The P>Sysceil rule, object path and array kernel
    # ------------------------------------------------------------------
    def decide(self, job: "Job", item: str, mode: LockMode):
        """Grant iff the requester's running priority is above Sysceil;
        a denial blames the holders at that level, and is classified for
        the trace as conflict blocking when the requested item itself is
        locked by another transaction, ceiling blocking otherwise."""
        sysceil, holders = self._sysceil_and_holders(job)
        if job.running_priority > sysceil:
            return Grant("P>Sysceil")
        if self.table.holders_of(item) - {job}:
            return Deny(holders, self.conflict_reason)
        return Deny(holders, _CEILING_REASON)

    def compile_table(self):
        """The same rule for the array kernel."""
        from repro.engine.kernel import tables

        return tables.ProtocolTable(
            protocol=self.name,
            family=tables.FAMILY_SYSCEIL,
            level_source=getattr(tables, self.level_source),
            select_readers=False,
            ceilings=self.ceilings,
            read_grant_rules=("P>Sysceil",),
            conflict_reason=self.conflict_reason,
            ceiling_reason=_CEILING_REASON,
        )


# Register PCP-DA here (its module lives in repro.core and must not import
# the registry, to keep core free of protocol-package dependencies).
from repro.core.pcp_da import PCPDA  # noqa: E402  (import placement intended)

register_protocol(PCPDA)
