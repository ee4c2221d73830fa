"""Protocol registry and shared helpers for ceiling-based baselines."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Set, Tuple, Type

from repro.core.ceilings import CeilingTable
from repro.engine.interfaces import ConcurrencyControlProtocol
from repro.exceptions import ProtocolError, UnknownProtocolError
from repro.model.spec import DUMMY_PRIORITY, LockMode, TaskSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.job import Job
    from repro.engine.lock_table import LockEntry, LockTable

_REGISTRY: Dict[str, Callable[[], ConcurrencyControlProtocol]] = {}


def register_protocol(
    cls: Type[ConcurrencyControlProtocol],
) -> Type[ConcurrencyControlProtocol]:
    """Class decorator: register ``cls`` under its ``name`` attribute."""
    if not cls.name:
        raise ProtocolError(f"{cls.__name__} has no registry name")
    if cls.name in _REGISTRY:
        raise ProtocolError(f"protocol name {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def make_protocol(name: str, **kwargs) -> ConcurrencyControlProtocol:
    """Instantiate a registered protocol by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownProtocolError(name, tuple(sorted(_REGISTRY))) from None
    return factory(**kwargs)


def available_protocols() -> Tuple[str, ...]:
    """Registered protocol names, sorted."""
    return tuple(sorted(_REGISTRY))


class CeilingProtocolBase(ConcurrencyControlProtocol):
    """Shared machinery for protocols that use static ceiling tables."""

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
    # Array-kernel compilation
    # ------------------------------------------------------------------
    def _compile_sysceil_table(
        self, level_source: int, conflict_reason: str
    ):
        """Shared ``compile_table()`` body for the P>Sysceil family
        (RW-PCP, CCP, original PCP): only the level semantics and the
        conflict-denial text differ between them."""
        from repro.engine.kernel.tables import FAMILY_SYSCEIL, ProtocolTable

        return ProtocolTable(
            protocol=self.name,
            family=FAMILY_SYSCEIL,
            level_source=level_source,
            select_readers=False,
            ceilings=self.ceilings,
            read_grant_rules=("P>Sysceil",),
            conflict_reason=conflict_reason,
            ceiling_reason="ceiling blocking: P <= Sysceil",
        )


# Register PCP-DA here (its module lives in repro.core and must not import
# the registry, to keep core free of protocol-package dependencies).
from repro.core.pcp_da import PCPDA  # noqa: E402  (import placement intended)

register_protocol(PCPDA)
