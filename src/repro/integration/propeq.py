"""Property equivalence assertions ``propeq(C.p, C'.p', cf, cf', df)``.

A property equivalence states that local property ``C.p`` and remote property
``C'.p'`` describe the same real-world aspect.  The conversion functions map
both into a common domain; the conformed property gets one shared name
(``conformed_name``, defaulting to the local property's name — the paper
renames ``ourprice`` to ``libprice`` by choosing the remote name) and the
decision function determines global values for *equal* objects.

:func:`first_covering` is the one rule deciding which assertion governs a
property, for original and conformed assertions alike.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, TypeVar

from repro.errors import SpecificationError
from repro.integration.conversion import ConversionFunction, IdentityConversion
from repro.integration.decision import DecisionFunction
from repro.integration.relationships import Side

if TYPE_CHECKING:
    from repro.tm.schema import DatabaseSchema


class Placed(Protocol):
    """A property equivalence, original or conformed: a class and a property
    on each side."""

    def class_on(self, side: Side) -> str: ...

    def property_on(self, side: Side) -> str: ...


P = TypeVar("P", bound=Placed)


def first_covering(
    propeqs: Iterable[P],
    prop: str,
    placements: tuple[tuple[Side, str], ...],
    schema_on: Callable[[Side], DatabaseSchema],
) -> P | None:
    """The first of ``propeqs`` that equates ``prop`` and covers the class of
    every ``(side, class_name)`` placement in ``schema_on(side)``, or ``None``.

    A propeq declared on a class covers its subclasses: the ``ourprice``
    assertion on Publication covers RefereedPubl objects too (Sections 2.3
    and 5.1).
    """
    for propeq in propeqs:
        if all(
            propeq.property_on(side) == prop
            and schema_on(side).has_class(class_name)
            and propeq.class_on(side) in schema_on(side).ancestry(class_name)
            for side, class_name in placements
        ):
            return propeq
    return None


@dataclass
class PropertyEquivalence:
    """One ``propeq`` assertion.

    Attributes
    ----------
    local_class, local_property:
        The local side, e.g. ``("Publication", "ourprice")``.
    remote_class, remote_property:
        The remote side, e.g. ``("Item", "libprice")``.
    local_cf, remote_cf:
        Conversion functions into the common domain.
    df:
        The decision function for global values of equal objects.
    conformed_name:
        The shared name of the conformed property (default: local name).
    """

    local_class: str
    local_property: str
    remote_class: str
    remote_property: str
    local_cf: ConversionFunction = field(default_factory=IdentityConversion)
    remote_cf: ConversionFunction = field(default_factory=IdentityConversion)
    df: DecisionFunction = None  # type: ignore[assignment]
    conformed_name: str | None = None

    def __post_init__(self) -> None:
        if self.df is None:
            raise SpecificationError(
                f"propeq {self.describe_short()} needs a decision function"
            )
        if self.conformed_name is None:
            self.conformed_name = self.local_property

    # -- side-based access ---------------------------------------------------

    def class_on(self, side: Side) -> str:
        return self.local_class if side is Side.LOCAL else self.remote_class

    def property_on(self, side: Side) -> str:
        return self.local_property if side is Side.LOCAL else self.remote_property

    def cf_on(self, side: Side) -> ConversionFunction:
        return self.local_cf if side is Side.LOCAL else self.remote_cf

    def describe_short(self) -> str:
        return (
            f"{self.local_class}.{self.local_property} ≡ "
            f"{self.remote_class}.{self.remote_property}"
        )

    def describe(self) -> str:
        return (
            f"propeq({self.local_class}.{self.local_property}, "
            f"{self.remote_class}.{self.remote_property}, "
            f"{self.local_cf.describe()}, {self.remote_cf.describe()}, "
            f"{self.df.describe()})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.describe()}>"
