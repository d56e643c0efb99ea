"""Integration of database constraints (Section 5.2.3).

"Database constraints should be regarded as subjective constraints.  The
complications of regarding a local database constraint as objective are
immense" — so every database constraint stays local, and the report explains
why, illustrating with the Figure 1 constraint ``db1`` (treating it as
objective would force the integrated view to invent an Item for every
publisher the *other* database knows).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.integration.conformation import ConformationResult
from repro.integration.relationships import Side
from repro.integration.spec import IntegrationSpecification


@dataclass
class DatabaseConstraintReport:
    """All database constraints, each retained locally with a reason."""

    retained_locally: list[tuple[str, str]] = field(default_factory=list)


def integrate_database_constraints(
    spec: IntegrationSpecification, conformation: ConformationResult
) -> DatabaseConstraintReport:
    report = DatabaseConstraintReport()
    for side in (Side.LOCAL, Side.REMOTE):
        conformed = conformation.on(side)
        for constraint in conformed.schema.database_constraints:
            report.retained_locally.append(
                (
                    conformed.original_name(constraint),
                    "database constraints are subjective (Section 5.2.3): "
                    "they remain enforced by their component database only",
                )
            )
    return report
