"""A minimal relational schema model (the input of reverse engineering)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError

#: SQL type name → TM type name used by the translator.
SQL_TYPE_MAP = {
    "int": "int",
    "integer": "int",
    "smallint": "int",
    "bigint": "int",
    "real": "real",
    "float": "real",
    "double": "real",
    "decimal": "real",
    "numeric": "real",
    "varchar": "string",
    "char": "string",
    "text": "string",
    "boolean": "bool",
    "bool": "bool",
}


@dataclass(frozen=True)
class Column:
    """A table column.

    ``sql_type`` is the lowercase SQL base type (length arguments dropped);
    ``check`` is an optional per-column CHECK body in SQL syntax.
    """

    name: str
    sql_type: str
    nullable: bool = False
    unique: bool = False
    check: str | None = None

    def __post_init__(self) -> None:
        base = self.sql_type.split("(")[0].strip().lower()
        if base not in SQL_TYPE_MAP:
            raise SchemaError(f"unsupported SQL type {self.sql_type!r}")
        object.__setattr__(self, "sql_type", base)


@dataclass(frozen=True)
class ForeignKey:
    """``FOREIGN KEY (column) REFERENCES table(column)``."""

    column: str
    references_table: str
    references_column: str


@dataclass
class Table:
    """A relational table."""

    name: str
    columns: list[Column] = field(default_factory=list)
    primary_key: tuple[str, ...] = ()
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    #: Table-level CHECK bodies in SQL syntax.
    checks: list[str] = field(default_factory=list)

    def has_column(self, name: str) -> bool:
        return any(column.name == name for column in self.columns)


@dataclass
class RelationalSchema:
    """A named collection of tables."""

    name: str
    tables: dict[str, Table] = field(default_factory=dict)

    def add_table(self, table: Table) -> Table:
        if table.name in self.tables:
            raise SchemaError(f"duplicate table {table.name!r}")
        self._validate(table)
        self.tables[table.name] = table
        return table

    def _validate(self, table: Table) -> None:
        names = [column.name for column in table.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {table.name} has duplicate columns")
        for key in table.primary_key:
            if not table.has_column(key):
                raise SchemaError(
                    f"table {table.name}: primary key column {key!r} missing"
                )
        for fk in table.foreign_keys:
            if not table.has_column(fk.column):
                raise SchemaError(
                    f"table {table.name}: foreign key column {fk.column!r} missing"
                )

    def table_named(self, name: str) -> Table:
        if name not in self.tables:
            raise SchemaError(f"unknown table {name!r}")
        return self.tables[name]
