"""Field tables: one declaration of each external document's shape.

Each schema's :class:`Table`, kept next to the code that writes the
document, maps key paths (dotted; ``<name>`` stands for every key of
an object) to :class:`Field` rows, and :meth:`Table.check` applies it
where the document enters; a value it rejects is a
:class:`ConfigurationError` naming the field.  Each row is checked
over every value it reaches with one type-set comparison, as
:func:`repro.common.state.table` checks a column.  See docs/SCHEMAS.md.
"""

import reprlib

from repro.common.errors import ConfigurationError
from repro.common.state import BOOL, INT, LIST, NULL, NUMBER, OBJECT, TEXT
from repro.common.state import table as fixed_rows

#: the path segment that stands for every key of an object.
EACH = "<name>"

_NOUNS = {INT: "integer", NUMBER: "number", BOOL: "boolean",
          TEXT: "string", LIST: "list", OBJECT: "object"}
_BOUNDS = {None: "", 0: "non-negative ", 1: "positive "}


class _Absent:
    """What a path reaches where the document leaves a field out."""


ABSENT = _Absent()


class Field:
    """One row: the allowed ``types`` (:mod:`repro.common.state` type
    sets), whether it must be present, its least value ``low`` or its
    ``choices``, and what it holds: an object's ``table``, the Field
    (or table) every list entry matches (``items``), or fixed-width
    rows (``columns``: a type set or a Field per position, so a column
    can carry a least value).  ``what`` overrides the expectation an
    error states."""

    __slots__ = ("types", "allowed", "low", "choices", "table", "items",
                 "columns", "what")

    def __init__(self, types, required=True, low=None, choices=None,
                 table=None, items=None, columns=None, what=None):
        self.types = types
        self.allowed = types if required else types | {_Absent}
        self.low = low
        self.choices = choices
        self.table = Table(None, table) if type(table) is dict else table
        self.items = (items if items is None or type(items) is Field
                      else Field(OBJECT, table=items))
        self.columns = columns and tuple(
            column if type(column) is Field else Field(column)
            for column in columns)
        noun = _BOUNDS[low] + _NOUNS[types - NULL]
        noun = ("an " if noun[0] in "aeiou" else "a ") + noun
        self.what = what or (
            "one of " + ", ".join(map(repr, choices)) if choices
            else "null or " + noun if NULL <= types else noun)

    def misfit(self, values):
        """Index of the first of ``values`` this row rejects, or None."""
        if set(map(type, values)) <= self.allowed and (
                self.low is None and self.choices is None
                or all(map(self._within, values))):
            return None
        return next(index for index, value in enumerate(values)
                    if type(value) not in self.allowed
                    or not self._within(value))

    def _within(self, value):
        return (value is None or value is ABSENT
                or (self.low is None or value >= self.low)
                and (self.choices is None or value in self.choices))

    def check(self, value, where):
        """``value``, when this row accepts it; ``where`` names it."""
        if self.misfit([value]) is not None:
            raise mismatch(where, self, value)
        self.check_inside(value, where)
        return value

    def check_inside(self, value, where):
        """Check what an accepted ``value`` holds."""
        if value is None or value is ABSENT:
            return
        if self.table is not None:
            self.table.check(value)
        if self.columns is not None:
            try:
                fixed_rows(value, [column.types for column in self.columns],
                           where)
            except TypeError as error:
                raise ConfigurationError(str(error)) from None
            for position, column in enumerate(self.columns):
                bad = column.misfit([row[position] for row in value])
                if bad is not None:
                    raise mismatch(f"{where} row #{bad} item {position}",
                                   column, value[bad][position])
        if self.items is not None:
            item = self.items
            bad = item.misfit(value)
            if bad is not None:
                raise mismatch(f"{where} entry #{bad}", item, value[bad])
            if item.table is not None:
                item.table.check_all(value, lambda index: item.table.name_of(
                    value[index], f"{where} entry #{index}"))
            elif item.columns is not None or item.items is not None:
                for index, entry in enumerate(value):
                    item.check_inside(entry, f"{where} entry #{index}")


def mismatch(where, field, value):
    """The error for a value ``field`` rejects at ``where``."""
    if value is ABSENT:
        return ConfigurationError(f"{where} is missing")
    if field.table is not None and field.table.whole \
            and type(value) not in field.types:
        return ConfigurationError(f"{field.table.whole} must be "
                                  f"{field.what}, got {type(value).__name__}")
    return ConfigurationError(f"{where} must be {field.what}, got "
                              f"{reprlib.repr(value)}")


_OBJECT = Field(OBJECT)


class Table:
    """A schema's field table: ``path -> Field`` rows (a bare type set
    is a required field of those types), after a ``base`` table's.
    ``name`` is the schema tag or shared table name SCHEMAS.md files it
    under, ``label`` names it in errors and ``whole`` a value that is
    not an object; ``key`` names each object by that field instead, and
    a ``closed`` table rejects keys no row path starts with."""

    def __init__(self, name, rows, label=None, whole=None, key=None,
                 closed=False, base=None):
        self.name = name
        self.label = label or name
        self.whole = whole
        self.key = key
        self.closed = closed
        #: the rows this table declares itself (what SCHEMAS.md lists).
        self.own = {path: row if type(row) is Field else Field(row)
                    for path, row in rows.items()}
        self.rows = {**(base.rows if base is not None else {}), **self.own}

    def check(self, document):
        """``document``, when every row accepts it."""
        if type(document) is not dict:
            raise ConfigurationError(
                f"{self.whole or self.label} must be an object, got "
                f"{type(document).__name__}")
        self.check_all([document],
                       lambda index: self.name_of(document, self.label))
        return document

    def name_of(self, entry, fallback):
        """How an error names one checked object."""
        name = entry.get(self.key) if self.key else None
        return f"{self.label} {name!r}" if type(name) is str else fallback

    def check_all(self, entries, namer):
        """Check every row over all ``entries`` (objects) at once;
        ``namer(index)`` names an entry in an error."""
        if self.closed:
            keys = dict.fromkeys(path.split(".")[0] for path in self.rows)
            for index, entry in enumerate(entries):
                for key in sorted(entry.keys() - keys.keys())[:1]:
                    raise ConfigurationError(
                        f"{namer(index)} field {key!r} is unknown; "
                        f"expected one of {', '.join(keys)}")
        for path, field in self.rows.items():
            spots = self._reach(entries, path, namer)
            bad = field.misfit([value for _, _, value in spots])
            if bad is not None:
                index, trail, value = spots[bad]
                raise mismatch(f"{namer(index)} field {'.'.join(trail)!r}",
                               field, value)
            if field.table or field.items or field.columns:
                for index, trail, value in spots:
                    field.check_inside(
                        value, f"{namer(index)} field {'.'.join(trail)!r}")

    def _reach(self, entries, path, namer):
        """``(entry index, key trail, value)`` for every value ``path``
        reaches: :data:`ABSENT` where an entry leaves it out, nothing
        below a declared parent that is null or absent."""
        if "." not in path and path != EACH:
            return [(index, (path,), entry.get(path, ABSENT))
                    for index, entry in enumerate(entries)]
        spots = [(index, (), entry) for index, entry in enumerate(entries)]
        keys = path.split(".")
        for depth, key in enumerate(keys):
            parent = ".".join(keys[:depth])
            step = []
            for index, trail, value in spots:
                if type(value) is dict:
                    if key == EACH:
                        step.extend((index, (*trail, name), item)
                                    for name, item in value.items())
                    else:
                        step.append((index, (*trail, key),
                                     value.get(key, ABSENT)))
                elif parent in self.rows:
                    continue
                elif value is ABSENT:
                    step.append((index, (*trail, key), ABSENT))
                else:
                    raise mismatch(
                        f"{namer(index)} field {'.'.join(trail)!r}",
                        _OBJECT, value)
            spots = step
        return spots
