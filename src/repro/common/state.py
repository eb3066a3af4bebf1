"""Helpers for the components' ``state_dict``/``load_state`` pairs.

Every stateful component of a run (clock, cache, kernel, heap,
monitor, workload, ...) exports its exact state as JSON-able data next
to its own code, and loads it back into a freshly constructed twin;
``repro.obs.state`` assembles those payloads into one state image.

A state image is an external input, so loading checks the type of
every value it keeps: a check that fails raises ``TypeError`` naming
the field, which the image loader reports as a ``ConfigurationError``
naming the component.  Plain counters travel as declared field tuples
(:func:`fields_state` / :func:`load_fields`).
"""

import base64
import binascii


def integer(value, field="value"):
    """``value`` when it is an int (not a bool); else ``TypeError``."""
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, got {value!r}")
    return value


def optional_integer(value, field="value"):
    """``value`` when it is None or an int."""
    return None if value is None else integer(value, field)


def number(value, field="value"):
    """``value`` when it is an int or a float (not a bool)."""
    if type(value) not in (int, float):
        raise TypeError(f"{field} must be a number, got {value!r}")
    return value


def boolean(value, field="value"):
    """``value`` when it is a bool."""
    if type(value) is not bool:
        raise TypeError(f"{field} must be a boolean, got {value!r}")
    return value


def text(value, field="value"):
    """``value`` when it is a string."""
    if type(value) is not str:
        raise TypeError(f"{field} must be a string, got {value!r}")
    return value


def sequence(value, field="value"):
    """``value`` when it is a list (a JSON array)."""
    if type(value) is not list:
        raise TypeError(f"{field} must be a list, got {value!r}")
    return value


def mapping(value, field="value"):
    """``value`` when it is a dict (a JSON object)."""
    if type(value) is not dict:
        raise TypeError(f"{field} must be an object, got {value!r}")
    return value


#: allowed types of a :func:`table` column.
INT = frozenset({int})
OPTIONAL_INT = frozenset({int, type(None)})
NULL = frozenset({type(None)})
NUMBER = frozenset({int, float})
BOOL = frozenset({bool})
TEXT = frozenset({str})
LIST = frozenset({list})
OBJECT = frozenset({dict})
SCALAR = frozenset({int, float, bool, str, type(None)})


def integers(values, field="values"):
    """``values`` when it is a list of ints."""
    if not set(map(type, sequence(values, field))) <= INT:
        raise TypeError(f"{field} must hold only integers")
    return values


def numbers(values, field="values"):
    """``values`` when it is a list of ints and floats."""
    if not set(map(type, sequence(values, field))) <= NUMBER:
        raise TypeError(f"{field} must hold only numbers")
    return values


def record(value, width, field="record"):
    """``value`` when it is a list of exactly ``width`` items."""
    if type(value) is not list or len(value) != width:
        raise TypeError(f"{field} must be a list of {width} items, "
                        f"got {value!r}")
    return value


def scalars(value, field="value"):
    """``value`` when it is a dict of JSON scalars (event details)."""
    if not set(map(type, mapping(value, field).values())) <= SCALAR:
        raise TypeError(f"{field} must hold only scalars")
    return value


def table(rows, columns, field="rows"):
    """``rows`` when it is a list of lists with one item per entry of
    ``columns``, each item of an allowed type (``columns`` holds one
    type set per position, e.g. :data:`INT`).

    Checks whole columns at once, so large tables (events, page table
    entries, cache lines) load without a per-value call.
    """
    sequence(rows, field)
    width = len(columns)
    if rows and (not set(map(type, rows)) <= LIST
                 or not set(map(len, rows)) == {width}):
        raise TypeError(f"{field} must hold lists of {width} items")
    for position, (column, allowed) in enumerate(zip(zip(*rows),
                                                     columns)):
        if not set(map(type, column)) <= allowed:
            raise TypeError(f"{field} item {position} has a value of the "
                            f"wrong type")
    return rows


def fields_state(obj, names):
    """``{name: obj.name}`` for a declared field tuple."""
    return {name: getattr(obj, name) for name in names}


def load_fields(obj, state, names, check=integer):
    """Set each declared field of ``obj`` from ``state``, checked."""
    for name in names:
        setattr(obj, name, check(state[name], name))


def encode_bytes(data):
    """Bytes as base64 text."""
    return base64.b64encode(data).decode("ascii")


def decode_bytes(value, field="bytes"):
    """Base64 text back to bytes; malformed text is a ``ValueError``."""
    text(value, field)
    try:
        return base64.b64decode(value, validate=True)
    except binascii.Error as error:
        raise ValueError(f"{field} is not base64: {error}") from None


def rng_state(rng):
    """A ``random.Random``'s state as JSON-able data."""
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def load_rng_state(rng, state, field="rng"):
    """Restore :func:`rng_state` output into ``rng``."""
    version, internal, gauss = record(state, 3, field)
    rng.setstate((integer(version, field), tuple(integers(internal, field)),
                  None if gauss is None else number(gauss, field)))
