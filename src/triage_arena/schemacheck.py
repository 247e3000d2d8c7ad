"""A JSON Schema checker compiled once into plain Python closures.

It covers the draft 2020-12 keywords the packaged schemas use: ``type``
(a name or a list of names), ``required``, ``properties``, ``items``,
``minItems``, ``minimum``, ``maximum``, ``exclusiveMinimum``,
``exclusiveMaximum``, ``const``, ``enum`` and ``pattern``; ``$schema``
and ``$id`` are ignored. Any other keyword raises ``ValueError`` when the
schema is compiled, so a schema edit cannot be ignored silently.

Semantics follow draft 2020-12 on JSON values as ``json.loads`` returns
them: booleans are neither integers nor numbers, ``1.0`` is an integer,
``const``/``enum`` tell ``True`` from ``1``, and ``pattern`` matches with
``re.search``. Each message is the one jsonschema gives for the keyword,
and errors come in the order of jsonschema's ``sorted(errors, key=str)``.

Every schema node compiles to a ``valid`` predicate and an error ``walk``.
Valid documents only run the predicates; the walk, which builds locations
and messages, runs only under a node that failed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["SchemaError", "compile_schema"]

_IGNORED = frozenset({"$schema", "$id"})


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and x is not True and x is not False


def _is_integer(x) -> bool:
    if isinstance(x, float):
        return x.is_integer()
    return isinstance(x, int) and x is not True and x is not False


_TYPES = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": _is_integer,
    "null": lambda x: x is None,
    "number": _is_number,
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}


def _equal(one, two) -> bool:
    """JSON equality: a boolean equals only itself, containers elementwise."""
    if isinstance(one, str) or isinstance(two, str):
        return one == two
    if isinstance(one, list) and isinstance(two, list):
        return len(one) == len(two) and all(map(_equal, one, two))
    if isinstance(one, dict) and isinstance(two, dict):
        return len(one) == len(two) and all(
            key in two and _equal(value, two[key]) for key, value in one.items()
        )
    if isinstance(one, bool) or isinstance(two, bool):
        return one is two
    return one == two


def _index(container: str, keys: tuple) -> str:
    if not keys:
        return container
    return f"{container}[{']['.join(repr(k) for k in keys)}]"


@dataclass(frozen=True)
class SchemaError:
    location: tuple  # keys and indices from the document root
    message: str
    schema_location: tuple  # keys from the schema root to the failing subschema

    def __str__(self) -> str:  # the location, then the message, as validate prints it
        return f"{'/'.join(map(str, self.location)) or '(root)'}: {self.message}"

    def sort_key(self) -> tuple[str, str, str]:
        # jsonschema's str(error) starts with the message, then the schema
        # path, then the instance path, each written as name[...][...]
        return (
            self.message,
            _index("schema", self.schema_location),
            _index("instance", self.location),
        )


# Each leaf keyword compiles to (ok, messages): ok(x) is the fast check,
# messages(x) lists what is wrong with an x that failed it.

def _type(names):
    names = [names] if isinstance(names, str) else list(names)
    unknown = [n for n in names if n not in _TYPES]
    if unknown:
        raise ValueError(f"unsupported type {unknown[0]!r}")
    checks = [_TYPES[n] for n in names]
    ok = checks[0] if len(checks) == 1 else (lambda x: any(c(x) for c in checks))
    listed = ", ".join(repr(n) for n in names)
    return ok, lambda x: [f"{x!r} is not of type {listed}"]


def _required(names):
    def ok(x):
        return not isinstance(x, dict) or all(n in x for n in names)

    return ok, lambda x: [f"{n!r} is a required property" for n in names if n not in x]


def _min_items(n):
    word = "should be non-empty" if n == 1 else "is too short"
    return (
        lambda x: not isinstance(x, list) or len(x) >= n,
        lambda x: [f"{x!r} {word}"],
    )


def _bound(fails, text):
    def build(limit):
        return (
            lambda x: not (_is_number(x) and fails(x, limit)),
            lambda x: [f"{x!r} {text} {limit!r}"],
        )

    return build


def _const(value):
    return lambda x: _equal(x, value), lambda x: [f"{value!r} was expected"]


def _enum(values):
    return (
        lambda x: any(_equal(v, x) for v in values),
        lambda x: [f"{x!r} is not one of {values!r}"],
    )


def _pattern(source):
    search = re.compile(source).search
    return (
        lambda x: not isinstance(x, str) or search(x) is not None,
        lambda x: [f"{x!r} does not match {source!r}"],
    )


_LEAVES = {
    "type": _type,
    "required": _required,
    "minItems": _min_items,
    "minimum": _bound(lambda x, m: x < m, "is less than the minimum of"),
    "maximum": _bound(lambda x, m: x > m, "is greater than the maximum of"),
    "exclusiveMinimum": _bound(
        lambda x, m: x <= m, "is less than or equal to the minimum of"
    ),
    "exclusiveMaximum": _bound(
        lambda x, m: x >= m, "is greater than or equal to the maximum of"
    ),
    "const": _const,
    "enum": _enum,
    "pattern": _pattern,
}
_KEYWORDS = frozenset(_LEAVES) | {"properties", "items"}


def _all(checks):
    if len(checks) == 1:
        return checks[0]
    first, rest = checks[0], _all(checks[1:])
    return lambda x: first(x) and rest(x)


def _compile(schema: dict, spath: tuple):
    """Return (valid, walk) for one subschema at schema path spath."""
    if not isinstance(schema, dict):
        raise ValueError(f"unsupported schema {schema!r} in {_index('schema', spath)}")
    unknown = sorted(set(schema) - _KEYWORDS - _IGNORED)
    if unknown:
        raise ValueError(
            f"unsupported schema keyword {unknown[0]!r} in {_index('schema', spath)}"
        )
    leaves = [
        _LEAVES[keyword](value)
        for keyword, value in schema.items()
        if keyword in _LEAVES
    ]
    checks = [ok for ok, _ in leaves]
    descents = []

    if "properties" in schema:
        children = [
            (name, *_compile(sub, spath + ("properties", name)))
            for name, sub in schema["properties"].items()
        ]

        def properties_ok(x):
            if isinstance(x, dict):
                for name, valid, _ in children:
                    if name in x and not valid(x[name]):
                        return False
            return True

        def properties_walk(x, path, out):
            if isinstance(x, dict):
                for name, valid, walk in children:
                    if name in x and not valid(x[name]):
                        walk(x[name], path + (name,), out)

        checks.append(properties_ok)
        descents.append(properties_walk)

    if "items" in schema:
        item_valid, item_walk = _compile(schema["items"], spath + ("items",))

        def items_ok(x):
            return not isinstance(x, list) or all(map(item_valid, x))

        def items_walk(x, path, out):
            if isinstance(x, list):
                for i, item in enumerate(x):
                    if not item_valid(item):
                        item_walk(item, path + (i,), out)

        checks.append(items_ok)
        descents.append(items_walk)

    def walk(x, path, out):
        for ok, messages in leaves:
            if not ok(x):
                out.extend(SchemaError(path, m, spath) for m in messages(x))
        for descend in descents:
            descend(x, path, out)

    return _all(checks) if checks else (lambda x: True), walk


def compile_schema(schema: dict):
    """Compile a schema into errors(instance) -> sorted list of SchemaError."""
    valid, walk = _compile(schema, ())

    def errors(instance) -> list[SchemaError]:
        if valid(instance):
            return []
        out: list[SchemaError] = []
        walk(instance, (), out)
        return sorted(out, key=SchemaError.sort_key)

    return errors
