"""A JSON Schema checker generated once per schema as one Python function.

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

Like fastjsonschema, ``compile_schema`` writes each schema out as the
source of one Python function, nested as the schema nests, with one
statement per keyword: ``if <value fails>: out.append(SchemaError(...))``.
It compiles that source once. A valid document runs only the tests; the
location and the message are built only for a value that failed one.
Schema strings enter the source as ``repr()`` literals and every other
schema value as a named constant. Python's block limits bound the
nesting: more than 20 nested ``items`` raise ``SyntaxError`` at compile
time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["SchemaError", "compile_schema"]

_IGNORED = frozenset({"$schema", "$id"})
# the Python test that a value, named {0}, is of each type
_TYPES = {
    "array": "isinstance({0}, list)",
    "boolean": "isinstance({0}, bool)",
    "integer": "(isinstance({0}, int) and not isinstance({0}, bool)"
    " or isinstance({0}, float) and {0}.is_integer())",
    "null": "{0} is None",
    "number": "(isinstance({0}, float) or isinstance({0}, int) and not isinstance({0}, bool))",
    "object": "isinstance({0}, dict)",
    "string": "isinstance({0}, str)",
}
_BOUNDS = {
    "minimum": ("<", "is less than the minimum of"),
    "maximum": (">", "is greater than the maximum of"),
    "exclusiveMinimum": ("<=", "is less than or equal to the minimum of"),
    "exclusiveMaximum": (">=", "is greater than or equal to the maximum of"),
}
_KEYWORDS = frozenset(_BOUNDS) | {
    "type", "required", "minItems", "const", "enum", "pattern", "properties", "items"
}
_DESCENTS = ("properties", "items")


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


def _block(head: str, body: list[str]) -> list[str]:
    return [head] + ["    " + line for line in body]


def _emit(schema, spath: tuple, depth: int, loc: tuple, consts: list) -> list[str]:
    """Source lines that append to out the errors of schema, found at spath
    in the schema, on the value named v<depth>. loc holds the source of the
    value's location parts; only a failing check builds the tuple."""
    if not isinstance(schema, dict):
        raise ValueError(f"unsupported schema {schema!r} in {_index('schema', spath)}")
    unknown = sorted(set(schema) - _KEYWORDS - _IGNORED)
    if unknown:
        raise ValueError(
            f"unsupported schema keyword {unknown[0]!r} in {_index('schema', spath)}"
        )
    v, child, i = f"v{depth}", f"v{depth + 1}", f"i{depth + 1}"
    location = f"({''.join(part + ', ' for part in loc)})"
    # statements by the type their value must have, or None; "type" holds
    # the type check itself
    blocks: dict = {}

    def literal(value) -> str:  # a string as a literal, anything else as a constant
        if isinstance(value, str):
            return repr(value)
        consts.append(value)
        return f"k{len(consts) - 1}"

    def add(guard, head: str, body: list[str]):
        blocks.setdefault(guard, []).extend(_block(head, body))

    def fail(test: str, message: str, guard=None):
        add(guard, f"if {test}:", [f"out.append(SchemaError({location}, {message}, {spath!r}))"])

    def after(text: str) -> str:  # the message: the value's repr, then text
        return f"repr({v}) + {text!r}"

    # a node's own keywords compile before its properties, and those before
    # its items, so an unsupported keyword raises in that order
    own = [keyword for keyword in schema if keyword not in _DESCENTS]
    for keyword in own + [keyword for keyword in _DESCENTS if keyword in schema]:
        value = schema[keyword]
        if keyword == "type":
            names = [value] if isinstance(value, str) else list(value)
            unknown = [n for n in names if n not in _TYPES]
            if unknown:
                raise ValueError(f"unsupported type {unknown[0]!r}")
            accepted = " or ".join(_TYPES[n].format(v) for n in names)
            listed = ", ".join(map(repr, names))
            fail(f"not ({accepted})", after(f" is not of type {listed}"), "type")
        elif keyword == "required":
            for name in value:
                message = repr(f"{name!r} is a required property")
                fail(f"{literal(name)} not in {v}", message, "object")
        elif keyword == "minItems":
            word = "should be non-empty" if value == 1 else "is too short"
            fail(f"len({v}) < {literal(value)}", after(f" {word}"), "array")
        elif keyword in _BOUNDS:
            operator, text = _BOUNDS[keyword]
            fail(f"{v} {operator} {literal(value)}", after(f" {text} {value!r}"), "number")
        elif keyword == "const":
            fail(f"not _equal({v}, {literal(value)})", repr(f"{value!r} was expected"))
        elif keyword == "enum":
            test = f"not any(_equal(e, {v}) for e in {literal(value)})"
            fail(test, after(f" is not one of {value!r}"))
        elif keyword == "pattern":
            search = literal(re.compile(value).search)
            fail(f"{search}({v}) is None", after(f" does not match {value!r}"), "string")
        elif keyword == "properties":
            for name, sub in value.items():
                key = literal(name)
                if lines := _emit(sub, spath + (keyword, name), depth + 1, loc + (key,), consts):
                    add("object", f"if {key} in {v}:", [f"{child} = {v}[{key}]"] + lines)
        elif keyword == "items":
            if lines := _emit(value, spath + (keyword,), depth + 1, loc + (i,), consts):
                add("array", f"for {i}, {child} in enumerate({v}):", lines)
    # what needs the one type the node names runs in the else of its check
    source = blocks.pop(None, []) + blocks.pop("type", [])
    if isinstance(schema.get("type"), str) and schema["type"] in blocks:
        source += _block("else:", blocks.pop(schema["type"]))
    for guard, lines in blocks.items():
        source += _block(f"if {_TYPES[guard].format(v)}:", lines)
    return source


def compile_schema(schema: dict):
    """Compile a schema into errors(instance) -> sorted list of SchemaError."""
    consts: list = []
    body = _emit(schema, (), 0, (), consts) + ["return sorted(out, key=SchemaError.sort_key)"]
    source = "\n".join(_block("def errors(v0):", ["out = []"] + body))
    namespace = {f"k{n}": value for n, value in enumerate(consts)}
    namespace.update(SchemaError=SchemaError, _equal=_equal)
    exec(compile(source, "<schemacheck>", "exec"), namespace)
    return namespace["errors"]
