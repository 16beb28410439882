#!/usr/bin/env python3
"""Validate an hswx trace-event JSON export against the checked-in schema.

Stdlib-only (CI runners have no `jsonschema` package): implements exactly
the JSON Schema subset the schema file uses — `type`, `enum`, `minimum`,
`required`, `properties`, and `items`. Exits nonzero with a path-qualified
message on the first violation.

Usage: validate_trace_schema.py SCHEMA.json TRACE.json
"""

import json
import sys

TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
}


def fail(path, msg):
    sys.exit(f"schema violation at {path or '$'}: {msg}")


def validate(value, schema, path=""):
    expected = schema.get("type")
    if expected is not None:
        py = TYPES[expected]
        # bool is a subclass of int in Python; keep integers strict.
        if isinstance(value, bool) and expected in ("integer", "number"):
            fail(path, f"expected {expected}, got boolean")
        if not isinstance(value, py):
            fail(path, f"expected {expected}, got {type(value).__name__}")
        if expected == "number" and isinstance(value, float) and value != value:
            fail(path, "NaN is not a valid number")
    if "enum" in schema and value not in schema["enum"]:
        fail(path, f"{value!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)):
        if value < schema["minimum"]:
            fail(path, f"{value} below minimum {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                fail(path, f"missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                validate(value[key], sub, f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    with open(sys.argv[1], encoding="utf-8") as f:
        schema = json.load(f)
    with open(sys.argv[2], encoding="utf-8") as f:
        trace = json.load(f)
    validate(trace, schema)
    events = trace.get("traceEvents", [])
    # Cross-event invariant the schema language can't express: every
    # `parent` reference must resolve to some event's id.
    ids = {e["args"]["id"] for e in events}
    for i, e in enumerate(events):
        parent = e["args"].get("parent")
        if parent is not None and parent not in ids:
            fail(f"$.traceEvents[{i}].args.parent", f"dangling parent id {parent}")
    print(f"{sys.argv[2]}: ok ({len(events)} events)")


if __name__ == "__main__":
    main()
