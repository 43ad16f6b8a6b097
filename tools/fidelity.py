"""Compare the artifacts of two slipflow runs, directory against directory.

    python tools/fidelity.py BEFORE AFTER

BEFORE and AFTER hold the same layout of artifacts, matched by their
path relative to the directory (any depth, so one subdirectory per run
works).  For every artifact the report says whether it is
sha256-identical and, when it is not, gives the largest absolute and
relative difference of each numeric field that differs:

- legacy VTK (`.vtk`): each data section (`POINTS`, `CELLS`,
  `CELL_TYPES`, `VECTORS <name>`, `SCALARS <name>`);
- JSON (`.json`): each number by its key path, a list of numbers as one
  field;
- CSV (`.csv`): each column by its header name (`#` lines skipped).

The relative difference is the absolute one over the largest magnitude
of the field in BEFORE.  A field present on one side only, or of another
length, and a changed JSON value that is not numeric (text, booleans) are
reported as such; a changed list of them by its two lengths, the first
index that differs and the two values there.

Separately, the report lists every change of outcome: the exit code (a
file named `exit_code` holding the integer, written by whoever ran the
command), and the JSON values under a key named `iterations`,
`factorizations`, `phases` or `verdict`.

Exit status 0 when every artifact is identical and no outcome changed,
1 otherwise, 2 when a directory is missing.
"""

import hashlib
import json
import os
import sys

import numpy as np

OUTCOME_KEYS = ("iterations", "factorizations", "phases", "verdict")
EXIT_CODE = "exit_code"
VTK_SECTIONS = ("POINTS", "CELLS", "CELL_TYPES", "VECTORS", "SCALARS")


def _files(root):
    """Relative paths of the files under root."""
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _, names in os.walk(root) for name in names}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _vtk_fields(path):
    fields, name = {}, None
    with open(path) as fh:
        for line in fh:
            tokens = line.split()
            if not tokens:
                continue
            if tokens[0] in VTK_SECTIONS:
                name = tokens[0] if tokens[0] in ("POINTS", "CELLS", "CELL_TYPES") \
                    else f"{tokens[0]} {tokens[1]}"
                fields[name] = []
            elif name is not None and tokens[0] not in ("POINT_DATA", "LOOKUP_TABLE"):
                fields[name].extend(float(t) for t in tokens)
    return fields


def _json_leaves(value, key=""):
    """(key path, value) of every leaf; a list of scalars is one leaf."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _json_leaves(value[k], f"{key}.{k}" if key else k)
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        for i, v in enumerate(value):
            yield from _json_leaves(v, f"{key}[{i}]")
    else:
        yield key, value


def _json_fields(path):
    with open(path) as fh:
        return dict(_json_leaves(json.load(fh)))


def _numeric(value):
    """A number or a list of numbers as a float array, anything else None."""
    values = value if isinstance(value, list) else [value]
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return np.asarray(values, float)
    return None


def _csv_fields(path):
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh
                if line.strip() and not line.startswith("#")]
    header, body = rows[0], rows[1:]
    return {name: [float(row[j]) for row in body] for j, name in enumerate(header)}


FIELD_READERS = {".vtk": _vtk_fields, ".json": _json_fields, ".csv": _csv_fields}


def _change(before, after):
    """A changed value as text; two lists by their lengths and their first
    difference, which keeps a long list from filling the report."""
    if not (isinstance(before, list) and isinstance(after, list)):
        return f"{json.dumps(before)} -> {json.dumps(after)}"
    i = next((i for i, (b, a) in enumerate(zip(before, after)) if b != a),
             min(len(before), len(after)))
    at = [json.dumps(v[i]) if i < len(v) else "none" for v in (before, after)]
    return f"length {len(before)} -> {len(after)}, first difference at [{i}]: " \
        f"{at[0]} -> {at[1]}"


def _field_differences(before, after):
    """{field: (abs, rel) or a note} for the fields of two artifacts that differ."""
    out = {}
    for name in sorted(set(before) | set(after)):
        if name not in after or name not in before:
            out[name] = "only in " + ("before" if name in before else "after")
            continue
        a, b = _numeric(before[name]), _numeric(after[name])
        if a is None or b is None:
            if before[name] != after[name]:
                out[name] = _change(before[name], after[name])
        elif a.shape != b.shape:
            out[name] = f"length {a.size} -> {b.size}"
        elif not np.array_equal(a, b):
            diff = float(np.max(np.abs(a - b)))
            scale = float(np.max(np.abs(a)))
            out[name] = (diff, diff / scale if scale > 0 else np.inf)
    return out


def _outcomes(root, rel):
    """{outcome key: value} of one artifact."""
    path = os.path.join(root, rel)
    if os.path.basename(rel) == EXIT_CODE:
        with open(path) as fh:
            return {rel: int(fh.read().strip())}
    if not rel.endswith(".json"):
        return {}
    return {f"{rel}:{key}": value for key, value in _json_fields(path).items()
            if key.rpartition(".")[2].split("[")[0] in OUTCOME_KEYS}


def compare(before, after):
    """The comparison of two artifact directories as a dict:
    "artifacts": {path: "identical" | "only in before" | "only in after"
                  | {field that differs: (abs, rel) or a note}},
    "outcomes": {artifact:key: (before value, after value)} of the changed outcomes."""
    for root in (before, after):
        if not os.path.isdir(root):
            raise FileNotFoundError(f"no artifact directory {root}")
    files_b, files_a = _files(before), _files(after)
    artifacts, outcomes_b, outcomes_a = {}, {}, {}
    for rel in sorted(files_b | files_a):
        if rel in files_b:
            outcomes_b.update(_outcomes(before, rel))
        if rel in files_a:
            outcomes_a.update(_outcomes(after, rel))
        if rel not in files_a or rel not in files_b:
            artifacts[rel] = "only in " + ("before" if rel in files_b else "after")
        elif _sha256(os.path.join(before, rel)) == _sha256(os.path.join(after, rel)):
            artifacts[rel] = "identical"
        else:
            reader = FIELD_READERS.get(os.path.splitext(rel)[1], lambda path: {})
            artifacts[rel] = _field_differences(reader(os.path.join(before, rel)),
                                                reader(os.path.join(after, rel)))
    outcomes = {key: (outcomes_b.get(key), outcomes_a.get(key))
                for key in sorted(set(outcomes_b) | set(outcomes_a))
                if outcomes_b.get(key) != outcomes_a.get(key)}
    return {"artifacts": artifacts, "outcomes": outcomes}


def report(result):
    """The comparison as text lines."""
    lines = []
    for rel, verdict in result["artifacts"].items():
        if isinstance(verdict, str):
            lines.append(f"{rel}: {verdict}")
            continue
        lines.append(f"{rel}: differs")
        for name, diff in verdict.items():
            text = diff if isinstance(diff, str) else f"abs {diff[0]:.3e}  rel {diff[1]:.3e}"
            lines.append(f"  {name}: {text}")
    lines.append(f"outcomes: {len(result['outcomes'])} changed")
    for key, (b, a) in result["outcomes"].items():
        lines.append(f"  {key}: {_change(b, a)}")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        result = compare(*argv)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report(result)))
    same = all(v == "identical" for v in result["artifacts"].values())
    return 0 if same and not result["outcomes"] else 1


if __name__ == "__main__":
    sys.exit(main())
