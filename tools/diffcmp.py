"""Compare two diffguard dumps: exact on everything but the float fields, 1e-9 relative on those.

usage: diffcmp.py [--rows] PARENT.json CHANGE.json

Ends with a per-field tally of the entries that moved, the metered fields
(what a request or the simulated clock bills, and a figure's rows, which
are such numbers) listed apart.  ``--rows`` checks result rows and column
names only and exits 1 where they differ: an entry whose query has no
ORDER BY (``"ordered": false``) compares its rows as a multiset, since
SQL gives such a result no row order; every other entry in order.
"""
import ast, json, re, sys
from collections import Counter
rows_only = sys.argv[1] == "--rows"
a, b = (json.load(open(p)) for p in sys.argv[1 + rows_only:3 + rows_only])   # a = parent, b = change
def rows_differ(ra, rb):
    if ra.get("names") != rb.get("names"):
        return True
    if ra.get("ordered", True) or rb.get("ordered", True):
        return ra.get("rows") != rb.get("rows")
    return sorted(ast.literal_eval(ra["rows"]), key=repr) != sorted(ast.literal_eval(rb["rows"]), key=repr)
if rows_only:
    moved = [key for key in sorted(set(a) & set(b)) if rows_differ(a[key], b[key])]
    print("result rows / names differ:", moved or "nowhere")
    sys.exit(bool(moved))
bad = 0
fields_moved = Counter()
METERED = {"requests", "n_records", "bytes_scanned", "bytes_returned", "bytes_transferred",
           "term_evals", "phases", "phase_cpu", "runtime_seconds", "cost_total",
           "figure_rows"}
def from_list(tree):
    """A statement tree's repr with its FROM list spelled as one tuple, the
    way ``ast.Query`` carries it: trees that differ only in that spelling
    compare equal."""
    tree = re.sub(r"\), table='([^']*)', where=", r"), from_tables=('\1',), where=", tree)
    return tree.replace(", join_table=None, join_condition=None, extra_tables=()", "")
def close(x, y):
    return x == y or abs(x - y) <= 1e-9 * max(abs(x), abs(y))
for key in sorted(set(a) | set(b)):
    if key not in a or key not in b:
        print("MISSING", key); bad += 1; fields_moved["missing"] += 1; continue
    ra, rb = a[key], b[key]
    diffs = []
    for field in sorted(set(ra) | set(rb)):
        va, vb = ra.get(field), rb.get(field)
        if field in ("runtime_seconds", "cost_total") and not isinstance(va, str):
            if not close(va, vb):
                diffs.append((field, va, vb, f"{(vb - va) / va:+.3%}"))
        elif field == "phase_cpu" and va and not isinstance(va[0], str):
            if len(va) != len(vb) or not all(close(x, y) for x, y in zip(va, vb)):
                diffs.append((field, va, vb))
        elif field == "statements" and va and vb and va != vb:
            moved = [i for i, (x, y) in enumerate(zip(va, vb)) if from_list(x) != from_list(y)]
            if len(va) == len(vb) and not moved:
                continue
            diffs.append((field, f"{len(va)} -> {len(vb)}, trees differ at {moved}"))
        elif va != vb:
            diffs.append((field, str(va)[:300], str(vb)[:300]))
    if diffs:
        bad += 1
        print(key)
        for d in diffs:
            print("   ", *d)
        fields_moved.update(d[0] for d in diffs)
def tally(fields):
    return ", ".join(f"{field} {n}" for field, n in fields) or "none"
print("entries", len(a), "differing", bad)
counts = fields_moved.most_common()
print(f"moved fields: {tally(counts)}; metered: {tally((f, n) for f, n in counts if f in METERED)}")
