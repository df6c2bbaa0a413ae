#!/usr/bin/env python3
"""Compare two sets of scalbench results.

Each input file holds the standard output of one or more benchmark runs
(one per line group, as printed by `scalbench`). The `record:` lines carry the
workload, the metrics and the geometry stamp. For every workload present in
both sets the script compares the median of each metric against the
baseline's median, using the direction and bound named in BENCHMARK.json.

Results taken on different geometries (core count, resolved threads, word
width, CPU features, fault collapsing, compiler, architecture) are not
compared: the workload is reported as "incomparable" instead of as a
regression. Only the git revision may differ.

    python3 scalbench/compare.py BASE.txt NEW.txt [--benchmark BENCHMARK.json]

Exit status: 0 no regression, 1 a regression beyond its bound,
3 incomparable geometry (and no regression elsewhere), 2 usage error.
"""

import json
import statistics
import sys

IGNORED_GEOMETRY = {"git_rev"}


def records(path):
    out = []
    with open(path) as f:
        for line in f:
            if line.startswith("record: "):
                out.append(json.loads(line[len("record: "):]))
    return out


def geometry_key(rec):
    g = rec.get("geometry", {})
    return tuple(sorted((k, str(v)) for k, v in g.items() if k not in IGNORED_GEOMETRY))


def compare(base, new, spec):
    """Returns (lines, status) for two lists of records."""
    metrics = {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    lines, status = [], 0
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for w in workloads:
        b = [r for r in base if r["workload"] == w]
        n = [r for r in new if r["workload"] == w]
        gb, gn = {geometry_key(r) for r in b}, {geometry_key(r) for r in n}
        if len(gb) != 1 or gb != gn:
            lines.append(f"{w}: incomparable (geometry differs: {sorted(gb)} vs {sorted(gn)})")
            status = max(status, 3) if status != 1 else 1
            continue
        names = sorted(set().union(*(r["metrics"].keys() for r in b)))
        for name in names:
            bv = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n if name in r["metrics"]]
            if not bv or not nv:
                continue
            mb, mn = statistics.median(bv), statistics.median(nv)
            m = metrics.get(name)
            if m is None or "bound" not in m or mb == 0:
                lines.append(f"{w} {name}: {mb:.6g} -> {mn:.6g}")
                continue
            change = (mn - mb) / mb
            worse = -change if m["better"] == "higher" else change
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            if verdict == "REGRESSION":
                status = 1
            lines.append(
                f"{w} {name}: {mb:.6g} -> {mn:.6g} ({change:+.1%}, bound {m['bound']:.0%}) {verdict}"
            )
    return lines, status


def main(argv):
    args = [a for a in argv if not a.startswith("--")]
    spec_path = "BENCHMARK.json"
    if "--benchmark" in argv:
        i = argv.index("--benchmark")
        if i + 1 >= len(argv):
            print(__doc__, file=sys.stderr)
            return 2
        spec_path = argv[i + 1]
        args = [a for a in args if a != spec_path]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    lines, status = compare(records(args[0]), records(args[1]), spec)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
