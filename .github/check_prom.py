"""Well-formedness check for Prometheus text expositions.

Usage: python3 .github/check_prom.py FILE.prom...

Every metric family must have exactly one `# TYPE` line, ahead of its
samples; no two samples may share a name and label set; every
histogram's buckets must be cumulative and end in `le="+Inf"`, equal to
its `_count`. Exits 1 naming the first fault.
"""

import re
import sys

LABEL = re.compile(r'\s*([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"\s*(,|(?=}))')


def parse_sample(line):
    """(name, labels as a tuple of (key, value), value text)."""
    brace = line.find("{")
    space = line.find(" ")
    if brace == -1 or (space != -1 and space < brace):
        name, _, value = line.partition(" ")
        return name, (), value.strip()
    name, rest = line[:brace], line[brace + 1 :]
    labels = []
    pos = 0
    while not rest.startswith("}", pos):
        m = LABEL.match(rest, pos)
        if not m:
            raise ValueError("bad label set: " + line)
        labels.append((m.group(1), m.group(2)))
        pos = m.end()
    return name, tuple(labels), rest[pos + 1 :].strip()


def check(path):
    kinds = {}
    buckets = {}  # (family, labels without le) -> [(le, count)]
    counts = {}  # (family, labels) -> count
    seen = set()
    for n, line in enumerate(open(path), 1):
        line = line.rstrip("\n")
        where = "%s:%d" % (path, n)
        if not line or line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ")
            if family in kinds:
                raise SystemExit("%s: second # TYPE line for %s" % (where, family))
            kinds[family] = kind
            continue
        name, labels, value = parse_sample(line)
        if (name, labels) in seen:
            raise SystemExit("%s: second sample %s%s" % (where, name, dict(labels)))
        seen.add((name, labels))
        family = name
        if name not in kinds:
            for suffix in ("_bucket", "_sum", "_count"):
                base = name[: -len(suffix)]
                if name.endswith(suffix) and kinds.get(base) == "histogram":
                    family = base
                    break
            else:
                raise SystemExit("%s: sample %s before its # TYPE line" % (where, name))
        if kinds[family] != "histogram":
            continue
        if name == family + "_bucket":
            le = dict(labels)["le"]
            rest = tuple(kv for kv in labels if kv[0] != "le")
            buckets.setdefault((family, rest), []).append((le, int(value)))
        elif name == family + "_count":
            counts[(family, labels)] = int(value)
    for family, kind in kinds.items():
        if kind == "histogram" and not any(f == family for f, _ in buckets):
            raise SystemExit("%s: histogram %s has no buckets" % (path, family))
    for key, series in buckets.items():
        for (_, a), (le, b) in zip(series, series[1:]):
            if b < a:
                raise SystemExit("%s: %s buckets decrease at le=%s" % (path, key, le))
        le, last = series[-1]
        if le != "+Inf":
            raise SystemExit("%s: %s buckets do not end in +Inf" % (path, key))
        if counts.get(key) != last:
            raise SystemExit("%s: %s +Inf %d != _count %s" % (path, key, last, counts.get(key)))
    print("%s: %d families well formed" % (path, len(kinds)))


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    for path in sys.argv[1:]:
        check(path)
