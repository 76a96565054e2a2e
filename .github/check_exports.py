#!/usr/bin/env python3
"""Every export has a caller (DESIGN.md).

For each `val NAME` in lib/**/*.mli, look for NAME as a whole word (the
test `grep -rlw NAME lib bin bench perfbench examples` makes) in every
file of those trees outside the defining module (its .ml and .mli). A
val with no such match must say why it stays: its doc comment carries a
line starting `Test oracle:` naming the test that compares against it.
Prints each offending export as `file:line: Module.name` and exits 1 if
there is any.

Usage: python3 .github/check_exports.py   (from the repository root)
"""

import os
import re
import sys

TREES = ["lib", "bin", "bench", "perfbench", "examples"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
# Items that end the previous val's declaration and doc comment.
ITEM = re.compile(r"^\s*(val|type|exception|module|end|include|external)\b", re.M)


def source_files():
    for tree in TREES:
        for root, dirs, files in os.walk(tree):
            dirs[:] = [d for d in dirs if not d.startswith(("_", "."))]
            for f in files:
                path = os.path.join(root, f)
                try:
                    with open(path, encoding="utf-8") as fh:
                        yield path, fh.read()
                except (UnicodeDecodeError, OSError):
                    continue


def strip_comments_before(text, pos):
    """The doc comment that ends right before pos, if any."""
    head = text[:pos].rstrip()
    if head.endswith("*)"):
        start = head.rfind("(**")
        if start >= 0:
            return head[start:]
    return ""


def exports(path, text):
    """(name, line, doc) for every val of an .mli. A val's doc is the
    comment right before it plus everything up to the next item, so a
    doc comment after the declaration counts; vals listed back to back
    share the doc comment that follows the last of them."""
    vals = list(VAL.finditer(text))
    items = [m.start() for m in ITEM.finditer(text)]
    out = []
    for i, m in enumerate(vals):
        nxt = next((p for p in items if p > m.start()), len(text))
        doc = strip_comments_before(text, m.start()) + text[m.start():nxt]
        # back-to-back vals: take the doc comment of the group
        j = i
        while "(**" not in text[vals[j].start():nxt] and j + 1 < len(vals) \
                and vals[j + 1].start() == nxt:
            j += 1
            nxt = next((p for p in items if p > vals[j].start()), len(text))
            doc += text[vals[j].start():nxt]
        line = text.count("\n", 0, m.start()) + 1
        out.append((m.group(1), line, doc))
    return out


def main():
    files = dict(source_files())
    failures = []
    for path in sorted(files):
        if not (path.startswith("lib" + os.sep) and path.endswith(".mli")):
            continue
        module = path[: -len(".mli")]
        own = {module + ".ml", module + ".mli"}
        for name, line, doc in exports(path, files[path]):
            if re.search(r"^\s*(\(\*\*)?\s*Test oracle:", doc, re.M):
                continue
            word = re.compile(r"(?<![A-Za-z0-9_])" + re.escape(name)
                              + r"(?![A-Za-z0-9_])")
            if any(word.search(text) for f, text in files.items()
                   if f not in own):
                continue
            mod = os.path.basename(module).capitalize()
            failures.append("%s:%d: %s.%s" % (path, line, mod, name))
    for f in failures:
        print(f)
    if failures:
        print("%d export(s) without a caller outside their module and "
              "without a 'Test oracle:' line" % len(failures))
        return 1
    print("every export has a caller or a Test oracle: line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
