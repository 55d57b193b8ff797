#!/usr/bin/env python3
"""Product-path coverage of src/ from a --coverage build.

Reads the gcov data that goldens/product_paths.sh left in <build-dir>
(goldens/README.md has the whole recipe) and prints the share of src/
lines that ran and the number of function bodies that never ran.  A line
counts once however many translation units compile it; a function body
is one (file, line, mangled name), so each lambda and each template
instantiation is its own.  Every object of the library counts, run or
not; other objects count when they ran.

    python3 goldens/coverage.py <build-dir> [--list]

--list also prints each unreached function body.
"""
import json
import os
import subprocess
import sys


def main(argv):
    if len(argv) not in (2, 3) or (len(argv) == 3 and argv[2] != "--list"):
        sys.exit(f"usage: {argv[0]} <build-dir> [--list]")
    build = os.path.abspath(argv[1])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(argv[0]))), "src") + "/"
    notes = []
    for dirpath, _, names in os.walk(os.path.join(build, "CMakeFiles")):
        for name in names:
            if not name.endswith(".gcno"):
                continue
            base = os.path.join(dirpath, name[:-5])
            if "/drowsy.dir/" in base or os.path.exists(base + ".gcda"):
                notes.append(base + ".gcno")
    if not notes:
        sys.exit(f"no gcov notes under {build}: configure with --coverage")
    lines, funcs = {}, {}
    for note in sorted(notes):
        out = subprocess.run(["gcov", "--json-format", "--stdout", "-o", os.path.dirname(note), note],
                             capture_output=True, text=True, cwd=build, check=True).stdout
        for doc in out.splitlines():
            if not doc.startswith("{"):
                continue
            report = json.loads(doc)
            for f in report["files"]:
                path = os.path.normpath(os.path.join(report["current_working_directory"], f["file"]))
                if not path.startswith(src):
                    continue
                rel = path[len(src):]
                for line in f["lines"]:
                    key = (rel, line["line_number"])
                    lines[key] = lines.get(key, 0) + line["count"]
                for fn in f["functions"]:
                    key = (rel, fn["start_line"], fn["name"])
                    entry = funcs.setdefault(key, [0, fn["demangled_name"]])
                    entry[0] += fn["execution_count"]
    ran = sum(1 for count in lines.values() if count > 0)
    unreached = sorted(key for key, (count, _) in funcs.items() if count == 0)
    print(f"src/ lines run: {ran} of {len(lines)} ({100.0 * ran / len(lines):.1f}%)")
    print(f"function bodies never run: {len(unreached)} of {len(funcs)}")
    if len(argv) == 3:
        for key in unreached:
            print(f"  src/{key[0]}:{key[1]}  {funcs[key][1]}")


if __name__ == "__main__":
    main(sys.argv)
