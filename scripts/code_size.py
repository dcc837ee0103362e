#!/usr/bin/env python3
"""Code-size report for the workspace: lines per crate and the longest functions.

Prints two tables for the workspace crates' `src` trees (the vendored
shims under crates/shims excluded, the root package's `src` included):

1. Per crate, the non-test, non-comment lines: the lines of each file
   before its first line that starts with `#[cfg(test)]`, minus blank
   lines and lines whose first non-blank characters are `//` (doc
   comments included). This is the count design changes report as
   "non-test, non-comment lines"; `--by-file` adds one row per file.
2. The N longest function bodies outside test code, in lines from the
   line holding `fn` to the line of the body's closing brace. Braces are
   matched after comments and string and char literals are blanked out;
   anything under a `#[cfg(test)]` item is skipped. Methods are named
   after their `impl` or `trait` type (`InstanceState::serve`), free
   functions after their file (`sim_ctrl::main`).

It is a report, not a gate. Usage, from anywhere in the repository:

    scripts/code_size.py                 # both tables, the 10 longest bodies
    scripts/code_size.py --top 3 --by-file

Python 3 standard library only.
"""

import argparse
import bisect
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
FN = re.compile(r"\bfn\s+([A-Za-z_][A-Za-z0-9_]*)")
# An `impl` or `trait` item (not `impl Trait` in a signature).
SCOPE = re.compile(r"^[ \t]*(?:pub(?:\([^)]*\))?\s+)?(?:unsafe\s+)?\b(impl|trait)\b", re.M)
CFG_TEST = re.compile(r"#\s*\[\s*cfg\s*\(\s*test\s*\)\s*\]")


def source_dirs(root):
    """`(crate, src dir)` for every workspace crate, shims excluded."""
    dirs = [(d.parent.name, d) for d in sorted(root.glob("crates/*/src"))]
    dirs = [(c, d) for c, d in dirs if d.parent.parent.name != "shims"]
    if (root / "src").is_dir():
        dirs.append(("root", root / "src"))
    return dirs


def counted_lines(text):
    """Lines before the first `#[cfg(test)]` line, blank and `//` lines excluded."""
    n = 0
    for line in text.splitlines():
        if line.startswith("#[cfg(test)]"):
            break
        s = line.strip()
        if s and not s.startswith("//"):
            n += 1
    return n


def blank_literals(text):
    """`text` with comments and string/char literal contents replaced by spaces.

    Newlines are kept, so offsets and line numbers carry over, and the
    quotes stay so a blanked literal is still one token.
    """
    out = list(text)
    i, n = 0, len(text)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif text.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            blank(i, j)
            i = j
        elif c == "r" and re.match(r"r#*\"", text[i:i + 258]) and raw_prefix(text, i):
            hashes = re.match(r"r(#*)\"", text[i:]).group(1)
            start = i + 2 + len(hashes)
            j = text.find('"' + hashes, start)
            j = n if j < 0 else j
            blank(start, j)
            i = j + 1 + len(hashes)
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            blank(i + 1, j)
            i = j + 1
        elif c == "'":
            # A char literal ('x', '\n', '\u{..}') or a lifetime/label ('a).
            if text.startswith("\\", i + 1):
                j = i + 2
                while j < n and text[j] != "'":
                    j += 1
                blank(i + 1, j)
                i = j + 1
            elif i + 2 < n and text[i + 2] == "'":
                blank(i + 1, i + 2)
                i += 3
            else:
                i += 1
        else:
            i += 1
    return "".join(out)


def is_ident_char(text, i):
    return i >= 0 and (text[i].isalnum() or text[i] == "_")


def raw_prefix(text, i):
    """Whether the `r` at `i` starts a raw (byte) string, not an identifier's tail."""
    if text[i - 1:i] == "b":
        i -= 1
    return not is_ident_char(text, i - 1)


def brace_matches(code):
    """Maps each `{` offset in `code` to the offset of its closing `}`."""
    match, stack = {}, []
    for i, c in enumerate(code):
        if c == "{":
            stack.append(i)
        elif c == "}" and stack:
            match[stack.pop()] = i
    return match


def item_end(code, start, match):
    """Offset of the `{` opening the item starting at `start` (None if it ends in `;`)."""
    depth = 0
    for i in range(start, len(code)):
        c = code[i]
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif depth == 0 and c == ";":
            return None
        elif depth == 0 and c == "{":
            return i if i in match else None
    return None


def scope_name(header):
    """The type an `impl`/`trait` header is about, generics stripped."""
    header = re.sub(r"\bwhere\b.*", "", header, flags=re.S)
    if header.startswith("trait"):
        m = IDENT.search(header, len("trait"))
        return m.group(0) if m else "?"
    header = header[len("impl"):]
    # Drop the impl's own generic parameters, then take the self type.
    header = header.strip()
    if header.startswith("<"):
        depth = 0
        for k, c in enumerate(header):
            depth += {"<": 1, ">": -1}.get(c, 0)
            if depth == 0:
                header = header[k + 1:]
                break
    parts = re.split(r"\bfor\b", header, maxsplit=1)
    ty = parts[-1].strip()
    ty = re.sub(r"<.*", "", ty, flags=re.S)
    names = IDENT.findall(ty)
    names = [x for x in names if x not in ("dyn", "mut", "const")]
    return names[-1] if names else "?"


def functions(path, rel, crate):
    """`(lines, name, location)` for every function body outside test code in `path`."""
    code = blank_literals(path.read_text())
    match = brace_matches(code)
    line_starts = [0] + [i + 1 for i, c in enumerate(code) if c == "\n"]

    def line_of(offset):
        return bisect.bisect_right(line_starts, offset)

    tests = []
    for m in CFG_TEST.finditer(code):
        brace = item_end(code, m.end(), match)
        if brace is not None:
            tests.append((m.start(), match[brace]))
    scopes = []
    for m in SCOPE.finditer(code):
        brace = item_end(code, m.start(1), match)
        if brace is not None:
            scopes.append((brace, match[brace], scope_name(code[m.start(1):brace])))
    stem = crate if path.stem in ("lib", "main") else path.stem
    out = []
    for m in FN.finditer(code):
        if any(a <= m.start() <= b for a, b in tests):
            continue
        brace = item_end(code, m.end(), match)
        if brace is None:
            continue
        owners = [s for s in scopes if s[0] < m.start() < s[1]]
        owner = max(owners, key=lambda s: s[0])[2] if owners else stem
        first = line_of(m.start())
        lines = line_of(match[brace]) - first + 1
        out.append((lines, f"{owner}::{m.group(1)}", f"{rel}:{first}"))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--top", type=int, default=10, help="function bodies listed (default 10)")
    ap.add_argument("--by-file", action="store_true", help="also list each file's line count")
    ap.add_argument("--root", type=pathlib.Path, default=ROOT, help="repository root")
    args = ap.parse_args()
    root = args.root.resolve()

    print("non-test, non-comment lines")
    total, fns = 0, []
    for crate, src in source_dirs(root):
        files = sorted(src.rglob("*.rs"))
        counts = [(f, counted_lines(f.read_text())) for f in files]
        n = sum(c for _, c in counts)
        total += n
        print(f"  {n:6}  {src.relative_to(root)}")
        for f, c in counts if args.by_file else []:
            print(f"  {c:14}  {f.relative_to(root)}")
        for f in files:
            fns.extend(functions(f, f.relative_to(root), crate))
    print(f"  {total:6}  total")
    print()
    print(f"longest function bodies (lines), top {args.top}")
    fns.sort(key=lambda t: (-t[0], t[2]))
    for lines, name, where in fns[: args.top]:
        print(f"  {lines:6}  {name}  {where}")


if __name__ == "__main__":
    sys.exit(main())
