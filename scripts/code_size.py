#!/usr/bin/env python3
"""Code-size report for the workspace: lines per crate, the longest functions, dead items.

Prints three tables for the workspace crates' `src` trees (the vendored
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
3. Per crate, the unreached `pub` items: each `pub` fn, struct, enum,
   trait, type alias, const or static outside test code whose name no
   non-test code writes anywhere but at its declaration. Callers are
   looked for in the same `src` trees plus `examples/` and
   `perfbench/src`; comments (doc examples included), `use` and
   `pub use` statements and the self type of an `impl` header are not
   callers, and neither is code under `#[cfg(test)]` or in `tests/`;
   a type named inside its own `impl` blocks names only itself, and a
   function is not called by a field-like use of its name (`x.name`
   with no call, `name: ..`). The match is by name otherwise, so an
   item that shares its name with one in use is never listed. Items
   named only inside their own file follow as information: they are
   reached, but could be private. `ALLOWED` below gives each unreached
   item that is kept its reason.

It is a report, not a gate. Usage, from anywhere in the repository:

    scripts/code_size.py                 # all three tables, the 10 longest bodies
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
# Any item declaration; group 1 is its kind, group 2 its name.
DECL = re.compile(
    r"\b(?:(?:const|unsafe|async)\s+)*(fn|struct|enum|trait|type|const|static|union|mod)\s+"
    r"([A-Za-z_][A-Za-z0-9_]*)"
)
USE = re.compile(r"\b(?:pub(?:\([^)]*\))?\s+)?use\b[^;]*;")

# Unreached `pub` items that stay, keyed `crate::module::[Type::]name`.
ALLOWED = {
    "fleet::traffic::poisson": "`PoissonPlan`'s parity tests compare against it; "
    "an exact O(1) sampler would replace both",
    "net::collective::allreduce_lower_bound": "the independent bound "
    "tests/substrate_consistency.rs holds the roofline engine to",
}


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


class Source:
    """One file's blanked code with its test ranges and `impl`/`trait` scopes."""

    def __init__(self, path, rel, crate):
        self.rel, self.crate = rel, crate
        self.code = blank_literals(path.read_text())
        self.match = brace_matches(self.code)
        self.line_starts = [0] + [i + 1 for i, c in enumerate(self.code) if c == "\n"]
        self.tests = []
        for m in CFG_TEST.finditer(self.code):
            brace = item_end(self.code, m.end(), self.match)
            if brace is not None:
                self.tests.append((m.start(), self.match[brace]))
        # (open brace, close brace, type name, header start) per impl/trait.
        self.scopes = []
        for m in SCOPE.finditer(self.code):
            brace = item_end(self.code, m.start(1), self.match)
            if brace is not None:
                name = scope_name(self.code[m.start(1):brace])
                self.scopes.append((brace, self.match[brace], name, m.start(1)))
        self.stem = crate if path.stem in ("lib", "main") else path.stem

    def line_of(self, offset):
        return bisect.bisect_right(self.line_starts, offset)

    def in_test(self, offset):
        return any(a <= offset <= b for a, b in self.tests)

    def owner(self, offset):
        """The innermost `impl`/`trait` type around `offset`, else None."""
        owners = [s for s in self.scopes if s[0] < offset < s[1]]
        return max(owners, key=lambda s: s[0])[2] if owners else None

    def caller_code(self):
        """The code with test items, `use` statements and impl self types blanked."""
        out = list(self.code)

        def blank(a, b):
            for k in range(a, b):
                if out[k] != "\n":
                    out[k] = " "

        for a, b in self.tests:
            blank(a, b + 1)
        for m in USE.finditer(self.code):
            blank(m.start(), m.end())
        for brace, _, name, start in self.scopes:
            header = self.code[start:brace]
            if not header.startswith("impl"):
                continue
            split = [f.end() for f in re.finditer(r"\bfor\b", header)]
            m = re.compile(rf"\b{re.escape(name)}\b").search(header, split[-1] if split else 0)
            if m:
                blank(start + m.start(), start + m.end())
        return "".join(out)


def functions(src):
    """`(lines, name, location)` for every function body outside test code in `src`."""
    code, out = src.code, []
    for m in FN.finditer(code):
        if src.in_test(m.start()):
            continue
        brace = item_end(code, m.end(), src.match)
        if brace is None:
            continue
        owner = src.owner(m.start()) or src.stem
        first = src.line_of(m.start())
        lines = src.line_of(src.match[brace]) - first + 1
        out.append((lines, f"{owner}::{m.group(1)}", f"{src.rel}:{first}"))
    return out


def pub_items(src, src_dir):
    """`(key, kind, name, offset)` for every `pub` item outside test code in `src`."""
    module = list(src.rel.relative_to(src_dir).with_suffix("").parts)
    if module[-1] in ("lib", "main", "mod"):
        module.pop()
    out = []
    for m in DECL.finditer(src.code):
        kind, name = m.group(1), m.group(2)
        before = src.code[src.line_starts[src.line_of(m.start()) - 1]:m.start()]
        if kind == "mod" or not re.search(r"\bpub\s+$", before) or src.in_test(m.start()):
            continue
        owner = src.owner(m.start())
        key = "::".join([src.crate, *module, *([owner] if owner else []), name])
        out.append((key, kind, name, m.start(2)))
    return out


def unreached(root, sources):
    """`(dead, own_file)`: `pub` items named by no non-test code but their declaration,
    and those named only inside their own file, as `(crate, key, kind, location)`."""
    callers = [s for s, _ in sources]
    for d in ("examples", "perfbench/src"):
        for f in sorted((root / d).rglob("*.rs")):
            callers.append(Source(f, f.relative_to(root), None))
    # Every identifier occurrence outside declarations, by file; `calls`
    # leaves out field-like ones (`x.name` with no call, `name: ..`), which
    # cannot call a function of that name.
    named, calls = {}, {}
    for src in callers:
        code = src.caller_code()
        decls = {m.start(2) for m in DECL.finditer(code)}
        for m in IDENT.finditer(code):
            # A type named inside its own `impl` blocks only refers to itself.
            if m.start() in decls or src.owner(m.start()) == m.group(0):
                continue
            named.setdefault(m.group(0), set()).add(src.rel)
            before = m.start() - 1
            while before >= 0 and code[before].isspace():
                before -= 1
            after = code[m.end():m.end() + 2] + "  "
            dotted = before >= 0 and code[before] == "."
            field = after[:2] != "::" and (after[0] == ":" or dotted and after[0] != "(")
            if not field:
                calls.setdefault(m.group(0), set()).add(src.rel)
    dead, own_file = [], []
    for src, src_dir in sources:
        for key, kind, name, offset in pub_items(src, src_dir):
            files = (calls if kind == "fn" else named).get(name, set())
            row = (src.crate, key, kind, f"{src.rel}:{src.line_of(offset)}")
            if not files:
                dead.append(row)
            elif files == {src.rel}:
                own_file.append(row)
    return dead, own_file


def print_items(rows):
    crate = None
    for row in rows:
        if row[0] != crate:
            crate = row[0]
            print(f"  {crate}")
        reason = f"  (kept: {ALLOWED[row[1]]})" if row[1] in ALLOWED else ""
        print(f"    {row[2]:6} {row[1]}  {row[3]}{reason}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--top", type=int, default=10, help="function bodies listed (default 10)")
    ap.add_argument("--by-file", action="store_true", help="also list each file's line count")
    ap.add_argument("--root", type=pathlib.Path, default=ROOT, help="repository root")
    args = ap.parse_args()
    root = args.root.resolve()

    print("non-test, non-comment lines")
    total, sources = 0, []
    for crate, src_dir in source_dirs(root):
        files = sorted(src_dir.rglob("*.rs"))
        counts = [(f, counted_lines(f.read_text())) for f in files]
        n = sum(c for _, c in counts)
        total += n
        print(f"  {n:6}  {src_dir.relative_to(root)}")
        for f, c in counts if args.by_file else []:
            print(f"  {c:14}  {f.relative_to(root)}")
        sources += [(Source(f, f.relative_to(root), crate), src_dir.relative_to(root)) for f in files]
    print(f"  {total:6}  total")
    print()
    print(f"longest function bodies (lines), top {args.top}")
    fns = [f for src, _ in sources for f in functions(src)]
    fns.sort(key=lambda t: (-t[0], t[2]))
    for lines, name, where in fns[: args.top]:
        print(f"  {lines:6}  {name}  {where}")
    print()
    dead, own_file = unreached(root, sources)
    kept = sum(row[1] in ALLOWED for row in dead)
    print(f"unreached pub items: {len(dead)} ({kept} allowlisted)")
    print_items(dead)
    print()
    print(f"pub items named only in their own file (information): {len(own_file)}")
    print_items(own_file)


if __name__ == "__main__":
    sys.exit(main())
