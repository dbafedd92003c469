#!/usr/bin/env python3
"""The public surface of the library crates, checked against an allow-list.

`dead_code` never fires on a `pub` item of a library, so an item that only its
own crate uses hides from the compiler and still costs a doc comment. This
script finds such items by name:

* a *public item* is a bare `pub` fn, struct, enum, trait, type alias, const,
  static or mod under `crates/<crate>/src/` of one of the library crates below
  (`pub(crate)`, `pub(super)`, `pub use` and struct fields are not items here),
  outside any `#[cfg(test)]` item;
* it is *used outside* when its name appears as an identifier in code outside
  its crate's `src/`: the other crates (`magma-bench` included), `tests/`,
  `examples/` and `benchmark/src`. Comments and string literals do not count,
  except the two parts of a doc comment that rustdoc compiles or resolves: a
  doctest (compiled as an outside crate, so its own crate's doctests count
  too) and an intra-doc link target in another crate's docs.

The check is by name, so it errs towards "used": a method `stats` counts as
used when anything outside calls any `stats`. Every public item with no
outside use must be named in the allow-list (`ci/pub_surface.allow`, one
`<crate> <name>  <reason>` per line), with the reason it stays `pub` — for
example it appears in the signature of a public function that an outside
caller reaches. Every other such item is narrowed to `pub(crate)`, after
which rustc reports whatever only tests used as dead code.

Each item also has one path: a library crate declares no `pub mod prelude`
(a glob namespace that repeats names defined elsewhere) and no
`pub use magma_<crate> as <alias>` (a second path to a whole crate). A caller
imports every item from the crate that defines it.

Exit status: 0 when every unused public item is allowed, every allow-list
line names an unused public item with a reason, and no library crate has a
prelude or a crate alias; 1 otherwise.

    python3 ci/pub_surface.py            # check
    python3 ci/pub_surface.py --list     # print every unused public item
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOW = os.path.join(ROOT, "ci", "pub_surface.allow")

# The library crates whose surface is checked, by directory under crates/.
# `bench` is the binaries' support library; it is a caller, not checked.
LIBRARY_CRATES = ["model", "cost", "platform", "m3e", "optim", "serve", "server", "registry", "magma"]

# Trees whose code may use a library crate from outside.
CALLER_TREES = ["crates", "tests", "examples", os.path.join("benchmark", "src")]

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
ITEM = re.compile(
    r"(?<![\w(])pub\s+(?:const\s+(?=(?:unsafe\s+)?fn\b)|unsafe\s+|async\s+)*"
    r"(fn|struct|enum|trait|type|const|static|mod|union)\s+([A-Za-z_][A-Za-z0-9_]*)"
)
SECOND_PATH = re.compile(
    r"(?<![\w(])pub\s+(?:mod\s+prelude\b|use\s+(?:::)?magma_\w+\s+as\s+\w+)"
)
CFG_TEST = re.compile(r"#\[cfg\(test\)\]")
# A fenced block in a doc comment is a doctest unless its info string names
# another language or `ignore`.
NOT_RUST_FENCE = re.compile(r"^```\s*(text|sh|bash|console|json|toml|ignore|plain|none)\b")
DOC_LINK = re.compile(r"\]\(([^)\s]+)\)|\[`?([A-Za-z_][\w:]*(?:\(\))?!?)`?\](?![(\[])")


def rust_files(top):
    for dirpath, _, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(".rs"):
                yield os.path.join(dirpath, name)


def lex(text):
    """Split a Rust source into (code, doctests, doc_links).

    `code` keeps the length and the newlines of `text`, with every comment and
    every string or char literal blanked to spaces. `doctests` is the code of
    the fenced blocks in doc comments; `doc_links` the intra-doc link targets.
    """
    out = list(text)
    docs = []
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
            line = text[i:j]
            if line.startswith("///") and not line.startswith("////") or line.startswith("//!"):
                docs.append(line[3:])
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
        elif c == "r" and re.match(r'r#*"', text[i:i + 8]) and not (i and (text[i - 1].isalnum() or text[i - 1] == "_")):
            hashes = re.match(r'r(#*)"', text[i:]).group(1)
            j = text.find('"' + hashes, i + len(hashes) + 2)
            j = n if j < 0 else j + 1 + len(hashes)
            blank(i, j)
            i = j
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            blank(i, j + 1)
            i = j + 1
        elif c == "'":
            # A char literal ('x', '\n', '\u{1F600}'), else a lifetime.
            if i + 1 < n and text[i + 1] == "\\":
                j = text.find("'", i + 2)
                blank(i, j + 1)
                i = j + 1
            elif i + 2 < n and text[i + 2] == "'":
                blank(i, i + 3)
                i += 3
            else:
                i += 1
        else:
            i += 1

    doctests, links, fenced = [], [], False
    for line in docs:
        stripped = line.strip()
        if stripped.startswith("```"):
            fenced = not fenced
            rust = fenced and not NOT_RUST_FENCE.match(stripped)
            continue
        if fenced:
            if rust:
                doctests.append(line)
        else:
            links.extend(a or b for a, b in DOC_LINK.findall(line))
    return "".join(out), "\n".join(doctests), links


def drop_cfg_test(code):
    """Blank every item (or statement) that follows a `#[cfg(test)]`."""
    out = list(code)
    for m in reversed(list(CFG_TEST.finditer(code))):
        i, n, nest = m.end(), len(code), 0
        # The item ends at a `;` outside any bracket, or with the block that
        # its first top-level `{` opens.
        while i < n:
            c = code[i]
            if c in "([":
                nest += 1
            elif c in ")]":
                nest -= 1
            elif c == ";" and nest == 0:
                i += 1
                break
            elif c == "{" and nest == 0:
                depth = 0
                while i < n:
                    depth += {"{": 1, "}": -1}.get(code[i], 0)
                    i += 1
                    if depth == 0:
                        break
                break
            i += 1
        for k in range(m.start(), i):
            if out[k] != "\n":
                out[k] = " "
    return "".join(out)


def crate_of(path):
    rel = os.path.relpath(path, ROOT).split(os.sep)
    if rel[0] == "crates" and len(rel) > 2 and rel[2] == "src" and rel[1] in LIBRARY_CRATES:
        # A binary target under src/bin is a crate of its own.
        return None if len(rel) > 3 and rel[3] == "bin" else rel[1]
    return None


def scan():
    items = {c: {} for c in LIBRARY_CRATES}  # crate -> name -> first "file:line"
    used = {c: set() for c in LIBRARY_CRATES}  # crate -> names used outside it
    second_paths = []  # "file:line: declaration" of each prelude or crate alias
    for tree in CALLER_TREES:
        for path in rust_files(os.path.join(ROOT, tree)):
            with open(path, encoding="utf-8") as f:
                code, doctests, links = lex(f.read())
            owner = crate_of(path)
            outside_names = set(IDENT.findall(code)) | {w for link in links for w in IDENT.findall(link)}
            doctest_names = set(IDENT.findall(doctests))
            for c in LIBRARY_CRATES:
                used[c] |= doctest_names if c == owner else outside_names | doctest_names
            if owner is None:
                continue
            code = drop_cfg_test(code)
            rel = os.path.relpath(path, ROOT)
            for m in ITEM.finditer(code):
                line = code.count("\n", 0, m.start()) + 1
                items[owner].setdefault(m.group(2), f"{rel}:{line}")
            for m in SECOND_PATH.finditer(code):
                line = code.count("\n", 0, m.start()) + 1
                second_paths.append(f"{rel}:{line}: `{' '.join(m.group(0).split())}`")
    return items, used, second_paths


def read_allow():
    allow, problems = {}, []
    with open(ALLOW, encoding="utf-8") as f:
        for k, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 3:
                problems.append(f"ci/pub_surface.allow:{k}: needs `<crate> <name> <reason>`: {line}")
                continue
            allow[(parts[0], parts[1])] = k
    return allow, problems


def package(c):
    return c if c == "magma" else f"magma-{c}"


def main():
    items, used, second_paths = scan()
    unused = sorted((c, name) for c in LIBRARY_CRATES for name in items[c] if name not in used[c])
    total = sum(len(v) for v in items.values())
    if "--list" in sys.argv:
        for c, name in unused:
            print(f"{c:9} {name:32} {items[c][name]}")
        print(f"{total} public item names, {len(unused)} with no use outside their crate")
        return 0
    allow, problems = read_allow()
    for where in second_paths:
        problems.append(
            f"{where} is a second path to items defined elsewhere;"
            f" delete it and import each item from the crate that defines it"
        )
    for c, name in unused:
        if (c, name) not in allow:
            problems.append(
                f"{items[c][name]}: `{name}` is `pub` but nothing outside {package(c)} names it;"
                f" narrow it to `pub(crate)`, or list it in ci/pub_surface.allow with the reason it stays `pub`"
            )
    for (c, name), k in sorted(allow.items()):
        if c not in items or name not in items[c]:
            problems.append(f"ci/pub_surface.allow:{k}: no public item `{name}` in {package(c)}; drop the line")
        elif name in used[c]:
            problems.append(f"ci/pub_surface.allow:{k}: `{name}` is used outside {package(c)}; drop the line")
    for p in problems:
        print(p)
    print(f"{total} public item names, {len(unused)} with no use outside their crate, {len(allow)} allowed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
