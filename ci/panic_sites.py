#!/usr/bin/env python3
"""The panic sites on the daemon's serving path, checked against an allow-list.

One thread runs the daemon: a panic on it that no guard catches ends every
tenant's connection at once. This script lists every panic site outside
`#[cfg(test)]` in the files that thread runs a request through — the
`poll(2)` shell, the protocol core, the serving engine and its shard set:

* a call of `unwrap(` or `expect(`;
* a `panic!` or an `unreachable!`;
* an `assert!`, `assert_eq!` or `assert_ne!` (a `debug_` one is a check of
  the code, not of its input, and is compiled out of the shipped build).

Comments and string literals do not count. A site is named by its file and
its source line, trimmed; each must be named in the allow-list
(`ci/panic_sites.allow`, one `<file>: <line>  ## <reason>` per site) with
the reason no client byte, scenario-file byte or cache-file byte can reach
it. A line that is edited is a new site to argue for.

Exit status: 0 when every site is allowed and every allow-list line names a
site; 1 otherwise.

    python3 ci/panic_sites.py            # check
    python3 ci/panic_sites.py --list     # print every site
"""

import os
import re
import sys

from pub_surface import ROOT, drop_cfg_test, lex

ALLOW = os.path.join(ROOT, "ci", "panic_sites.allow")

FILES = [
    "crates/server/src/daemon.rs",
    "crates/server/src/daemon_core.rs",
    "crates/serve/src/engine.rs",
    "crates/serve/src/shards.rs",
]

SITE = re.compile(r"\b(?:unwrap|expect)\(|\b(?:panic|unreachable)!|\bassert(?:_eq|_ne)?!")


def scan():
    """Every site, as ((file, trimmed source line), line number)."""
    sites = []
    for rel in FILES:
        with open(os.path.join(ROOT, rel), encoding="utf-8") as f:
            text = f.read()
        code = drop_cfg_test(lex(text)[0], ends=";,")
        source = text.split("\n")
        for k, line in enumerate(code.split("\n")):
            if SITE.search(line):
                sites.append(((rel, source[k].strip()), k + 1))
    return sites


def read_allow():
    allow, problems = {}, []
    with open(ALLOW, encoding="utf-8") as f:
        for k, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            site, _, reason = line.partition("  ## ")
            rel, _, code = site.partition(": ")
            if not code or not reason.strip():
                problems.append(f"ci/panic_sites.allow:{k}: needs `<file>: <line>  ## <reason>`: {line}")
                continue
            allow[(rel, code.strip())] = k
    return allow, problems


def main():
    sites = scan()
    if "--list" in sys.argv:
        for (rel, code), k in sites:
            print(f"{rel}:{k}: {code}")
        print(f"{len(sites)} panic sites")
        return 0
    allow, problems = read_allow()
    for (rel, code), k in sites:
        if (rel, code) not in allow:
            problems.append(
                f"{rel}:{k}: `{code}` is a panic site on the daemon's thread; return an error"
                f" instead, or name it in ci/panic_sites.allow with the reason no client,"
                f" scenario-file or cache-file byte can reach it"
            )
    named = {key for key, _ in sites}
    for key, k in sorted(allow.items(), key=lambda item: item[1]):
        if key not in named:
            problems.append(f"ci/panic_sites.allow:{k}: no such panic site in {key[0]}; drop the line")
    for p in problems:
        print(p)
    print(f"{len(sites)} panic sites, {len(allow)} allowed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
