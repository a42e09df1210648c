#!/usr/bin/env python3
"""Symbolize a profile written by tools/profile/prof.rs.

    symbolize.py PROFILE BINARY [--top N] [--function NAME] [--drop NAME]...

Prints each function's self share (samples whose pc is in it, inlined
callees named as themselves) and inclusive share (samples with it anywhere
on the stack), with the source file beside each short name. With
--function, also prints a per-pc breakdown of the samples whose pc lies in
a function whose name contains NAME (its inlined callees included):
offset, samples, share, source line and innermost function.
--drop leaves out every sample with a function whose name contains NAME
on its stack (`--drop probe`: the benchmark harness's host-speed probe).

Addresses are made relative to the load base on the profile's first line;
return addresses (every frame but the pc) are moved back one byte, into
the call instruction. Needs `llvm-symbolizer` on PATH.
"""

import argparse
import re
import subprocess
from collections import Counter

SUFFIX = re.compile(r"(::h[0-9a-f]{16})?( \(\.llvm\.\d+\))?$")
# Legacy-mangling escapes llvm-symbolizer leaves in some names.
ESCAPES = {"$u7b$": "{", "$u7d$": "}", "$LT$": "<", "$GT$": ">", "$u20$": " ",
           "$C$": ",", "$RF$": "&", "$BP$": "*", "..": "::"}


def strip_generics(name):
    """Drops every `<...>` group, nested ones included."""
    out, depth = [], 0
    for ch in name:
        if ch == "<":
            depth += 1
        elif ch == ">" and depth:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def short(name):
    """`<a::b::T<X> as a::Tr>::f` -> `T::f`; `a::b::c::f` -> `c::f`."""
    name = SUFFIX.sub("", name).replace("->", "→")
    for escape, ch in ESCAPES.items():
        name = name.replace(escape, ch)
    if name.startswith("<"):
        depth = 0
        for i, ch in enumerate(name):
            depth += (ch == "<") - (ch == ">")
            if depth == 0:
                inner, rest = name[1:i], name[i + 1 :]
                break
        else:
            inner, rest = name, ""
        name = strip_generics(inner.split(" as ")[0]) + rest
    parts = [p for p in strip_generics(name).split("::") if p]
    return "::".join(parts[-2:])


def source_file(location):
    """`/x/crates/sim/src/a.rs:10:5` -> `sim/src/a.rs`, std likewise."""
    path = location.rsplit(":", 2)[0]
    for marker in ("/crates/", "/library/"):
        if marker in path:
            return path.split(marker, 1)[1]
    return path.rsplit("/", 1)[-1]


def symbolize(binary, addresses):
    """Maps each address to its (name, location) frames, innermost first."""
    query = "".join(f"0x{a:x}\n" for a in addresses)
    out = subprocess.run(
        ["llvm-symbolizer", "--inlining", f"--obj={binary}"],
        input=query,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    blocks = out.strip("\n").split("\n\n")
    frames = {}
    for address, block in zip(addresses, blocks):
        lines = block.split("\n")
        frames[address] = [(short(n), l) for n, l in zip(lines[::2], lines[1::2])]
    return frames


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("profile")
    ap.add_argument("binary")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--function")
    ap.add_argument("--drop", action="append", default=[])
    args = ap.parse_args()

    with open(args.profile) as f:
        base = int(f.readline(), 16)
        samples = [
            [int(x, 16) - base - (i > 0) for i, x in enumerate(line.split())]
            for line in f
            if line.strip()
        ]
    frames = symbolize(args.binary, sorted({a for s in samples for a in s}))
    samples = [
        s
        for s in samples
        if not any(d in name for a in s for name, _ in frames[a] for d in args.drop)
    ]
    total = len(samples)
    where, self_count, incl_count, pcs = {}, Counter(), Counter(), Counter()
    for sample in samples:
        pc_frames = frames[sample[0]]
        self_count[pc_frames[0][0]] += 1
        seen = set()
        for address in sample:
            for name, location in frames[address]:
                where.setdefault(name, source_file(location))
                seen.add(name)
        incl_count.update(seen)
        if args.function and any(args.function in name for name, _ in pc_frames):
            pcs[sample[0]] += 1

    print(f"{total} samples")
    for title, counts in (("self", self_count), ("inclusive", incl_count)):
        print(f"\n{title:>9}  function")
        for name, n in counts.most_common(args.top):
            print(f"{100 * n / total:8.1f}%  {name}  ({where.get(name, '?')})")
    if args.function:
        hits = sum(pcs.values())
        print(f"\n{hits} samples with the pc in {args.function}")
        for address, n in sorted(pcs.items()):
            name, location = frames[address][0]
            share = 100 * n / max(hits, 1)
            print(f"  0x{address:x}  {n:6}  {share:5.1f}%  {source_file(location)}:"
                  f"{location.rsplit(':', 2)[1]}  {name}")


if __name__ == "__main__":
    main()
