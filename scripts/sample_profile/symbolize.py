#!/usr/bin/env python3
"""Symbolizes a sampler.<pid>.txt written by sampler.so.

Prints two tables: self time (the function the sample interrupted; for
inlined code, the innermost inlined function) and inclusive time (every
function on the sampled stack, inlined ones included, once per sample),
each as a share of all samples.  Addresses are mapped to ELF files through
the memory map the sampler saved, and resolved with binutils' addr2line.

  python3 scripts/sample_profile/symbolize.py sampler.1234.txt [--top N]
"""

import argparse
import bisect
import collections
import struct
import subprocess


def read_dump(path):
    samples, maps, in_maps = [], [], False
    with open(path) as f:
        for line in f:
            if line == "maps\n":
                in_maps = True
            elif in_maps:
                parts = line.split()
                if len(parts) >= 6 and "x" in parts[1]:
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif line.strip():
                samples.append([int(a, 16) for a in line.split()])
    return samples, sorted(maps)


def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of each PT_LOAD of an ELF64 file."""
    with open(path, "rb") as f:
        head = f.read(64)
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _, off, vaddr, _, filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((off, vaddr, filesz))
    return segs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dump")
    parser.add_argument("--top", type=int, default=40)
    args = parser.parse_args()
    samples, maps = read_dump(args.dump)
    starts = [m[0] for m in maps]
    segments = {}
    wanted = collections.defaultdict(set)  # ELF path -> vaddrs.
    located = []  # Per sample: [(path, vaddr)], innermost first.
    for sample in samples:
        frames = []
        for depth, addr in enumerate(sample):
            # A return address points after its call: look up the call.
            addr -= 1 if depth > 0 else 0
            i = bisect.bisect_right(starts, addr) - 1
            if i < 0 or addr >= maps[i][1]:
                frames.append(("?", addr))
                continue
            lo, _, off, path = maps[i]
            if path not in segments:
                try:
                    segments[path] = load_segments(path)
                except OSError:
                    segments[path] = []
            file_off = addr - lo + off
            vaddr = next((v + file_off - o for o, v, n in segments[path]
                          if o <= file_off < o + n), file_off)
            wanted[path].add(vaddr)
            frames.append((path, vaddr))
        located.append(frames)
    # Per address, its function and then the functions it is inlined
    # into, innermost first (addr2line -i).
    chains = {}
    for path, vaddrs in wanted.items():
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", path] +
            [hex(v) for v in sorted(vaddrs)],
            capture_output=True, text=True).stdout.splitlines()
        chain, i = None, 0
        while i < len(out):
            if out[i].startswith("0x"):
                chain = chains.setdefault((path, int(out[i], 16)), [])
                i += 1
                continue
            fn = out[i]
            chain.append(fn if fn != "??" else f"?? ({path})")
            i += 2  # Skip the file:line that follows each function.
    self_counts, incl_counts = collections.Counter(), collections.Counter()
    for frames in located:
        stack = [chains.get(f) or ["??"] for f in frames]
        if stack:
            self_counts[stack[0][0]] += 1
        incl_counts.update({fn for chain in stack for fn in chain})
    total = max(1, len(located))
    print(f"{len(located)} samples")
    for title, counts in (("self", self_counts), ("inclusive", incl_counts)):
        print(f"\n{title:>9}  function")
        for fn, n in counts.most_common(args.top):
            print(f"{100.0 * n / total:8.2f}%  {fn[:110]}")


if __name__ == "__main__":
    main()
