#!/usr/bin/env python3
"""Stack sampler for Linux hosts without `perf`: frame-pointer stacks via ptrace.

Runs COMMAND, attaches to it with PTRACE_SEIZE once it has exec'd, and
about every 0.5 ms interrupts every thread (/proc/PID/task),
reads its registers and walks its frame-pointer chain through
/proc/PID/mem. Addresses are resolved with `addr2line -i -f -C`, which
expands inlined frames, so a sample inside a function inlined into its
caller counts for both.

Prints, per function, the inclusive share of samples (the function is
on the stack) and the exclusive share (it is the innermost frame). With
--function NAME (repeatable; a substring of the demangled name) it also
prints, for each matching function, the share of samples per source
line inside it: the line that was executing, or that called the rest
of the stack.

The stacks are only as good as the frame pointers. Build the target
with them and with debug info, in a target directory of its own:

    CARGO_PROFILE_RELEASE_DEBUG=true RUSTFLAGS="-C force-frame-pointers=yes" \\
        CARGO_TARGET_DIR=.fp_build cargo build --release --offline \\
        --manifest-path perfbench/Cargo.toml
    scripts/stack_sample.py --function CellSim::route -- \\
        .fp_build/release/perfbench --child --workload dense_split --seed 1 --trace 0

A frame interrupted before its prologue hides its caller, and the
standard library carries no frame pointers, so stacks through it end
early. Python 3 standard library only; x86_64 Linux only.
"""

import argparse
import collections
import ctypes
import os
import signal
import struct
import subprocess
import sys
import time

PTRACE_CONT = 7
PTRACE_GETREGSET = 0x4204
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
NT_PRSTATUS = 1
WALL = 0x40000000

# x86_64 user_regs_struct: 27 u64 words, rbp at 4, rip at 16.
REGS_WORDS, PC, FP = 27, 16, 4

# Sampling period, seconds.
INTERVAL_S = 0.0005
# Functions (and lines per --function) listed.
TOP = 40

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]


class IoVec(ctypes.Structure):
    _fields_ = [("base", ctypes.c_void_p), ("len", ctypes.c_size_t)]


def ptrace(req, tid, addr=0, data=0):
    """One ptrace call; returns False on failure (the thread is gone)."""
    return libc.ptrace(req, tid, addr, data) != -1


def registers(tid):
    """`(pc, fp)` of a ptrace-stopped thread, or None."""
    buf = (ctypes.c_uint64 * REGS_WORDS)()
    iov = IoVec(ctypes.cast(buf, ctypes.c_void_p), ctypes.sizeof(buf))
    if not ptrace(PTRACE_GETREGSET, tid, NT_PRSTATUS, ctypes.addressof(iov)):
        return None
    return buf[PC], buf[FP]


def stop(tid):
    """Interrupts `tid` and waits for its interrupt stop. Signals that
    arrive first are delivered on the spot. Returns False when the
    thread is gone."""
    if not ptrace(PTRACE_INTERRUPT, tid):
        return False
    while True:
        try:
            _, status = os.waitpid(tid, WALL)
        except ChildProcessError:
            return False
        if not os.WIFSTOPPED(status):
            return False
        if status >> 16 == PTRACE_EVENT_STOP:
            return True
        sig = os.WSTOPSIG(status) if status >> 16 == 0 else 0
        ptrace(PTRACE_CONT, tid, 0, sig)


def walk(mem, pc, fp, max_depth=256):
    """Return addresses of the frame-pointer chain, innermost first. Each
    caller's return address is moved back one byte, into its call."""
    stack = [pc]
    while fp and len(stack) < max_depth:
        try:
            raw = os.pread(mem, 16, fp)
        except OSError:
            break
        if len(raw) < 16:
            break
        next_fp, ret = struct.unpack("<QQ", raw)
        if ret == 0:
            break
        stack.append(ret - 1)
        if next_fp <= fp:
            break
        fp = next_fp
    return stack


def exec_segments(path):
    """`(p_vaddr - p_offset)` of each executable PT_LOAD of an ELF file,
    keyed by its page-aligned p_offset (the offset /proc/PID/maps shows
    for its mapping): what turns a file offset into an ELF address."""
    try:
        with open(path, "rb") as f:
            head = f.read(64)
            if head[:4] != b"\x7fELF" or head[4] != 2:
                return {}
            phoff, = struct.unpack_from("<Q", head, 32)
            phentsize, phnum = struct.unpack_from("<HH", head, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return {}
    out = {}
    for i in range(phnum):
        p_type, p_flags, p_offset, p_vaddr = struct.unpack_from("<IIQQ", table, i * phentsize)
        if p_type == 1 and p_flags & 1:
            out[p_offset & ~0xFFF] = p_vaddr - p_offset
    return out


class Maps:
    """Runtime address → `(file, ELF address)` via /proc/PID/maps, which
    is re-read when an address falls outside every known mapping (the
    loader maps shared libraries after exec)."""

    def __init__(self, pid):
        self.pid = pid
        self.ranges = []
        self.segs = {}

    def refresh(self):
        self.ranges = []
        with open(f"/proc/{self.pid}/maps") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 6 or "x" not in parts[1] or not parts[5].startswith("/"):
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                self.ranges.append((lo, hi, int(parts[2], 16), parts[5]))

    def lookup(self, addr):
        for lo, hi, off, path in self.ranges:
            if lo <= addr < hi:
                segs = self.segs.setdefault(path, exec_segments(path))
                return path, addr - lo + off + segs.get(off, 0)
        return None

    def resolve(self, stack):
        """The resolvable frames of `stack`."""
        frames = [self.lookup(x) for x in stack]
        if None in frames:
            try:
                self.refresh()
            except OSError:
                pass
            frames = [self.lookup(x) for x in stack]
        return [f for f in frames if f]


def symbolize(addrs_by_file):
    """`{(file, addr): [(function, "file:line"), ...]}`, innermost inlined
    frame first, from one `addr2line -i -f -C -a` run per file."""
    out = {}
    for path, addrs in addrs_by_file.items():
        addrs = sorted(addrs)
        res = subprocess.run(
            ["addr2line", "-i", "-f", "-C", "-a", "-e", path],
            input="".join(f"{a:#x}\n" for a in addrs),
            capture_output=True,
            text=True,
            check=False,
        )
        frames, cur = {}, None
        lines = res.stdout.splitlines()
        i = 0
        while i < len(lines):
            line = lines[i]
            if line.startswith("0x"):
                cur = int(line, 16)
                frames[cur] = []
                i += 1
                continue
            loc = lines[i + 1] if i + 1 < len(lines) else "??:0"
            frames[cur].append((line, loc.split(" (discriminator")[0]))
            i += 2
        for a in addrs:
            out[(path, a)] = frames.get(a) or [(f"{os.path.basename(path)}+{a:#x}", "??:0")]
    return out


def short_loc(loc):
    """`file.rs:123` from an absolute `/…/src/file.rs:123`."""
    path, _, line = loc.rpartition(":")
    parts = path.split("/")
    return "/".join(parts[-2:]) + ":" + line if path else loc


def main():
    if os.uname().machine != "x86_64":
        sys.exit("stack_sample.py: x86_64 only")
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s [options] -- COMMAND [ARGS...]",
    )
    ap.add_argument("--function", action="append", default=[], metavar="NAME",
                    help="also break NAME (substring of the demangled name) down by line")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    a = ap.parse_args()
    cmd = a.command[1:] if a.command[:1] == ["--"] else a.command
    if not cmd:
        ap.error("no command given")

    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    pid = proc.pid
    own_exe = os.readlink("/proc/self/exe")
    # Attach once the child runs the target, not this interpreter (give
    # up waiting after a second: the target may be this interpreter).
    deadline = time.monotonic() + 1.0
    while time.monotonic() < deadline:
        try:
            if os.readlink(f"/proc/{pid}/exe") != own_exe:
                break
        except OSError:
            break
        time.sleep(0.0005)

    seized = set()
    raw = []  # One list of `(file, addr)` per thread sample.
    maps = Maps(pid)
    mem = os.open(f"/proc/{pid}/mem", os.O_RDONLY)
    start = time.monotonic()
    done = False
    while not done:
        time.sleep(INTERVAL_S)
        # Deliver any signal that stopped a thread between samples, and
        # notice the exit of the whole process.
        while True:
            try:
                tid, status = os.waitpid(-1, os.WNOHANG | WALL)
            except ChildProcessError:
                done = True
                break
            if tid == 0:
                break
            if tid == pid and (os.WIFEXITED(status) or os.WIFSIGNALED(status)):
                done = True
                proc.returncode = os.WEXITSTATUS(status) if os.WIFEXITED(status) else -os.WTERMSIG(status)
                break
            if os.WIFSTOPPED(status):
                sig = os.WSTOPSIG(status) if status >> 16 == 0 else 0
                ptrace(PTRACE_CONT, tid, 0, sig)
        if done:
            break
        try:
            tids = [int(t) for t in os.listdir(f"/proc/{pid}/task")]
        except OSError:
            continue
        for tid in tids:
            if tid not in seized:
                if not ptrace(PTRACE_SEIZE, tid):
                    continue
                seized.add(tid)
            if not stop(tid):
                seized.discard(tid)
                continue
            regs = registers(tid)
            stack = walk(mem, *regs) if regs else []
            ptrace(PTRACE_CONT, tid)
            frames = maps.resolve(stack)
            if frames:
                raw.append(frames)
    os.close(mem)
    elapsed = time.monotonic() - start
    if proc.returncode is None:
        proc.wait()

    by_file = collections.defaultdict(set)
    for frames in raw:
        for path, addr in frames:
            by_file[path].add(addr)
    sym = symbolize(by_file)

    n = len(raw)
    print(f"# {n} thread samples over {elapsed:.2f} s ({INTERVAL_S * 1000} ms period), "
          f"command exited with {proc.returncode}")
    if n == 0:
        return proc.returncode or 0
    incl, excl = collections.Counter(), collections.Counter()
    per_line = {name: collections.Counter() for name in a.function}
    for frames in raw:
        expanded = [f for x in frames for f in sym[x]]
        excl[expanded[0][0]] += 1
        for fn in set(f for f, _ in expanded):
            incl[fn] += 1
        for name in a.function:
            hit = next((loc for f, loc in expanded if name in f), None)
            if hit is not None:
                per_line[name][short_loc(hit)] += 1
    print(f"{'incl%':>7} {'excl%':>7}  function")
    for fn, c in incl.most_common(TOP):
        print(f"{100 * c / n:7.2f} {100 * excl[fn] / n:7.2f}  {fn}")
    for name, lines in per_line.items():
        total = sum(lines.values())
        print(f"\n# by line inside *{name}*: {total} samples ({100 * total / n:.2f}% of all)")
        for loc, c in lines.most_common(TOP):
            print(f"{100 * c / n:7.2f}  {loc}")
    return proc.returncode or 0


if __name__ == "__main__":
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    sys.exit(main())
