"""Native event-loop kernel for closed-system runs.

``native_kernel.c`` (shipped beside this module) is a C99 port of the
engine's hot path: the ``(time, seq)`` event queue, all five
:class:`~repro.sim.engine.MemTxn` stages with their folds and tie
guards, the FR-FCFS DRAM channels, the L1/L2 caches with bypass and way
quotas, MSHRs and deferred queues, crossbar ports, issue servers, the
per-application counters, and :class:`~repro.workloads.synthetic.
WarpAddressStream` generation (MT19937 seeded exactly like
``random.Random``).  It is compiled on first import with the system C
compiler and loaded through :mod:`ctypes`: no build step, no Python
headers, no dependency.

:class:`NativeEngine` holds one Simulator's state inside the kernel and
stands in for its :class:`~repro.sim.engine.EventQueue` during the run.
Python-side events (controller windows, delayed actuations, the warmup
mark) live in the same queue; the C loop returns to Python when one is
due, in the same ``(time, seq)`` order, after syncing the per-app
counters into the :class:`~repro.sim.stats.StatsCollector`.

Build cache: the shared library is stored in ``.native-cache/`` next to
this file, named by a hash of the kernel source, the compiler's
identity and the flags, and published with a unique temp file plus
:func:`os.replace`, so concurrent importers race benignly.  When no
compiler is found or the compile or load fails (a read-only package
directory included), :func:`available` is False, :func:`load_error`
says why, and every run uses the Python engine.

The Python engine stays the reference: the golden fixtures must pass
bit-identically on both backends (``docs/performance.md``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from ctypes import POINTER, byref, c_double, c_int32, c_int64, c_uint64, c_void_p
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.units import Cycles

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.engine import Simulator

__all__ = ["NativeEngine", "MT19937", "available", "build", "load", "load_error"]

_SOURCE = Path(__file__).with_name("native_kernel.c")
#: -ffp-contract=off keeps a*b+c as two roundings (no FMA), as CPython
#: computes it; -ffast-math is never allowed.  The two GC parameters
#: only bound the compiler's own memory; they do not change the code.
_CFLAGS = (
    "-std=c99", "-O2", "-fPIC", "-shared", "-ffp-contract=off",
)
_CACHE_DIR = Path(__file__).resolve().parent / ".native-cache"
_COMPILERS = ("cc", "gcc", "clang")

_P = c_void_p
_I64P = POINTER(c_int64)
_F64P = POINTER(c_double)
_SIGNATURES: dict[str, tuple[Any, list[Any]]] = {
    "rk_new": (_P, [_F64P, _I64P]),
    "rk_set_core": (c_int32, [
        _P, c_int32, c_int32, c_int32, c_int32, c_double, c_int32, c_int64,
        c_int64, c_int64, c_int32,
    ]),
    "rk_set_params": (c_int32, [_P, c_int32, _F64P, _I64P]),
    "rk_set_cstreams": (c_int32, [_P, c_int32, _I64P]),
    "rk_set_warps": (c_int32, [
        _P, c_int32, POINTER(c_int32), POINTER(c_uint64), POINTER(c_int32),
        POINTER(c_int32),
    ]),
    "rk_set_quota": (None, [_P, c_int32, c_int32, c_int32, c_int32]),
    "rk_set_bypass": (None, [_P, c_int32, c_int32, c_int32, c_int32]),
    "rk_set_tlp": (None, [_P, c_int32, c_int32, c_double]),
    "rk_push_py": (None, [_P, c_double, c_int64]),
    "rk_run": (c_int32, [_P, c_double, _F64P, _I64P]),
    "rk_queue_len": (c_int64, [_P]),
    "rk_events_run": (c_int64, [_P]),
    "rk_prof": (None, [_P, _I64P]),
    "rk_read_stats": (None, [_P, _I64P, _F64P]),
    "rk_read_mshr": (None, [_P, c_int32, c_int32, _I64P]),
    "rk_read_link": (None, [_P, c_int32, c_int32, _F64P]),
    "rk_read_warps": (None, [_P, _I64P]),
    "rk_free": (None, [_P]),
    "rk_mt_new": (_P, [c_uint64]),
    "rk_mt_free": (None, [_P]),
    "rk_mt_random": (c_double, [_P]),
    "rk_mt_randbelow": (c_uint64, [_P, c_uint64]),
}

#: rk_run error codes
_ERRORS = {
    1: "warp received more responses than requests",
    2: "native kernel out of memory",
}

#: addresses, seeds and sizes the kernel holds in 64-bit words
_U64_LIMIT = 1 << 64
_I63_LIMIT = 1 << 63


def find_compiler() -> str | None:
    """Path of the system C compiler, or None."""
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def _library_name(compiler: str) -> str:
    """Cache file name: kernel source hash + compiler identity + flags.

    The compiler is identified by its resolved path, size and mtime —
    a stat, not a subprocess, so a warm import stays cheap.
    """
    real = os.path.realpath(compiler)
    st = os.stat(real)
    digest = hashlib.sha256()
    digest.update(_SOURCE.read_bytes())
    digest.update(f"\0{real}\0{st.st_size}\0{st.st_mtime_ns}\0".encode())
    digest.update(" ".join(_CFLAGS).encode())
    return f"repro_native-{digest.hexdigest()[:20]}.so"


def _compile(compiler: str, target: Path) -> None:
    """Build the library at ``target`` via a unique temp file + os.replace."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=target.stem + ".", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp, str(_SOURCE), "-lm"],
            capture_output=True,
            text=True,
            check=False,
        )
        if proc.returncode != 0:
            raise OSError(
                f"{os.path.basename(compiler)} exited {proc.returncode}: "
                f"{proc.stderr.strip()[:400]}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(
    cache_dir: Path | None = None,
    compiler: Callable[[], str | None] = find_compiler,
) -> tuple[ctypes.CDLL | None, str | None]:
    """Build (if needed) and load the kernel: ``(library, None)`` or
    ``(None, reason)``."""
    cc = compiler()
    if cc is None:
        return None, "no C compiler found on PATH (tried cc, gcc, clang)"
    try:
        target = (cache_dir or _CACHE_DIR) / _library_name(cc)
        if not target.exists():
            _compile(cc, target)
        lib = ctypes.CDLL(str(target))
        for fn_name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, fn_name)
            fn.restype = restype
            fn.argtypes = argtypes
    except (OSError, AttributeError, subprocess.SubprocessError) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return lib, None


_LIB, _LOAD_ERROR = load()


def available() -> bool:
    """True when the kernel library is loaded in this process."""
    return _LIB is not None


def load_error() -> str | None:
    """Why the kernel is unavailable (None when it loaded)."""
    return _LOAD_ERROR


class MT19937:
    """The kernel's MT19937, for differential tests against ``random.Random``."""

    def __init__(self, seed: int) -> None:
        if _LIB is None:
            raise RuntimeError(f"native kernel unavailable: {_LOAD_ERROR}")
        if not 0 <= seed < _U64_LIMIT:
            raise ValueError("seed must be in [0, 2**64)")
        self._lib = _LIB
        self._state = _LIB.rk_mt_new(seed)

    def random(self) -> float:
        return float(self._lib.rk_mt_random(self._state))

    def randrange(self, n: int) -> int:
        if not 0 < n < _U64_LIMIT:
            raise ValueError("n must be in (0, 2**64)")
        return int(self._lib.rk_mt_randbelow(self._state, n))

    def __del__(self) -> None:
        state, self._state = getattr(self, "_state", None), None
        if state:
            self._lib.rk_mt_free(state)


def build(sim: "Simulator") -> "NativeEngine | None":
    """Load a freshly constructed Simulator into the kernel.

    Returns None — the caller then runs the Python engine — when the
    library is unavailable or the simulator holds something the kernel
    does not model: a stream that is not a seeded
    :class:`~repro.workloads.synthetic.WarpAddressStream`, a way quota
    below one, or a seed, size or address that does not fit its 64-bit
    word in C.
    """
    if _LIB is None:
        return None
    specs = []
    for core in sim.cores:
        for warp in core.warps:
            spec_of = getattr(warp.stream, "native_spec", None)
            spec = spec_of() if spec_of is not None else None
            if spec is None or not 0 <= spec[0] < _U64_LIMIT:
                return None
            specs.append(spec)
    # Row layout: see WarpAddressStream.native_spec.  Every address is
    # below a stream's or shared region's end plus one coalesced group.
    rows = [spec[1] for spec in specs]
    streams = {id(spec[2]): spec[2] for spec in specs}.values()
    if any(min(r[0], r[6], r[7], r[9], r[10], r[12]) < 1 for r in rows):
        return None
    if any(cs.n_lines < 1 for cs in streams):
        return None
    region_end = max(
        [r[11] + r[6] * r[10] for r in rows]
        + [cs.base + cs.n_lines * cs.line_bytes for cs in streams],
        default=0,
    )
    if region_end + max((r[9] * r[10] for r in rows), default=0) >= _I63_LIMIT:
        return None
    for cache in [*sim.l1s, *sim.l2s]:
        if any(q < 1 for q in cache.way_quota.values()):
            return None
    return NativeEngine(_LIB, sim, specs)


class NativeEngine:
    """One Simulator's state inside the kernel; its event queue for the run.

    Offers the :class:`~repro.sim.engine.EventQueue` surface Python code
    uses (``now``, ``push``, ``len()``, ``run_until``), plus the
    actuation forwards the Simulator makes (:meth:`set_tlp`,
    :meth:`set_bypass`) and the counter syncs.  Call :meth:`close` when
    the run ends.
    """

    __slots__ = (
        "now", "_lib", "_k", "_handles", "_next_handle", "_n_apps",
        "_stats", "_channels", "_ints", "_dbls",
    )

    def __init__(self, lib: ctypes.CDLL, sim: "Simulator", specs: list) -> None:
        self.now: Cycles = 0.0
        self._lib = lib
        self._handles: dict[int, tuple[Any, Callable[[Any], None]]] = {}
        self._next_handle = 0
        cfg = sim.config
        n_apps = len(sim.apps)
        n_channels = len(sim.channels)
        self._n_apps = n_apps
        self._stats = [sim.collector.apps[a] for a in range(n_apps)]
        self._channels = sim.channels
        self._ints = (c_int64 * (9 * n_apps))()
        self._dbls = (c_double * (n_apps + n_channels))()

        ch0 = sim.channels[0]
        req0 = sim.crossbar.request_ports[0]
        resp0 = sim.crossbar.response_ports[0]
        l2 = sim.l2s[0]
        dparams = (c_double * 14)(
            sim._l1_hit_latency, sim._l2_hit_latency, ch0._t_ccd, ch0._t_cl,
            ch0._t_rp, ch0._t_rcd, ch0._t_ras, ch0._t_rrd, ch0._burst,
            ch0._lookahead, req0.latency, req0.cycles_per_packet,
            resp0.latency, resp0.cycles_per_packet,
        )
        iparams = (c_int64 * 16)(
            n_apps, len(sim.cores), n_channels, cfg.max_tlp,
            cfg.schedulers_per_core, sim._interleave, sim._row_bytes,
            sim._banks_per_channel, cfg.bank_groups_per_channel,
            ch0.frfcfs_cap, ch0.SCAN_WINDOW, ch0.capacity, l2.n_sets,
            l2.assoc, l2.line_bytes, sim.l2_mshrs[0].n_entries,
        )
        k = lib.rk_new(dparams, iparams)
        if not k:
            raise MemoryError("native kernel allocation failed")
        self._k = k
        try:
            self._load(sim, specs)
        except BaseException:
            self.close()
            raise

    def _load(self, sim: "Simulator", specs: list) -> None:
        lib, k = self._lib, self._k
        first = 0
        for core in sim.cores:
            l1 = sim.l1s[core.core_id]
            rc = lib.rk_set_core(
                k, core.core_id, core.app_id, first, len(core.warps),
                float(core.issue.issue_width), core.tlp, l1.n_sets, l1.assoc,
                l1.line_bytes, sim.l1_mshrs[core.core_id].n_entries,
            )
            if rc:
                raise MemoryError("native kernel allocation failed")
            first += len(core.warps)

        # Warps are numbered core-major, the order build() listed specs in.
        core_ix = [core.core_id for core in sim.cores for _ in core.warps]
        params: dict[tuple, int] = {}
        cstreams: dict[int, int] = {}
        cstream_rows: list[int] = []
        seeds: list[int] = []
        param_ix: list[int] = []
        cstream_ix: list[int] = []
        for seed, row, core_stream in specs:
            ix = params.get(row)
            if ix is None:
                ix = params[row] = len(params)
            cs = cstreams.get(id(core_stream))
            if cs is None:
                cs = cstreams[id(core_stream)] = len(cstreams)
                cstream_rows += (
                    core_stream.base, core_stream.n_lines,
                    core_stream.line_bytes, core_stream._offset,
                )
            seeds.append(seed)
            param_ix.append(ix)
            cstream_ix.append(cs)

        rows = list(params)
        pd = (c_double * (5 * len(rows)))(
            *[float(v) for r in rows for v in r[1:6]]
        )
        pi = (c_int64 * (8 * len(rows)))(
            *[int(v) for r in rows for v in (r[0], *r[6:])]
        )
        n = len(seeds)
        if (
            lib.rk_set_params(k, len(rows), pd, pi)
            or lib.rk_set_cstreams(
                k, len(cstreams), (c_int64 * len(cstream_rows))(*cstream_rows)
            )
            or lib.rk_set_warps(
                k, n, (c_int32 * n)(*core_ix), (c_uint64 * n)(*seeds),
                (c_int32 * n)(*param_ix), (c_int32 * n)(*cstream_ix),
            )
        ):
            raise MemoryError("native kernel allocation failed")

        n_apps = self._n_apps
        for level, caches in ((1, sim.l1s), (2, sim.l2s)):
            for idx, cache in enumerate(caches):
                for app_id, quota in cache.way_quota.items():
                    if 0 <= app_id < n_apps:
                        lib.rk_set_quota(k, level, idx, app_id, quota)
                for app_id in cache.bypass_apps:
                    if 0 <= app_id < n_apps:
                        lib.rk_set_bypass(k, level, idx, app_id, 1)

    # --- EventQueue surface --------------------------------------------

    def __len__(self) -> int:
        return int(self._lib.rk_queue_len(self._k))

    def push(self, time: Cycles, fn: Callable[[Any], None]) -> None:
        """Queue a Python event; it keeps its place in (time, seq) order."""
        if time < self.now:
            raise ValueError(f"event scheduled in the past: {time} < {self.now}")
        handle = self._next_handle
        self._next_handle = handle + 1
        # The callback receives the time object it was pushed with (an
        # int stays an int), exactly as the Python engine passes it.
        self._handles[handle] = (time, fn)
        self._lib.rk_push_py(self._k, float(time), handle)

    def run_until(self, t_end: Cycles) -> None:
        lib, k = self._lib, self._k
        t = c_double()
        h = c_int64()
        while True:
            code = lib.rk_run(k, t_end, byref(t), byref(h))
            if code == 0:
                break
            if code < 0:
                raise RuntimeError(_ERRORS.get(-code, f"native kernel error {-code}"))
            time, fn = self._handles.pop(h.value)
            self.now = time
            self.sync()
            fn(time)
        self.now = t_end

    # --- actuation -------------------------------------------------------

    def set_tlp(self, app_id: int, tlp: int, now: Cycles) -> None:
        self._lib.rk_set_tlp(self._k, app_id, tlp, now)

    def set_bypass(self, level: int, idx: int, app_id: int, on: bool) -> None:
        if 0 <= app_id < self._n_apps:
            self._lib.rk_set_bypass(self._k, level, idx, app_id, int(on))

    # --- counters ----------------------------------------------------------

    def sync(self) -> None:
        """Copy the kernel's per-app counters and channel busy cycles."""
        ints, dbls = self._ints, self._dbls
        self._lib.rk_read_stats(self._k, ints, dbls)
        for a, s in enumerate(self._stats):
            (s.insts, s.l1_accesses, s.l1_misses, s.l2_accesses, s.l2_misses,
             s.dram_lines, s.mem_requests, s.row_hits,
             s.row_misses) = ints[9 * a:9 * a + 9]
            s.mem_latency_sum = dbls[a]
        base_d = self._n_apps
        for ch, chan in enumerate(self._channels):
            chan.busy_cycles = dbls[base_d + ch]

    def events_run(self) -> int:
        """Events the queue has run, Python-side ones included."""
        return int(self._lib.rk_events_run(self._k))

    def dispatch_counts(self) -> list[int]:
        """Transactions dispatched per MemTxn stage (N_STAGES in the kernel)."""
        out = (c_int64 * 5)()
        self._lib.rk_prof(self._k, out)
        return list(out)

    def read_back(self, sim: "Simulator") -> None:
        """Copy warp progress and the component counters (MSHR,
        crossbar) to the Simulator's Python objects after the run.
        Cache contents and queue state stay in the kernel."""
        lib, k = self._lib, self._k
        warps = [warp for core in sim.cores for warp in core.warps]
        state = (c_int64 * (4 * len(warps)))()
        lib.rk_read_warps(k, state)
        for i, warp in enumerate(warps):
            active, parked, warp.pending, warp.iterations = state[4 * i:4 * i + 4]
            warp.active = bool(active)
            warp.parked = bool(parked)
        buf = (c_int64 * 2)()
        for level, mshrs in ((1, sim.l1_mshrs), (2, sim.l2_mshrs)):
            for idx, mshr in enumerate(mshrs):
                lib.rk_read_mshr(k, level, idx, buf)
                mshr.merges, mshr.allocation_failures = buf[0], buf[1]
        link = (c_double * 4)()
        for response, ports in (
            (0, sim.crossbar.request_ports), (1, sim.crossbar.response_ports)
        ):
            for ch, port in enumerate(ports):
                lib.rk_read_link(k, response, ch, link)
                port.free_at, port.busy_cycles, port.queue_cycles = (
                    link[0], link[1], link[2]
                )
                port.packets = int(link[3])

    def close(self) -> None:
        """Free the kernel state (idempotent)."""
        k, self._k = self._k, None
        if k:
            self._lib.rk_free(k)

    def __del__(self) -> None:
        if getattr(self, "_k", None):
            self.close()
