"""Shared-memory segments for the process backend's live telemetry.

:class:`WorkerStatsPlane`
    the live-telemetry stats rows (``repro.obs.live``): one fixed-layout
    float64 row per worker, updated lock-free by each worker after every
    command / program step and read lock-free by the master (heartbeat
    timestamps, cumulative busy/wait seconds, command and pattern
    counters, current op).  It carries a one-row header, so an unrelated
    process (``repro top --plane NAME``) can attach by segment name alone.

Commands and replies never use shared memory: they travel pickled over
each worker's pipe (:mod:`repro.parallel.engine`).

Torn-read tolerance (stats rows)
--------------------------------
Stats rows are written WITHOUT locks.  Every field is an 8-byte-aligned
float64, so a concurrent reader never sees a mixed-bytes value for a
single field — but it may see a row whose *fields are mutually
inconsistent* (e.g. ``commands`` already incremented while ``busy`` is
not yet).  Each row therefore carries a seqlock-style ``STAT_SEQ``
counter: the writer makes it odd before touching the row and even again
after, and :meth:`WorkerStatsPlane.read_row` retries until it observes
the same even value on both sides of its copy, flagging the (rare)
give-up case as inconsistent.  All counter fields are monotonic, so even
a torn snapshot can only under-report progress, never invent it.

Segment lifecycle
-----------------
Segments are created by the master before fork and unlinked by the
master's ``close()`` (also invoked on worker-death teardown) or, as a
backstop, by a ``weakref.finalize`` when the owner is garbage-collected.
Forked children inherit the Python objects too, so every cleanup path is
guarded by the creating PID — a child exiting must never unlink a
segment the master still uses.  Unlink happens before unmap so cleanup
cannot be blocked by still-alive numpy views.  All segment names carry
the :data:`SEGMENT_PREFIX` so tests and CI can assert nothing survives
teardown (:func:`live_segments`).
"""
from __future__ import annotations

import os
import secrets
import time
import weakref
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "SEGMENT_PREFIX",
    "WorkerStatsPlane",
    "WorkerStatsWriter",
    "N_STAT_FIELDS",
    "STAT_OPS",
    "live_segments",
    "op_code",
    "op_name",
]

SEGMENT_PREFIX = "repro_shm"


def _cleanup(shm: shared_memory.SharedMemory, creator_pid: int) -> None:
    if os.getpid() != creator_pid:
        # Forked child: the master owns the segment; just let the child's
        # mapping die with the process.
        return
    _OWNED_NAMES.discard(shm.name)
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    try:
        shm.close()
    except BufferError:
        # numpy views of the buffer are still alive somewhere; the /dev/shm
        # entry is already gone (unlinked above), the mapping goes with the
        # process.
        pass


#: Segment names created by THIS process — lets :meth:`WorkerStatsPlane.
#: attach` tell a same-process attach (tests, in-process dashboards)
#: from a foreign one when deciding whether to deregister the segment
#: from the resource tracker on pre-3.13 Pythons.
_OWNED_NAMES: set[str] = set()


class _Segment:
    """One owned shared-memory segment: create in the master, unlink
    exactly once, only ever from the creating process."""

    def __init__(self, nbytes: int):
        name = f"{SEGMENT_PREFIX}_{os.getpid()}_{secrets.token_hex(4)}"
        self.shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(int(nbytes), 8)
        )
        _OWNED_NAMES.add(self.shm.name)
        self._finalizer = weakref.finalize(self, _cleanup, self.shm, os.getpid())

    @property
    def name(self) -> str:
        return self.shm.name

    @property
    def buf(self):
        return self.shm.buf

    def close(self) -> None:
        """Unlink + unmap (idempotent; no-op in forked children)."""
        self._finalizer()


def live_segments() -> list[str]:
    """Names of repro-owned segments currently present in ``/dev/shm`` —
    the leak check used by the tests and the CI perf-smoke job."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return []
    return sorted(n for n in os.listdir(shm_dir) if n.startswith(SEGMENT_PREFIX))


# ----------------------------------------------------------------------
# Live worker-stats plane (repro.obs.live)
# ----------------------------------------------------------------------

# Field indices of one worker stats row.  The layout is the wire format
# read by attached dashboards: fields are append-only within a layout
# VERSION, and any other change bumps it.
(
    STAT_SEQ,        # seqlock counter: odd while a write is in progress
    STAT_HEARTBEAT,  # time.monotonic() of the last update (system-wide clock)
    STAT_PHASE,      # 0 = idle/waiting at the barrier, 1 = executing a command
    STAT_COMMANDS,   # cumulative worker commands executed (program steps count)
    STAT_BUSY,       # cumulative execute seconds (self-timed, IPC excluded)
    STAT_WAIT,       # cumulative seconds spent waiting for the next command
    STAT_PATTERNS,   # cumulative alignment patterns processed
    STAT_OP,         # current/last op as an index into STAT_OPS
    STAT_EPOCH,      # time.monotonic() when the worker attached (uptime base)
) = range(9)

#: Row width in float64 slots (headroom beyond the fields above so new
#: fields can be appended without changing the segment geometry).
N_STAT_FIELDS = 12

_PHASE_IDLE, _PHASE_BUSY = 0.0, 1.0

#: Worker ops encodable in ``STAT_OP`` (index 0 is the unknown-op code).
STAT_OPS = (
    "?", "lnl", "lnl_parts", "lnl_edges", "release",
    "prepare_edges", "deriv_edges", "set_bl_edges", "set_alpha_vec",
    "set_models", "set_pinvs", "prog", "stall", "die", "lnl_regrafts",
)

_OP_CODES = {op: i for i, op in enumerate(STAT_OPS)}


def op_code(op: str) -> int:
    """The ``STAT_OP`` code of a worker op (0 for unknown ops)."""
    return _OP_CODES.get(op, 0)


def op_name(code: float) -> str:
    """Inverse of :func:`op_code` (``"?"`` for out-of-range codes)."""
    idx = int(code)
    return STAT_OPS[idx] if 0 <= idx < len(STAT_OPS) else "?"


class WorkerStatsPlane:
    """Per-worker live stats rows in one shared-memory segment.

    Layout: ``(n_workers + 1, N_STAT_FIELDS)`` float64 — row 0 is a
    header (magic, layout version, team size) so a foreign process can
    :meth:`attach` knowing nothing but the segment name; rows ``1..W``
    are the worker stats rows described by the ``STAT_*`` field indices.

    The owner (master) creates the plane BEFORE forking a process team so
    children inherit the mapping; an attached reader (``repro top
    --plane``) opens the same segment by name and must never unlink it —
    :meth:`close` only unmaps in that case.  See the module docstring for
    the lock-free torn-read protocol.
    """

    _MAGIC = 20090914.0  # ICPP 2009 + layout salt
    VERSION = 4.0

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.n_workers = int(n_workers)
        self._shm: shared_memory.SharedMemory | None = None
        self._segment = _Segment((self.n_workers + 1) * N_STAT_FIELDS * 8)
        self.slots: np.ndarray | None = np.ndarray(
            (self.n_workers + 1, N_STAT_FIELDS), dtype=np.float64,
            buffer=self._segment.buf,
        )
        self.slots.fill(0.0)
        self.slots[0, 0] = self._MAGIC
        self.slots[0, 1] = self.VERSION
        self.slots[0, 2] = float(self.n_workers)
        epoch = time.monotonic()
        for w in range(self.n_workers):
            row = self.slots[w + 1]
            row[STAT_HEARTBEAT] = epoch
            row[STAT_EPOCH] = epoch

    @classmethod
    def attach(cls, name: str) -> "WorkerStatsPlane":
        """Open an existing plane by segment name (read-only intent).

        The attached object never unlinks the segment — the run that
        created it owns the lifecycle; ``close()`` merely unmaps.
        """
        try:
            # Python 3.13+: opt out of resource tracking at open.
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:
            shm = shared_memory.SharedMemory(name=name)
            # Older Pythons register every attach with the resource
            # tracker, which would UNLINK the owner's live segment when
            # this observer process exits — deregister explicitly.  A
            # same-process attach must NOT deregister: the tracker holds
            # one entry per name, and removing it would unbalance the
            # owner's own create/close bookkeeping.
            if shm.name not in _OWNED_NAMES:
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(shm._name, "shared_memory")
                except Exception:
                    pass
        header = np.ndarray((N_STAT_FIELDS,), dtype=np.float64, buffer=shm.buf)
        if header[0] != cls._MAGIC or header[1] != cls.VERSION:
            shm.close()
            raise ValueError(
                f"segment {name!r} is not a v{cls.VERSION:.0f} worker-stats plane"
            )
        plane = cls.__new__(cls)
        plane.n_workers = int(header[2])
        plane._segment = None
        plane._shm = shm
        plane.slots = np.ndarray(
            (plane.n_workers + 1, N_STAT_FIELDS), dtype=np.float64, buffer=shm.buf
        )
        return plane

    @property
    def name(self) -> str:
        if self._segment is not None:
            return self._segment.name
        return self._shm.name

    def row(self, rank: int) -> np.ndarray:
        """Worker ``rank``'s raw stats row (live view, writer side)."""
        return self.slots[rank + 1]

    def read_row(self, rank: int, retries: int = 8) -> tuple[np.ndarray, bool]:
        """Lock-free snapshot of worker ``rank``'s row.

        Returns ``(copy, consistent)``: the seqlock is sampled on both
        sides of the copy and the read retried up to ``retries`` times;
        ``consistent`` is False only if every attempt raced a writer (the
        snapshot is then possibly torn but still field-atomic).  A failed
        attempt yields the CPU before retrying: a writer thread in this
        process holds no GIL while the reader spins, so without the yield
        every retry would see the same half-written row.
        """
        row = self.slots[rank + 1]
        snap = row.copy()
        for attempt in range(max(retries, 1)):
            if attempt:
                time.sleep(0)
            seq0 = row[STAT_SEQ]
            snap = row.copy()
            if seq0 == snap[STAT_SEQ] == row[STAT_SEQ] and seq0 % 2.0 == 0.0:
                return snap, True
        return snap, False

    def close(self) -> None:
        """Owner: unlink + unmap; attached reader: unmap only."""
        self.slots = None
        if self._segment is not None:
            self._segment.close()
        elif self._shm is not None:
            try:
                self._shm.close()
            except BufferError:
                pass
            self._shm = None


class WorkerStatsWriter:
    """Worker-side lock-free updater of one :class:`WorkerStatsPlane` row.

    One writer per worker; calls come only from that worker's (single)
    command loop, so writes are unsynchronized by design and follow the
    seqlock protocol documented on the module.  Every update refreshes
    the heartbeat, so a healthy worker's ``STAT_HEARTBEAT`` age stays
    bounded by its longest single command.

    The update sits on the barrier critical path of EVERY broadcast, so
    it writes through a raw float64 ``memoryview`` of the row (a numpy
    scalar read-modify-write costs ~1µs; a memoryview store ~0.1µs) and
    shadows the cumulative counters as Python floats — the shared row is
    store-only, never read back.
    """

    __slots__ = ("row", "rank", "_mv", "_seq", "_commands", "_busy",
                 "_wait_s", "_patterns")

    def __init__(self, row: np.ndarray, rank: int):
        self.row = row
        self.rank = rank
        mv = self._mv = row.data.cast("B").cast("d")
        # resume the seqlock/counters from the row so re-attach (process
        # workers construct their writer post-fork) stays monotonic
        self._seq = float(mv[STAT_SEQ])
        self._commands = float(mv[STAT_COMMANDS])
        self._busy = float(mv[STAT_BUSY])
        self._wait_s = float(mv[STAT_WAIT])
        self._patterns = float(mv[STAT_PATTERNS])
        now = time.monotonic()
        mv[STAT_SEQ] = self._seq + 1.0
        if mv[STAT_EPOCH] == 0.0:
            mv[STAT_EPOCH] = now
        mv[STAT_PHASE] = _PHASE_IDLE
        mv[STAT_HEARTBEAT] = now
        self._seq += 2.0
        mv[STAT_SEQ] = self._seq

    def begin(self, op: str) -> None:
        """Mark a command as in flight (stall detection keys off this:
        a worker stuck inside a command stays phase=busy while its
        heartbeat ages)."""
        mv = self._mv
        mv[STAT_SEQ] = self._seq + 1.0
        mv[STAT_PHASE] = _PHASE_BUSY
        mv[STAT_OP] = float(op_code(op))
        mv[STAT_HEARTBEAT] = time.monotonic()
        self._seq += 2.0
        mv[STAT_SEQ] = self._seq

    def done(self, busy_seconds: float, patterns: int) -> None:
        """Fold one completed command/program step into the counters."""
        mv = self._mv
        mv[STAT_SEQ] = self._seq + 1.0
        self._commands += 1.0
        self._busy += busy_seconds
        self._patterns += float(patterns)
        mv[STAT_COMMANDS] = self._commands
        mv[STAT_BUSY] = self._busy
        mv[STAT_PATTERNS] = self._patterns
        mv[STAT_PHASE] = _PHASE_IDLE
        mv[STAT_HEARTBEAT] = time.monotonic()
        self._seq += 2.0
        mv[STAT_SEQ] = self._seq

    def wait(self, seconds: float) -> None:
        """Account time spent blocked waiting for the next command."""
        mv = self._mv
        mv[STAT_SEQ] = self._seq + 1.0
        self._wait_s += seconds
        mv[STAT_WAIT] = self._wait_s
        mv[STAT_PHASE] = _PHASE_IDLE
        mv[STAT_HEARTBEAT] = time.monotonic()
        self._seq += 2.0
        mv[STAT_SEQ] = self._seq
