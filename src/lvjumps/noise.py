"""Shared driving noise: Brownian increments plus exact compound-Poisson jumps.

One :class:`DrivingPath` realisation is consumed by every process built on the
same noise (the full system, the one-dimensional comparison systems, and the
stochastic exponential), which is what makes pathwise comparison and coupling
tests meaningful.

Determinism contract
--------------------
Regenerating a path with the same ``(seed, T, h, marks, extra_times)`` under
the same ``rng_algorithm_id`` reproduces it bit-exactly.  The algorithm id
pins the draw order: jump inter-arrival times first (exact exponential
sampling, block-buffered), then mark labels, then one Gaussian increment per
merged-grid interval.  Increments are generated directly on the merged grid
(uniform nodes plus jump times plus requested extra nodes), so the Brownian
value at a jump time is exact in law; per-uniform-cell increments are their
within-cell sums and are therefore i.i.d. Normal(0, h) as required.

A coarsened path (``coarsen_path``) keeps the identical jump record and sums
the parent's Gaussian increments, so every resolution of a convergence study
shares one underlying Brownian path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, GridMismatchError
from .model import MarkSpace

__all__ = [
    "RNG_ALGORITHM",
    "DrivingPath",
    "MergedGrid",
    "sample_driving_path",
    "merge_grid",
    "coarsen_path",
    "save_path",
    "load_path",
    "derive_path_seed",
]

RNG_ALGORITHM = "pcg64/jumps-marks-increments/v1"

_EXP_BLOCK = 256

# Largest number of uniform cells T/h accepted, checked before anything is
# allocated: a grid this long already takes about 80 MB per float array.
_MAX_STEPS = 10**7

KIND_GRID, KIND_LEFT, KIND_POST = 0, 1, 2
KIND_LABELS = ("grid", "left", "post")


def _uniform_times(T: float, M: int) -> np.ndarray:
    return np.linspace(0.0, T, M + 1)


def _steps_of(T: float, h: float) -> int:
    if not (T > 0 and h > 0):
        raise ConfigurationError(f"need T > 0 and h > 0, got T={T}, h={h}")
    ratio = T / h
    if not (ratio < _MAX_STEPS + 0.5):  # also catches inf
        raise ConfigurationError(f"T/h may be at most {_MAX_STEPS} steps, got T={T}, h={h}")
    M = round(ratio)
    if M < 1 or abs(M * h - T) > 1e-9 * max(1.0, abs(T)):
        raise ConfigurationError(f"T/h must be a positive integer, got T={T}, h={h}")
    return M


@dataclass(frozen=True, eq=False)
class DrivingPath:
    """One realisation of the driving noise on ``[0, T]``.

    ``node_times`` is the merged grid (uniform grid, jump times, extra
    nodes); ``node_increments[l]`` is the Brownian increment over
    ``[node_times[l], node_times[l+1]]``.  ``brownian_increments`` are the
    per-uniform-cell sums, each distributed Normal(0, h).
    """

    T: float
    h: float
    seed: int
    mark_count: int
    node_times: np.ndarray
    node_increments: np.ndarray
    jump_times: np.ndarray
    jump_marks: np.ndarray
    extra_times: np.ndarray
    rng_algorithm_id: str = RNG_ALGORITHM

    def __post_init__(self):
        M = _steps_of(self.T, self.h)
        times = self.node_times
        if times[0] != 0.0 or times[-1] != self.T:
            raise ConfigurationError("path nodes must start at 0 and end at T")
        if np.any(np.diff(times) <= 0):
            raise ConfigurationError("path nodes must be strictly increasing")
        if len(self.node_increments) != len(times) - 1:
            raise ConfigurationError("need one increment per node interval")
        if len(self.jump_times) != len(self.jump_marks):
            raise ConfigurationError("jump times and marks must align")
        if len(self.jump_times) and (
            np.any(np.diff(self.jump_times) <= 0)
            or self.jump_times[0] <= 0
            or self.jump_times[-1] > self.T
        ):
            raise ConfigurationError("jump times must be strictly increasing in (0, T]")
        object.__setattr__(self, "_steps", M)

    @property
    def steps(self) -> int:
        """Number of uniform cells M = T/h."""
        return self._steps

    @property
    def jump_count(self) -> int:
        return len(self.jump_times)

    def uniform_times(self) -> np.ndarray:
        return _uniform_times(self.T, self.steps)

    def _uniform_node_indices(self) -> np.ndarray:
        idx = np.searchsorted(self.node_times, self.uniform_times())
        if not np.array_equal(self.node_times[idx], self.uniform_times()):
            raise GridMismatchError("uniform grid points missing from path nodes")
        return idx

    @property
    def brownian_increments(self) -> np.ndarray:
        """Per-uniform-cell Brownian increments, shape (M,)."""
        idx = self._uniform_node_indices()
        return np.add.reduceat(self.node_increments, idx[:-1])

    def brownian_endpoint(self) -> float:
        """W(T)."""
        return float(self.node_increments.sum())

    @cached_property
    def grid(self) -> "MergedGrid":
        """The path's slot layout, built on first use and shared by every
        trajectory and series computed on this path."""
        return merge_grid(self)


def sample_driving_path(
    marks: MarkSpace,
    T: float,
    h: float,
    seed: int,
    extra_times=(),
) -> DrivingPath:
    """Draw one driving-noise realisation.

    Jump times are the points of a rate-``marks.total_mass`` Poisson process
    on ``(0, T]`` via exact exponential inter-arrival sampling; each mark is
    drawn independently with probability proportional to its weight.
    ``extra_times`` inserts additional deterministic nodes (e.g. coefficient
    breakpoints) into the grid at generation time.

    Raises:
        ConfigurationError: if T/h is not a positive integer or extra nodes
            fall outside (0, T).
    """
    M = _steps_of(T, h)
    if seed < 0:
        raise ConfigurationError("seed must be a non-negative integer")
    extra = np.sort(np.unique(np.asarray(extra_times, dtype=float)))
    if len(extra) and (extra[0] <= 0 or extra[-1] >= T):
        raise ConfigurationError("extra nodes must lie strictly inside (0, T)")
    rng = np.random.default_rng(seed)

    total = marks.total_mass if marks.size else 0.0
    if total > 0:
        # one sequential running sum across the blocks, so the loop stops on
        # the very value that decides whether an arrival lies in (0, T]
        blocks = [np.zeros(1)]
        while blocks[-1][-1] <= T:
            gaps = rng.exponential(1.0 / total, _EXP_BLOCK)
            blocks.append(np.cumsum(np.concatenate((blocks[-1][-1:], gaps)))[1:])
        arrivals = np.concatenate(blocks[1:])
        jump_times = arrivals[arrivals <= T]
        cum = np.cumsum(np.asarray(marks.weights)) / total
        u = rng.random(len(jump_times))
        jump_marks = np.minimum(
            np.searchsorted(cum, u, side="right"), marks.size - 1
        ).astype(np.int64)
    else:
        jump_times = np.empty(0, dtype=float)
        jump_marks = np.empty(0, dtype=np.int64)

    node_times = np.unique(
        np.concatenate((_uniform_times(T, M), jump_times, extra))
    )
    deltas = np.diff(node_times)
    node_increments = rng.standard_normal(len(deltas)) * np.sqrt(deltas)

    return DrivingPath(
        T=float(T),
        h=float(h),
        seed=int(seed),
        mark_count=marks.size,
        node_times=node_times,
        node_increments=node_increments,
        jump_times=jump_times,
        jump_marks=jump_marks,
        extra_times=extra,
    )


@dataclass(frozen=True, eq=False)
class MergedGrid:
    """Node and slot structure of a driving path.

    Every node carries one slot, except jump nodes which carry a left-limit
    slot followed by a post-jump slot.  ``node_first_slot[l]`` is the slot
    index of node ``l``'s first (or only) slot, and ``jump_nodes[k]`` is the
    node of the path's ``k``-th jump.  This is the one place that maps jumps
    and times to nodes and slots.
    """

    times: np.ndarray
    is_jump: np.ndarray
    jump_nodes: np.ndarray
    slot_times: np.ndarray
    slot_kinds: np.ndarray
    node_first_slot: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.times)

    @property
    def n_slots(self) -> int:
        return len(self.slot_times)

    def slots_at(self, times, kind: str = "post") -> np.ndarray:
        """Slot indices at node times ``times``; ``kind`` picks the left or
        post-jump slot at a jump node (the cadlag value is the post slot).

        Raises:
            GridMismatchError: if a time is not a node of the grid.
        """
        times = np.asarray(times, dtype=float)
        nodes = np.minimum(np.searchsorted(self.times, times), self.n_nodes - 1)
        off = np.ravel(times)[np.ravel(self.times[nodes] != times)]
        if len(off):
            raise GridMismatchError(f"time {float(off[0])!r} is not a grid node")
        slots = self.node_first_slot[nodes]
        return slots + self.is_jump[nodes] if kind == "post" else slots

    def slot_at(self, t: float, kind: str = "post") -> int:
        """The slot index :meth:`slots_at` gives for the single time ``t``."""
        return int(self.slots_at(t, kind))

    def on_slots(self, at_nodes, at_jumps=None) -> np.ndarray:
        """Slot values from one value per node, ``at_nodes[..., l]`` for node ``l``.

        A node's first (or only) slot gets its node value.  The post-jump slot
        of the ``k``-th jump node gets ``at_jumps[..., k]``, or the node value
        when ``at_jumps`` is None.
        """
        out = np.empty(at_nodes.shape[:-1] + (self.n_slots,))
        out[..., self.node_first_slot] = at_nodes
        post = self.node_first_slot[self.is_jump] + 1
        out[..., post] = at_nodes[..., self.is_jump] if at_jumps is None else at_jumps
        return out

    def interval_start_slots(self) -> np.ndarray:
        """Slot holding the state at the start of each node interval."""
        return (self.node_first_slot + self.is_jump.astype(np.int64))[:-1]

    def interval_end_slots(self) -> np.ndarray:
        """Slot holding the (pre-jump) state at the end of each interval."""
        return self.node_first_slot[1:]

    def same_nodes(self, other: "MergedGrid") -> bool:
        return np.array_equal(self.times, other.times) and np.array_equal(
            self.is_jump, other.is_jump
        )


def merge_grid(path: DrivingPath) -> MergedGrid:
    """Build the slot structure for a path (deduplicated, sorted nodes)."""
    times = path.node_times
    L = len(times)
    jump_nodes = np.searchsorted(times, path.jump_times)
    if not np.array_equal(times[jump_nodes], path.jump_times):
        raise GridMismatchError("jump times missing from path nodes")
    is_jump = np.zeros(L, dtype=bool)
    is_jump[jump_nodes] = True
    extra_slots = np.cumsum(is_jump.astype(np.int64))
    node_first_slot = np.arange(L, dtype=np.int64) + extra_slots - is_jump.astype(np.int64)
    S = L + int(is_jump.sum())
    slot_times = np.empty(S, dtype=float)
    slot_kinds = np.empty(S, dtype=np.int8)
    slot_times[node_first_slot] = times
    slot_kinds[node_first_slot] = np.where(is_jump, KIND_LEFT, KIND_GRID)
    post = node_first_slot[is_jump] + 1
    slot_times[post] = times[is_jump]
    slot_kinds[post] = KIND_POST
    return MergedGrid(
        times=times,
        is_jump=is_jump,
        jump_nodes=jump_nodes,
        slot_times=slot_times,
        slot_kinds=slot_kinds,
        node_first_slot=node_first_slot,
    )


def coarsen_path(path: DrivingPath, factor: int) -> DrivingPath:
    """Derive the step-``factor*h`` path sharing this path's randomness.

    Retains the full jump record and all extra nodes; Brownian increments
    between retained nodes are summed.  Used by strong-convergence studies so
    that every resolution is driven by one common path.
    """
    if factor < 1 or path.steps % factor:
        raise ConfigurationError(f"coarsening factor {factor} must divide M={path.steps}")
    if factor == 1:
        return path
    coarse_uniform = path.uniform_times()[::factor]
    keep_times = np.unique(
        np.concatenate((coarse_uniform, path.jump_times, path.extra_times))
    )
    keep_idx = np.searchsorted(path.node_times, keep_times)
    if not np.array_equal(path.node_times[keep_idx], keep_times):
        raise GridMismatchError("coarse nodes missing from parent path")
    increments = np.add.reduceat(path.node_increments, keep_idx[:-1])
    return DrivingPath(
        T=path.T,
        h=path.h * factor,
        seed=path.seed,
        mark_count=path.mark_count,
        node_times=keep_times,
        node_increments=increments,
        jump_times=path.jump_times,
        jump_marks=path.jump_marks,
        extra_times=path.extra_times,
        rng_algorithm_id=path.rng_algorithm_id + f"+coarsen{factor}",
    )


def derive_path_seed(master_seed: int, index: int) -> int:
    """Per-path seed for Monte Carlo stream ``index`` under one master seed.

    Uses seed-sequence spawning so the assignment is reproducible under any
    degree of parallelism and statistically independent across indices.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


# --- binary path dump ---------------------------------------------------------

_MAGIC = b"LVJPATHS"
_VERSION = 1


def save_path(path: DrivingPath, fileobj_or_name) -> None:
    """Write a versioned binary dump of the path for replay/debugging.

    Layout (version 1): magic, version, T, h, M, K, seed, then the M
    per-uniform-cell increments as float64, then the jump records, then the
    merged-grid section (extra nodes, node times, node increments) that makes
    the dump a bit-exact replay source.
    """
    own = isinstance(fileobj_or_name, (str, bytes)) or hasattr(fileobj_or_name, "__fspath__")
    fh = open(fileobj_or_name, "wb") if own else fileobj_or_name
    try:
        algo = path.rng_algorithm_id.encode("utf-8")
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(
            struct.pack(
                "<ddQQQQQQ",
                path.T,
                path.h,
                path.steps,
                path.mark_count,
                path.seed,
                path.jump_count,
                len(path.extra_times),
                len(path.node_times),
            )
        )
        fh.write(np.ascontiguousarray(path.brownian_increments, dtype="<f8").tobytes())
        for tau, mark in zip(path.jump_times, path.jump_marks):
            fh.write(struct.pack("<dQ", float(tau), int(mark)))
        fh.write(np.ascontiguousarray(path.extra_times, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(path.node_times, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(path.node_increments, dtype="<f8").tobytes())
        fh.write(struct.pack("<I", len(algo)))
        fh.write(algo)
    finally:
        if own:
            fh.close()


def load_path(fileobj_or_name) -> DrivingPath:
    """Read a binary path dump; verifies magic, version and cell sums."""
    own = isinstance(fileobj_or_name, (str, bytes)) or hasattr(fileobj_or_name, "__fspath__")
    fh = open(fileobj_or_name, "rb") if own else fileobj_or_name
    try:
        if fh.read(8) != _MAGIC:
            raise ConfigurationError("not a path dump (bad magic)")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != _VERSION:
            raise ConfigurationError(f"unsupported path dump version {version}")
        T, h, M, K, seed, J, E, L = struct.unpack("<ddQQQQQQ", fh.read(8 * 8))
        cell_incs = np.frombuffer(fh.read(8 * M), dtype="<f8").copy()
        jumps = [struct.unpack("<dQ", fh.read(16)) for _ in range(J)]
        extra = np.frombuffer(fh.read(8 * E), dtype="<f8").copy()
        node_times = np.frombuffer(fh.read(8 * L), dtype="<f8").copy()
        node_incs = np.frombuffer(fh.read(8 * (L - 1)), dtype="<f8").copy()
        (alen,) = struct.unpack("<I", fh.read(4))
        algo = fh.read(alen).decode("utf-8")
        path = DrivingPath(
            T=T,
            h=h,
            seed=int(seed),
            mark_count=int(K),
            node_times=node_times,
            node_increments=node_incs,
            jump_times=np.asarray([t for t, _ in jumps], dtype=float),
            jump_marks=np.asarray([m for _, m in jumps], dtype=np.int64),
            extra_times=extra,
            rng_algorithm_id=algo,
        )
        if not np.array_equal(path.brownian_increments, cell_incs):
            raise ConfigurationError("path dump corrupt: cell sums do not match")
        return path
    finally:
        if own:
            fh.close()
