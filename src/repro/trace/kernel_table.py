"""Columnar (structure-of-arrays) kernel storage.

Every figure in the reproduction flows through the same hot path —
enumerate a per-kernel trace, time each kernel, aggregate breakdowns.  A
:class:`KernelTable` stores that kernel sequence as parallel NumPy arrays
(one per :class:`~repro.ops.base.Kernel` field) instead of a Python list of
dataclass objects, so the three stages become array operations:

* **generation** pools one iteration template and replicates its encoder
  layer across the remaining identical layers with :meth:`KernelTable.take`
  (``repro.trace.bert_trace.layout_table``) instead of re-walking the model
  per layer; a lane-valued grid family pools its template once for all its
  points (``repro.trace.bert_trace.stamp_layout``);
* **timing** (:func:`repro.hw.timing.kernel_times`) batches the GEMM
  tile-efficiency and achieved-bandwidth models over whole columns;
* **aggregation** (``select`` / ``time_of`` / breakdowns) becomes masked
  array reductions over the enum code columns.

Layout: low-cardinality categorical fields (op class, phase, component,
region, dtype, access pattern) are stored as small integer codes indexed
into the module-level enum code tables (``OP_CLASSES``, ``PHASES``, ...);
repeated heavyweight values (kernel names, GEMM shapes, fusion-group
labels) are pooled — the column stores an index into the table's pool,
with ``-1`` meaning absent.  The GEMM pool is a frozen ``(G, 7)`` int64
dims array (:data:`~repro.ops.gemm.GEMM_DIMS`: m, n, k, batch and the
three flags), so a lane-stamped grid pools, merges and prices thousands
of shapes without building a :class:`GemmShape` per shape; ``gemms`` is
the same pool as a read-only tuple of records, built on first read.
Cost fields (flops, bytes, element counts) are ``int64`` columns.

Tables are **immutable**: every array is marked read-only at construction,
and transforms (``concat``, ``take``, ``select``, ``splice``,
``rewrite_rows``) return new tables.  Product code reads the columns
(masks, reductions, :meth:`KernelTable.labels`); the per-:class:`Kernel`
view (``kernel`` / ``kernels_at`` / ``to_kernels``) is explicit, for tests
and examples, and a table is not iterable.  Immutability is what lets
:func:`repro.trace.bert_trace.iteration_trace` hand the same trace to
every caller without defensive copies — and what makes the trace-rewrite
passes of :mod:`repro.trace.passes` pure functions.

Each row also carries a **provenance** code (pooled, ``-1`` meaning "from
the trace generator") recording which rewrite pass produced it.  Provenance
is table-only metadata: it does not appear on materialized
:class:`Kernel` objects and does not participate in kernel equality, so
a rewritten table and a table rebuilt from its kernels compare equal
kernel for kernel.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.ops.base import (AccessPattern, Component, DType, Kernel, OpClass,
                            Phase, Region)
from repro.ops.gemm import GEMM_DIMS, GemmShape, gemm_dims, gemm_label

# ---------------------------------------------------------------------------
# Enum code tables.  Codes are positions in these tuples; they are stable
# within one process *and* across processes as long as the enum definitions
# keep their declaration order, which is also what the cache code
# fingerprint keys on (a reordering rotates the cache).
# ---------------------------------------------------------------------------

OP_CLASSES: tuple[OpClass, ...] = tuple(OpClass)
PHASES: tuple[Phase, ...] = tuple(Phase)
COMPONENTS: tuple[Component, ...] = tuple(Component)
REGIONS: tuple[Region, ...] = tuple(Region)
DTYPES: tuple[DType, ...] = tuple(DType)
ACCESS_PATTERNS: tuple[AccessPattern, ...] = tuple(AccessPattern)

_OP_CODE = {member: code for code, member in enumerate(OP_CLASSES)}
_PHASE_CODE = {member: code for code, member in enumerate(PHASES)}
_COMPONENT_CODE = {member: code for code, member in enumerate(COMPONENTS)}
_REGION_CODE = {member: code for code, member in enumerate(REGIONS)}
_DTYPE_CODE = {member: code for code, member in enumerate(DTYPES)}
_ACCESS_CODE = {member: code for code, member in enumerate(ACCESS_PATTERNS)}

#: Codes of the (batched) GEMM op classes, for vectorized ``is_gemm`` masks.
GEMM_OP_CODES: tuple[int, ...] = tuple(
    _OP_CODE[op] for op in OP_CLASSES if op.is_gemm)

_COMM_OP_CODE = _OP_CODE[OpClass.COMMUNICATION]

#: Per-dtype element sizes indexed by dtype code, for vectorized byte math.
DTYPE_BYTES: np.ndarray = np.array([d.bytes for d in DTYPES], dtype=np.int64)
DTYPE_BYTES.flags.writeable = False

#: The JSON-ready label of each code, per enum code column.
_CODE_LABELS = {
    "op_class": tuple(op.value for op in OP_CLASSES),
    "phase": tuple(phase.value for phase in PHASES),
    "component": tuple(component.value for component in COMPONENTS),
    "region": tuple(region.value for region in REGIONS),
    "dtype": tuple(dtype.label for dtype in DTYPES),
}

_CODE_TABLES = ((OpClass, _OP_CODE), (Phase, _PHASE_CODE),
                (Component, _COMPONENT_CODE), (Region, _REGION_CODE),
                (DType, _DTYPE_CODE), (AccessPattern, _ACCESS_CODE))


def code_of(member) -> int:
    """The table code of one enum member (dispatched on its type).

    The public lookup used by the vectorized trace passes to compare code
    columns against enum members without materializing kernels.
    """
    for enum_type, codes in _CODE_TABLES:
        if isinstance(member, enum_type):
            return codes[member]
    raise TypeError(f"no code table for {type(member).__name__}")


#: Per-row columns whose values never vary by lane, and the cost columns
#: that may (see :meth:`KernelTable.from_kernels`).
_STATIC_COLUMNS = ("name_code", "op_class", "phase", "component", "region",
                   "dtype", "access", "layer", "fusion_code")
_COST_COLUMNS = ("flops", "bytes_read", "bytes_written", "n_elements")
#: Every per-row column, and the pool each pooled code column indexes.
_ROW_COLUMNS = _STATIC_COLUMNS + _COST_COLUMNS + ("gemm_code", "provenance")
_POOLS = {"name_code": "names", "gemm_code": "gemm_dims",
          "fusion_code": "fusion_groups", "provenance": "provenance_names"}


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class KernelTable:
    """An immutable kernel sequence stored as parallel columns.

    Attributes (all length ``len(self)`` unless noted):
        name_code: ``int32`` index into ``names``.
        names: pooled kernel-name strings.
        op_class / phase / component / region / dtype / access: ``int8``
            codes into the module-level enum tables.
        flops / bytes_read / bytes_written / n_elements: ``int64`` costs.
        layer: ``int32`` encoder-layer index, ``-1`` for ``None``.
        gemm_code: ``int32`` index into ``gemm_dims``, ``-1`` for
            non-GEMMs.
        gemm_dims: ``(G, 7)`` int64 pool of distinct GEMM shapes, one
            :data:`~repro.ops.gemm.GEMM_DIMS` row each (not per row).
        gemms: the same pool as :class:`~repro.ops.gemm.GemmShape`
            records, a read-only tuple built on first read.
        fusion_code: ``int32`` index into ``fusion_groups``, ``-1`` for
            ``None``.
        fusion_groups: pooled fusion-group labels.
        provenance: ``int16`` index into ``provenance_names``, ``-1`` for
            rows emitted by the trace generator itself.
        provenance_names: pooled names of the passes that rewrote rows.
    """

    #: Every column and pool: what a rebuild or a pickle carries.
    _FIELDS = ("name_code", "names", "op_class", "phase", "component",
               "region", "dtype", "access", "flops", "bytes_read",
               "bytes_written", "n_elements", "layer", "gemm_code",
               "gemm_dims", "fusion_code", "fusion_groups", "provenance",
               "provenance_names")
    __slots__ = _FIELDS + ("_gemms",)

    def __init__(self, *, name_code, names, op_class, phase, component,
                 region, dtype, access, flops, bytes_read, bytes_written,
                 n_elements, layer, gemm_code, gemm_dims, fusion_code,
                 fusion_groups, provenance=None, provenance_names=()):
        self.name_code = _frozen(np.asarray(name_code, dtype=np.int32))
        self.names = tuple(names)
        self.op_class = _frozen(np.asarray(op_class, dtype=np.int8))
        self.phase = _frozen(np.asarray(phase, dtype=np.int8))
        self.component = _frozen(np.asarray(component, dtype=np.int8))
        self.region = _frozen(np.asarray(region, dtype=np.int8))
        self.dtype = _frozen(np.asarray(dtype, dtype=np.int8))
        self.access = _frozen(np.asarray(access, dtype=np.int8))
        self.flops = _frozen(np.asarray(flops, dtype=np.int64))
        self.bytes_read = _frozen(np.asarray(bytes_read, dtype=np.int64))
        self.bytes_written = _frozen(np.asarray(bytes_written,
                                                dtype=np.int64))
        self.n_elements = _frozen(np.asarray(n_elements, dtype=np.int64))
        self.layer = _frozen(np.asarray(layer, dtype=np.int32))
        self.gemm_code = _frozen(np.asarray(gemm_code, dtype=np.int32))
        self.gemm_dims = _frozen(np.asarray(gemm_dims, dtype=np.int64)
                                 .reshape(-1, len(GEMM_DIMS)))
        self._gemms: tuple[GemmShape, ...] | None = None
        self.fusion_code = _frozen(np.asarray(fusion_code, dtype=np.int32))
        self.fusion_groups = tuple(fusion_groups)
        if provenance is None:
            provenance = np.full(len(self.op_class), -1, dtype=np.int16)
        self.provenance = _frozen(np.asarray(provenance, dtype=np.int16))
        self.provenance_names = tuple(provenance_names)

    # ------------------------------------------------------------ construction
    @classmethod
    def from_kernels(cls, kernels: Iterable[Kernel]) -> "KernelTable":
        """Build a table from a kernel sequence (pooling repeated values).

        Cost fields and GEMM dimensions may be ``(P,)`` lane arrays, one
        lane per grid point (a :class:`~repro.grid.lanes.LaneTraining`
        emitter walk).  The table then stacks the sequence once per lane,
        point-major, with GEMM shapes pooled by value across all lanes.
        """
        kernels = list(kernels)
        name_pool: dict[str, int] = {}
        fusion_pool: dict[str, int] = {}
        columns = {key: [] for key in _STATIC_COLUMNS + _COST_COLUMNS}
        for k in kernels:
            columns["name_code"].append(
                name_pool.setdefault(k.name, len(name_pool)))
            columns["op_class"].append(_OP_CODE[k.op_class])
            columns["phase"].append(_PHASE_CODE[k.phase])
            columns["component"].append(_COMPONENT_CODE[k.component])
            columns["region"].append(_REGION_CODE[k.region])
            columns["dtype"].append(_DTYPE_CODE[k.dtype])
            columns["access"].append(_ACCESS_CODE[k.access])
            columns["flops"].append(k.flops)
            columns["bytes_read"].append(k.bytes_read)
            columns["bytes_written"].append(k.bytes_written)
            columns["n_elements"].append(k.n_elements)
            columns["layer"].append(
                -1 if k.layer_index is None else k.layer_index)
            columns["fusion_code"].append(
                -1 if k.fusion_group is None
                else fusion_pool.setdefault(k.fusion_group, len(fusion_pool)))
        shapes = [k.gemm for k in kernels]
        lanes = max((len(value) for key in _COST_COLUMNS
                     for value in columns[key]
                     if isinstance(value, np.ndarray)), default=0)
        if lanes:
            # Point p owns rows [p * len(kernels), (p + 1) * len(kernels)).
            # Codes tile as int32, not int64: the copies grow with P.
            for key in _STATIC_COLUMNS:
                columns[key] = np.tile(np.array(columns[key], np.int32),
                                       lanes)
            for key in _COST_COLUMNS:
                matrix = np.empty((len(kernels), lanes), dtype=np.int64)
                for row, value in enumerate(columns[key]):
                    matrix[row] = value  # scalars broadcast across lanes
                columns[key] = matrix.T.ravel()
            gemm_code, dims = _pool_lane_gemms(shapes, lanes)
        else:
            gemm_pool: dict[GemmShape, int] = {}
            gemm_code = [-1 if shape is None
                         else gemm_pool.setdefault(shape, len(gemm_pool))
                         for shape in shapes]
            dims = gemm_dims(gemm_pool)
        return cls(names=tuple(name_pool), gemm_dims=dims,
                   fusion_groups=tuple(fusion_pool), gemm_code=gemm_code,
                   **columns)

    @classmethod
    def concat(cls, tables: Sequence["KernelTable"]) -> "KernelTable":
        """Concatenate tables, merging their pools in first-seen order (a
        pool only one table fills is kept as is: the others' codes into
        it are all ``-1``)."""
        def stacked(column):
            return np.concatenate([getattr(t, column) for t in tables])

        columns = {column: stacked(column)
                   for column in _ROW_COLUMNS if column not in _POOLS}
        for column, pool in _POOLS.items():
            pools = [getattr(t, pool) for t in tables]
            filled = [p for p in pools if len(p)]
            if len(filled) <= 1:
                columns[column] = stacked(column)
                columns[pool] = filled[0] if filled else pools[0]
                continue
            if pool == "gemm_dims":
                columns[pool], translations = _merge_dims(pools)
            else:
                merged: dict = {}
                translations = [_translation(p, merged) for p in pools]
                columns[pool] = tuple(merged)
            columns[column] = np.concatenate(
                [translation[getattr(t, column)]
                 for t, translation in zip(tables, translations)])
        return cls(**columns)

    def take(self, indices) -> "KernelTable":
        """A new table of the given rows (pools are shared, not re-deduped).

        ``indices`` may be an integer index array, a boolean mask, or a
        slice (its arrays are views, so a row range costs O(1)).
        """
        columns = self._columns()
        for column in _ROW_COLUMNS:
            columns[column] = columns[column][indices]
        return type(self)(**columns)

    # ------------------------------------------------------ rewrite primitives
    def _columns(self) -> dict:
        """Every column and pool, for rebuilding a table with some of
        them replaced."""
        return {field: getattr(self, field) for field in self._FIELDS}

    def with_columns(self, **overrides) -> "KernelTable":
        """A new table with the given columns (or pools) replaced.

        Untouched columns are shared with this table (they are immutable),
        so the rebuild costs only the overridden arrays.
        """
        columns = self._columns()
        columns.update(overrides)
        return type(self)(**columns)

    def select(self, mask: np.ndarray) -> "KernelTable":
        """A new table of the rows where ``mask`` is True (order kept)."""
        return self.take(mask)

    def splice(self, positions, segments: Sequence["KernelTable"], *,
               replace: bool = False) -> "KernelTable":
        """Insert each segment immediately before the matching row.

        ``positions`` must be strictly increasing row indices, one per
        segment.  With ``replace=True`` the row at each position is dropped
        (the segment replaces it); otherwise it follows its segment.  This
        is the vectorized equivalent of a list scan that expands markers
        into kernel blocks.
        """
        positions = [int(p) for p in positions]
        if len(positions) != len(segments):
            raise ValueError("need exactly one segment per position")
        pieces: list[KernelTable] = []
        previous = 0
        for position, segment in zip(positions, segments):
            if position < previous or position >= len(self) + (not replace):
                raise ValueError(
                    "splice positions must be strictly increasing row "
                    f"indices, got {positions}")
            pieces.append(self.take(slice(previous, position)))
            pieces.append(segment)
            previous = position + 1 if replace else position
        pieces.append(self.take(slice(previous, len(self))))
        return type(self).concat(pieces)

    def rewrite_rows(self, rows, *, provenance: str | None = None,
                     **updates) -> "KernelTable":
        """A new table with the given rows' column values replaced.

        ``updates`` maps column names to per-row replacement values
        (scalars broadcast).  Replacement pools (``names`` /
        ``gemm_dims`` / ``fusion_groups``) may be passed alongside their
        code columns when a rewrite introduces new pooled values.
        ``provenance`` stamps the rewritten rows with the producing pass's
        name.
        """
        columns = self._columns()
        for column, values in updates.items():
            if column in _POOLS.values():
                columns[column] = values
                continue
            if column not in columns:
                raise KeyError(f"unknown column {column!r}")
            array = np.array(columns[column])  # writable copy
            array[rows] = values
            columns[column] = array
        if provenance is not None:
            pool = list(columns["provenance_names"])
            if provenance not in pool:
                pool.append(provenance)
            stamped = np.array(columns["provenance"])
            stamped[rows] = pool.index(provenance)
            columns["provenance"] = stamped
            columns["provenance_names"] = tuple(pool)
        return type(self)(**columns)

    def stamped(self, provenance: str) -> "KernelTable":
        """A copy with every row's provenance set to ``provenance``."""
        pool = list(self.provenance_names)
        if provenance not in pool:
            pool.append(provenance)
        return self.with_columns(
            provenance=np.full(len(self), pool.index(provenance),
                               dtype=np.int16),
            provenance_names=tuple(pool))

    @classmethod
    def coerce(cls, kernels) -> "KernelTable":
        """Accept a table, a table-backed trace, or any kernel iterable."""
        if isinstance(kernels, cls):
            return kernels
        table = getattr(kernels, "table", None)
        if isinstance(table, cls):
            return table
        return cls.from_kernels(kernels)

    # ---------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.op_class)

    @property
    def bytes_total(self) -> np.ndarray:
        """Per-kernel total device-memory traffic."""
        return self.bytes_read + self.bytes_written

    @property
    def is_gemm(self) -> np.ndarray:
        """Mask of (batched) GEMM rows."""
        mask = self.op_class == GEMM_OP_CODES[0]
        for code in GEMM_OP_CODES[1:]:
            mask |= self.op_class == code
        return mask

    @property
    def is_communication(self) -> np.ndarray:
        """Mask of communication rows."""
        return self.op_class == _COMM_OP_CODE

    def mask(self, *, phase=None, component=None, region=None, op_class=None,
             layer_index=None) -> np.ndarray:
        """Boolean row mask for the given attribute filters.

        ``phase`` / ``component`` / ``region`` / ``op_class`` accept a single
        enum member or a tuple of members (matched as a set);
        ``layer_index`` selects one encoder layer's rows.  A filter left at
        ``None`` does not filter.
        """
        mask = np.ones(len(self), dtype=bool)
        for value, column, codes in (
                (phase, self.phase, _PHASE_CODE),
                (component, self.component, _COMPONENT_CODE),
                (region, self.region, _REGION_CODE),
                (op_class, self.op_class, _OP_CODE)):
            if value is None:
                continue
            members = value if isinstance(value, tuple) else (value,)
            sub = column == codes[members[0]]
            for member in members[1:]:
                sub |= column == codes[member]
            mask &= sub
        if layer_index is not None:
            mask &= self.layer == layer_index
        return mask

    def name_contains(self, text: str) -> np.ndarray:
        """Boolean row mask of kernels whose name contains ``text``.

        The test runs once per pooled name, not once per row.
        """
        pooled = np.array([text in name for name in self.names], dtype=bool)
        return pooled[self.name_code]

    @property
    def gemms(self) -> tuple[GemmShape, ...]:
        """The GEMM pool as records, indexed by ``gemm_code``: a
        read-only tuple built from ``gemm_dims`` on first read."""
        if self._gemms is None:
            self._gemms = tuple(GemmShape.from_dims(row)
                                for row in self.gemm_dims.tolist())
        return self._gemms

    def label_pool(self, column: str) -> Sequence[str]:
        """The label of each code of a code column, indexed by code: enum
        values (dtype labels), pooled names and fusion groups, or
        GEMM-shape labels."""
        if column == "gemm_code":
            return [gemm_label(*row) for row in self.gemm_dims.tolist()]
        return {**_CODE_LABELS, "name_code": self.names,
                "fusion_code": self.fusion_groups}[column]

    def labels(self, column: str, pool: Sequence | None = None,
               absent=None) -> list:
        """A code column's per-row labels as a Python list: ``pool[code]``
        (by default the column's :meth:`label_pool`), ``absent`` for an
        absent (``-1``) pool code.  Each label is decoded once per code,
        not once per row."""
        if pool is None:
            pool = self.label_pool(column)
        lookup = np.empty(len(pool) + 1, dtype=object)
        lookup[:len(pool)] = pool
        lookup[-1] = absent
        return lookup[getattr(self, column)].tolist()

    # ---------------------------------------------------------------- views
    def kernel(self, row: int) -> Kernel:
        """Materialize one row as a :class:`Kernel`."""
        gemm_code = int(self.gemm_code[row])
        fusion_code = int(self.fusion_code[row])
        layer = int(self.layer[row])
        return Kernel(
            name=self.names[int(self.name_code[row])],
            op_class=OP_CLASSES[int(self.op_class[row])],
            phase=PHASES[int(self.phase[row])],
            component=COMPONENTS[int(self.component[row])],
            region=REGIONS[int(self.region[row])],
            flops=int(self.flops[row]),
            bytes_read=int(self.bytes_read[row]),
            bytes_written=int(self.bytes_written[row]),
            dtype=DTYPES[int(self.dtype[row])],
            access=ACCESS_PATTERNS[int(self.access[row])],
            layer_index=None if layer < 0 else layer,
            gemm=None if gemm_code < 0 else self.gemms[gemm_code],
            fusion_group=(None if fusion_code < 0
                          else self.fusion_groups[fusion_code]),
            n_elements=int(self.n_elements[row]))

    def kernels_at(self, rows: Iterable[int]) -> list[Kernel]:
        """Materialize only the given rows."""
        return [self.kernel(int(row)) for row in rows]

    def to_kernels(self) -> list[Kernel]:
        """Materialize the whole table as a kernel list."""
        return self.kernels_at(range(len(self)))

    def __repr__(self) -> str:
        return (f"KernelTable({len(self)} kernels, "
                f"{len(self.names)} names, {len(self.gemm_dims)} gemm "
                "shapes)")

    # --------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        return self._columns()

    def __setstate__(self, state: dict) -> None:
        for field in self._FIELDS:
            value = state[field]
            if isinstance(value, np.ndarray):
                value = _frozen(value)
            setattr(self, field, value)
        self._gemms = None


def _pool_lane_gemms(shapes: list, lanes: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Point-major GEMM codes and the dims pool of every lane's distinct
    shape, in sorted row order; no :class:`GemmShape` is built."""
    rows = [row for row, shape in enumerate(shapes) if shape is not None]
    codes = np.full((len(shapes), lanes), -1, dtype=np.int32)
    dims = np.empty((len(rows), lanes, len(GEMM_DIMS)), dtype=np.int64)
    for j, row in enumerate(rows):
        for column, value in enumerate(shapes[row].dims):
            dims[j, :, column] = value
    # np.unique(axis=0)'s row order, without its slow structured sort.
    flat = dims.reshape(-1, len(GEMM_DIMS))
    order, first = _sorted_groups(flat)
    codes[rows] = (np.cumsum(first) - 1)[np.argsort(order)].reshape(
        len(rows), lanes)
    return codes.T.ravel(), flat[order[first]]


def _sorted_groups(dims: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, first)``: the stable lexsort order of the dims rows, and
    a mask of the sorted rows that open a run of equal rows."""
    order = np.lexsort(dims.T[::-1])
    ordered = dims[order]
    first = np.ones(len(dims), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, first


def _merge_dims(pools: Sequence[np.ndarray]
                ) -> tuple[np.ndarray, list[np.ndarray]]:
    """The union of dims pools in first-seen order, and each pool's code
    translation (see :func:`_translation`), from one lexsort."""
    stacked = np.concatenate(pools)
    order, first = _sorted_groups(stacked)
    group = np.cumsum(first) - 1
    # A group's first sorted row is its first-seen one; number the
    # groups in the order they were first seen.
    leaders = order[first]
    rank = np.empty(len(leaders), dtype=np.int32)
    rank[np.argsort(leaders)] = np.arange(len(leaders), dtype=np.int32)
    codes = np.empty(len(stacked), dtype=np.int32)
    codes[order] = rank[group]
    bounds = np.cumsum([0] + [len(pool) for pool in pools])
    translations = [np.append(codes[lo:hi], np.int32(-1))
                    for lo, hi in zip(bounds[:-1], bounds[1:])]
    return stacked[np.sort(leaders)], translations


def _translation(pool: tuple, merged: dict) -> np.ndarray:
    """One table's pool codes -> the merged pool's codes, with a
    trailing ``-1`` slot that absent (``-1``) codes index."""
    translation = np.empty(len(pool) + 1, dtype=np.int32)
    translation[-1] = -1
    for local, item in enumerate(pool):
        translation[local] = merged.setdefault(item, len(merged))
    return translation
