"""Partition schemes for multi-gene (phylogenomic) alignments.

A *partition* is a set of alignment columns (typically one gene) that
shares one set of maximum-likelihood model parameters: its own Q matrix,
its own Gamma shape parameter alpha, and — in *per-partition* (unlinked)
branch-length mode — its own set of 2n-3 branch lengths (Fig. 2 of the
paper).  Partition files use the RAxML syntax::

    DNA, gene0 = 1-1000
    DNA, gene1 = 1001-2000
    AA,  cytb  = 2001-2500, 3001-3100

Column indices in files are 1-based and inclusive, as in RAxML; the
in-memory representation is 0-based half-open.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .alignment import Alignment, compress_columns
from .datatypes import DataType, get_datatype
from .phylip import parse_fasta, parse_phylip

__all__ = [
    "Partition",
    "PartitionScheme",
    "PartitionData",
    "PartitionedAlignment",
    "parse_partition_file",
    "read_partitioned_alignment",
    "uniform_scheme",
]


@dataclass(frozen=True)
class Partition:
    """One partition: a name, a datatype and its column ranges.

    ``ranges`` is a tuple of 0-based half-open ``(start, stop)`` column
    intervals; most genes are a single contiguous interval but the format
    allows several.
    """

    name: str
    datatype: DataType
    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.ranges:
            raise ValueError(f"partition {self.name!r} has no column ranges")
        for start, stop in self.ranges:
            if start < 0 or stop <= start:
                raise ValueError(
                    f"partition {self.name!r}: bad range [{start}, {stop})"
                )

    @property
    def n_sites(self) -> int:
        """Total number of raw columns in this partition."""
        return sum(stop - start for start, stop in self.ranges)

    def column_indices(self) -> np.ndarray:
        """All 0-based column indices of this partition, ascending."""
        return np.concatenate(
            [np.arange(start, stop) for start, stop in self.ranges]
        )


@dataclass(frozen=True)
class PartitionScheme:
    """An ordered, non-overlapping set of partitions covering an alignment."""

    partitions: tuple[Partition, ...]

    def __post_init__(self) -> None:
        if not self.partitions:
            raise ValueError("empty partition scheme")
        names = [p.name for p in self.partitions]
        if len(set(names)) != len(names):
            raise ValueError("duplicate partition names")
        seen: set[int] = set()
        for p in self.partitions:
            for idx in p.column_indices():
                if int(idx) in seen:
                    raise ValueError(
                        f"column {idx + 1} assigned to more than one partition"
                    )
                seen.add(int(idx))

    def __len__(self) -> int:
        return len(self.partitions)

    def __iter__(self):
        return iter(self.partitions)

    def __getitem__(self, i: int) -> Partition:
        return self.partitions[i]

    @property
    def n_sites(self) -> int:
        return sum(p.n_sites for p in self.partitions)

    def validate_against(self, alignment: Alignment) -> None:
        """Check every partition column exists; gaps in coverage are allowed
        only if the scheme covers the full width (RAxML requires full
        coverage, and so do we)."""
        covered = self.n_sites
        m = alignment.n_sites
        top = max(stop for p in self.partitions for _, stop in p.ranges)
        if top > m:
            raise ValueError(
                f"scheme references column {top} but alignment has {m}"
            )
        if covered != m:
            raise ValueError(
                f"scheme covers {covered} of {m} alignment columns; "
                "partition schemes must cover the full alignment"
            )


_PARTITION_LINE = re.compile(
    r"^\s*(?P<dtype>[A-Za-z]+)\s*,\s*(?P<name>[\w.+-]+)\s*=\s*(?P<ranges>[\d\s,\-]+)$"
)


def parse_partition_file(text: str) -> PartitionScheme:
    """Parse RAxML-style partition-file text into a :class:`PartitionScheme`."""
    partitions: list[Partition] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _PARTITION_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: cannot parse partition line {line!r}")
        dtype = get_datatype(match["dtype"])
        ranges: list[tuple[int, int]] = []
        for chunk in match["ranges"].split(","):
            chunk = chunk.strip()
            if "-" in chunk:
                lo_s, hi_s = chunk.split("-")
                lo, hi = int(lo_s), int(hi_s)
            else:
                lo = hi = int(chunk)
            if lo < 1 or hi < lo:
                raise ValueError(f"line {lineno}: bad range {chunk!r}")
            ranges.append((lo - 1, hi))  # 1-based inclusive -> 0-based half-open
        partitions.append(Partition(match["name"], dtype, tuple(ranges)))
    return PartitionScheme(tuple(partitions))


def uniform_scheme(
    n_sites: int, partition_length: int, datatype: DataType | str = "DNA"
) -> PartitionScheme:
    """The paper's pXXXX schemes: split ``n_sites`` columns into consecutive
    partitions of ``partition_length`` (the last may be shorter)."""
    if partition_length <= 0:
        raise ValueError("partition_length must be positive")
    dtype = get_datatype(datatype) if isinstance(datatype, str) else datatype
    parts = []
    for i, start in enumerate(range(0, n_sites, partition_length)):
        stop = min(start + partition_length, n_sites)
        parts.append(Partition(f"p{i}", dtype, ((start, stop),)))
    return PartitionScheme(tuple(parts))


@dataclass(frozen=True)
class PartitionData:
    """Compressed, likelihood-ready data for one partition.

    Attributes
    ----------
    partition:
        The source :class:`Partition`.
    tip_states:
        ``(n_taxa, m'_p, states)`` float64 ambiguity indicators for the
        partition's distinct patterns.
    weights:
        ``(m'_p,)`` pattern multiplicities.
    """

    partition: Partition
    tip_states: np.ndarray
    weights: np.ndarray

    @property
    def n_patterns(self) -> int:
        return self.tip_states.shape[1]

    @property
    def states(self) -> int:
        return self.partition.datatype.states


@dataclass(frozen=True)
class PartitionedAlignment:
    """An alignment bound to a partition scheme, pattern-compressed per
    partition.

    Patterns are compressed *within* each partition (two identical columns
    in different genes are distinct patterns — they evolve under different
    models).  The global distinct-pattern count ``sum(m'_p)`` is the
    paper's ``m'``.
    """

    alignment: Alignment
    scheme: PartitionScheme
    data: tuple[PartitionData, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.scheme.validate_against(self.alignment)
        blocks: list[PartitionData] = []
        for part in self.scheme:
            cols = part.column_indices()
            sub = self.alignment.matrix[:, cols]
            patterns, weights, _ = compress_columns(sub)
            tips = part.datatype.encoding_table()[patterns]
            tips.setflags(write=False)
            weights.setflags(write=False)
            blocks.append(PartitionData(part, tips, weights))
        object.__setattr__(self, "data", tuple(blocks))

    @property
    def n_taxa(self) -> int:
        return self.alignment.n_taxa

    @property
    def taxa(self) -> tuple[str, ...]:
        return self.alignment.taxa

    @property
    def n_partitions(self) -> int:
        return len(self.scheme)

    @property
    def n_patterns(self) -> int:
        """Total distinct pattern count across partitions (the paper's m')."""
        return sum(d.n_patterns for d in self.data)

    def pattern_counts(self) -> np.ndarray:
        """(n_partitions,) per-partition distinct pattern counts m'_p."""
        return np.array([d.n_patterns for d in self.data], dtype=np.int64)


def read_partitioned_alignment(
    alignment: str | Path,
    partitions: str | Path | None = None,
    taxa: tuple[str, ...] | None = None,
) -> PartitionedAlignment:
    """Read an analysis's alignment and partition files.

    ``alignment`` is FASTA if its first non-blank character is ``>``,
    PHYLIP otherwise; ``partitions`` is a RAxML-style partition file
    (default: one partition over every column).  ``taxa`` is a tree's
    leaf names in leaf order: Newick numbers leaves by appearance, so the
    rows are put in that order and leaf ``i`` carries taxon ``i``'s data.
    Raises ``ValueError`` when the taxon sets differ; rows already in
    that order are not copied.
    """
    text = Path(alignment).read_text()
    aln = parse_fasta(text) if text.lstrip().startswith(">") else parse_phylip(text)
    if taxa is not None and tuple(taxa) != aln.taxa:
        if set(taxa) != set(aln.taxa):
            raise ValueError(
                "tree and alignment taxa differ: only in the alignment "
                f"{sorted(set(aln.taxa) - set(taxa))}, only in the tree "
                f"{sorted(set(taxa) - set(aln.taxa))}"
            )
        order = [aln.taxa.index(name) for name in taxa]
        aln = Alignment(tuple(taxa), aln.matrix[order], aln.datatype)
    if partitions is None:
        scheme = uniform_scheme(aln.n_sites, aln.n_sites)
    else:
        scheme = parse_partition_file(Path(partitions).read_text())
    return PartitionedAlignment(aln, scheme)
