"""Two-stage multimodal token sharding.

Stage 1 balances image-encoding work by distributing frames evenly across
the sequence-parallel group; stage 2 aggregates the encoded batch into one
flat token sequence, pads it with dummy tokens until it divides evenly, and
re-shards it from both ends (zigzag) so causal-attention compute is equal
across ranks.  The vision encoder is replaced by a deterministic stub: the
system under test is the sharding, not the modeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fabric import DeviceMesh

__all__ = [
    "TextToken",
    "ImagePlaceholder",
    "MultimodalSequence",
    "EncodedPiece",
    "EncodedSequence",
    "ShardPlan",
    "SampleSpec",
    "plan_granule",
    "padded_length",
    "distribute_images",
    "encode_images_stub",
    "text_embedding_stub",
    "encode_batch",
    "globalize_and_pad",
    "chunk_pair_counts",
    "chunk_workload_units",
    "load_samples",
    "build_sequences",
]

KIND_TEXT = 0
KIND_VISION = 1
KIND_DUMMY = 2

_VISION_STUB_SEED = 0x51AB
_TEXT_STUB_SEED = 0x7E47
_TEXT_VOCAB = 1024  # build_sequences' text token ids


@dataclass(frozen=True)
class TextToken:
    token_id: int


@dataclass(frozen=True)
class ImagePlaceholder:
    frame_id: int


@dataclass(frozen=True)
class MultimodalSequence:
    """One training sample: interleaved text tokens and image placeholders."""

    sample_id: int
    elements: tuple

    def frame_ids(self) -> list[int]:
        return [e.frame_id for e in self.elements if isinstance(e, ImagePlaceholder)]


@dataclass(frozen=True)
class EncodedPiece:
    """Encoded rows of one element, tagged with its place in the batch."""

    sample_index: int
    element_index: int
    kind: int
    embeddings: np.ndarray  # (rows, hidden)


@dataclass
class EncodedSequence:
    """Flat global token sequence with per-position bookkeeping."""

    embeddings: np.ndarray  # (length, hidden)
    kinds: np.ndarray  # (length,) uint8
    loss_mask: np.ndarray  # (length,) bool

    def __post_init__(self) -> None:
        n = self.embeddings.shape[0]
        if not (self.kinds.shape == self.loss_mask.shape == (n,)):
            raise ValueError("per-position metadata does not match embedding rows")
        if np.any(self.loss_mask[self.kinds == KIND_DUMMY]):
            raise ValueError("dummy positions must have loss_mask false")


@dataclass(frozen=True)
class ShardPlan:
    """Assignment of equal token chunks to ranks.

    ``contiguous`` gives rank i chunk i (of sp chunks); ``zigzag`` gives rank
    i chunks {i, 2P-1-i} (of 2P chunks), taken from both ends of the sequence
    so each rank's causal workload is equal.  The chunks and their owners
    follow from the kind, the degree and the padded length, which must be a
    positive multiple of the plan granule.  The original length, the count
    of real rows before the dummy padding, runs from 1 to the padded length.
    """

    kind: str  # "contiguous" | "zigzag"
    sp_degree: int
    padded_length: int
    original_length: int

    def __post_init__(self) -> None:
        if self.sp_degree < 1:
            raise ValueError("sp_degree must be >= 1")
        granule = plan_granule(self.kind, self.sp_degree)
        if self.padded_length < 1 or self.padded_length % granule != 0:
            need = (f"sp_degree {self.sp_degree}" if self.kind == "contiguous"
                    else f"2 * sp_degree = {granule}")
            raise ValueError(f"length {self.padded_length} not divisible by {need}")
        if not 1 <= self.original_length <= self.padded_length:
            raise ValueError(f"original length {self.original_length} not in "
                             f"1..padded length {self.padded_length}")

    @property
    def num_chunks(self) -> int:
        return plan_granule(self.kind, self.sp_degree)

    @property
    def chunk_size(self) -> int:
        return self.padded_length // self.num_chunks

    @property
    def assignments(self) -> tuple[tuple[int, ...], ...]:
        """Per rank, the chunks it owns in position order."""
        last = self.num_chunks - 1
        return tuple((r,) if self.kind == "contiguous" else (r, last - r)
                     for r in range(self.sp_degree))

    @property
    def local_length(self) -> int:
        return self.padded_length // self.sp_degree

    def chunk_positions(self, chunk: int) -> np.ndarray:
        start = chunk * self.chunk_size
        return np.arange(start, start + self.chunk_size, dtype=np.int64)

    def rank_positions(self, rank: int) -> np.ndarray:
        """Global positions of a rank's rows (read-only, built once per plan)."""
        return self._rank_positions[rank]

    @cached_property
    def _rank_positions(self) -> tuple[np.ndarray, ...]:
        built = []
        for chunks in self.assignments:
            positions = np.concatenate([self.chunk_positions(c) for c in chunks])
            positions.flags.writeable = False
            built.append(positions)
        return tuple(built)

    def group_positions(self, ranks: tuple[int, ...]) -> np.ndarray:
        """Sorted global positions of a group of ranks' rows (read-only, built
        once per group and plan; a group of one holds its rank's positions)."""
        return self._group(ranks)[0]

    def group_span(self, ranks: tuple[int, ...]) -> tuple[int, int]:
        """Least and greatest of ``group_positions(ranks)``, cached with them."""
        return self._group(ranks)[1]

    def _group(self, ranks: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, int]]:
        entry = self._groups.get(ranks)
        if entry is None:
            if len(ranks) == 1:
                positions = self.rank_positions(ranks[0])  # ascending already
            else:
                positions = np.sort(np.concatenate([self.rank_positions(r) for r in ranks]))
                positions.flags.writeable = False
            entry = self._groups[ranks] = (positions, (int(positions[0]), int(positions[-1])))
        return entry

    @cached_property
    def _groups(self) -> dict[tuple[int, ...], tuple[np.ndarray, tuple[int, int]]]:
        return {}

    def rank_of_chunk(self, chunk: int) -> int:
        if not 0 <= chunk < self.num_chunks:
            raise ValueError(f"chunk {chunk} not assigned")
        return chunk if self.kind == "contiguous" else min(chunk, self.num_chunks - 1 - chunk)

    def shard(self, array: np.ndarray, axis: int = 0) -> list[np.ndarray]:
        """Split a global array (padded length along ``axis``) into rank shards."""
        if array.shape[axis] != self.padded_length:
            raise ValueError(
                f"axis {axis} has length {array.shape[axis]}, "
                f"expected padded length {self.padded_length}"
            )
        return [np.take(array, self.rank_positions(r), axis=axis) for r in range(self.sp_degree)]

    def gather(self, shards, axis: int = 0, trim: bool = True) -> np.ndarray:
        """Inverse of shard: reassemble global order, dropping dummy padding.

        Every shard must have the first one's shape, with the local length
        along ``axis``.
        """
        if len(shards) != self.sp_degree:
            raise ValueError(f"expected {self.sp_degree} shards, got {len(shards)}")
        shape = list(shards[0].shape)
        shape[axis] = self.local_length
        expected = tuple(shape)
        shape[axis] = self.padded_length
        out = np.empty(shape, dtype=shards[0].dtype)
        for rank, shard in enumerate(shards):
            if shard.shape != expected:
                raise ValueError(f"rank {rank} shard has shape {shard.shape}, expected {expected}")
            idx = [slice(None)] * out.ndim
            idx[axis] = self.rank_positions(rank)
            out[tuple(idx)] = shard
        if trim and self.original_length < self.padded_length:
            idx = [slice(None)] * out.ndim
            idx[axis] = slice(0, self.original_length)
            out = out[tuple(idx)]
        return out


def plan_granule(shard_kind: str, sp: int) -> int:
    """Token multiple a plan's length needs: one chunk per rank, or two for zigzag."""
    return sp if shard_kind == "contiguous" else 2 * sp


def padded_length(shard_kind: str, sp: int, length: int) -> int:
    """Least multiple of the plan granule that is >= length, and at least one granule."""
    granule = plan_granule(shard_kind, sp)
    return max(granule, -(-length // granule) * granule)


# ---------------------------------------------------------------------------
# Stage 1: frame distribution and the deterministic encoder stub
# ---------------------------------------------------------------------------

def distribute_images(batch, sp_degree: int) -> list[list[tuple[int, int]]]:
    """Split the batch's frames (in sample order) across the SP group.

    Returns, per rank, a list of (sample_index, frame_id).  Counts differ by
    at most one; the first ``total % sp`` ranks take the extra frame.
    """
    if sp_degree < 1:
        raise ValueError("sp_degree must be >= 1")
    frames = [
        (si, element.frame_id)
        for si, sample in enumerate(batch)
        for element in sample.elements
        if isinstance(element, ImagePlaceholder)
    ]
    total = len(frames)
    base, extra = divmod(total, sp_degree)
    out: list[list[tuple[int, int]]] = []
    cursor = 0
    for rank in range(sp_degree):
        take = base + (1 if rank < extra else 0)
        out.append(frames[cursor:cursor + take])
        cursor += take
    return out


def encode_images_stub(frame_ids, tokens_per_frame: int, hidden: int) -> dict[int, np.ndarray]:
    """Deterministic pseudo-encoder: embeddings depend only on the frame id.

    The same frame encodes identically no matter which rank processes it,
    which is what makes the stage-2 global gather location-independent.
    """
    if tokens_per_frame < 1:
        raise ValueError("tokens_per_frame must be >= 1")
    out = {}
    for frame_id in frame_ids:
        rng = np.random.default_rng([_VISION_STUB_SEED, int(frame_id)])
        out[frame_id] = rng.standard_normal((tokens_per_frame, hidden))
    return out


def text_embedding_stub(token_ids, hidden: int) -> np.ndarray:
    """Deterministic per-token-id embeddings for text rows."""
    rows = np.empty((len(token_ids), hidden))
    for i, token_id in enumerate(token_ids):
        rng = np.random.default_rng([_TEXT_STUB_SEED, int(token_id)])
        rows[i] = rng.standard_normal(hidden)
    return rows


def encode_batch(batch, tokens_per_frame: int, hidden: int,
                 assignments=None) -> list[EncodedPiece]:
    """Encode every element of the batch into pieces carrying sample order.

    ``assignments`` (from distribute_images) only decides where encoding
    would run; it never changes the produced embeddings.
    """
    frame_ids = [fid for sample in batch for fid in sample.frame_ids()]
    frame_rows = encode_images_stub(frame_ids, tokens_per_frame, hidden)
    pieces = []
    for si, sample in enumerate(batch):
        for ei, element in enumerate(sample.elements):
            if isinstance(element, ImagePlaceholder):
                pieces.append(
                    EncodedPiece(si, ei, KIND_VISION, frame_rows[element.frame_id])
                )
            else:
                pieces.append(
                    EncodedPiece(
                        si, ei, KIND_TEXT, text_embedding_stub([element.token_id], hidden)
                    )
                )
    return pieces


# ---------------------------------------------------------------------------
# Stage 2: global aggregation, dummy padding and the zigzag plan
# ---------------------------------------------------------------------------

def globalize_and_pad(pieces, mesh: DeviceMesh) -> tuple[EncodedSequence, ShardPlan]:
    """Aggregate encoded pieces into one flat padded sequence plus its plan.

    Pieces are reassembled in (sample, element) order regardless of where
    they were encoded; dummy zero rows are appended at the end until the
    length divides 2 x the world size, with loss_mask false on every dummy.
    """
    ordered = sorted(pieces, key=lambda p: (p.sample_index, p.element_index))
    if not ordered:
        raise ValueError("cannot globalize an empty batch")
    hidden = ordered[0].embeddings.shape[1]
    rows = np.concatenate([p.embeddings for p in ordered], axis=0)
    kinds = np.concatenate(
        [np.full(p.embeddings.shape[0], p.kind, dtype=np.uint8) for p in ordered]
    )
    original = rows.shape[0]
    padded = padded_length("zigzag", mesh.world_size, original)
    if padded > original:
        rows = np.concatenate([rows, np.zeros((padded - original, hidden))], axis=0)
        kinds = np.concatenate(
            [kinds, np.full(padded - original, KIND_DUMMY, dtype=np.uint8)]
        )
    encoded = EncodedSequence(
        embeddings=rows,
        kinds=kinds,
        loss_mask=kinds == KIND_TEXT,
    )
    plan = ShardPlan("zigzag", mesh.world_size, padded, original)
    return encoded, plan


# ---------------------------------------------------------------------------
# Causal workload accounting over chunked plans
# ---------------------------------------------------------------------------

def _chunk_pair_tally(plan: ShardPlan) -> list[tuple[int, int]]:
    """Per-rank (full, partial) counts of (query-chunk, key-chunk) pairs.

    Every rank sees every key chunk over the ring.  Chunks are equal and
    position-ordered, so the class follows from the indices: key chunk kc
    against query chunk qc is masked when kc > qc and full when kc < qc;
    the diagonal is partial, except that a one-position chunk is full.
    """
    tally = []
    for chunks in plan.assignments:
        full = sum(chunks)  # query chunk qc has qc key chunks below it
        diagonal = len(chunks)
        tally.append((full + diagonal, 0) if plan.chunk_size == 1 else (full, diagonal))
    return tally


def chunk_pair_counts(plan: ShardPlan) -> list[int]:
    """Per-rank count of unmasked (query-chunk, key-chunk) pairs."""
    return [full + partial for full, partial in _chunk_pair_tally(plan)]


def chunk_workload_units(plan: ShardPlan) -> list[int]:
    """Per-rank causal compute in triangle units.

    A fully unmasked chunk pair costs 2 units, the partially masked diagonal
    pair costs 1, a masked pair costs 0; this makes the contiguous-sharding
    imbalance exact: rank i carries 2i+1 units (2i+2 when every chunk is a
    single position, whose diagonal pair is full).
    """
    return [2 * full + partial for full, partial in _chunk_pair_tally(plan)]


# ---------------------------------------------------------------------------
# Workload sample files (no real video decoding)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleSpec:
    """One workload sample: how many frames and how many text tokens."""

    sample_id: int
    num_frames: int
    num_text_tokens: int


def load_samples(path) -> list[SampleSpec]:
    """Parse a sample file: one `sample_id num_frames num_text_tokens` per line.

    Blank lines and `#` comments are ignored.  The file must hold at least
    one frame or text token: a workload with no token has no compute to
    balance.
    """
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 'sample_id frames text_tokens', got {raw!r}"
                )
            try:
                sid, frames, text = (int(p) for p in parts)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer field in {raw!r}") from exc
            if frames < 0 or text < 0:
                raise ValueError(f"{path}:{lineno}: counts must be >= 0")
            samples.append(SampleSpec(sid, frames, text))
    if not any(s.num_frames or s.num_text_tokens for s in samples):
        raise ValueError(f"{path}: holds no frame and no text token")
    return samples


def build_sequences(samples) -> list[MultimodalSequence]:
    """Materialize deterministic multimodal sequences from sample specs.

    Text token ids derive from the sample id; frame ids are numbered by a
    running counter over the samples in file order.  The same workload file
    always replays to the same batch, but reordering its samples changes
    the frame ids.
    """
    sequences = []
    next_frame_id = 0
    for spec in samples:
        elements: list = []
        for _ in range(spec.num_frames):
            elements.append(ImagePlaceholder(next_frame_id))
            next_frame_id += 1
        for i in range(spec.num_text_tokens):
            elements.append(TextToken((spec.sample_id * 10007 + i) % _TEXT_VOCAB))
        sequences.append(MultimodalSequence(spec.sample_id, tuple(elements)))
    return sequences
