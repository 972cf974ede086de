"""Trace ingestion and synthetic workload generation.

Trace grammar (line oriented, human writable):

    S <hex-addr>     one persist-causing store (64B-block-aligned address)
    F                epoch boundary / persist fence
    # ...            comment; blank lines ignored

Payloads never appear in trace files: each store's 64-byte payload is
derived deterministically from its ordinal seed, since the simulator
verifies the persist mechanism, not data content.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Union

from .model_core import BLOCK_SIZE, PAGE_SIZE, BlockAddr, MisalignedAddress


@dataclass(frozen=True)
class Store:
    addr: BlockAddr
    payload_seed: int


@dataclass(frozen=True)
class Fence:
    pass


TraceEvent = Union[Store, Fence]


class TraceParseError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse(stream: Union[str, Iterable[str]]) -> List[TraceEvent]:
    """Parse a trace; raises TraceParseError with the offending line number."""
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = list(stream)
    events: List[TraceEvent] = []
    seed = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "F":
            if len(fields) != 1:
                raise TraceParseError(line_no, f"unexpected tokens after F: {line!r}")
            events.append(Fence())
        elif fields[0] == "S":
            if len(fields) != 2:
                raise TraceParseError(line_no, f"expected 'S <hex-addr>', got {line!r}")
            try:
                value = int(fields[1], 16)
            except ValueError:
                raise TraceParseError(line_no, f"bad hex address {fields[1]!r}") from None
            try:
                addr = BlockAddr(value)
            except MisalignedAddress as exc:
                raise TraceParseError(line_no, str(exc)) from None
            events.append(Store(addr, seed))
            seed += 1
        else:
            raise TraceParseError(line_no, f"unknown record {fields[0]!r}")
    return events


def read_text(path: str) -> str:
    """The file's text; a byte that is not UTF-8 raises TraceParseError with its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise TraceParseError(line_no, f"byte {data[exc.start]:#04x} is not UTF-8 text") from None


def read_trace(path: str) -> List[TraceEvent]:
    """Parse the trace file at ``path``; text that is not UTF-8 is a parse error."""
    return parse(read_text(path))


def render(events: Iterable[TraceEvent]) -> str:
    lines = []
    for ev in events:
        if isinstance(ev, Store):
            lines.append(f"S 0x{ev.addr.value:x}")
        else:
            lines.append("F")
    return "\n".join(lines) + ("\n" if lines else "")


# the least valid value of each GenSpec knob
GEN_MINIMUMS = {"store_count": 0, "pages": 1, "run_length": 1, "fence_interval": 0}


@dataclass(frozen=True)
class GenSpec:
    """Synthetic workload knobs.

    ``run_length`` controls spatial locality: consecutive stores stay in
    the same 4KB page for a run, which is what coalescing feeds on.
    ``fence_interval`` inserts an epoch boundary every that many stores
    (0 disables fences).
    """

    store_count: int = 64
    pages: int = 8
    run_length: int = 1
    fence_interval: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in GEN_MINIMUMS.items():
            if getattr(self, name) < least:
                raise ValueError(f"generator spec {name} must be >= {least}, got {getattr(self, name)}")


def generate(spec: GenSpec) -> List[TraceEvent]:
    """Deterministic synthetic trace; same spec (and seed) -> same trace."""
    rng = random.Random(spec.seed)
    stores: List[Store] = []
    while len(stores) < spec.store_count:
        page = rng.randrange(spec.pages)
        start_block = rng.randrange(64)
        for i in range(min(spec.run_length, spec.store_count - len(stores))):
            block = (start_block + i) % 64
            stores.append(Store(BlockAddr(page * PAGE_SIZE + block * BLOCK_SIZE), len(stores)))
    return refence(stores, spec.fence_interval)


def refence(events: Iterable[TraceEvent], fence_interval: int) -> List[TraceEvent]:
    """Strip fences and re-insert one every ``fence_interval`` stores.

    ``generate`` fences its stores with it, and epoch-size sweeps use it to
    replay the same store sequence under different epoch shapes.
    """
    stores = [ev for ev in events if isinstance(ev, Store)]
    if fence_interval <= 0:
        return list(stores)
    out: List[TraceEvent] = []
    for i, store in enumerate(stores):
        if i and i % fence_interval == 0:
            out.append(Fence())
        out.append(store)
    return out


def stores_in(events: Iterable[TraceEvent]) -> List[Store]:
    return [ev for ev in events if isinstance(ev, Store)]
