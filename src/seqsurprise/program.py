"""Description programs: operations, short-term memory, replay.

A description program is a flat list of operations that regenerates a
token sequence.  Replay is the mechanical check: it walks the operations,
emits tokens, and validates structure.  Costs are carried on the
operations themselves so a program is self-accounting; the analyzer and
oracle are responsible for charging them correctly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class OpKind(enum.Enum):
    INSTANTIATE = "INSTANTIATE"
    COPY = "COPY"
    INCREMENT = "INCREMENT"
    SPLIT_DIGITS = "SPLIT_DIGITS"
    MIRROR = "MIRROR"
    SEGMENT_START = "SEGMENT_START"


@dataclass(frozen=True)
class Operation:
    """One step of a description.

    args:
        INSTANTIATE: (n,)
        INCREMENT:   (k,)
        SPLIT_DIGITS:(n, path) where path names the internal digit reading
        COPY / MIRROR / SEGMENT_START: ()
    ``free`` marks a charge discharged through short-term memory (or an
    already-established transfer); ``charged_cost`` is then zero.
    """

    kind: OpKind
    args: tuple = ()
    charged_cost: float = 0.0
    free: bool = False

    def __post_init__(self) -> None:
        if self.charged_cost < 0.0 or self.charged_cost != self.charged_cost:
            raise ValueError(f"charged_cost must be finite and >= 0, got {self.charged_cost!r}")
        if self.free and self.charged_cost != 0.0:
            raise ValueError("a free operation cannot carry a charge")

    def label(self) -> str:
        inner = ",".join(str(a) for a in self.args)
        return f"{self.kind.value}({inner})"


class ReplayError(ValueError):
    """Raised when an operation stream fails structural validation."""


@dataclass
class StmState:
    """Bounded memory of recently used operator kinds.

    Slots are ordered by most recent use; when full, the least recently
    used slot is dropped (first in, first out over use order).  Membership
    is exact match on the slot key.
    """

    capacity: int
    slots: list = field(default_factory=list)

    def __contains__(self, item: object) -> bool:
        return item in self.slots

    def touch(self, item: object) -> None:
        if self.capacity <= 0:
            return
        if item in self.slots:
            self.slots.remove(item)
        self.slots.append(item)
        while len(self.slots) > self.capacity:
            self.slots.pop(0)


def stm_key(kind: OpKind, args: tuple = ()) -> tuple:
    """Slot key for an operator use; increments of different step differ."""
    if kind is OpKind.INCREMENT:
        return (kind.value, args[0])
    return (kind.value,)


@dataclass(frozen=True)
class DescriptionProgram:
    """Operations plus the token sequence they reconstruct."""

    ops: tuple[Operation, ...]
    total_cost: float
    reconstructs: tuple[int, ...]

    def __post_init__(self) -> None:
        charged = sum(op.charged_cost for op in self.ops)
        if abs(charged - self.total_cost) > 1e-9:
            raise ValueError(
                f"total_cost {self.total_cost} does not match summed charges {charged}")

    def trace_lines(self) -> list[str]:
        """Line-oriented trace: kind, args, charge, free flag, running total."""
        lines = []
        running = 0.0
        for op in self.ops:
            running += op.charged_cost
            lines.append(
                f"{op.label()} charged={op.charged_cost:.6f} "
                f"free={1 if op.free else 0} total={running:.6f}")
        return lines


def replay(prog: DescriptionProgram) -> list[int]:
    """Regenerate the token sequence from the operations.

    Validates the stream: emissions must be well-formed (no COPY or
    INCREMENT before a first token), a charged fresh instantiation after
    the first token must open a segment, and SEGMENT_START must be
    followed by the instantiation it announces.  The first offending
    operation is named in the error.
    """
    if not prog.ops:
        raise ReplayError("empty program: nothing to replay")
    out: list[int] = []
    pending_segment = False
    for idx, op in enumerate(prog.ops, start=1):
        if pending_segment and op.kind not in (OpKind.INSTANTIATE, OpKind.SPLIT_DIGITS):
            raise ReplayError(f"op {idx}: {op.label()} cannot follow a segment start")
        if op.kind is OpKind.SEGMENT_START:
            if not out:
                raise ReplayError(f"op {idx}: segment start before any token")
            pending_segment = True
            continue
        if op.kind in (OpKind.INSTANTIATE, OpKind.SPLIT_DIGITS):
            if not op.args or not isinstance(op.args[0], int) or op.args[0] < 0:
                raise ReplayError(f"op {idx}: {op.label()} needs a nonnegative token argument")
            if out and not pending_segment and not op.free:
                raise ReplayError(
                    f"op {idx}: {op.label()} starts a new segment without SEGMENT_START")
            out.append(op.args[0])
            pending_segment = False
        elif op.kind is OpKind.COPY:
            if not out:
                raise ReplayError(f"op {idx}: COPY requires a previous token")
            out.append(out[-1])
        elif op.kind is OpKind.INCREMENT:
            if not out:
                raise ReplayError(f"op {idx}: INCREMENT requires a previous token")
            if not op.args or not isinstance(op.args[0], int) or op.args[0] < 1:
                raise ReplayError(f"op {idx}: INCREMENT needs a positive step argument")
            out.append(out[-1] + op.args[0])
        elif op.kind is OpKind.MIRROR:
            if not out:
                raise ReplayError(f"op {idx}: MIRROR requires a previous run of tokens")
            out.extend(out[::-1])
        else:  # pragma: no cover - enum is closed
            raise ReplayError(f"op {idx}: unknown kind {op.kind!r}")
    if pending_segment:
        raise ReplayError(f"op {len(prog.ops)}: dangling segment start at end of program")
    if tuple(out) != prog.reconstructs:
        raise ReplayError(
            f"program replays to {out}, but claims to reconstruct {list(prog.reconstructs)}")
    return out
