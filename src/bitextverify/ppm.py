"""Adaptive fixed-order context modelling with PPMD probability estimation.

The model keeps occurrence statistics for every context of length 0..max_order
observed during training. Symbols are integers below ``alphabet_size``, so byte
strings work directly as training and scoring input. Prediction backs off from
the longest available context through escape events down to a uniform order -1
distribution over the whole alphabet.

The estimator is PPMD: in a context seen T times, a symbol seen c times gets
probability (2c - 1) / (2T) and the escape event gets t / (2T), where t is the
number of distinct symbols seen in that context. These exhaust the probability
mass exactly. ``symbol_probability`` and ``escape_probability`` give them as
exact rationals; the coders work in their integer numerators and
denominators, and floating point enters only when code lengths are summed.

No exclusion sets are applied, counts are never rescaled, and a context that
has never been seen costs nothing to skip (a deterministic escape with
probability 1), so every code length is reproducible from the printed
statistics.

Each text is converted once to its key sequence, ``bytes`` when the alphabet
fits in a byte and a tuple otherwise; that is also where its symbols are
range-checked, for every caller and either adapt flag. Every context is then a
plain slice ``seq[j:i]``, and the table is keyed by those slices, while
``contexts()`` and ``stats()`` still speak in int tuples. Each table entry is
a ``[total, counts]`` list, the shape the coders' private overlays use too;
``stats()`` hands out a detached ``ContextStats`` copy of one. ``code_text`` is
the one escape-chain kernel behind ``ideal_bits`` and ``encode``; ``_observe``
is the counting step shared by training and ``ModelOverlay.update``.

A snapshot shares its source's table until the source trains again: the
first ``train`` after a ``snapshot`` copies the table before it writes, so
taking a snapshot costs no copy, and a model that is never trained again
(the CLI's, a loaded model file's) is never copied at all.
"""

from __future__ import annotations

import hashlib
import math
import struct
from itertools import chain
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_MAX_ORDER = 5
DEFAULT_ALPHABET_SIZE = 256

_MAGIC = b"PPMV1"
_HEADER = struct.Struct(">BIQ")  # max order, alphabet size, context count
_ENTRY = struct.Struct(">IQ")  # one (symbol, count) entry of a dumped context
_pack_entry = _ENTRY.pack

Context = tuple[int, ...]


class FrozenModelError(RuntimeError):
    """Raised when a frozen snapshot is asked to mutate."""


def symbol_probability(c: int, total: int) -> Fraction:
    """PPMD probability (2c-1)/(2T) of a symbol seen c times in a context seen T times."""
    if c < 1 or total < c:
        raise ValueError(f"symbol_probability needs 1 <= c <= T, got c={c}, T={total}")
    from fractions import Fraction
    return Fraction(2 * c - 1, 2 * total)


def escape_probability(t: int, total: int) -> Fraction:
    """PPMD escape probability t/(2T) of a context with t distinct following symbols."""
    if t < 1 or total < t:
        raise ValueError(f"escape_probability needs 1 <= t <= T, got t={t}, T={total}")
    from fractions import Fraction
    return Fraction(t, 2 * total)


class ContextStats(NamedTuple):
    """Counts for one context: c per following symbol, T total, t distinct.

    What ``stats()`` returns: a copy, so changing its counts leaves the model as it was.
    """

    counts: dict[int, int]
    total: int

    @property
    def distinct(self) -> int:
        return len(self.counts)


def _detached(entry: list | None) -> ContextStats | None:
    """A table entry [total, counts] as a ContextStats with its own counts."""
    return None if entry is None else ContextStats(entry[1].copy(), entry[0])


def code_text(model: "PpmModel", text: Sequence[int], adapt: bool = True, encoder=None) -> float:
    """Code `text` along the PPMD escape chain; returns bits, or feeds `encoder`.

    Per symbol the contexts are walked from the longest to the empty one.
    While the symbol escapes, each context with statistics adds
    log2(den) - log2(num) bits, or passes (start, freq, total) to `encoder`.
    Unseen contexts are free; the uniform order -1 ends the chain. With
    `adapt` on, every context on the chain also counts the symbol in a private
    overlay, in the same pass. A context is coded from the base table on its
    first touch, which the overlay records as the bare symbol, and is copied
    in only on its second, so most contexts of a sentence are never copied.
    """
    seq = model._keys(text)
    d, alphabet, base = model.max_order, model.alphabet_size, model._table
    local: dict = {}  # context -> [total, counts], or the one symbol it has seen
    log2 = math.log2
    uniform = log2(alphabet) - log2(1)
    bits = 0.0
    for i, sym in enumerate(seq):
        escaping = True
        for j in range(i - d if i > d else 0, i + 1):
            ctx = seq[j:i]
            entry = local.get(ctx)
            if entry is None:
                if adapt:
                    local[ctx] = sym
                stats = base.get(ctx) if escaping else None
                if stats is None or not stats[0]:
                    continue
                total, counts = stats
                c, t = counts.get(sym), len(counts)
            else:
                if entry.__class__ is not list:  # second touch: copy, then count the first
                    stats = base.get(ctx)
                    counts = {} if stats is None else stats[1].copy()
                    counts[entry] = counts.get(entry, 0) + 1
                    entry = local[ctx] = [1 if stats is None else stats[0] + 1, counts]
                total, counts = entry
                c, t = counts.get(sym), len(counts)
                counts[sym] = 1 if c is None else c + 1
                entry[0] = total + 1
                if not escaping:
                    continue
            if c is None:
                num, start = t, 2 * total - t
            else:
                num, start, escaping = 2 * c - 1, 0, False
                if encoder is not None:
                    for s, n in counts.items():
                        if s == sym:
                            break
                        start += 2 * n - 1
            if encoder is None:
                bits += log2(2 * total) - log2(num)
            else:
                encoder.encode(start, num, 2 * total)
            if not (escaping or adapt):
                break
        if escaping:
            if encoder is None:
                bits += uniform
            else:
                encoder.encode(sym, 1, alphabet)
    return bits


def _observe(table: dict, base: dict, seq, start: int, max_order: int) -> None:
    """Count each symbol seq[i], i >= start, after each of its contexts seq[j:i].

    Contexts go shortest first, so a growing table keeps first-observation
    order. A context missing from `table` starts as a copy from `base`, or empty.
    """
    for i in range(start, len(seq)):
        sym = seq[i]
        for j in range(i, (i - max_order if i > max_order else 0) - 1, -1):
            ctx = seq[j:i]
            entry = table.get(ctx)
            if entry is None:
                entry = base.get(ctx)
                entry = table[ctx] = [0, {}] if entry is None else [entry[0], entry[1].copy()]
            counts = entry[1]
            counts[sym] = counts.get(sym, 0) + 1
            entry[0] += 1


class PpmModel:
    """Order-d adaptive context model with PPMD estimation.

    Mutable while training; ``snapshot()`` returns a frozen view that is safe
    to share between any number of concurrent readers. The snapshot shares
    this model's table until this model trains again, when ``train`` copies
    the table first. Adaptive coding never touches a snapshot: ``code_text``
    and ``decode`` count each text in a private dict.
    """

    __slots__ = ("max_order", "alphabet_size", "_table", "_frozen", "_hash", "_shared")

    def __init__(self, max_order: int = DEFAULT_MAX_ORDER,
                 alphabet_size: int = DEFAULT_ALPHABET_SIZE):
        if not isinstance(max_order, int) or not 0 <= max_order <= 255:
            raise ValueError(f"max_order must be an integer in 0..255, got {max_order!r}")
        if not isinstance(alphabet_size, int) or alphabet_size < 2:
            raise ValueError(f"alphabet_size must be an integer >= 2, got {alphabet_size!r}")
        self.max_order = max_order
        self.alphabet_size = alphabet_size
        self._table: dict = {self._keys(()): [0, {}]}  # context -> [total, counts]
        self._frozen = False
        self._hash: bytes | None = None
        self._shared = False  # a snapshot holds _table: copy it before the next write

    def _keys(self, text: Sequence[int]) -> bytes | Context:
        """`text` as a key sequence; raises ValueError on a symbol outside the alphabet."""
        alphabet = self.alphabet_size
        try:
            seq = bytes(text) if alphabet <= 256 else tuple(text)
            if alphabet == 256 or not seq or (0 <= min(seq) and max(seq) < alphabet):
                return seq
        except ValueError:  # bytes() met a value outside 0..255
            pass
        bad = next(s for s in text if not 0 <= s < alphabet)
        raise ValueError(f"symbol {bad!r} outside alphabet of size {alphabet}")

    @property
    def frozen(self) -> bool:
        return self._frozen

    def stats(self, context: Sequence[int]) -> ContextStats | None:
        """A copy of one context's statistics, or None if it has never been seen."""
        try:
            return _detached(self._table.get(self._keys(context)))
        except ValueError:  # no context holds a symbol outside the alphabet
            return None

    def contexts(self) -> Iterator[Context]:
        """All observed contexts, in first-observation order."""
        return (tuple(ctx) for ctx in self._table)

    def __len__(self) -> int:
        return len(self._table)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PpmModel):
            return NotImplemented
        mine, theirs = (self.max_order, self.alphabet_size), (other.max_order, other.alphabet_size)
        return mine == theirs and self._table == other._table

    def train(self, text: Sequence[int]) -> None:
        """Count each symbol of `text` after each of its contexts of order
        0..max_order, left to right from an empty history.

        Each call is one text: the history never spans calls, so priming on
        several documents is independent of their concatenation order.
        """
        if self._frozen:
            raise FrozenModelError("snapshot is immutable; train a mutable model")
        seq = self._keys(text)
        self._hash = None
        if self._shared:
            table = self._table
            self._table = {ctx: [total, counts.copy()] for ctx, (total, counts) in table.items()}
            self._shared = False
        _observe(self._table, {}, seq, 0, self.max_order)

    def snapshot(self) -> "PpmModel":
        """Frozen view of the current state, safe for shared concurrent scoring.

        It shares this model's table until this model trains again: ``train``
        then copies the table before its first write, so the snapshot never
        changes. Frozen models return themselves.
        """
        if self._frozen:
            return self
        clone = PpmModel(self.max_order, self.alphabet_size)
        clone._table = self._table
        clone._frozen = True
        clone._hash = self._hash
        self._shared = True
        return clone

    def overlay(self) -> "ModelOverlay":
        """Private copy-on-write adaptive view; reads fall through, writes stay local."""
        return ModelOverlay(self)

    # -- serialization ------------------------------------------------------

    def dumps(self) -> bytes:
        """Versioned binary dump; round-trips bit-exactly through loads()."""
        out = bytearray(_MAGIC)
        out += _HEADER.pack(self.max_order, self.alphabet_size, len(self._table))
        for ctx, (_, counts) in self._table.items():
            out += struct.pack(f">B{len(ctx)}II", len(ctx), *ctx, len(counts))
            for s, c in counts.items():
                out += _pack_entry(s, c)
        return bytes(out)

    @classmethod
    def loads(cls, data: bytes) -> "PpmModel":
        """Parse a dump of dumps(). Raises ValueError on a truncated dump, or on one
        that breaks what the estimator relies on: each context at most max_order
        long and listed once, each symbol in the alphabet and listed once per
        context, each count at least 1."""
        if data[:5] != _MAGIC:
            raise ValueError("not a PPMV1 model dump")
        try:
            max_order, alphabet_size, n_contexts = _HEADER.unpack_from(data, 5)
            pos = first = 5 + _HEADER.size
            model = cls(max_order, alphabet_size)
            table = model._table
            empty = table[model._keys(())]  # pre-inserted by __init__
            key = bytes if alphabet_size <= 256 else tuple
            # per context length: (symbols..., entry count), after the length byte
            heads = [struct.Struct(f">{n}II") for n in range(max_order + 1)]
            entry, entries, entry_size = _ENTRY.unpack_from, _ENTRY.iter_unpack, _ENTRY.size
            for _ in range(n_contexts):
                ctx_len = data[pos]
                if ctx_len > max_order:
                    raise ValueError(f"a context of length {ctx_len} exceeds max_order {max_order}")
                head = heads[ctx_len]
                *ctx, n_entries = head.unpack_from(data, pos + 1)
                pos += 1 + head.size
                end = pos + entry_size * n_entries
                if n_entries == 1:  # most contexts of a primed model
                    symbol, total = entry(data, pos)
                    counts = {symbol: total}
                else:
                    if end > len(data):
                        raise struct.error("entries run past the end")
                    counts = dict(entries(data[pos:end]))
                    if len(counts) != n_entries:
                        raise ValueError(f"context {tuple(ctx)} lists a symbol twice")
                    total = sum(counts.values())
                pos = end
                if 0 in counts.values():
                    raise ValueError(f"context {tuple(ctx)} has a count below 1")
                try:
                    table[key(ctx)] = [total, counts]
                except ValueError:  # bytes() met a context symbol above 255
                    raise ValueError(f"context {tuple(ctx)} has a symbol outside alphabet "
                                     f"{alphabet_size}") from None
        except (struct.error, IndexError) as exc:  # IndexError: no length byte left
            raise ValueError("truncated PPMV1 model dump") from exc
        except ValueError as exc:
            raise ValueError(f"corrupt PPMV1 model dump: {exc}") from exc
        if pos != len(data):
            raise ValueError("trailing garbage after PPMV1 model dump")
        # a dump that lists no empty context keeps the pre-inserted one; a repeat loads one fewer
        if len(table) != n_contexts + (table[model._keys(())] is empty):
            raise ValueError("corrupt PPMV1 model dump: a context is listed twice")
        symbols = chain.from_iterable(counts for _, counts in table.values())
        if alphabet_size != 256:  # at 256, bytes() has range-checked every context
            symbols = chain(chain.from_iterable(table), symbols)
        if max(symbols, default=0) >= alphabet_size:
            raise ValueError(f"corrupt PPMV1 model dump: a symbol outside alphabet {alphabet_size}")
        if n_contexts and data[first] == 0:  # the empty context first: dumps() gives data back
            model._hash = hashlib.sha256(data).digest()[:8]
        return model

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path) -> "PpmModel":
        with open(path, "rb") as fh:
            return cls.loads(fh.read())

    def config_hash(self) -> bytes:
        """8-byte digest over the full model state (order, alphabet, statistics):
        the first 8 bytes of the SHA-256 of dumps(). Kept until the next train."""
        if self._hash is None:
            self._hash = hashlib.sha256(self.dumps()).digest()[:8]
        return self._hash


class ModelOverlay:
    """Copy-on-write adaptive layer over a base model; the base is never mutated."""

    __slots__ = ("base", "max_order", "alphabet_size", "_local")

    def __init__(self, base: PpmModel):
        self.base = base
        self.max_order = base.max_order
        self.alphabet_size = base.alphabet_size
        self._local: dict = {}

    def stats(self, context: Sequence[int]) -> ContextStats | None:
        try:
            ctx = self.base._keys(context)
        except ValueError:
            return None
        return _detached(self._local.get(ctx) or self.base._table.get(ctx))

    def update(self, history: Sequence[int], symbol: int) -> None:
        seq = self.base._keys([*history[max(0, len(history) - self.max_order):], symbol])
        _observe(self._local, self.base._table, seq, len(seq) - 1, self.max_order)
