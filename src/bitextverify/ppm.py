"""Adaptive fixed-order context modelling with PPMD probability estimation.

The model keeps occurrence statistics for every context of length 0..max_order
observed during training. Symbols are bytes below ``alphabet_size`` (2..256),
so byte strings work directly as training and scoring input. Prediction backs
off from the longest available context through escape events down to a
uniform order -1 distribution over the whole alphabet.

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

Each text is converted once to ``bytes``; that is also where its symbols are
range-checked, for every caller and either adapt flag. Every context is then a
plain ``bytes`` slice ``seq[j:i]``, and the table is keyed by those slices, while
``contexts()`` and ``stats()`` still speak in int tuples. Each table entry is
a ``[total, counts]`` list, the shape the coders' private overlays use too;
``stats()`` hands out a detached ``ContextStats`` copy of one. ``code_text`` is
the one escape-chain kernel behind ``ideal_bits`` and ``encode``, and
``decode_text`` walks it again for ``decode``; ``_observe`` is the counting
step shared by training and ``ModelOverlay.update``.

Training counts grams before contexts. A position's gram is its symbol and
the up to max_order symbols before it, and each (context, symbol) seen at that
position is a suffix of that gram, its covering gram. ``train_many`` counts
the distinct grams of all its texts, and ``_observe`` walks each one's
contexts once, adding its count. A pair's first occurrence is also the first
occurrence of its covering gram, so walking the grams in first-seen order,
suffixes shortest first, meets each context and each pair first in the order
a symbol-by-symbol walk does: the table, its order and its dump are the same.

Entries are shared, so no entry of total 1 is ever counted into. Training
gives each context seen once the entry ``_ONCE[sym]``, one per symbol, and
its next observation replaces it. A snapshot shares its source's table until
the source trains again, and ``loads`` gives the contexts that list the same
(symbol, count) entries one shared ``[total, counts]`` list; the first
``train_many`` after either copies the table, all but its total-1 entries,
before it writes, so a model never trained again (the CLI's) is never copied.
SHA-256 comes from the built-in module if it can: hashlib maps OpenSSL.

``table_bytes`` marshals a model's table, shared entries once; ``load_table``
rebuilds the model from such a file without ``loads``' parsing, and only from
bytes whose SHA-256 is the digest its caller pins.
"""

from __future__ import annotations

import marshal
import math
import struct
from collections import Counter
from itertools import chain, repeat
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

try:  # hashlib maps OpenSSL's libcrypto; like random.py, try the lean built-in module first
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

DEFAULT_MAX_ORDER = 5
# Scoring records up to max_order + 1 contexts per side byte, training as many per
# byte: a random side at the size cap took 96 MB to score at order 16, 200 MB at 32.
MAX_ORDER = 16
DEFAULT_ALPHABET_SIZE = 256

_MAGIC = b"PPMV1"
_HEADER = struct.Struct(">BIQ")  # max order, alphabet size, context count
_ENTRY = struct.Struct(">IQ")  # one (symbol, count) entry of a dumped context
_pack_entry = _ENTRY.pack


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


def code_text(model: "PpmModel", text: Sequence[int], adapt: bool = True, encoder=None,
              cuts: Sequence[int] | None = None) -> float | list[float]:
    """Code `text` along the PPMD escape chain; returns bits, or feeds `encoder`.

    Per symbol the contexts are walked from the longest to the empty one.
    While the symbol escapes, each context with statistics adds
    log2(den) - log2(num) bits, or passes (start, freq, total) to `encoder`.
    Unseen contexts are free; the uniform order -1 ends the chain. With
    `adapt` on, every context on the chain also counts the symbol in a private
    overlay, in the same pass. A context is coded from the base table on its
    first touch, which the overlay records as the bare symbol, and is copied
    in only on its second, so most contexts of a sentence are never copied.

    With `cuts`, lengths that ascend strictly within 0..len(text), it returns
    the running bits after each cut instead. Coding is causal, so each equals
    code_text of that prefix of `text`, from the same float additions in the
    same order: one walk codes a text and every prefix of it at once.
    """
    seq = model._keys(text)
    d, alphabet, base = model.max_order, model.alphabet_size, model._table
    local: dict = {}  # context -> [total, counts], or the one symbol it has seen
    log2 = math.log2
    uniform = log2(alphabet) - log2(1)
    bits = 0.0
    marks = iter(cuts or ())
    cut, at_cuts = next(marks, -1), []
    for i, sym in enumerate(seq):
        if i == cut:
            at_cuts.append(bits)
            cut = next(marks, -1)
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
                if entry.__class__ is not list:  # second touch: _second_touch, inlined (2-7% faster)
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
    if cuts is None:
        return bits
    if cut == len(seq):
        at_cuts.append(bits)
    if len(at_cuts) != len(cuts):
        raise ValueError(f"cuts must ascend strictly within 0..{len(seq)}, got {cuts!r}")
    return at_cuts


def _second_touch(local: dict, base: dict, ctx: bytes, first: int) -> list:
    """Second touch of `ctx` in the overlay `local`: copy the base counts, then count
    `first`, the bare symbol its first touch recorded; return the new entry."""
    stats = base.get(ctx)
    counts = {} if stats is None else stats[1].copy()
    counts[first] = counts.get(first, 0) + 1
    entry = local[ctx] = [1 if stats is None else stats[0] + 1, counts]
    return entry


def decode_text(model: "PpmModel", length: int, decoder, adapt: bool = True) -> bytes:
    """Decode `length` symbols along `code_text`'s chain; `decoder` has
    `split(total)` -> (target, unit) and `consume(start, freq, unit)`. Each symbol is
    decoded from the longest context that yields it, else the uniform order -1, and
    then, with `adapt` on, counted in every context of its history as `code_text` does."""
    out = bytearray()
    d, alphabet, base = model.max_order, model.alphabet_size, model._table
    local: dict = {}  # context -> [total, counts], or the one symbol it has seen
    for i in range(length):
        hist = bytes(out[i - d if i > d else 0:i])
        for j in range(len(hist) + 1):
            ctx = hist[j:]
            entry = local.get(ctx)
            if entry is None:  # first touch: code from the base table
                entry = base.get(ctx)
                if entry is None or not entry[0]:
                    continue
            elif entry.__class__ is not list:
                entry = _second_touch(local, base, ctx, entry)
            total, counts = entry
            t, r = decoder.split(2 * total)
            esc_start = 2 * total - len(counts)
            if t >= esc_start:
                decoder.consume(esc_start, len(counts), r)
                continue
            start = 0
            for sym, c in counts.items():  # the widths sum to esc_start > t: one breaks
                width = 2 * c - 1
                if t < start + width:
                    break
                start += width
            decoder.consume(start, width, r)
            break
        else:
            sym, r = decoder.split(alphabet)
            decoder.consume(sym, 1, r)
        if adapt:
            for j in range(len(hist) + 1):
                ctx = hist[j:]
                entry = local.get(ctx)
                if entry is None:
                    local[ctx] = sym
                    continue
                if entry.__class__ is not list:
                    entry = _second_touch(local, base, ctx, entry)
                counts = entry[1]
                counts[sym] = counts.get(sym, 0) + 1
                entry[0] += 1
        out.append(sym)
    return bytes(out)


_ONCE: dict = {}  # symbol -> the entry its once-seen contexts share, made when training needs it


def _observe(table: dict, base: dict, runs: dict) -> None:
    """Count each gram's last symbol after each of the gram's suffix contexts,
    shortest first, as often as `runs` maps the gram. A (context, symbol)'s
    first occurrence is its covering gram's, so walking `runs` in first-seen
    order keeps first-observation order. A context missing from `table` starts
    as a copy from `base`, or as the shared `_ONCE[sym]` if counted once. An
    entry of total 1 may be shared, so it is replaced, first symbol first.
    """
    for gram, n in runs.items():
        sym = gram[-1]
        for j in range(len(gram) - 1, -1, -1):
            ctx = gram[j:-1]
            entry = table.get(ctx)
            if entry is None:
                entry = base.get(ctx)
                if entry is None:
                    table[ctx] = [n, {sym: n}] if n > 1 else (
                        _ONCE.get(sym) or _ONCE.setdefault(sym, [1, {sym: 1}]))
                    continue
                entry = table[ctx] = [entry[0], entry[1].copy()]
            total, counts = entry
            if total == 1:
                (first,) = counts
                table[ctx] = [1 + n, {sym: 1 + n} if first == sym else {first: 1, sym: n}]
                continue
            counts[sym] = counts.get(sym, 0) + n
            entry[0] = total + n


class PpmModel:
    """Order-d adaptive context model with PPMD estimation.

    Mutable while training; ``snapshot()`` returns a frozen view that is safe
    to share between any number of concurrent readers. The snapshot shares
    this model's table until this model trains again, when ``train`` copies
    the table first. Adaptive coding never touches a snapshot: ``code_text``
    and ``decode_text`` count each text in a private dict.
    """

    __slots__ = ("max_order", "alphabet_size", "_table", "_frozen", "_hash", "_shared")

    def __init__(self, max_order: int = DEFAULT_MAX_ORDER,
                 alphabet_size: int = DEFAULT_ALPHABET_SIZE):
        if type(max_order) is not int or not 0 <= max_order <= MAX_ORDER:
            raise ValueError(f"max_order must be an integer in 0..{MAX_ORDER}, got {max_order!r}")
        if type(alphabet_size) is not int or not 2 <= alphabet_size <= 256:
            raise ValueError(f"alphabet_size must be an integer in 2..256, got {alphabet_size!r}")
        self.max_order = max_order
        self.alphabet_size = alphabet_size
        self._table: dict = {b"": [0, {}]}  # context -> [total, counts]
        self._frozen = False
        self._hash: bytes | None = None
        self._shared = False  # a snapshot holds _table, or loads shared entries: copy first

    def _keys(self, text: Sequence[int]) -> bytes:
        """`text` as bytes; raises ValueError on a symbol outside the alphabet."""
        alphabet = self.alphabet_size
        try:
            seq = bytes(text)
            if alphabet == 256 or not seq or max(seq) < alphabet:
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
            total, counts = self._table[self._keys(context)]
        except (KeyError, ValueError):  # ValueError: a symbol outside the alphabet
            return None
        return ContextStats(counts.copy(), total)

    def contexts(self) -> Iterator[tuple[int, ...]]:
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
        0..max_order, left to right from an empty history."""
        self.train_many((text,))

    def train_many(self, texts: Iterable[Sequence[int]]) -> int:
        """`train` on each text in turn, history reset per text, so priming on
        several documents is independent of their order; return how many texts
        it trained. Every text passes the alphabet check before anything is
        counted: a ValueError leaves the model as it was."""
        if self._frozen:
            raise FrozenModelError("snapshot is immutable; train a mutable model")
        d, runs, n_texts = self.max_order, Counter(), 0
        for n_texts, text in enumerate(texts, 1):
            seq = self._keys(text)
            n = len(seq)
            runs.update(map(seq.__getitem__,
                            map(slice, chain(repeat(0, d), range(n - d)), range(1, n + 1))))
        self._hash = None
        if self._shared:
            table = self._table
            self._table = {ctx: e if e[0] == 1 else [e[0], e[1].copy()] for ctx, e in table.items()}
            self._shared = False
        _observe(self._table, {}, runs)
        return n_texts

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
        """Private copy-on-write counting layer; its updates never reach this model."""
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
        that breaks what the estimator relies on: max_order at most MAX_ORDER, each
        context at most max_order long and listed once, each symbol in the alphabet
        and listed once per context, each count at least 1."""
        data = bytes(data)  # no copy of bytes; slices of a bytearray cannot be dict keys
        if data[:5] != _MAGIC:
            raise ValueError("not a PPMV1 model dump")
        try:
            max_order, alphabet_size, n_contexts = _HEADER.unpack_from(data, 5)
            pos = first = 5 + _HEADER.size
            model = cls(max_order, alphabet_size)
            table = model._table
            empty = table[b""]  # pre-inserted by __init__
            # per context length: (symbols..., entry count), after the length byte
            heads = [struct.Struct(f">{n}II") for n in range(max_order + 1)]
            entries, entry_size, runs = _ENTRY.iter_unpack, _ENTRY.size, {}
            for _ in range(n_contexts):
                ctx_len = data[pos]
                if ctx_len > max_order:
                    raise ValueError(f"a context of length {ctx_len} exceeds max_order {max_order}")
                head = heads[ctx_len]
                *ctx, n_entries = head.unpack_from(data, pos + 1)
                pos += 1 + head.size
                end = pos + entry_size * n_entries
                if end > len(data):
                    raise struct.error("entries run past the end")
                run, pos = data[pos:end], end
                stats = runs.get(run)  # one [total, counts] per distinct run of entry bytes
                if stats is None:
                    counts = dict(entries(run))
                    if len(counts) != n_entries:
                        raise ValueError(f"context {tuple(ctx)} lists a symbol twice")
                    if 0 in counts.values():
                        raise ValueError(f"context {tuple(ctx)} has a count below 1")
                    stats = runs[run] = [sum(counts.values()), counts]
                try:
                    table[bytes(ctx)] = stats
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
        if len(table) != n_contexts + (table[b""] is empty):
            raise ValueError("corrupt PPMV1 model dump: a context is listed twice")
        symbols = chain.from_iterable(counts for _, counts in runs.values())
        if alphabet_size != 256:  # at 256, bytes() has range-checked every context
            symbols = chain(chain.from_iterable(table), symbols)
        if max(symbols, default=0) >= alphabet_size:
            raise ValueError(f"corrupt PPMV1 model dump: a symbol outside alphabet {alphabet_size}")
        if n_contexts and data[first] == 0:  # the empty context first: dumps() gives data back
            model._hash = sha256(data).digest()[:8]
        model._shared = True  # contexts share entries: train copies the table first
        return model

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path) -> "PpmModel":
        with open(path, "rb") as fh:
            data = fh.read(len(_MAGIC))  # refuse a file that is not a dump before reading on
            return cls.loads(data + fh.read() if data == _MAGIC else data)

    def table_bytes(self) -> bytes:
        """(max_order, alphabet_size, config_hash(), table) in marshal format 4, which
        CPython 3.10-3.14 all read, for load_table. Entries the table shares are
        written once, so a table of a loads() model loads back with its sharing."""
        state = (self.max_order, self.alphabet_size, self.config_hash(), self._table)
        return marshal.dumps(state, 4)

    @classmethod
    def load_table(cls, path, digest: str) -> "PpmModel":
        """The model in the table_bytes() file at `path`, whose SHA-256 must be the hex
        `digest`. Raises ValueError naming `path` on any other bytes, a truncated file
        included, before they are unmarshalled: marshal trusts its input."""
        with open(path, "rb") as fh:
            data = fh.read()
        if sha256(data).hexdigest() != digest:
            raise ValueError(f"{path}: SHA-256 is not the pinned {digest}; the table is damaged")
        max_order, alphabet_size, model_hash, table = marshal.loads(data)
        model = cls(max_order, alphabet_size)
        model._table, model._hash = table, model_hash
        model._shared = True  # contexts share entries, as after loads: train copies the table first
        return model

    def config_hash(self) -> bytes:
        """8-byte digest over the full model state (order, alphabet, statistics):
        the first 8 bytes of the SHA-256 of dumps(). Kept until the next train."""
        if self._hash is None:
            self._hash = sha256(self.dumps()).digest()[:8]
        return self._hash


class ModelOverlay:
    """Copy-on-write counting layer over a base model; the base is never mutated.

    No program path uses it: the bench's per-symbol replay times ``update``."""

    __slots__ = ("base", "_local")

    def __init__(self, base: PpmModel):
        self.base = base
        self._local: dict = {}

    def update(self, history: Sequence[int], symbol: int) -> None:
        d = self.base.max_order
        seq = self.base._keys([*history[max(0, len(history) - d):], symbol])
        _observe(self._local, self.base._table, {seq: 1})
