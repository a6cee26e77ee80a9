"""GF(2) linear schemes for index coding and their certification.

A scheme assigns L_i bits to message i and transmits composites: each
composite is a set P of messages together with GF(2) rows supported on
the bit columns of P.  The channel carries channel_bits bits per use.

Certification is by ranks.  For X the stack of all composite rows and a
message subset T, the conditional entropy H(X | U_T) equals the rank of
X restricted to the bit columns of the messages outside T.  A user with
side information A and decoding set K (demands D <= K, K disjoint from
A) succeeds when the channel constraint H(X | U_A) <= channel_bits holds
together with, for every J <= K meeting D, the decoding-capacity bound
sum of L_i over J at most kappa_J = H(X | U_{A | K \\ J}) - H(X | U_{A | K}).
Certified schemes operate at zero error, which the decode checks verify
directly.

Each user takes one elimination.  With U the messages outside A | K,
reduce the rows on U's columns, of rank r_U, and keep Z, the K-parts of
the combinations of rows that vanish on U.  Row operations keep the rank
of every column restriction, so H(X | U_{A | K \\ J}) = r_U + rank(Z on
J's columns) and H(X | U_{A | K}) = r_U, hence kappa_J = rank(Z on J's
columns); the channel use H(X | U_A) is the rank of the whole
elimination.  Since kappa_J never exceeds J's bit count and K is itself
one of the J, every bound holds exactly when Z has full column rank on
K.  Z's echelon rows have distinct pivots, so that rank is the number of
rows of Z: one rank per user, not one per subset J.

The same elimination decides zero-error decoding.  Let X be the rows on
the columns of the messages outside A.  A user decodes exactly when
every null vector of X vanishes on D's columns, that is, when each
demanded unit vector e_d lies in X's row space, since the row space is
the annihilator of the null space.  With K = D, a combination of rows
equal to e_d vanishes on U, so e_d lies in the row space exactly when it
lies in the span of Z.  The user therefore decodes exactly when Z spans
D's columns, which is the full-rank test above with K_j = D_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .composite import DecodingChoice, InvalidDecodingSet, _check_choice, check_decoding_set
from .gf2 import Gf2Matrix, echelon, rank_of
from .gf2 import nullspace  # noqa: F401  unused; perfbench/tracing.py wraps icl.schemes.nullspace
from .instance import IndexCodingInstance, UnknownName, require_valid_instance

_ENUM_LIMIT = 20


class EnumerationTooLarge(Exception):
    """Exhaustive decode check would enumerate more than 2^20 inputs."""


@dataclass(frozen=True)
class LinearScheme:
    """msg_bits[i-1] = L_i; each composite is (P, rows over all bit columns)."""

    msg_bits: tuple[int, ...]
    channel_bits: int
    composites: tuple[tuple[frozenset[int], Gf2Matrix], ...]

    @property
    def total_bits(self) -> int:
        return sum(self.msg_bits)

    def offsets(self) -> list[int]:
        off = [0]
        for L in self.msg_bits:
            off.append(off[-1] + L)
        return off

    def global_rows(self) -> list[int]:
        return [row for _, mat in self.composites for row in mat.rows]


def _require_wellformed(scheme: LinearScheme, num_messages: int | None = None) -> None:
    if num_messages is not None and len(scheme.msg_bits) != num_messages:
        raise ValueError(
            f"scheme covers {len(scheme.msg_bits)} messages, instance has {num_messages}"
        )
    if scheme.channel_bits < 1:
        raise ValueError("channel_bits must be a positive integer")
    if any(L < 0 for L in scheme.msg_bits):
        raise ValueError("message bit counts must be nonnegative")
    total = scheme.total_bits
    ids = set(range(1, len(scheme.msg_bits) + 1))
    off = scheme.offsets()
    for P, mat in scheme.composites:
        if not P or not P <= ids:
            raise ValueError(f"composite set {sorted(P)} is not a nonempty message subset")
        if mat.cols != total:
            raise ValueError("composite rows must span all message bit columns")
        support = _col_mask(off, P)
        for row in mat.rows:
            if row & ~support:
                raise ValueError(f"composite {sorted(P)} has a row outside its support")


def _col_mask(off: Sequence[int], messages: Iterable[int]) -> int:
    """Bit columns of the messages, given the scheme's offsets()."""
    mask = 0
    for i in messages:
        mask |= ((1 << (off[i] - off[i - 1])) - 1) << off[i - 1]
    return mask


def _unknown_ids(scheme: LinearScheme, known: Iterable[int]) -> list[int]:
    """The message ids outside known, ascending.

    Raises ValueError for a known id outside 1..n.
    """
    known = tuple(known)
    ids = range(1, len(scheme.msg_bits) + 1)
    for i in known:
        if i not in ids:
            raise ValueError(f"known message id {i!r} is outside 1..{len(ids)}")
    return [i for i in ids if i not in known]


def conditional_entropy(scheme: LinearScheme, known: Iterable[int] = ()) -> int:
    """H(X | U_known) in bits: the rank of X on the unknown bit columns.

    Raises ValueError for a known id outside 1..n.
    """
    _require_wellformed(scheme)
    unknown = _col_mask(scheme.offsets(), _unknown_ids(scheme, known))
    return rank_of(row & unknown for row in scheme.global_rows())


def _eliminate_outside(
    rows: Sequence[int], off: Sequence[int], knows: Iterable[int], K: Iterable[int]
) -> tuple[int, list[int]]:
    """One user's elimination (see the module docstring): H(X | U_A) and Z.

    U is the set of messages outside A = knows and K; Z is a basis of the
    combinations of rows that vanish on U's columns, and holds only K's
    columns.
    """
    total = off[-1]
    kmask = _col_mask(off, K)
    umask = _col_mask(off, set(range(1, len(off))) - set(knows) - set(K))
    # K's columns move above U's.  Echelon rows have distinct lowest set
    # bits, so a combination that takes a row pivoting on U is nonzero on
    # U; the rows pivoting in K's copy therefore span Z.
    basis = echelon((row & umask) | (row & kmask) << total for row in rows)
    return len(basis), [row >> total for c, row in basis.items() if c >= total]


def kappa(
    inst: IndexCodingInstance,
    scheme: LinearScheme,
    user: int,
    J: Iterable[int],
    K: Iterable[int],
) -> int:
    """Decoding capacity available to user (1-based) for message set J."""
    _require_wellformed(scheme, inst.num_messages)
    kset, jset = frozenset(K), frozenset(J)
    check_decoding_set(inst, user, kset)
    spec = inst.users[user - 1]
    if not jset or not jset <= kset or not jset & spec.demands:
        raise InvalidDecodingSet(f"user {user}: need nonempty J <= K meeting D")
    off = scheme.offsets()
    _, Z = _eliminate_outside(scheme.global_rows(), off, spec.knows, kset)
    jmask = _col_mask(off, jset)
    return rank_of(z & jmask for z in Z)


@dataclass(frozen=True)
class SchemeVerdict:
    """Per-user certification outcome.

    decodes[j-1] says user j meets every joint-decoding bound: its Z
    (see the module docstring) has full column rank on K_j.
    """

    channel_use: tuple[int, ...]
    channel_ok: tuple[bool, ...]
    decodes: tuple[bool, ...]
    symmetric_rate: Fraction

    @property
    def passed(self) -> bool:
        return all(self.channel_ok) and all(self.decodes)


def check_scheme(
    inst: IndexCodingInstance,
    scheme: LinearScheme,
    choice: DecodingChoice | None = None,
) -> SchemeVerdict:
    """Certify a scheme against an instance for a decoding choice.

    With choice omitted, K_j = D_j for every user.  The symmetric rate
    is min over demanded messages of L_i, per channel bit.
    """
    require_valid_instance(inst)
    _require_wellformed(scheme, inst.num_messages)
    if choice is None:
        choice = DecodingChoice(tuple(spec.demands for spec in inst.users))
    _check_choice(inst, choice)

    c = scheme.channel_bits
    rows, off = scheme.global_rows(), scheme.offsets()
    channel_use = []
    channel_ok = []
    decodes = []
    for spec, K in zip(inst.users, choice.sets):
        use, Z = _eliminate_outside(rows, off, spec.knows, K)
        channel_use.append(use)
        channel_ok.append(use <= c)
        decodes.append(len(Z) == sum(scheme.msg_bits[i - 1] for i in K))

    demanded = sorted(set().union(*(spec.demands for spec in inst.users)))
    sym = Fraction(min(scheme.msg_bits[i - 1] for i in demanded), c)
    return SchemeVerdict(tuple(channel_use), tuple(channel_ok), tuple(decodes), sym)


def zero_error_decode_check(
    inst: IndexCodingInstance,
    scheme: LinearScheme,
    mode: str = "algebraic",
) -> tuple[bool, ...]:
    """Can each user recover its demanded bits exactly from (X, U_A)?

    "algebraic": a user decodes iff every null-space vector of X
    restricted to its unknown columns vanishes on its demanded columns.
    That holds iff Z, the demanded part of the combinations of rows that
    vanish on the other unknown messages, spans the demanded columns
    (see the module docstring), so this is check_scheme's decodes with
    K_j = D_j and no null-space basis is built.
    "enumerate": exhaust all unknown-message inputs (side information
    fixed to zero, which is lossless for linear X) and confirm X
    determines the demanded bits; refuses above 2^20 inputs.  It runs no
    elimination, so it is the algebraic test's independent check.
    """
    require_valid_instance(inst)
    _require_wellformed(scheme, inst.num_messages)
    if mode not in ("algebraic", "enumerate"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "algebraic":
        return check_scheme(inst, scheme).decodes
    rows, off = scheme.global_rows(), scheme.offsets()
    out = []
    for spec in inst.users:
        unknown = _col_mask(off, _unknown_ids(scheme, spec.knows))
        dmask = _col_mask(off, spec.demands)
        nbits = unknown.bit_count()
        if nbits > _ENUM_LIMIT:
            raise EnumerationTooLarge(f"{nbits} unknown bits exceed 2^{_ENUM_LIMIT}")
        cols = [j for j in range(scheme.total_bits) if unknown >> j & 1]
        seen: dict[tuple[int, ...], int] = {}
        ok = True
        placed = 0
        for u in range(1 << nbits):
            if u:
                # Gray-code walk: step u flips bit ctz(u) of the input.
                placed ^= 1 << cols[(u & -u).bit_length() - 1]
            x = tuple((row & placed).bit_count() & 1 for row in rows)
            fp = placed & dmask
            if seen.setdefault(x, fp) != fp:
                ok = False
                break
        out.append(ok)
    return tuple(out)


def builtin_scheme(name: str) -> LinearScheme:
    """Named builtin schemes; "example2" is the three-composite scheme."""
    if name == "example2":
        composites = (
            (frozenset({1, 3, 4}), Gf2Matrix((0b001101,), 6)),
            (frozenset({2, 4, 5}), Gf2Matrix((0b011010,), 6)),
            (frozenset({1, 2, 6}), Gf2Matrix((0b100011,), 6)),
        )
        return LinearScheme((1, 1, 1, 1, 1, 1), 3, composites)
    raise UnknownName(name)


def parse_scheme(text: str) -> LinearScheme:
    """Parse the plain-text scheme format.

    Lines (blank lines and #-comments ignored):
        channel_bits <c>
        msg_bits <L1> <L2> ...
        composite <i,i,...> row <bits>
    Row bits are written leftmost column first; repeating a composite
    line with the same set appends another row to it.
    """
    channel_bits: int | None = None
    msg_bits: tuple[int, ...] | None = None
    order: list[frozenset[int]] = []
    rows: dict[frozenset[int], list[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "channel_bits" and len(tokens) == 2:
            channel_bits = int(tokens[1])
        elif tokens[0] == "msg_bits":
            msg_bits = tuple(int(t) for t in tokens[1:])
        elif tokens[0] == "composite" and len(tokens) == 4 and tokens[2] == "row":
            P = frozenset(int(t) for t in tokens[1].split(","))
            bits = tokens[3]
            if set(bits) - {"0", "1"}:
                raise ValueError(f"line {lineno}: row must be a 0/1 string")
            value = sum(1 << j for j, ch in enumerate(bits) if ch == "1")
            if P not in rows:
                order.append(P)
                rows[P] = []
            rows[P].append(value)
        else:
            raise ValueError(f"line {lineno}: unrecognized line: {raw!r}")
    if channel_bits is None or msg_bits is None:
        raise ValueError("missing 'channel_bits' or 'msg_bits' line")
    total = sum(msg_bits)
    composites = tuple((P, Gf2Matrix(tuple(rows[P]), total)) for P in order)
    scheme = LinearScheme(msg_bits, channel_bits, composites)
    _require_wellformed(scheme)
    return scheme


def format_scheme(scheme: LinearScheme) -> str:
    """Serialize a scheme in the format parse_scheme reads."""
    _require_wellformed(scheme)
    total = scheme.total_bits
    lines = [
        f"channel_bits {scheme.channel_bits}",
        "msg_bits " + " ".join(str(L) for L in scheme.msg_bits),
    ]
    for P, mat in scheme.composites:
        tag = ",".join(str(i) for i in sorted(P))
        for row in mat.rows:
            bits = "".join("1" if row >> j & 1 else "0" for j in range(total))
            lines.append(f"composite {tag} row {bits}")
    return "\n".join(lines) + "\n"


def embed_composite_allocation(
    num_messages: int,
    channel_bits: int,
    allocation: Mapping[frozenset[int], int],
    msg_bits: Sequence[int] | None = None,
) -> LinearScheme:
    """Build a scheme realizing an integer composite-bit allocation.

    Composite P gets allocation[P] rows, each XORing one fresh bit of
    every message in P, so all rows are linearly independent.  Message
    sizes default to the minimum L_i = sum of allocation[P] over P
    containing i; explicit msg_bits must dominate that minimum.
    """
    ids = set(range(1, num_messages + 1))
    for P, s in allocation.items():
        if not P or not P <= ids:
            raise ValueError(f"allocation set {sorted(P)} is not a nonempty message subset")
        if s < 0:
            raise ValueError("allocation counts must be nonnegative")
    need = [0] * num_messages
    for P, s in allocation.items():
        for i in P:
            need[i - 1] += s
    if msg_bits is None:
        bits = tuple(need)
    else:
        bits = tuple(msg_bits)
        if len(bits) != num_messages:
            raise ValueError("msg_bits must cover every message")
        if any(b < n for b, n in zip(bits, need)):
            raise ValueError("msg_bits must dominate the per-message allocation totals")
    total = sum(bits)
    cursor = LinearScheme(bits, channel_bits, ()).offsets()[:num_messages]
    composites = []
    for P in sorted(allocation, key=lambda s: tuple(sorted(s))):
        s = allocation[P]
        if s == 0:
            continue
        mat_rows = []
        for r in range(s):
            row = 0
            for i in P:
                row |= 1 << (cursor[i - 1] + r)
            mat_rows.append(row)
        for i in P:
            cursor[i - 1] += s
        composites.append((P, Gf2Matrix(tuple(mat_rows), total)))
    scheme = LinearScheme(bits, channel_bits, tuple(composites))
    _require_wellformed(scheme)
    return scheme
