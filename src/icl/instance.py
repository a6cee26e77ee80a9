"""Index coding instances and their side-information digraphs."""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterable


class NotMultipleUnicast(Exception):
    """The operation needs each user to demand exactly one distinct message."""


class UnknownName(Exception):
    """No builtin instance is registered under the requested name."""


@dataclass(frozen=True)
class UserSpec:
    """One receiver: the messages it demands and the ones it already knows."""

    demands: frozenset[int]
    knows: frozenset[int]

    @staticmethod
    def of(demands: Iterable[int], knows: Iterable[int] = ()) -> "UserSpec":
        return UserSpec(frozenset(demands), frozenset(knows))


@dataclass(frozen=True)
class IndexCodingInstance:
    """An index coding problem over messages 1..num_messages.

    channel_bits is the size of one channel use in bits; symmetric rates
    are reported as exact fractions of it.  Construction does not
    validate; validate_instance reports violations as data.
    """

    num_messages: int
    users: tuple[UserSpec, ...]
    channel_bits: int = 1

    @property
    def num_users(self) -> int:
        return len(self.users)

    def message_ids(self) -> range:
        return range(1, self.num_messages + 1)


@dataclass(frozen=True)
class SideInfoGraph:
    """Side-information digraph of a multiple-unicast instance.

    Vertices are the demanded messages; an edge i -> j means the user
    demanding i knows j.  Messages demanded by nobody are not vertices.
    """

    vertices: tuple[int, ...]
    edges: frozenset[tuple[int, int]]


def validate_instance(inst: IndexCodingInstance) -> list[str]:
    """Return all invariant violations of inst, empty when well formed."""
    problems: list[str] = []
    if inst.num_messages < 1:
        problems.append("num_messages must be at least 1")
        return problems
    if inst.channel_bits < 1:
        problems.append("channel_bits must be a positive integer")
    # Ranges, not sets of every id: a short file may declare 10^12 messages.
    referenced: set[int] = set()
    for idx, user in enumerate(inst.users, start=1):
        if not user.demands:
            problems.append(f"user {idx}: empty demand set")
        if user.knows.issuperset(inst.message_ids()):
            problems.append(f"user {idx}: side information covers every message")
        overlap = user.demands & user.knows
        if overlap:
            problems.append(f"user {idx}: demand/side-info overlap {sorted(overlap)}")
        stray = {i for i in user.demands | user.knows if not 1 <= i <= inst.num_messages}
        if stray:
            problems.append(f"user {idx}: message ids out of range {sorted(stray)}")
        referenced |= (user.demands | user.knows) - stray
    orphans = inst.num_messages - len(referenced)
    if orphans:
        first = list(islice((i for i in inst.message_ids() if i not in referenced), 10))
        more = f" and {orphans - len(first)} more" if orphans > len(first) else ""
        problems.append(f"messages referenced by no user: {first}{more}")
    return problems


def require_valid_instance(inst: IndexCodingInstance) -> None:
    """Raise ValueError listing every problem validate_instance finds."""
    problems = validate_instance(inst)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))


def build_side_info_graph(inst: IndexCodingInstance) -> SideInfoGraph:
    """Build the side-information digraph of a multiple-unicast instance.

    Raises NotMultipleUnicast unless every user demands exactly one
    message and no two users demand the same one.
    """
    demanded_by: dict[int, UserSpec] = {}
    for idx, user in enumerate(inst.users, start=1):
        if len(user.demands) != 1:
            raise NotMultipleUnicast(f"user {idx} demands {len(user.demands)} messages")
        (msg,) = user.demands
        if msg in demanded_by:
            raise NotMultipleUnicast(f"message {msg} demanded by more than one user")
        demanded_by[msg] = user
    vertices = tuple(sorted(demanded_by))
    vset = set(vertices)
    edges = frozenset(
        (i, j) for i, user in demanded_by.items() for j in user.knows if j in vset
    )
    return SideInfoGraph(vertices, edges)


_BUILTINS: dict[str, tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]] = {
    # name -> (demand per user, side information per user)
    "example1": (
        (1, 2, 3, 4, 5, 6),
        ((3, 4), (4, 5), (5, 6), (2, 3, 6), (1, 4, 6), (1, 2)),
    ),
    "xor2": ((1, 2), ((2,), (1,))),
}


def builtin_instance(name: str, channel_bits: int = 1) -> IndexCodingInstance:
    """Return a named builtin instance.

    Known names: "example1" (six users, six messages), "xor2" (two users
    knowing each other's message), "no-side-info(K)" for any K >= 1.
    """
    match = re.fullmatch(r"no-side-info\((\d+)\)", name)
    if match:
        k = int(match.group(1))
        if k < 1:
            raise UnknownName(name)
        users = tuple(UserSpec.of({i}) for i in range(1, k + 1))
        return IndexCodingInstance(k, users, channel_bits)
    if name not in _BUILTINS:
        raise UnknownName(name)
    demands, knows = _BUILTINS[name]
    users = tuple(UserSpec.of({d}, a) for d, a in zip(demands, knows))
    return IndexCodingInstance(len(demands), users, channel_bits)


def parse_instance(text: str) -> IndexCodingInstance:
    """Parse the plain-text instance format.

    Lines (blank lines and #-comments ignored):
        messages <N>
        channel_bits <c>          (optional, default 1)
        user <j> demands <i...> knows <i...>
    Users may appear in any order but ids must cover 1..K exactly.
    """
    num_messages: int | None = None
    channel_bits = 1
    users: dict[int, UserSpec] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "messages" and len(tokens) == 2:
            num_messages = int(tokens[1])
        elif tokens[0] == "channel_bits" and len(tokens) == 2:
            channel_bits = int(tokens[1])
        elif tokens[0] == "user":
            m = re.fullmatch(r"user\s+(\d+)\s+demands\s+([\d\s]*?)\s*knows\s*([\d\s]*)", line)
            if not m:
                raise ValueError(f"line {lineno}: malformed user line: {raw!r}")
            uid = int(m.group(1))
            if uid in users:
                raise ValueError(f"line {lineno}: duplicate user id {uid}")
            demands = frozenset(int(t) for t in m.group(2).split())
            knows = frozenset(int(t) for t in m.group(3).split())
            users[uid] = UserSpec(demands, knows)
        else:
            raise ValueError(f"line {lineno}: unrecognized line: {raw!r}")
    if num_messages is None:
        raise ValueError("missing 'messages' line")
    if sorted(users) != list(range(1, len(users) + 1)):
        raise ValueError("user ids must cover 1..K exactly")
    ordered = tuple(users[j] for j in sorted(users))
    return IndexCodingInstance(num_messages, ordered, channel_bits)


def format_instance(inst: IndexCodingInstance) -> str:
    """Serialize an instance in the format parse_instance reads."""
    lines = [f"messages {inst.num_messages}", f"channel_bits {inst.channel_bits}"]
    for idx, user in enumerate(inst.users, start=1):
        demands = " ".join(str(i) for i in sorted(user.demands))
        knows = " ".join(str(i) for i in sorted(user.knows))
        line = f"user {idx} demands {demands} knows"
        if knows:
            line += f" {knows}"
        lines.append(line)
    return "\n".join(lines) + "\n"
