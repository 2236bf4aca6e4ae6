"""Plain-text state descriptions for the command line.

The format is line oriented: `key = value` assignments, `key:` block
openers whose children are indented deeper, and `#` comments. Leading
tabs are rejected so indentation is always unambiguous. Example::

    kind = mixture
    n = 10
    component:
        weight = 0.5
        z = 0.1
    component:
        weight = 0.5
        z = 0.9
        phi = 1.5707963

Parse errors carry source, line, and column so a bad file points at the
offending character rather than at the parser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import StateSpecError
from .fock import _INPUT_WEIGHT_SUM_TOL, NumberSectorMixture, basis_state, twin_fock
from .separable import (
    MAX_EXPANDED_SIZE,
    MAX_PARTICLES,
    FluctuatingEnsemble,
    NumberDistribution,
    SeparableEnsemble,
    _check_expanded_size,
    _ensemble_from_arrays,
)

_KINDS = ("twin_fock", "coherent_spin", "dicke", "mixture", "fluctuating")
_PURE_KINDS = ("twin_fock", "coherent_spin", "dicke")


@dataclass(frozen=True)
class _Entry:
    key: str
    line: int
    col: int
    value: object  # str for assignments, _Block for nested blocks


@dataclass(frozen=True)
class _Block:
    line: int
    col: int
    entries: tuple

    def scalars(self, key: str) -> list:
        return [e for e in self.entries if e.key == key and isinstance(e.value, str)]

    def blocks(self, key: str) -> list:
        return [e for e in self.entries if e.key == key and isinstance(e.value, _Block)]


def _scan(text: str, source: str) -> list:
    """Strip comments and blanks; return (line_no, indent, content) rows."""
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw:
            col = raw.index("\t") + 1
            raise StateSpecError("tab character; indent with spaces", source, line_no, col)
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped:
            continue
        indent = len(stripped) - len(stripped.lstrip(" "))
        rows.append((line_no, indent, stripped.lstrip(" ")))
    return rows


def _parse_block(rows, start, indent, source, line, col):
    """Parse consecutive rows at exactly `indent`; children go deeper."""
    entries = []
    i = start
    while i < len(rows):
        row_line, row_indent, content = rows[i]
        if row_indent < indent:
            break
        if row_indent > indent:
            raise StateSpecError(
                f"unexpected indent (expected {indent} spaces)",
                source,
                row_line,
                row_indent + 1,
            )
        if content.endswith(":"):
            key = content[:-1].strip()
            if not key.isidentifier():
                raise StateSpecError(f"bad block name {key!r}", source, row_line, 1)
            if i + 1 < len(rows) and rows[i + 1][1] > indent:
                child_indent = rows[i + 1][1]
                block, i = _parse_block(
                    rows, i + 1, child_indent, source, row_line, indent + 1
                )
            else:
                block = _Block(row_line, indent + 1, ())
                i += 1
            entries.append(_Entry(key, row_line, indent + 1, block))
        elif "=" in content:
            key, _, value = content.partition("=")
            key = key.strip()
            value = value.strip()
            if not key.isidentifier():
                raise StateSpecError(f"bad key {key!r}", source, row_line, 1)
            if not value:
                raise StateSpecError(f"missing value for {key!r}", source, row_line, indent + len(key) + 1)
            entries.append(_Entry(key, row_line, indent + 1, value))
            i += 1
        else:
            raise StateSpecError(
                "expected `key = value` or `key:`", source, row_line, indent + 1
            )
    return _Block(line, col, tuple(entries)), i


class _Reader:
    """Typed, position-aware access to one parsed block."""

    def __init__(self, block: _Block, source: str, context: str):
        self.block = block
        self.source = source
        self.context = context
        self._used = set()

    def _single(self, key: str, required: bool):
        hits = [e for e in self.block.entries if e.key == key]
        if len(hits) > 1:
            raise StateSpecError(
                f"duplicate key {key!r}", self.source, hits[1].line, hits[1].col
            )
        if not hits:
            if required:
                raise StateSpecError(
                    f"{self.context} needs {key!r}",
                    self.source,
                    self.block.line,
                    self.block.col,
                )
            return None
        self._used.add(key)
        return hits[0]

    def _scalar(self, key: str, required: bool):
        entry = self._single(key, required)
        if entry is None:
            return None
        if isinstance(entry.value, _Block):
            raise StateSpecError(
                f"{key!r} must be an assignment, not a block",
                self.source,
                entry.line,
                entry.col,
            )
        return entry

    def string(self, key: str, choices=None, required=True, default=None):
        entry = self._scalar(key, required)
        if entry is None:
            return default
        value = entry.value
        if choices is not None and value not in choices:
            raise StateSpecError(
                f"{key!r} must be one of {', '.join(choices)}; got {value!r}",
                self.source,
                entry.line,
                entry.col,
            )
        return value

    def integer(self, key: str, required=True, default=None, minimum=None):
        entry = self._scalar(key, required)
        if entry is None:
            return default
        try:
            value = int(entry.value)
        except ValueError:
            raise StateSpecError(
                f"{key!r} must be an integer; got {entry.value!r}",
                self.source,
                entry.line,
                entry.col,
            ) from None
        if minimum is not None and value < minimum:
            raise StateSpecError(
                f"{key!r} must be >= {minimum}; got {value}",
                self.source,
                entry.line,
                entry.col,
            )
        return value

    def number(self, key: str, required=True, default=None, low=None, high=None):
        entry = self._scalar(key, required)
        if entry is None:
            return default
        try:
            value = float(entry.value)
        except ValueError:
            raise StateSpecError(
                f"{key!r} must be a number; got {entry.value!r}",
                self.source,
                entry.line,
                entry.col,
            ) from None
        if not math.isfinite(value):
            raise StateSpecError(
                f"{key!r} must be finite", self.source, entry.line, entry.col
            )
        if (low is not None and value < low) or (high is not None and value > high):
            raise StateSpecError(
                f"{key!r} must lie in [{low}, {high}]; got {value}",
                self.source,
                entry.line,
                entry.col,
            )
        return value

    def child_blocks(self, key: str) -> list:
        self._used.add(key)
        return self.block.blocks(key)

    def finish(self):
        """Reject unknown keys so typos fail loudly."""
        for entry in self.block.entries:
            if entry.key not in self._used:
                raise StateSpecError(
                    f"unknown key {entry.key!r} in {self.context}",
                    self.source,
                    entry.line,
                    entry.col,
                )


@dataclass(frozen=True)
class StateSpec:
    """A validated state description, ready to build."""

    kind: str
    source: str
    params: dict

    def build(self):
        """Construct the described state. Basis states (twin_fock, dicke)
        are FockVectors, held as amplitude rows. The coherent kinds are held
        as their product components, with no row: a coherent_spin state is
        the one-component SeparableEnsemble, a mixture a SeparableEnsemble,
        and a fluctuating state whose every sector is of a coherent kind (a
        distribution block among them) a FluctuatingEnsemble. A fluctuating
        state that mixes the two is a NumberSectorMixture of FockVector and
        SeparableEnsemble sectors. Parsing has bounded the state to
        MAX_EXPANDED_SIZE amplitudes, so no cap is applied here."""
        p = self.params
        if self.kind == "twin_fock":
            return twin_fock(p["n"])
        if self.kind == "dicke":
            return basis_state(p["n"], p["k"])
        if self.kind == "coherent_spin":
            return _ensemble_from_arrays(p["n"], [1.0], [p["z"]], [p["phi"]])
        if self.kind == "mixture":
            return _ensemble_from_arrays(p["n"], *zip(*p["components"]))
        if self.kind == "fluctuating":
            sectors = [(weight, spec.build()) for weight, spec in p["sectors"]]
            if all(isinstance(sector, SeparableEnsemble) for _, sector in sectors):
                number_weights = tuple((sector.n_total, weight) for weight, sector in sectors)
                return FluctuatingEnsemble(number_weights, {sector.n_total: sector for _, sector in sectors})
            return NumberSectorMixture(tuple(sectors))
        raise AssertionError(f"unreachable kind {self.kind!r}")

    def describe(self) -> str:
        p = self.params
        if self.kind == "twin_fock":
            return f"twin_fock(n={p['n']})"
        if self.kind == "coherent_spin":
            return f"coherent_spin(n={p['n']}, z={p['z']:g}, phi={p['phi']:g})"
        if self.kind == "dicke":
            return f"dicke(n={p['n']}, k={p['k']})"
        if self.kind == "mixture":
            return f"mixture(n={p['n']}, components={len(p['components'])})"
        if self.kind == "fluctuating":
            return f"fluctuating(sectors={len(p['sectors'])})"
        raise AssertionError(f"unreachable kind {self.kind!r}")


def _check_weight_sum(weights, source, line, col, what):
    """Validate the 1e-9 normalization contract, then return the exact
    normalizer so downstream constructors (which are stricter) never see
    the slack."""
    total = float(sum(weights))
    if abs(total - 1.0) > _INPUT_WEIGHT_SUM_TOL:
        raise StateSpecError(
            f"{what} weights sum to {total!r}, expected 1 within 1e-9",
            source,
            line,
            col,
        )
    return total


def _z_phi(reader: _Reader) -> tuple:
    """A coherent spin direction: z in [0, 1] and phi (default 0) wrapped
    into [-pi, pi]."""
    z = reader.number("z", low=0.0, high=1.0)
    phi = reader.number("phi", required=False, default=0.0)
    return z, math.remainder(phi, math.tau)


def _claim_amplitudes(used: int, n: int, blocks, source: str) -> int:
    """`used` plus n + 1 amplitudes for each of `blocks` (the components of
    one sector, or a pure sector's own block), so that K (N + 1) sums over
    a state's sectors; a StateSpecError at the first block that takes the
    sum past MAX_EXPANDED_SIZE."""
    total = used + len(blocks) * (n + 1)
    try:
        _check_expanded_size("the state", total, "K (N + 1) summed over its sectors so far")
    except ValueError as exc:
        block = blocks[(MAX_EXPANDED_SIZE - used) // (n + 1)]
        raise StateSpecError(str(exc), source, block.line, block.col) from None
    return total


def _parse_sector(
    reader: _Reader, source: str, kind: str, n: int, block: _Block
) -> StateSpec:
    """A twin_fock, coherent_spin, dicke or mixture state of n particles, at
    top level or in a sector block; errors not tied to one key point at
    `block`. A mixture holds one coherent spin state per `component:`
    block, its weights renormalized after the 1e-9 check."""
    params: dict = {"n": n}
    if n > MAX_PARTICLES:
        entry = reader.block.scalars("n")[0]
        raise StateSpecError(
            f"'n' must be <= {MAX_PARTICLES} for a {kind} state; got {n}",
            source,
            entry.line,
            entry.col,
        )
    if kind == "twin_fock":
        if n <= 0 or n % 2:
            raise StateSpecError(
                f"twin_fock needs a positive even n; got {n}",
                source,
                block.line,
                block.col,
            )
    elif kind == "coherent_spin":
        params["z"], params["phi"] = _z_phi(reader)
    elif kind == "dicke":
        k = reader.integer("k", minimum=0)
        if k > n:
            raise StateSpecError(
                f"dicke occupation k={k} exceeds n={n}", source, block.line, block.col
            )
        params["k"] = k
    else:
        components = []
        for entry in reader.child_blocks("component"):
            sub = _Reader(entry.value, source, "component")
            weight = sub.number("weight", low=0.0)
            z, phi = _z_phi(sub)
            sub.finish()
            components.append((weight, z, phi))
        if not components:
            raise StateSpecError(
                "mixture needs at least one component block", source, block.line, block.col
            )
        total = _check_weight_sum(
            [w for w, _, _ in components], source, block.line, block.col, "component"
        )
        params["components"] = tuple((w / total, z, phi) for w, z, phi in components)
    return StateSpec(kind, source, params)


def _parse_fluctuating(reader: _Reader, source: str, top: _Block) -> StateSpec:
    dist_blocks = reader.child_blocks("distribution")
    sector_blocks = reader.child_blocks("sector")
    if dist_blocks and sector_blocks:
        raise StateSpecError(
            "give either a distribution or explicit sector blocks, not both",
            source,
            sector_blocks[0].line,
            sector_blocks[0].col,
        )
    if dist_blocks:
        if len(dist_blocks) > 1:
            raise StateSpecError(
                "duplicate distribution block",
                source,
                dist_blocks[1].line,
                dist_blocks[1].col,
            )
        entry = dist_blocks[0]
        sub = _Reader(entry.value, source, "distribution")
        dist_kind = sub.string("kind", choices=("poisson", "binomial", "deterministic"))
        if dist_kind == "poisson":
            make, args = NumberDistribution.poisson, (sub.number("mean", low=0.0),)
        elif dist_kind == "binomial":
            trials = sub.integer("trials", minimum=0)
            prob = sub.number("prob", low=0.0, high=1.0)
            make, args = NumberDistribution.binomial, (trials, prob)
        else:
            make, args = NumberDistribution.deterministic, (sub.integer("n", minimum=0),)
        try:
            number_weights = make(*args).weights()
        except ValueError as exc:  # a support past MAX_PARTICLES or MAX_EXPANDED_SIZE
            raise StateSpecError(str(exc), source, entry.line, entry.col) from None
        sub.finish()
        z, phi = _z_phi(reader)
        reader.finish()
        sectors = tuple(
            (
                weight,
                StateSpec("coherent_spin", source, {"n": n, "z": z, "phi": phi}),
            )
            for n, weight in number_weights
        )
        return StateSpec("fluctuating", source, {"sectors": sectors})
    if not sector_blocks:
        raise StateSpecError(
            "fluctuating state needs a distribution or sector blocks",
            source,
            top.line,
            top.col,
        )
    sectors = []
    seen_numbers = set()
    amplitudes = 0
    for entry in sector_blocks:
        block = entry.value
        sub = _Reader(block, source, "sector")
        weight = sub.number("weight", low=0.0)
        n = sub.integer("n", minimum=0)
        if n in seen_numbers:
            raise StateSpecError(
                f"duplicate sector n={n}", source, block.line, block.col
            )
        seen_numbers.add(n)
        components = block.blocks("component")
        kind = "mixture" if components else sub.string("kind", choices=_PURE_KINDS)
        spec = _parse_sector(sub, source, kind, n, block)
        sub.finish()
        amplitudes = _claim_amplitudes(amplitudes, n, components or [entry], source)
        sectors.append((weight, spec))
    reader.finish()
    total = _check_weight_sum([w for w, _ in sectors], source, top.line, top.col, "sector")
    sectors = [(w / total, spec) for w, spec in sectors]
    return StateSpec("fluctuating", source, {"sectors": tuple(sectors)})


def parse_state_text(text: str, source: str = "<string>") -> StateSpec:
    """Parse a state description from a string. Raises StateSpecError with
    source:line:col positioning on any defect."""
    rows = _scan(text, source)
    if not rows:
        raise StateSpecError("empty state description", source, 1, 1)
    top, consumed = _parse_block(rows, 0, rows[0][1], source, rows[0][0], 1)
    if consumed != len(rows):
        line_no, indent, _ = rows[consumed]
        raise StateSpecError("unexpected dedent", source, line_no, indent + 1)
    reader = _Reader(top, source, "state description")
    kind = reader.string("kind", choices=_KINDS)
    if kind == "fluctuating":
        return _parse_fluctuating(reader, source, top)
    n = reader.integer("n", minimum=0)
    spec = _parse_sector(reader, source, kind, n, top)
    reader.finish()
    _claim_amplitudes(0, n, top.blocks("component") or [top], source)
    return spec


def parse_state_file(path: str) -> StateSpec:
    """Read and parse a state description file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        # a decode error has no strerror: its own text names the byte
        reason = getattr(exc, "strerror", None) or exc
        raise StateSpecError(f"cannot read file: {reason}", str(path), 1, 1) from exc
    return parse_state_text(text, source=str(path))
