"""Group definition files and the bundled catalogue.

The file format is line oriented, one group per file, ``#`` comments:

    name A5               identifier (must match the file stem)
    perm 5                permutation group on 5 points, or:
    mat 3 2 2             matrix group: p k n over F_{p^k}, n x n matrices
    poly 2 2 1            ascending coefficients of the field modulus
    action vectors        "vectors" or "projective" (mat groups)
    direct A B            product expressions referencing other entries
    central M C           + paired "zm"/"zc" element lines
    fiber A B Q           + "epia"/"epib" generator-image lines
    gen (1 2 3)(4 5)      one generator per line (cycles or matrix entries)
    expect order 60       validated when the entry is built

Points are 1-based in files.  Element payloads inside product expressions
("zm perm (1 3)(2 4)", "zm mat 4 0 0 4") are resolved against the referenced
group when the entry is built, since degrees of matrix realizations are not
known at parse time.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .constructions import (CentralProduct, MatrixGroupSpec, central_product,
                            check_matrix, direct_product, fiber_product,
                            field_order, matrix_to_perm,
                            perm_from_matrix_group)
from .cyclotomic import _is_input_prime
from .errors import (ChardegError, GroupTooLargeError, ParseError,
                     ValidationError)
from .groups import (Group, center, conjugacy_classes, is_perfect, is_solvable,
                     quotient_group)
from .perms import format_cycles, parse_cycles

CORPUS_ENV_VAR = "CHARDEG_CORPUS"

EXPECT_KEYS = ("order", "center", "center_cyclic", "perfect", "solvable",
               "degrees", "quotient_center_sizes")
# the kind of group a kind-specific line belongs to, after its kind line
LINE_KINDS = {"poly": "mat", "action": "mat", "zm": "central",
              "zc": "central", "epia": "fiber", "epib": "fiber"}
SINGLE_LINES = ("name", "poly", "action")  # at most one of each per file


@dataclass
class GroupSpec:
    """Parsed group definition; building and validation happen later."""

    name: str | None = None
    kind: str | None = None  # perm | mat | direct | central | fiber
    degree: int | None = None
    perm_gens: list = dc_field(default_factory=list)
    matrix: MatrixGroupSpec | None = None  # for kind "mat"
    refs: tuple = ()  # referenced entry names for product expressions
    zm: list = dc_field(default_factory=list)  # ("perm"|"mat", payload) pairs
    zc: list = dc_field(default_factory=list)
    # epia, epib: cycle strings, one per generator of the first, second factor
    epia: list = dc_field(default_factory=list)
    epib: list = dc_field(default_factory=list)
    expect: dict = dc_field(default_factory=dict)


def parse_group_file(text: str) -> GroupSpec:
    spec = GroupSpec()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        directive, rest = parts[0], parts[1].strip() if len(parts) > 1 else ""
        try:
            if directive in SINGLE_LINES and directive in seen:
                raise ValueError(f"second {directive} line")
            seen.add(directive)
            if LINE_KINDS.get(directive, spec.kind) != spec.kind:
                raise ValueError(f"{directive} line outside a "
                                 f"{LINE_KINDS[directive]} group")
            if spec.kind is not None and directive in (
                    "perm", "mat", "direct", "central", "fiber"):
                raise ValueError(
                    f"second definition line: {directive} after {spec.kind}")
            if directive == "name":
                spec.name = _parse_identifier(rest)
            elif directive == "perm":
                spec.kind, spec.degree = "perm", int(rest)
                if spec.degree < 1:
                    raise ValueError("degree must be positive")
            elif directive == "mat":
                spec.kind = "mat"
                p, k, n = (int(x) for x in rest.split())
                if not (_is_input_prime(p) and k >= 1 and n >= 1):
                    raise ValueError("mat needs p k n with p a prime below "
                                     f"2^31, k >= 1 and n >= 1, got {rest!r}")
                field_order(p, k)  # refuses a field too large for its tables
                spec.matrix = MatrixGroupSpec(p, k, n, generators=[])
            elif directive == "poly":
                spec.matrix.poly = tuple(int(x) for x in rest.split())
            elif directive == "action":
                if rest not in ("vectors", "projective"):
                    raise ValueError(f"unknown action {rest!r}")
                spec.matrix.action = rest
            elif directive in ("direct", "central", "fiber"):
                spec.kind = directive
                spec.refs = tuple(_parse_identifier(x) for x in rest.split())
                want = 3 if directive == "fiber" else 2
                if len(spec.refs) != want:
                    raise ValueError(f"{directive} takes {want} group names")
            elif directive == "gen":
                if spec.kind == "perm":
                    spec.perm_gens.append(parse_cycles(rest, spec.degree))
                elif spec.kind == "mat":
                    m = spec.matrix
                    mat = tuple(int(x) for x in rest.split())
                    check_matrix(mat, field_order(m.p, m.k), m.n)
                    m.generators.append(mat)
                else:
                    raise ValueError("gen line outside perm/mat group")
            elif directive in ("zm", "zc"):
                payload_kind, payload = rest.split(None, 1)
                if payload_kind not in ("perm", "mat"):
                    raise ValueError("zm/zc payload must be 'perm' or 'mat'")
                getattr(spec, directive).append(
                    (payload_kind, _normalize_ws(payload)))
            elif directive in ("epia", "epib"):
                getattr(spec, directive).append(_normalize_ws(rest))
            elif directive == "expect":
                key, value = _parse_expect(rest)
                if key in spec.expect:
                    raise ValueError(f"second expect {key} line")
                spec.expect[key] = value
            else:
                raise ValueError(f"unknown directive {directive!r}")
        except (ValueError, IndexError, ParseError) as exc:
            raise ParseError(str(exc), line=lineno)
        except GroupTooLargeError as exc:
            raise GroupTooLargeError(f"line {lineno}: {exc}")

    if spec.name is None:
        raise ParseError("missing name line")
    if spec.kind is None:
        raise ParseError(f"group {spec.name!r} has no definition line")
    if spec.kind == "mat":
        if not spec.matrix.generators:
            raise ParseError(f"matrix group {spec.name!r} has no generators")
        spec.matrix.name = spec.name
    return spec


def _parse_identifier(s: str) -> str:
    if not re.fullmatch(r"[A-Za-z0-9_.]+", s):
        raise ValueError(f"bad identifier {s!r}")
    return s


def _normalize_ws(s: str) -> str:
    return " ".join(s.split())


def _parse_expect(rest: str):
    parts = rest.split(None, 1)
    key = parts[0]
    value = parts[1].strip() if len(parts) > 1 else ""
    if key not in EXPECT_KEYS:
        raise ValueError(f"unknown expect key {key!r}")
    if key in ("order", "center"):
        return key, int(value)
    if key in ("center_cyclic", "perfect", "solvable"):
        if value not in ("true", "false"):
            raise ValueError(f"expect {key} takes true/false")
        return key, value == "true"
    return key, tuple(int(x) for x in value.split(","))


def serialize_group_spec(spec: GroupSpec) -> str:
    lines = [f"name {spec.name}"]
    if spec.kind == "perm":
        lines.append(f"perm {spec.degree}")
        for g in spec.perm_gens:
            lines.append(f"gen {format_cycles(g)}")
    elif spec.kind == "mat":
        m = spec.matrix
        lines.append(f"mat {m.p} {m.k} {m.n}")
        if m.poly is not None:
            lines.append("poly " + " ".join(str(c) for c in m.poly))
        lines.append(f"action {m.action}")
        for g in m.generators:
            lines.append("gen " + " ".join(str(x) for x in g))
    else:
        lines.append(f"{spec.kind} " + " ".join(spec.refs))
        for pk, payload in spec.zm:
            lines.append(f"zm {pk} {payload}")
        for pk, payload in spec.zc:
            lines.append(f"zc {pk} {payload}")
        for s in spec.epia:
            lines.append(f"epia {s}")
        for s in spec.epib:
            lines.append(f"epib {s}")
    for key in EXPECT_KEYS:
        if key in spec.expect:
            value = spec.expect[key]
            if isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, tuple):
                rendered = ",".join(str(x) for x in value)
            else:
                rendered = str(value)
            lines.append(f"expect {key} {rendered}")
    return "\n".join(lines) + "\n"


@dataclass
class CatalogueEntry:
    name: str
    spec: GroupSpec
    group: Group
    construction: CentralProduct | None = None  # for central products


class Catalogue:
    """Lazy, validated view of a corpus directory.

    Entries are built (and their expected blocks checked) on first access;
    ``load_all`` materializes everything in lexicographic name order.
    """

    def __init__(self, path: str | Path | None = None):
        if path is None:
            path = os.environ.get(CORPUS_ENV_VAR) or default_corpus_path()
        self.path = Path(path)
        if not self.path.is_dir():
            raise ValidationError(f"corpus directory {self.path} not found")
        self._specs: dict[str, GroupSpec] = {}
        self._entries: dict[str, CatalogueEntry] = {}
        self._building: set[str] = set()
        for file in sorted(self.path.glob("*.grp")):
            try:
                spec = parse_group_file(file.read_text())
                if spec.name != file.stem:
                    raise ValidationError(
                        f"name {spec.name!r} does not match file stem")
            except ChardegError as exc:  # the user named a group, not a file
                exc.args = (f"{file.name}: {exc}",)
                raise
            self._specs[spec.name] = spec

    def names(self) -> list[str]:
        return sorted(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def entry(self, name: str) -> CatalogueEntry:
        if name in self._entries:
            return self._entries[name]
        if name not in self._specs:
            raise ValidationError(f"no catalogue entry named {name!r}")
        if name in self._building:
            raise ValidationError(f"circular product expression at {name!r}")
        self._building.add(name)
        try:
            entry = self.build_spec(self._specs[name])
        finally:
            self._building.discard(name)
        self._entries[name] = entry
        return entry

    def group(self, name: str) -> Group:
        return self.entry(name).group

    def load_all(self) -> list[CatalogueEntry]:
        return [self.entry(name) for name in self.names()]

    def build_spec(self, spec: GroupSpec) -> CatalogueEntry:
        """Build and validate a spec, from the corpus or outside it
        (references in product expressions resolve against this catalogue).

        An error raised on the way names the entry it arose in, once: one
        raised while building a referenced entry keeps that entry's name.
        """
        try:
            entry = self._build(spec)
            _validate_entry(entry)
        except ChardegError as exc:
            if not getattr(exc, "entry", None):
                exc.entry = spec.name
                exc.args = (f"{spec.name}: {exc}",)
            raise
        return entry

    def _build(self, spec: GroupSpec) -> CatalogueEntry:
        if spec.kind == "perm":
            group = Group(spec.perm_gens, spec.degree, name=spec.name)
            return CatalogueEntry(spec.name, spec, group)
        if spec.kind == "mat":
            group = perm_from_matrix_group(spec.matrix)
            return CatalogueEntry(spec.name, spec, group)
        if spec.kind == "direct":
            a, b = (self.entry(r).group for r in spec.refs)
            return CatalogueEntry(
                spec.name, spec, direct_product(a, b, name=spec.name))
        if spec.kind == "central":
            m_entry, c_entry = (self.entry(r) for r in spec.refs)
            zm = [self._element_payload(m_entry, pk, payload)
                  for pk, payload in spec.zm]
            zc = [self._element_payload(c_entry, pk, payload)
                  for pk, payload in spec.zc]
            cp = central_product(m_entry.group, c_entry.group, zm, zc,
                                 name=spec.name)
            return CatalogueEntry(spec.name, spec, cp.group, construction=cp)
        if spec.kind == "fiber":
            a, b, q = (self.entry(r) for r in spec.refs)
            epia = [self._element_payload(q, "perm", s) for s in spec.epia]
            epib = [self._element_payload(q, "perm", s) for s in spec.epib]
            group = fiber_product(a.group, b.group, epia, epib, q.group,
                                  name=spec.name)
            return CatalogueEntry(spec.name, spec, group)
        raise ValidationError(f"unknown kind {spec.kind!r}")

    def _element_payload(self, entry: CatalogueEntry, payload_kind: str,
                         payload: str):
        try:
            if payload_kind == "perm":
                return parse_cycles(payload, entry.group.degree)
            mat = tuple(int(x) for x in payload.split())
        except ValueError as exc:
            raise ParseError(f"{payload_kind} {payload!r}: {exc}")
        if entry.spec.kind != "mat":
            raise ValidationError(
                f"matrix payload against non-matrix group {entry.name}")
        return matrix_to_perm(entry.spec.matrix, mat)


def _validate_entry(entry: CatalogueEntry) -> None:
    """Check the cheap expected values: everything except degree multisets,
    which need a character table.  Those are checked neither here nor by the
    check suite, only by tests/test_corpusio.py."""
    expect = entry.spec.expect
    g = entry.group
    if "order" in expect and g.order != expect["order"]:
        raise ValidationError(
            f"order {g.order} != expected {expect['order']}")
    if "center" in expect or "center_cyclic" in expect:
        # the center is the union of the size-1 classes: its order is their
        # number, and it is cyclic iff one of them has that order
        cd = conjugacy_classes(g)
        orders = [o for o, s in zip(cd.orders, cd.sizes) if s == 1]
        if "center" in expect and len(orders) != expect["center"]:
            raise ValidationError(f"center order {len(orders)} != "
                                  f"expected {expect['center']}")
        cyclic = max(orders) == len(orders)
        if expect.get("center_cyclic", cyclic) != cyclic:
            raise ValidationError(
                f"center is {'' if cyclic else 'not '}cyclic")
    if "quotient_center_sizes" in expect:
        q = quotient_group(g, center(g))
        sizes = tuple(conjugacy_classes(q.group).sizes)
        if sizes != expect["quotient_center_sizes"]:
            raise ValidationError(
                f"central quotient class sizes {sizes} != "
                f"expected {expect['quotient_center_sizes']}")
    if "perfect" in expect and is_perfect(g) != expect["perfect"]:
        raise ValidationError("perfect flag mismatch")
    if "solvable" in expect and is_solvable(g) != expect["solvable"]:
        raise ValidationError("solvable flag mismatch")


def default_corpus_path() -> Path:
    return Path(__file__).parent / "corpus"
