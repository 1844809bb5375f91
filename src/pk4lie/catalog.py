"""Machine-readable catalog: algebras, symplectic rows, structures,
phase-space bracket tables, isomorphism rows and curvature rows.

The data files are line oriented: an entry starts with "[section/id]"
followed by "key: value" lines.  Entries keep their literal text so the
CLI can dump them back byte-identically.  Parsed payloads are built fresh
per entry, which keeps parameters of different entries from interacting:
algebras and phase rows on every call, structures and curvature rows on
the first read of their key (then kept), so that answering one entry
parses one entry.  `load_catalog(check=True)` reads every row to assert it.
"""

from __future__ import annotations

import random
import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from .curvature import Geometry
from .liealg import LieAlgebra4
from .linalg import Mat4, mat_from_cols
from .notation import (
    expand_signs, has_sign_tokens, parse_endo, parse_sym_form, parse_two_form,
    parse_tuple4, parse_vector,
)
from .scalars import (
    DomainUnsatisfiable, Param, ParamDomain, ParseError, Radical, Scalar,
    parse_scalar,
)


class BrokenReference(ParseError):
    pass


class LoadAssertionFailed(ParseError):
    def __init__(self, entry_id: str, check: str):
        self.entry_id = entry_id
        self.check = check
        super().__init__(f"{entry_id}: {check}")


DATA_DIR = Path(__file__).parent / "data"

DATA_FILES = ("algebras.txt", "symplectic.txt", "structures.txt",
              "phase_b.txt", "phase_c.txt", "iso_b.txt", "iso_c.txt",
              "curvature.txt")

_HEADER_RE = re.compile(r"^\[([A-Za-z0-9_/]+)\]\s*$")
_RADICAL_RE = re.compile(r"^w\s*\*\s*w\s*=\s*(.+?)\s+solve\s+([A-Za-z_][A-Za-z0-9_]*)$")


@dataclass
class RawEntry:
    entry_id: str
    fields: Dict[str, str]
    raw: str

    def get(self, key: str, default: str = "") -> str:
        return self.fields.get(key, default)


def parse_entries(text: str, source: str = "") -> List[RawEntry]:
    entries: List[RawEntry] = []
    cur_id = None
    cur_fields: Dict[str, str] = {}
    cur_lines: List[str] = []

    def flush():
        if cur_id is not None:
            entries.append(RawEntry(cur_id, dict(cur_fields),
                                    "\n".join(cur_lines).rstrip() + "\n"))

    for line in text.splitlines():
        stripped = line.strip()
        m = _HEADER_RE.match(stripped)
        if m:
            flush()
            cur_id = m.group(1)
            cur_fields = {}
            cur_lines = [stripped]
            continue
        if cur_id is None:
            if stripped and not stripped.startswith("#"):
                raise ParseError(f"{source}: content before first entry: {line!r}")
            continue
        if not stripped or stripped.startswith("#"):
            continue
        if ":" not in stripped:
            raise ParseError(f"{source}/{cur_id}: bad line {line!r}")
        key, val = stripped.split(":", 1)
        key = key.strip()
        if key in cur_fields:
            raise ParseError(f"{source}/{cur_id}: duplicate key {key!r}")
        cur_fields[key] = val.strip()
        cur_lines.append(stripped)
    flush()
    if not entries:
        raise ParseError(f"{source}: no entries found")
    return entries


def _parse_subst(text: str) -> Dict[Param, Scalar]:
    out: Dict[Param, Scalar] = {}
    if not text.strip():
        return out
    for piece in text.split(","):
        lhs, rhs = piece.split("=", 1)
        out[Param(lhs.strip())] = parse_scalar(rhs)
    return out


def _domain_of(entry_id: str, text: str) -> ParamDomain:
    """ParamDomain.parse; a constraint it refuses fails the row's load."""
    try:
        return ParamDomain.parse(text)
    except ParseError as e:
        raise LoadAssertionFailed(entry_id, f"domain {e}") from None


def _parse_domain(entry: RawEntry, key: str = "domain") -> ParamDomain:
    dom = _domain_of(entry.entry_id, entry.get(key))
    rad = entry.get("radical")
    if rad:
        m = _RADICAL_RE.match(rad)
        if not m:
            raise ParseError(f"{entry.entry_id}: bad radical {rad!r}")
        radicand = parse_scalar(m.group(1))
        if not radicand.den.is_const:
            raise ParseError(f"{entry.entry_id}: radicand must be polynomial")
        dom = ParamDomain(dom.constraints,
                          [Radical(Param("w"), radicand.num, Param(m.group(2)))])
    return dom


@dataclass
class AlgebraEntry:
    entry_id: str
    raw: RawEntry

    def domain(self) -> ParamDomain:
        return _parse_domain(self.raw)

    def algebra(self, subst: Optional[Dict[Param, Scalar]] = None) -> LieAlgebra4:
        domain = self.domain()
        L = LieAlgebra4.parse(self.raw.get("brackets"), self.entry_id.split("/")[-1],
                              domain)
        if subst:
            L = L.substitute(subst)
            L.domain = domain.substituted(subst)
        return L


@dataclass
class SymplecticEntry:
    entry_id: str
    raw: RawEntry
    variant: str = ""  # "", "a" or "b"

    @property
    def alg_ref(self) -> str:
        return self.raw.get("alg")

    def omega_text(self) -> str:
        text = self.raw.get("omega")
        return expand_signs(text, self.variant) if self.variant else text


@dataclass
class StructureEntry:
    """One concrete (algebra, omega, K) with its domain, signs resolved."""

    entry_id: str
    raw: RawEntry
    variant: str
    algebra: LieAlgebra4
    omega: Mat4
    K: Mat4
    domain: ParamDomain
    symplectic_ref: str


class PhaseRowEntry(AlgebraEntry):
    """A phase-space bracket family, read like an algebra family."""


@dataclass
class IsoRowEntry:
    entry_id: str
    raw: RawEntry

    @property
    def source_ref(self) -> str:
        return self.raw.get("source")

    @property
    def target_ref(self) -> str:
        return self.raw.get("target")

    def subst(self) -> Dict[Param, Scalar]:
        return _parse_subst(self.raw.get("subst"))

    def source_subst(self) -> Dict[Param, Scalar]:
        return _parse_subst(self.raw.get("source_subst"))

    def map_columns(self) -> List:
        cols: List = [None] * 4
        for piece in self.raw.get("map").split(";"):
            piece = piece.strip()
            m = re.match(r"^f([1-4])\s*=\s*(.+)$", piece)
            if not m:
                raise ParseError(f"{self.entry_id}: bad map column {piece!r}")
            idx = int(m.group(1)) - 1
            if cols[idx] is not None:
                raise ParseError(f"{self.entry_id}: duplicate f{idx+1}")
            cols[idx] = parse_vector(m.group(2))
        if any(c is None for c in cols):
            raise ParseError(f"{self.entry_id}: map must define f1..f4")
        return cols

    def matrix(self) -> Mat4:
        return mat_from_cols(self.map_columns())


@dataclass
class CurvatureRowEntry:
    """Concrete curvature row: metric plus the expected verdict columns."""

    entry_id: str
    raw: RawEntry
    variant: str
    algebra: LieAlgebra4
    metric: Mat4
    domain: ParamDomain
    expect_flat: bool
    expect_ricci_flat: bool
    expect_x: Optional[List[Scalar]]   # None = "no soliton"
    expect_lam: Optional[Scalar]
    link: str
    notes: str

    @cached_property
    def geometry(self) -> Geometry:
        """The row's geometry, shared by the curvature suite and its table."""
        return Geometry(self.algebra, self.metric, self.domain)


class _LazyRows(Mapping):
    """Rows keyed by id, with ":a"/":b" for sign variants.  A row is built
    by `build(key, raw, variant, fields)` the first time it is read, then
    kept; the keys, their order and membership need no build."""

    def __init__(self, build):
        self._build = build
        self._specs: Dict[str, Tuple[RawEntry, str, Dict[str, str]]] = {}
        self._rows: Dict[str, object] = {}

    def add(self, raw: RawEntry, keys: Tuple[str, ...]) -> None:
        for variant, fields in expand_variants(raw, keys):
            key = raw.entry_id + (f":{variant}" if variant else "")
            self._specs[key] = (raw, variant, fields)

    def __getitem__(self, key: str):
        if key not in self._rows:
            self._rows[key] = self._build(key, *self._specs[key])
        return self._rows[key]

    def __contains__(self, key) -> bool:
        return key in self._specs

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)


class Catalog:
    def __init__(self):
        self.raw_entries: Dict[str, RawEntry] = {}
        self.algebras: Dict[str, AlgebraEntry] = {}
        self.symplectic: Mapping[str, SymplecticEntry] = _LazyRows(
            lambda key, raw, variant, fields: SymplecticEntry(raw.entry_id, raw, variant))
        self.structures: Mapping[str, StructureEntry] = _LazyRows(self._structure)
        self.phase_rows: Dict[str, PhaseRowEntry] = {}
        self.iso_rows: Dict[str, IsoRowEntry] = {}
        self.curvature_rows: Mapping[str, CurvatureRowEntry] = _LazyRows(
            self._curvature_row)

    def dump(self, entry_id: str) -> str:
        base = entry_id.split(":")[0]
        if base not in self.raw_entries:
            raise BrokenReference(f"unknown entry {entry_id!r}")
        return self.raw_entries[base].raw

    # -- resolution helpers -------------------------------------------------
    def algebra_entry(self, ref: str) -> AlgebraEntry:
        if ref not in self.algebras:
            raise BrokenReference(f"unknown algebra {ref!r}")
        return self.algebras[ref]

    def _symplectic_raw(self, ref: str) -> RawEntry:
        if ref not in self.raw_entries or not ref.startswith("symplectic/"):
            raise BrokenReference(f"unknown symplectic row {ref!r}")
        return self.raw_entries[ref]

    def structure_list(self) -> List[StructureEntry]:
        return list(self.structures.values())

    def curvature_list(self) -> List[CurvatureRowEntry]:
        return list(self.curvature_rows.values())

    # -- row builders -------------------------------------------------------
    def _structure(self, key: str, raw: RawEntry, variant: str,
                   fields: Dict[str, str]) -> StructureEntry:
        sym = self._symplectic_raw(raw.get("symplectic"))
        subst = _parse_subst(raw.get("subst"))
        algebra = self.algebra_entry(sym.get("alg")).algebra(subst)
        named_alg = raw.get("alg")
        if named_alg:
            named = self.algebra_entry(named_alg).algebra()
            if named.serialize() != algebra.serialize():
                raise LoadAssertionFailed(
                    key, f"substituted algebra differs from {named_alg}")
            algebra = named
        omega_text = fields.get("omega") or sym.get("omega")
        if has_sign_tokens(omega_text):
            raise LoadAssertionFailed(
                key, "omega needs an explicit variant-free override")
        omega = parse_two_form(omega_text)
        sym_domain = _domain_of(sym.entry_id, sym.get("domain"))
        if subst:
            omega = omega.substitute(subst)
            sym_domain = sym_domain.substituted(subst)
        domain = algebra.domain.merged(sym_domain).merged(
            _domain_of(key, fields.get("domain", "")))
        algebra.domain = domain
        return StructureEntry(key, raw, variant, algebra, omega,
                              parse_endo(fields["K"]), domain, raw.get("symplectic"))

    def _curvature_row(self, key: str, raw: RawEntry, variant: str,
                       fields: Dict[str, str]) -> CurvatureRowEntry:
        subst = _parse_subst(raw.get("subst"))
        algebra = self.algebra_entry(raw.get("alg")).algebra(subst)
        metric = parse_sym_form(fields["metric"])
        domain = algebra.domain.merged(_domain_of(key, fields.get("domain", "")))
        algebra.domain = domain
        if fields.get("soliton", "").strip() == "none":
            ex, elam = None, None
        else:
            ex, elam = parse_tuple4(fields["X"]), parse_scalar(fields["lam"])
        return CurvatureRowEntry(
            key, raw, variant, algebra, metric, domain,
            fields.get("flat") == "yes", fields.get("ricflat") == "yes",
            ex, elam, fields.get("link", ""), fields.get("notes", ""))


def expand_variants(raw: RawEntry, keys: Tuple[str, ...]) -> List[Tuple[str, Dict[str, str]]]:
    """Resolve sign tokens across the given fields, co-variantly.

    Returns [(variant_suffix, resolved_fields)]; one entry when no tokens.
    """
    tokens = any(has_sign_tokens(raw.get(k)) for k in keys)
    if not tokens:
        return [("", dict(raw.fields))]
    out = []
    for variant in ("a", "b"):
        fields = dict(raw.fields)
        for k in keys:
            if k in fields:
                fields[k] = expand_signs(fields[k], variant)
        out.append((variant, fields))
    return out


def _check_satisfiable(entry_id: str, domain: ParamDomain, params) -> None:
    try:
        domain.sample(random.Random(0xC0FFEE), params, attempts=4000)
    except DomainUnsatisfiable:
        raise LoadAssertionFailed(entry_id, "domain unsatisfiable")


def load_catalog(data_dir: Optional[Path] = None, check: bool = True) -> Catalog:
    data_dir = Path(data_dir) if data_dir else DATA_DIR
    cat = Catalog()
    for fname in DATA_FILES:
        path = data_dir / fname
        if not path.exists():
            raise ParseError(f"missing data file {path}")
        for raw in parse_entries(path.read_text(), fname):
            if raw.entry_id in cat.raw_entries:
                raise ParseError(f"duplicate entry id {raw.entry_id!r}")
            cat.raw_entries[raw.entry_id] = raw

    for entry_id, raw in cat.raw_entries.items():
        section = entry_id.split("/")[0]
        if section == "alg":
            cat.algebras[entry_id] = AlgebraEntry(entry_id, raw)
        elif section == "symplectic":
            cat.symplectic.add(raw, ("omega",))
        elif section == "structures":
            cat.structures.add(raw, ("omega", "K"))
        elif section in ("phase_b", "phase_c"):
            cat.phase_rows[entry_id] = PhaseRowEntry(entry_id, raw)
        elif section in ("iso_b", "iso_c"):
            cat.iso_rows[entry_id] = IsoRowEntry(entry_id, raw)
        elif section == "curvature":
            cat.curvature_rows.add(raw, ("metric", "X", "lam"))
        else:
            raise ParseError(f"unknown section in id {entry_id!r}")

    if check:
        _run_load_assertions(cat)
    return cat


def _run_load_assertions(cat: Catalog) -> None:
    for entry_id, alg in cat.algebras.items():
        L = alg.algebra()
        if not L.is_lie_algebra():
            raise LoadAssertionFailed(entry_id, "Jacobi identity fails")
        _check_satisfiable(entry_id, L.domain, _alg_params(L))
    for key, sym in cat.symplectic.items():
        alg = cat.algebra_entry(sym.alg_ref)
        omega = parse_two_form(sym.omega_text())
        if not omega.is_antisymmetric():
            raise LoadAssertionFailed(key, "omega not antisymmetric")
    for key, st in cat.structures.items():
        if not st.omega.is_antisymmetric(st.domain):
            raise LoadAssertionFailed(key, "omega not antisymmetric")
        if not st.algebra.is_lie_algebra(st.domain):
            raise LoadAssertionFailed(key, "Jacobi identity fails")
        _check_satisfiable(key, st.domain,
                           _alg_params(st.algebra) | st.K.params() | st.omega.params())
        # linkage: the structure's omega must be a variant of its symplectic row
        sym = cat._symplectic_raw(st.symplectic_ref)
        subst = _parse_subst(st.raw.get("subst"))
        variants = []
        for v in ("", "a", "b"):
            text = sym.get("omega")
            if has_sign_tokens(text) != bool(v):
                continue
            w = parse_two_form(expand_signs(text, v) if v else text)
            if subst:
                w = w.substitute(subst)
            variants.append(w)
        if not any(st.omega.equals(w) for w in variants):
            raise LoadAssertionFailed(key, "omega is not a variant of its symplectic row")
    for entry_id, row in cat.phase_rows.items():
        L = row.algebra()
        if not L.is_lie_algebra():
            raise LoadAssertionFailed(entry_id, "Jacobi identity fails")
        _check_satisfiable(entry_id, L.domain, _alg_params(L))
    for entry_id, row in cat.iso_rows.items():
        if row.source_ref not in cat.phase_rows:
            raise BrokenReference(f"{entry_id}: source {row.source_ref!r}")
        cat.algebra_entry(row.target_ref)
        columns = row.map_columns()
        dom = _row_domain(cat, row)
        params = set()
        for c in columns:
            for s in c:
                params |= s.params()
        _check_satisfiable(entry_id, dom, params | dom.params())
    for key, row in cat.curvature_rows.items():
        if not row.metric.is_symmetric(row.domain):
            raise LoadAssertionFailed(key, "metric not symmetric")
        if not row.algebra.is_lie_algebra(row.domain):
            raise LoadAssertionFailed(key, "Jacobi identity fails")
        _check_satisfiable(key, row.domain,
                           _alg_params(row.algebra) | row.metric.params())
        if row.link and row.link.split(":")[0] not in cat.raw_entries:
            raise BrokenReference(f"{key}: link {row.link!r}")


def _alg_params(L: LieAlgebra4) -> set:
    out = set()
    for v in L.brackets.values():
        for s in v:
            out |= s.params()
    return out


def _row_domain(cat: Catalog, row: IsoRowEntry) -> ParamDomain:
    source = cat.phase_rows[row.source_ref]
    ssub = row.source_subst()
    dom = source.domain()
    if ssub:
        dom = dom.substituted(ssub)
    return dom.merged(_parse_domain(row.raw, "condition"))


def iso_row_payload(cat: Catalog, row: IsoRowEntry):
    """(source algebra, map, instantiated target algebra, domain).

    The map matrix columns are the target's basis written in the source
    row's coordinates; `source_subst` pins the branch of the source family
    the row covers, `subst` instantiates the target's parameters.
    """
    ssub = row.source_subst()
    source = cat.phase_rows[row.source_ref].algebra(ssub if ssub else None)
    target_entry = cat.algebra_entry(row.target_ref)
    subst = row.subst()
    # The target's own family range is superseded by the row's condition
    # column; substitutions may be rational, so only brackets are mapped.
    target = LieAlgebra4.parse(target_entry.raw.get("brackets"),
                               row.target_ref.split("/")[-1])
    if subst:
        target = target.substitute(subst)
    matrix = row.matrix()
    if ssub:
        # branch parameters are shared by the brackets and the map columns
        matrix = matrix.substitute(ssub)
    domain = _row_domain(cat, row)
    source.domain = domain
    target.domain = domain
    return source, matrix, target, domain
