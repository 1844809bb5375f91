"""Machine-readable catalog: algebras, symplectic rows, structures,
phase-space bracket tables, isomorphism rows and curvature rows.

The data files are line oriented: an entry starts with "[section/id]"
followed by "key: value" lines.  Entries keep their literal text so the
CLI can dump them back byte-identically.  Every section is built lazily:
a row is parsed by its section's builder on the first read of its key,
then kept, so that answering one entry parses one entry.  Each row owns
its payload, which keeps parameters of different entries from
interacting; a row that names an algebra or a phase row takes that
row's built algebra, or its instance under the row's substitution, and
owns its domain.  A checked catalog asserts a section on the first read
of one of its rows, so a command asserts exactly the sections it reads.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from .liealg import LieAlgebra4
from .linalg import Mat4, mat_from_cols
from .notation import (
    expand_signs, has_sign_tokens, parse_endo, parse_sym_form, parse_two_form,
    parse_tuple4, parse_vector, read_table,
)
from .scalars import (
    Param, ParamDomain, ParseError, Scalar, ScalarError, parse_scalar,
)


class LoadAssertionFailed(ParseError):
    """A catalog row that fails to build or fails its section's check."""

    def __init__(self, entry_id: str, check: str):
        self.entry_id = entry_id
        self.check = check
        super().__init__(f"{entry_id}: {check}")


class BrokenReference(LoadAssertionFailed):
    """A catalog row that names an entry the catalog lacks."""


DATA_DIR = Path(__file__).parent / "data"

DATA_FILES = ("algebras.txt", "symplectic.txt", "structures.txt",
              "phase_b.txt", "phase_c.txt", "iso_b.txt", "iso_c.txt",
              "curvature.txt")

# section -> (the Catalog attribute of its rows, the fields whose sign
# tokens expand into variants)
SECTIONS = {
    "alg": ("algebras", ()),
    "symplectic": ("symplectic", ("omega",)),
    "structures": ("structures", ("omega", "K")),
    "phase_b": ("phase_rows", ()), "phase_c": ("phase_rows", ()),
    "iso_b": ("iso_rows", ()), "iso_c": ("iso_rows", ()),
    "curvature": ("curvature_rows", ("metric", "X", "lam")),
}

_HEADER_RE = re.compile(r"^\[([A-Za-z0-9_/]+)\]\s*$")
_RADICAL_RE = re.compile(r"^w\s*\*\s*w\s*=\s*(.+?)\s+solve\s+([A-Za-z_][A-Za-z0-9_]*)$")


class RawEntry:
    __slots__ = ("entry_id", "fields", "raw")

    def __init__(self, entry_id: str, fields: Dict[str, str], raw: str):
        self.entry_id, self.fields, self.raw = entry_id, fields, raw

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
    """The substitution "x=1/2, lam=mu" as {Param: Scalar}."""
    out: Dict[Param, Scalar] = {}
    for (name,), rhs in read_table(text, r"([^=]*?)", "substitution", sep=","):
        p = Param(name)
        if p in out:
            raise ParseError(f"duplicate substitution for {name}")
        out[p] = parse_scalar(rhs)
    return out


def _radical_subst(text: str) -> Tuple[Param, Scalar]:
    """The column "w*w = p solve z", with p = a*z + b, as the substitution
    z := (w*w - b)/a, a rational parametrization of the relation w*w = p."""
    m = _RADICAL_RE.match(text)
    if not m:
        raise ParseError(f"bad radical {text!r}")
    radicand, z = parse_scalar(m.group(1)), Param(m.group(2))
    if radicand.den.terms != {(): 1}:
        raise ParseError("radicand must be a polynomial with integer coefficients")
    if radicand.num.degree_in(z) != 1:
        raise ParseError("radicand must be linear in the solved parameter")
    if radicand.num.degree_in(Param("w")) != 0:
        raise ParseError("radicand must not involve the radical parameter")
    b = radicand.substitute({z: Scalar.const(0)})
    a = radicand.substitute({z: Scalar.const(1)}) - b
    return z, (Scalar.var("w") ** 2 - b) / a


class AlgebraEntry:
    """An algebra family, or a phase-space bracket family, on its domain."""

    __slots__ = ("entry_id", "raw", "algebra", "domain")

    def __init__(self, entry_id: str, raw: RawEntry, algebra: LieAlgebra4,
                 domain: ParamDomain):
        self.entry_id, self.raw, self.algebra, self.domain = entry_id, raw, algebra, domain


class SymplecticEntry:
    """One sign variant ("", "a" or "b") of a symplectic row.  `domain` is
    the algebra's domain tightened by the row's own column, `row_domain`."""

    __slots__ = ("entry_id", "raw", "variant", "algebra", "omega", "domain",
                 "row_domain")

    def __init__(self, entry_id: str, raw: RawEntry, variant: str,
                 algebra: LieAlgebra4, omega: Mat4, domain: ParamDomain,
                 row_domain: ParamDomain):
        self.entry_id, self.raw, self.variant = entry_id, raw, variant
        self.algebra, self.omega = algebra, omega
        self.domain, self.row_domain = domain, row_domain


class StructureEntry:
    """One concrete (algebra, omega, K) with its domain, signs resolved."""

    __slots__ = ("entry_id", "raw", "variant", "algebra", "omega", "K",
                 "domain", "symplectic_ref")

    def __init__(self, entry_id: str, raw: RawEntry, variant: str,
                 algebra: LieAlgebra4, omega: Mat4, K: Mat4,
                 domain: ParamDomain, symplectic_ref: str):
        self.entry_id, self.raw, self.variant = entry_id, raw, variant
        self.algebra, self.omega, self.K = algebra, omega, K
        self.domain, self.symplectic_ref = domain, symplectic_ref


class IsoRowEntry:
    """The map `matrix` carries `target` onto `source`: its columns are the
    target's basis written in the source row's coordinates.  `source_subst`
    pins the branch of the source family the row covers, together with a
    `radical` column's solved parameter; `subst` instantiates the target's
    parameters."""

    __slots__ = ("entry_id", "raw", "source", "matrix", "target", "domain")

    def __init__(self, entry_id: str, raw: RawEntry, source: LieAlgebra4,
                 matrix: Mat4, target: LieAlgebra4, domain: ParamDomain):
        self.entry_id, self.raw = entry_id, raw
        self.source, self.matrix, self.target = source, matrix, target
        self.domain = domain


class CurvatureRowEntry:
    """Concrete curvature row: metric plus the expected verdict columns.
    No __slots__: `geometry` is cached in the instance's __dict__."""

    def __init__(self, entry_id: str, raw: RawEntry, variant: str,
                 algebra: LieAlgebra4, metric: Mat4, domain: ParamDomain,
                 expect_flat: bool, expect_ricci_flat: bool,
                 expect_x: Optional[List[Scalar]], expect_lam: Optional[Scalar],
                 notes: str):
        self.entry_id, self.raw, self.variant = entry_id, raw, variant
        self.algebra, self.metric, self.domain = algebra, metric, domain
        self.expect_flat, self.expect_ricci_flat = expect_flat, expect_ricci_flat
        self.expect_x = expect_x  # None = "no soliton"
        self.expect_lam, self.notes = expect_lam, notes

    @cached_property
    def geometry(self):
        """The row's `curvature.Geometry`, shared by the suite and its table."""
        from .curvature import Geometry
        return Geometry(self.algebra, self.metric, self.domain)


class _LazyRows(Mapping):
    """Rows keyed by id, with ":a"/":b" for sign variants.  A row is built
    by `build(key, raw, fields)` the first time it is read, then
    kept; the keys, their order and membership need no build.  With a
    `check(key, row)`, the first read builds and checks every row in file
    order, and each later read repeats a failed check.  A build or check
    error that names no row is raised as the row's LoadAssertionFailed."""

    def __init__(self, build, check=None):
        self._build = build
        self._check = check  # None once every row has passed it
        self._specs: Dict[str, Tuple[RawEntry, Dict[str, str]]] = {}
        self._rows: Dict[str, object] = {}

    def add(self, raw: RawEntry, keys: Tuple[str, ...]) -> None:
        for variant, fields in expand_variants(raw, keys):
            key = raw.entry_id + (f":{variant}" if variant else "")
            self._specs[key] = (raw, fields)

    def __getitem__(self, key: str):
        if self._check is not None:
            for k in self._specs:
                self._row(k, self._check)
            self._check = None
        return self._row(key)

    def _row(self, key: str, check=None):
        try:
            if key not in self._rows:
                self._rows[key] = self._build(key, *self._specs[key])
            if check is not None:
                check(key, self._rows[key])
        except LoadAssertionFailed:
            raise  # it names its row: this one, or one that this one reads
        except ScalarError as e:
            raise LoadAssertionFailed(key, str(e)) from e
        return self._rows[key]

    def __contains__(self, key) -> bool:
        return key in self._specs

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)


class Catalog:
    def __init__(self, check: bool):
        def rows(build, assert_row):  # a section, which asserts its rows if `check`
            return _LazyRows(build, assert_row if check else None)
        self.raw_entries: Dict[str, RawEntry] = {}
        self.algebras: Mapping[str, AlgebraEntry] = rows(_algebra_row, _check_algebra)
        self.symplectic: Mapping[str, SymplecticEntry] = rows(
            self._symplectic_row, _assert_symplectic_row)
        self.structures: Mapping[str, StructureEntry] = rows(
            self._structure, self._assert_structure)
        self.phase_rows: Mapping[str, AlgebraEntry] = rows(_algebra_row, _check_algebra)
        self.iso_rows: Mapping[str, IsoRowEntry] = rows(self._iso_row, _assert_iso_row)
        self.curvature_rows: Mapping[str, CurvatureRowEntry] = rows(
            self._curvature_row, _assert_curvature_row)

    def dump(self, entry_id: str) -> str:
        """The text of an entry, named by its id or by a key that its
        section lists."""
        base = entry_id.partition(":")[0]
        listed = base in self.raw_entries and (
            entry_id == base or entry_id in getattr(self, SECTIONS[base.split("/")[0]][0]))
        if not listed:
            raise ParseError(f"unknown entry {entry_id!r}")
        return self.raw_entries[base].raw

    # -- resolution helpers -------------------------------------------------
    def _algebra(self, key: str, ref: str) -> AlgebraEntry:
        if ref not in self.algebras:
            raise BrokenReference(key, f"unknown algebra {ref!r}")
        return self.algebras[ref]

    def structure_list(self) -> List[StructureEntry]:
        return list(self.structures.values())

    def curvature_list(self) -> List[CurvatureRowEntry]:
        return list(self.curvature_rows.values())

    # -- row builders -------------------------------------------------------
    def _symplectic_row(self, key: str, raw: RawEntry,
                        fields: Dict[str, str]) -> SymplecticEntry:
        alg = self._algebra(key, raw.get("alg"))
        row_domain = ParamDomain.parse(raw.get("domain"))
        domain = alg.domain.merged(row_domain)
        return SymplecticEntry(key, raw, key.partition(":")[2], alg.algebra,
                               parse_two_form(_column(fields, "omega")), domain, row_domain)

    def _symplectic_variants(self, key: str, ref: str) -> List[SymplecticEntry]:
        """The built sign variants of the symplectic row `ref`, which `key` names."""
        variants = [self.symplectic[k] for k in (ref, ref + ":a", ref + ":b")
                    if k in self.symplectic]
        if not variants:
            raise BrokenReference(key, f"unknown symplectic row {ref!r}")
        return variants

    def _structure(self, key: str, raw: RawEntry,
                   fields: Dict[str, str]) -> StructureEntry:
        ref = raw.get("symplectic")
        sym = self._symplectic_variants(key, ref)[0]
        subst = _parse_subst(raw.get("subst"))
        algebra, alg_domain = _instance(self._algebra(key, sym.raw.get("alg")), subst)
        named_alg = raw.get("alg")
        if named_alg:
            named = self._algebra(key, named_alg)
            if named.algebra.serialize() != algebra.serialize():
                raise LoadAssertionFailed(
                    key, f"substituted algebra differs from {named_alg}")
            algebra, alg_domain = named.algebra, named.domain
        if sym.variant and not fields.get("omega"):
            raise LoadAssertionFailed(key, "omega needs an explicit variant-free override")
        # an override is checked against the symplectic row at load
        omega = parse_two_form(fields["omega"]) if fields.get("omega") else sym.omega
        sym_domain = sym.row_domain
        if subst:
            omega, sym_domain = omega.substitute(subst), _substituted(sym_domain, subst)
        domain = alg_domain.merged(sym_domain).merged(
            ParamDomain.parse(fields.get("domain", "")))
        return StructureEntry(key, raw, key.partition(":")[2], algebra, omega,
                              parse_endo(_column(fields, "K")), domain, ref)

    def _assert_structure(self, key: str, st: StructureEntry) -> None:
        if not st.omega.is_antisymmetric():
            raise LoadAssertionFailed(key, "omega not antisymmetric")
        _check_algebra(key, st, st.K.params() | st.omega.params())
        # linkage: an omega override must be a variant of its symplectic row
        if st.raw.get("omega"):
            subst = _parse_subst(st.raw.get("subst"))
            if not any(st.omega == sym.omega.substitute(subst)
                       for sym in self._symplectic_variants(key, st.symplectic_ref)):
                raise LoadAssertionFailed(key, "omega is not a variant of its symplectic row")

    def _iso_row(self, key: str, raw: RawEntry,
                 fields: Dict[str, str]) -> IsoRowEntry:
        source_ref = fields.get("source", "")
        if source_ref not in self.phase_rows:
            raise BrokenReference(key, f"source {source_ref!r}")
        target = self._algebra(key, fields.get("target", "")).algebra
        ssub = _parse_subst(fields.get("source_subst", ""))
        if fields.get("radical"):
            z, value = _radical_subst(fields["radical"])
            if z in ssub:
                raise ParseError(f"duplicate substitution for {z.name}")
            ssub[z] = value
        # branch parameters are shared by the brackets and the map columns
        matrix = _map_matrix(fields.get("map", "")).substitute(ssub)
        source, source_domain = _instance(self.phase_rows[source_ref], ssub)
        domain = source_domain.merged(ParamDomain.parse(fields.get("condition", "")))
        # The target's own family range is superseded by the row's condition
        # column; substitutions may be rational, so only brackets are mapped.
        target = target.substitute(_parse_subst(fields.get("subst", "")))
        return IsoRowEntry(key, raw, source, matrix, target, domain)

    def _curvature_row(self, key: str, raw: RawEntry,
                       fields: Dict[str, str]) -> CurvatureRowEntry:
        subst = _parse_subst(raw.get("subst"))
        algebra, alg_domain = _instance(self._algebra(key, raw.get("alg")), subst)
        metric = parse_sym_form(_column(fields, "metric"))
        domain = alg_domain.merged(ParamDomain.parse(fields.get("domain", "")))
        if fields.get("soliton", "").strip() == "none":
            ex, elam = None, None
        else:
            ex = parse_tuple4(_column(fields, "X"))
            elam = parse_scalar(_column(fields, "lam"))
        return CurvatureRowEntry(
            key, raw, key.partition(":")[2], algebra, metric, domain,
            fields.get("flat") == "yes",
            fields.get("ricflat") == "yes", ex, elam, fields.get("notes", ""))


def _column(fields: Dict[str, str], key: str) -> str:
    """A column that the row's section requires."""
    if key not in fields:
        raise ParseError(f"missing column {key!r}")
    return fields[key]


def _algebra_row(key: str, raw: RawEntry, fields: Dict[str, str]) -> AlgebraEntry:
    L = LieAlgebra4.parse(fields.get("brackets", ""), key.split("/")[-1])
    return AlgebraEntry(key, raw, L, ParamDomain.parse(fields.get("domain", "")))


def _instance(row: AlgebraEntry, subst: dict) -> Tuple[LieAlgebra4, ParamDomain]:
    """The row's algebra and domain under `subst`: the row's own if it is empty."""
    if not subst:
        return row.algebra, row.domain
    return row.algebra.substitute(subst), _substituted(row.domain, subst)


def _substituted(domain: ParamDomain, subst: dict) -> ParamDomain:
    """The domain under `subst`; ScalarError if it violates a constraint."""
    domain, violated = domain.substituted(subst)
    if violated:
        raise ScalarError(f"substitution violates constraint {violated[0]!r}")
    return domain


def _map_matrix(text: str) -> Mat4:
    """The matrix of "f1=...; f2=...; f3=...; f4=..." by its columns."""
    cols: List = [None] * 4
    for (k,), rhs in read_table(text, r"f([1-4])", "map column"):
        idx = int(k) - 1
        if cols[idx] is not None:
            raise ParseError(f"duplicate f{idx+1}")
        cols[idx] = parse_vector(rhs)
    if any(c is None for c in cols):
        raise ParseError("map must define f1..f4")
    return mat_from_cols(cols)


def expand_variants(raw: RawEntry, keys: Tuple[str, ...]) -> List[Tuple[str, Dict[str, str]]]:
    """Resolve sign tokens across the given fields, co-variantly.

    Returns [(variant_suffix, resolved_fields)]; [("", raw.fields)] when no tokens.
    """
    tokens = any(has_sign_tokens(raw.get(k)) for k in keys)
    if not tokens:
        return [("", raw.fields)]
    out = []
    for variant in ("a", "b"):
        fields = dict(raw.fields)
        for k in keys:
            if k in fields:
                fields[k] = expand_signs(fields[k], variant)
        out.append((variant, fields))
    return out


def _check_satisfiable(entry_id: str, domain: ParamDomain, params) -> None:
    if not domain.satisfiable(params):
        raise LoadAssertionFailed(entry_id, "domain unsatisfiable")


def load_catalog(data_dir: Optional[Path] = None, check: bool = True) -> Catalog:
    """The catalog with every data file parsed and no row built.  A checked
    catalog asserts each section on the first read of one of its rows:
    Jacobi, antisymmetry, domain satisfiability and cross-references."""
    data_dir = Path(data_dir) if data_dir else DATA_DIR
    cat = Catalog(check)
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
        if section not in SECTIONS:
            raise ParseError(f"unknown section in id {entry_id!r}")
        rows, keys = SECTIONS[section]
        getattr(cat, rows).add(raw, keys)
    return cat


def _assert_symplectic_row(key: str, sym: SymplecticEntry) -> None:
    if not sym.omega.is_antisymmetric():
        raise LoadAssertionFailed(key, "omega not antisymmetric")
    _check_satisfiable(key, sym.domain, sym.algebra.params() | sym.omega.params())


def _assert_iso_row(entry_id: str, row: IsoRowEntry) -> None:
    _check_satisfiable(entry_id, row.domain, row.matrix.params())


def _assert_curvature_row(key: str, row: CurvatureRowEntry) -> None:
    if not row.metric.is_symmetric():
        raise LoadAssertionFailed(key, "metric not symmetric")
    _check_algebra(key, row, row.metric.params())


def _check_algebra(entry_id: str, row, params: set = frozenset()) -> None:
    """The row's algebra satisfies Jacobi, and the row's domain has a point."""
    if not row.algebra.is_lie_algebra():
        raise LoadAssertionFailed(entry_id, "Jacobi identity fails")
    _check_satisfiable(entry_id, row.domain, row.algebra.params() | params)
