"""Line-oriented input language for algebras, modules, morphisms and witnesses.

Grammar (one declaration per line, blocks introduced by a header line):

    field Q | field Fp <prime>
    algebra <name>
      basis <label>:<degree> ...
      unit <label>
      mul <a> <b> = <lin-comb>
      d <a> = <lin-comb>
    module <name> over <algebra> [right]
      basis <label>:<degree> ...
      act <a> <m> = <lin-comb>
      d <m> = <lin-comb>
    morphism <name> : <algebra> -> <algebra>
      <a> -> <lin-comb>
    map <name> : <module> -> <module>
      <m> -> <lin-comb>
    witness <name> for <module>
      (leaf) | (shift <t> <node>) | (cone <map> <node> <node>)
      | (sum <node> <node>) | (retract <i> <p> <h> <node>)

A <lin-comb> is `c1*b1 + c2*b2 + ...` or `0`; coefficients are integers or
rationals `a/b` (reduced mod p in prime-field mode).  Omitted mul/act/d lines
default to 0.  Lines starting with `#` and blank lines are ignored.

One block reader (`_read_block`) reads the basis and table lines of algebra
and module blocks, each keyword in its line form (`_FORMS`); one table helper
(`_table`) resolves every mul, act, d and image line, each key against its
label pool and the right-hand side through `_lin_comb`; one writer
(`_write_table`) serializes all five tables.
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .dga import DgAlgebra, DgModule, DgaMorphism, matrices_from_images, vec_iadd
from .field import PRIME_BOUND, Field, GF, QQ
from .resolutions import BuildTreeWitness, ConeNode, Leaf, ShiftNode, SumNode


class ParseError(Exception):
    def __init__(self, line: int, column: int, expected: str):
        self.line = line
        self.column = column
        self.expected = expected
        super().__init__(f"line {line}, column {column}: expected {expected}")


@dataclass
class MapDecl:
    name: str
    source: DgModule
    target: DgModule
    images: dict  # source basis index -> element of target

    def matrices(self, line: int, offset: int = 0) -> dict:
        """Degree-wise matrices of the map, as a degree-`offset` assignment;
        an image outside degree |x| + offset is a ParseError at `line`."""
        for i, e in self.images.items():
            n = self.source.deg(i) + offset
            for t in e:
                if self.target.deg(t) != n:
                    got = f"{self.source.label(i)!r} -> {self.target.label(t)!r} in degree {self.target.deg(t)}"
                    raise ParseError(line, 1, f"degree-{offset} map {self.name!r} (got {got})")
        return matrices_from_images(
            self.source, self.target, lambda i, n: self.images.get(i, {}), offset
        )


@dataclass
class WitnessDecl:
    name: str
    module_name: str
    witness: BuildTreeWitness
    expr: str  # normalized s-expression, kept for serialization
    retract: tuple | None = None  # (incl, proj, homotopy) map names


@dataclass
class PresentationFile:
    field: Field
    field_decl: str  # "Q" or "Fp <prime>"
    algebras: dict = dc_field(default_factory=dict)
    modules: dict = dc_field(default_factory=dict)
    module_over: dict = dc_field(default_factory=dict)
    morphisms: dict = dc_field(default_factory=dict)
    maps: dict = dc_field(default_factory=dict)
    witnesses: dict = dc_field(default_factory=dict)
    order: list = dc_field(default_factory=list)  # (kind, name) in declaration order


_TOP_KEYWORDS = {"field", "algebra", "module", "morphism", "map", "witness"}

# the line form of each keyword in an algebra or module block, besides `basis`;
# a form with ` = ` is a table line `<keyword> <keys> = <lin-comb>`
_FORMS = {
    "algebra": {"unit": "unit <label>", "mul": "mul <a> <b> = <lin-comb>", "d": "d <a> = <lin-comb>"},
    "module": {"act": "act <a> <m> = <lin-comb>", "d": "d <m> = <lin-comb>"},
}


def _coef(F: Field, tok: str, line: int):
    try:
        if "/" in tok:
            a, b = tok.split("/", 1)
            return F.of(Fraction(int(a), int(b)))
        return F.of(int(tok))
    except (ValueError, ZeroDivisionError):
        raise ParseError(line, 1, "integer or rational coefficient")


def _fresh(store: dict, kind: str, name: str, line: int):
    if name in store:
        raise ParseError(line, 1, f"fresh {kind} name (got duplicate {name!r})")


def _declared(store: dict, kind: str, name: str, line: int):
    if name not in store:
        raise ParseError(line, 1, f"declared {kind} (got {name!r})")
    return store[name]


def _label(labels: dict, what: str, tok: str, line: int) -> int:
    if tok not in labels:
        raise ParseError(line, 1, f"known {what} label (got {tok!r})")
    return labels[tok]


def _names(X) -> list:
    return [lbl for lbl, _ in X.basis]


def _labels(X) -> dict:
    return {lbl: i for i, lbl in enumerate(_names(X))}


def _lin_comb(F: Field, text: str, labels: dict, line: int) -> dict:
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ParseError(line, 1, "term between '+' signs")
        if "*" in term:
            ctext, label = term.split("*", 1)
            c = _coef(F, ctext.strip(), line)
            label = label.strip()
        else:
            c, label = F.one, term
        vec_iadd(F, out, {_label(labels, "basis", label, line): c})
    return out


def _table(F: Field, rows, pools: tuple, labels: dict, defaults=()) -> dict:
    """Resolve table lines (line, key tokens, right-hand side) in order.

    Key token k is looked up in pools[k], a (labels, what) pair, and the
    right-hand side in `labels`.  A key is the tuple of indices, or the one
    index of a one-key table, and has at most one line; zero right-hand
    sides are left out.  The (key, value) pairs `defaults` fill the keys no
    line names.
    """
    table, named = {}, set()
    for ln, keys, rhs in rows:
        key = tuple(_label(pool, what, k, ln) for k, (pool, what) in zip(keys, pools))
        key = key if len(key) > 1 else key[0]
        if key in named:
            raise ParseError(ln, 1, f"fresh table key (got duplicate {' '.join(keys)!r})")
        named.add(key)
        e = _lin_comb(F, rhs, labels, ln)
        if e:
            table[key] = e
    for key, e in defaults:
        if key not in named:
            table.setdefault(key, e)
    return table


def _unit_entries(F: Field, u: int, n: int, algebra: bool) -> dict:
    """The table entries that the unit line implies: u·i = i and, in an
    algebra, i·u = i, for each basis index i < n."""
    out = {}
    for i in range(n):
        out[u, i] = {i: F.one}
        if algebra:
            out.setdefault((i, u), {i: F.one})
    return out


def _int(tok: str, line: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(line, 1, f"integer (got {tok!r})")


class _Lines:
    def __init__(self, text: str):
        self.rows = text.splitlines()
        self.i = 0

    def peek(self):
        while self.i < len(self.rows):
            s = self.rows[self.i].strip()
            if s and not s.startswith("#"):
                return self.i + 1, s
            self.i += 1
        return None

    def advance(self):
        self.i += 1


def _parse_basis(tokens, line: int) -> list:
    """The (label, degree) pairs of a basis line.  A label is one a
    <lin-comb> or image line can name back: not empty, not `0`, which reads
    as zero, and without `*`, `+`, `=` or `->`, which split those lines."""
    out = []
    for tok in tokens:
        if ":" not in tok:
            raise ParseError(line, 1, f"label:degree (got {tok!r})")
        label, deg = tok.rsplit(":", 1)
        if label in ("", "0") or any(s in label for s in ("*", "+", "=", "->")):
            raise ParseError(line, 1, f"basis label: not empty or 0, no *, +, = or -> (got {label!r})")
        out.append((label, _int(deg, line)))
    return out


def _block_lines(lines: _Lines):
    """Yield (lineno, tokens, raw) until the next top-level header."""
    while True:
        nxt = lines.peek()
        if nxt is None:
            return
        lineno, raw = nxt
        if raw.split()[0] in _TOP_KEYWORDS:
            return
        lines.advance()
        yield lineno, raw.split(), raw


def _read_block(lines: _Lines, kind: str):
    """Read an algebra or module block: (basis, labels, rows).

    rows[kw] lists the block's `kw` lines as (line, key tokens, right-hand
    side), in order.  Only the line forms are checked here; the labels are
    resolved once the whole block is read, since basis lines may come last.
    """
    forms = _FORMS[kind]
    basis: list = []
    labels: dict = {}
    rows: dict = {kw: [] for kw in forms}
    for ln, toks, raw in _block_lines(lines):
        if toks[0] == "basis":
            for label, deg in _parse_basis(toks[1:], ln):
                if label in labels:
                    raise ParseError(ln, 1, f"fresh basis label (got duplicate {label!r})")
                labels[label] = len(basis)
                basis.append((label, deg))
        elif toks[0] in forms:
            form = forms[toks[0]]
            keys, eq, _ = form.partition(" = ")
            n = len(keys.split())  # the keyword and its keys
            ok = len(toks) > n + 1 and toks[n] == "=" if eq else len(toks) == n
            if not ok:
                raise ParseError(ln, 1, form)
            rows[toks[0]].append((ln, toks[1:n], raw.split("=", 1)[1] if eq else None))
        else:
            *kws, last = ["basis", *forms]
            raise ParseError(ln, 1, f"{', '.join(kws)} or {last} line")
    return basis, labels, rows


def _parse_algebra(pf: PresentationFile, header_tokens, lineno: int, lines: _Lines):
    if len(header_tokens) != 2:
        raise ParseError(lineno, 1, "algebra <name>")
    name = header_tokens[1]
    _fresh(pf.algebras, "algebra", name, lineno)
    F = pf.field
    basis, labels, rows = _read_block(lines, "algebra")
    if not rows["unit"]:
        raise ParseError(lineno, 1, f"unit line in algebra block {name!r}")
    (uln, (ulabel,), _), *more = rows["unit"]
    if more:
        ln, (label,), _ = more[0]
        raise ParseError(ln, 1, f"one unit line (got second 'unit {label}')")
    u = _label(labels, "basis", ulabel, uln)
    own = (labels, "basis")
    # unit products default to the unit axiom rather than to zero
    units = _unit_entries(F, u, len(basis), True)
    mul = _table(F, rows["mul"], (own, own), labels, units.items())
    diff = _table(F, rows["d"], (own,), labels)
    pf.algebras[name] = DgAlgebra(F, basis, u, mul, diff, name=name)
    pf.order.append(("algebra", name))


def _parse_module(pf: PresentationFile, header_tokens, lineno: int, lines: _Lines):
    if len(header_tokens) not in (4, 5) or header_tokens[2] != "over":
        raise ParseError(lineno, 1, "module <name> over <algebra> [right]")
    name, alg = header_tokens[1], header_tokens[3]
    side = "left"
    if len(header_tokens) == 5:
        if header_tokens[4] != "right":
            raise ParseError(lineno, 1, "'right' or end of line")
        side = "right"
    _fresh(pf.modules, "module", name, lineno)
    A = _declared(pf.algebras, "algebra", alg, lineno)
    F = pf.field
    basis, labels, rows = _read_block(lines, "module")
    own = (labels, "module")
    # the unit acts as the identity unless stated otherwise
    units = _unit_entries(F, A.unit, len(basis), False)
    act = _table(F, rows["act"], ((_labels(A), "algebra"), own), labels, units.items())
    diff = _table(F, rows["d"], (own,), labels)
    pf.modules[name] = DgModule(A, side, basis, act, diff, name=name)
    pf.module_over[name] = alg
    pf.order.append(("module", name))


def _parse_arrow_block(pf, header_tokens, lineno, lines, kind):
    if len(header_tokens) != 6 or header_tokens[2] != ":" or header_tokens[4] != "->":
        raise ParseError(lineno, 1, f"{kind} <name> : <source> -> <target>")
    name, src, tgt = header_tokens[1], header_tokens[3], header_tokens[5]
    pool = pf.algebras if kind == "morphism" else pf.modules
    store = pf.morphisms if kind == "morphism" else pf.maps
    _fresh(store, kind, name, lineno)
    S, T = (_declared(pool, "algebra" if kind == "morphism" else "module", t, lineno) for t in (src, tgt))

    def rows():
        for ln, toks, raw in _block_lines(lines):
            if len(toks) < 3 or toks[1] != "->":
                raise ParseError(ln, 1, "<element> -> <lin-comb>")
            yield ln, toks[:1], raw.split("->", 1)[1]

    # each line is resolved as it is read, before the next one is checked
    images = _table(pf.field, rows(), ((_labels(S), "source"),), _labels(T))
    if kind == "morphism":
        store[name] = DgaMorphism(S, T, images, name=name)
    else:
        store[name] = MapDecl(name, S, T, images)
    pf.order.append((kind, name))


# the deepest build-tree nesting read: parsing, evaluating and verifying a
# tree recurse once per level, so a deeper tree would exhaust the stack
_MAX_NESTING = 256


def _parse_node(pf, toks, pos: int, line, depth: int = 1):
    """The node at toks[pos], `depth` levels deep, and the position after it;
    `line(k)` is the line of token k, or of the last token when k is past
    the end."""
    if pos >= len(toks) or toks[pos] != "(":
        raise ParseError(line(pos), 1, "'(' starting a build-tree node")
    if depth > _MAX_NESTING:
        raise ParseError(line(pos), 1, f"at most {_MAX_NESTING} nested build-tree nodes")
    pos += 1
    if pos >= len(toks):
        raise ParseError(line(pos), 1, "node keyword")
    kw = toks[pos]
    pos += 1
    if kw in ("shift", "cone") and pos >= len(toks):
        raise ParseError(line(pos), 1, f"{'shift amount' if kw == 'shift' else 'map name'} after {kw!r}")
    if kw == "leaf":
        node = Leaf(0)
    elif kw == "shift":
        t = _int(toks[pos], line(pos))
        child, pos = _parse_node(pf, toks, pos + 1, line, depth + 1)
        node = Leaf(child.shift + t) if isinstance(child, Leaf) else ShiftNode(t, child)
    elif kw == "sum":
        children = []
        while pos < len(toks) and toks[pos] == "(":
            child, pos = _parse_node(pf, toks, pos, line, depth + 1)
            children.append(child)
        node = SumNode(children)
    elif kw == "cone":
        mats = _declared(pf.maps, "map", toks[pos], line(pos)).matrices(line(pos))
        src, pos = _parse_node(pf, toks, pos + 1, line, depth + 1)
        tgt, pos = _parse_node(pf, toks, pos, line, depth + 1)
        node = ConeNode(src, tgt, mats)
    else:
        raise ParseError(line(pos - 1), 1, f"leaf, shift, sum or cone (got {kw!r})")
    if pos >= len(toks) or toks[pos] != ")":
        raise ParseError(line(pos), 1, "')' closing the node")
    return node, pos + 1


def _parse_witness(pf: PresentationFile, header_tokens, lineno: int, lines: _Lines):
    if len(header_tokens) != 4 or header_tokens[2] != "for":
        raise ParseError(lineno, 1, "witness <name> for <module>")
    name, mod = header_tokens[1], header_tokens[3]
    _fresh(pf.witnesses, "witness", name, lineno)
    _declared(pf.modules, "module", mod, lineno)
    body, toks, lns = [], [], []  # body lines, their tokens and each token's line
    retract = None
    for ln, words, raw in _block_lines(lines):
        if words[0] == "retract":
            # retract <i> <p> <h> consumes the surrounding tree
            if len(words) != 4:
                raise ParseError(ln, 1, "retract <incl-map> <proj-map> <homotopy-map>")
            for t in words[1:]:
                _declared(pf.maps, "map", t, ln)
            retract, retract_line = (words[1], words[2], words[3]), ln
        else:
            body.append(raw)
            new = raw.replace("(", " ( ").replace(")", " ) ").split()
            toks += new
            lns += [ln] * len(new)
    expr = " ".join(" ".join(b.split()) for b in body)
    if not toks:
        raise ParseError(lineno, 1, "build-tree s-expression in the witness block")

    def line(k: int) -> int:
        return lns[min(k, len(lns) - 1)]

    tree, pos = _parse_node(pf, toks, 0, line)
    if pos != len(toks):
        raise ParseError(line(pos), 1, "end of s-expression")
    if retract is None:
        w = BuildTreeWitness(tree)
    else:
        i, p, h = (pf.maps[m] for m in retract)
        w = BuildTreeWitness(
            tree,
            incl=i.matrices(retract_line),
            proj=p.matrices(retract_line),
            homotopy=h.matrices(retract_line, offset=1),
        )
    pf.witnesses[name] = WitnessDecl(name, mod, w, expr, retract)
    pf.order.append(("witness", name))


def parse(text: str) -> PresentationFile:
    lines = _Lines(text)
    first = lines.peek()
    if first is None:
        raise ParseError(1, 1, "a 'field' declaration")
    lineno, raw = first
    toks = raw.split()
    if toks[0] != "field":
        raise ParseError(lineno, 1, f"'field' as the first declaration (got {toks[0]!r})")
    if toks[1:] == ["Q"]:
        F, decl = QQ, "Q"
    elif len(toks) == 3 and toks[1] == "Fp":
        p = _int(toks[2], lineno)
        if p >= PRIME_BOUND:  # primality is decided below the bound only
            raise ParseError(lineno, 1, f"a modulus below {PRIME_BOUND} (got {p})")
        try:
            F = GF(p)
        except ValueError:
            raise ParseError(lineno, 1, f"prime modulus (got {p})")
        decl = f"Fp {p}"
    else:
        raise ParseError(lineno, 1, "'field Q' or 'field Fp <prime>'")
    lines.advance()
    pf = PresentationFile(F, decl)
    while True:
        nxt = lines.peek()
        if nxt is None:
            return pf
        lineno, raw = nxt
        toks = raw.split()
        lines.advance()
        if toks[0] == "algebra":
            _parse_algebra(pf, toks, lineno, lines)
        elif toks[0] == "module":
            _parse_module(pf, toks, lineno, lines)
        elif toks[0] in ("morphism", "map"):
            _parse_arrow_block(pf, toks, lineno, lines, toks[0])
        elif toks[0] == "witness":
            _parse_witness(pf, toks, lineno, lines)
        elif toks[0] == "field":
            raise ParseError(lineno, 1, "a single field declaration")
        else:
            raise ParseError(lineno, 1, "algebra, module, morphism, map or witness")


# -- serialization -------------------------------------------------------------


def _render_comb(e: dict, labels) -> str:
    if not e:
        return "0"
    parts = []
    for i in sorted(e):
        c = str(e[i])
        parts.append(labels[i] if c == "1" else f"{c}*{labels[i]}")
    return " + ".join(parts)


def _write_table(out: list, kw: str, table: dict, key_labels: tuple, labels: list, sep: str = "="):
    """Append one line `[kw] <keys> sep <lin-comb>` per table entry, in key order."""
    for key, e in sorted(table.items()):
        keys = key if isinstance(key, tuple) else (key,)
        words = [kw] if kw else []
        words += [names[k] for names, k in zip(key_labels, keys)]
        out.append("  " + " ".join(words + [sep, _render_comb(e, labels)]))


def _beyond_unit(table: dict, units: dict) -> dict:
    """`table` less the entries `units` that the unit line implies; a unit
    entry written otherwise, zero included, stays."""
    out = dict(table)
    for key, e in units.items():
        if out.get(key) == e:
            del out[key]
        else:
            out.setdefault(key, {})
    return out


def serialize(pf: PresentationFile) -> str:
    out = [f"field {pf.field_decl}"]
    F = pf.field
    for kind, name in pf.order:
        out.append("")
        if kind in ("algebra", "module"):
            X = pf.algebras[name] if kind == "algebra" else pf.modules[name]
            labels = _names(X)
            basis = "  basis " + " ".join(f"{lbl}:{d}" for lbl, d in X.basis)
        if kind == "algebra":
            out += [f"algebra {name}", basis, f"  unit {labels[X.unit]}"]
            # products with the unit are implied by the unit line
            mul = _beyond_unit(X.mul, _unit_entries(F, X.unit, X.total_dim, True))
            _write_table(out, "mul", mul, (labels, labels), labels)
            _write_table(out, "d", X.diff, (labels,), labels)
        elif kind == "module":
            side = " right" if X.side == "right" else ""
            out += [f"module {name} over {pf.module_over[name]}{side}", basis]
            # and so is the unit's action
            act = _beyond_unit(X.act, _unit_entries(F, X.algebra.unit, X.total_dim, False))
            _write_table(out, "act", act, (_names(X.algebra), labels), labels)
            _write_table(out, "d", X.diff, (labels,), labels)
        elif kind in ("morphism", "map"):
            obj = (pf.morphisms if kind == "morphism" else pf.maps)[name]
            S, T = obj.source, obj.target
            out.append(f"{kind} {name} : {S.name} -> {T.name}")
            _write_table(out, "", obj.images, (_names(S),), _names(T), "->")
        elif kind == "witness":
            w = pf.witnesses[name]
            out.append(f"witness {name} for {w.module_name}")
            out.append(f"  {w.expr}")
            if w.retract is not None:
                out.append("  retract {} {} {}".format(*w.retract))
    return "\n".join(out) + "\n"
