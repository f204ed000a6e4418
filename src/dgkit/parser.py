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
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .dga import DgAlgebra, DgModule, DgaMorphism, vec_iadd
from .field import Field, GF, QQ
from .modops import matrices_from_images
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

    def matrices(self, offset: int = 0) -> dict:
        """Degree-wise matrices of the map, as a degree-`offset` assignment."""
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


def _coef(F: Field, tok: str, line: int, col: int):
    try:
        if "/" in tok:
            a, b = tok.split("/", 1)
            return F.of(Fraction(int(a), int(b)))
        return F.of(int(tok))
    except (ValueError, ZeroDivisionError):
        raise ParseError(line, col, "integer or rational coefficient")


def _lin_comb(F: Field, text: str, labels: dict, line: int, col: int) -> dict:
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ParseError(line, col, "term between '+' signs")
        if "*" in term:
            ctext, label = term.split("*", 1)
            c = _coef(F, ctext.strip(), line, col)
            label = label.strip()
        else:
            c, label = F.one, term
        if label not in labels:
            raise ParseError(line, col, f"known basis label (got {label!r})")
        vec_iadd(F, out, {labels[label]: c})
    return out


def _int(tok: str, line: int, col: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(line, col, f"integer (got {tok!r})")


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
    out = []
    for tok in tokens:
        if ":" not in tok:
            raise ParseError(line, 1, f"label:degree (got {tok!r})")
        label, deg = tok.rsplit(":", 1)
        out.append((label, _int(deg, line, 1)))
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


def _parse_algebra(pf: PresentationFile, header_tokens, lineno: int, lines: _Lines):
    if len(header_tokens) != 2:
        raise ParseError(lineno, 1, "algebra <name>")
    name = header_tokens[1]
    if name in pf.algebras:
        raise ParseError(lineno, 1, f"fresh algebra name (got duplicate {name!r})")
    F = pf.field
    basis: list = []
    labels: dict = {}
    unit = None
    mul_raw, diff_raw = [], []
    for ln, toks, raw in _block_lines(lines):
        if toks[0] == "basis":
            for label, deg in _parse_basis(toks[1:], ln):
                if label in labels:
                    raise ParseError(ln, 1, f"fresh basis label (got duplicate {label!r})")
                labels[label] = len(basis)
                basis.append((label, deg))
        elif toks[0] == "unit":
            if len(toks) != 2:
                raise ParseError(ln, 1, "unit <label>")
            unit = (ln, toks[1])
        elif toks[0] == "mul":
            if len(toks) < 5 or toks[3] != "=":
                raise ParseError(ln, 1, "mul <a> <b> = <lin-comb>")
            mul_raw.append((ln, toks[1], toks[2], raw.split("=", 1)[1]))
        elif toks[0] == "d":
            if len(toks) < 4 or toks[2] != "=":
                raise ParseError(ln, 1, "d <a> = <lin-comb>")
            diff_raw.append((ln, toks[1], raw.split("=", 1)[1]))
        else:
            raise ParseError(ln, 1, "basis, unit, mul or d line")
    if unit is None:
        raise ParseError(lineno, 1, f"unit line in algebra block {name!r}")
    uln, ulabel = unit
    if ulabel not in labels:
        raise ParseError(uln, 1, f"known basis label (got {ulabel!r})")
    mul = {}
    for ln, a, b, rhs in mul_raw:
        for t in (a, b):
            if t not in labels:
                raise ParseError(ln, 1, f"known basis label (got {t!r})")
        e = _lin_comb(F, rhs, labels, ln, 1)
        if e:
            mul[(labels[a], labels[b])] = e
    diff = {}
    for ln, a, rhs in diff_raw:
        if a not in labels:
            raise ParseError(ln, 1, f"known basis label (got {a!r})")
        e = _lin_comb(F, rhs, labels, ln, 1)
        if e:
            diff[labels[a]] = e
    # unit products default to the unit axiom rather than to zero
    u = labels[ulabel]
    for i in range(len(basis)):
        mul.setdefault((u, i), {i: F.one})
        mul.setdefault((i, u), {i: F.one})
    A = DgAlgebra(F, basis, u, mul, diff, name=name)
    pf.algebras[name] = A
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
    if name in pf.modules:
        raise ParseError(lineno, 1, f"fresh module name (got duplicate {name!r})")
    if alg not in pf.algebras:
        raise ParseError(lineno, 1, f"declared algebra (got {alg!r})")
    A = pf.algebras[alg]
    alabels = {lbl: i for i, (lbl, _) in enumerate(A.basis)}
    F = pf.field
    basis: list = []
    labels: dict = {}
    act_raw, diff_raw = [], []
    for ln, toks, raw in _block_lines(lines):
        if toks[0] == "basis":
            for label, deg in _parse_basis(toks[1:], ln):
                if label in labels:
                    raise ParseError(ln, 1, f"fresh basis label (got duplicate {label!r})")
                labels[label] = len(basis)
                basis.append((label, deg))
        elif toks[0] == "act":
            if len(toks) < 5 or toks[3] != "=":
                raise ParseError(ln, 1, "act <a> <m> = <lin-comb>")
            act_raw.append((ln, toks[1], toks[2], raw.split("=", 1)[1]))
        elif toks[0] == "d":
            if len(toks) < 4 or toks[2] != "=":
                raise ParseError(ln, 1, "d <m> = <lin-comb>")
            diff_raw.append((ln, toks[1], raw.split("=", 1)[1]))
        else:
            raise ParseError(ln, 1, "basis, act or d line")
    act = {}
    for ln, a, m, rhs in act_raw:
        if a not in alabels:
            raise ParseError(ln, 1, f"known algebra label (got {a!r})")
        if m not in labels:
            raise ParseError(ln, 1, f"known module label (got {m!r})")
        e = _lin_comb(F, rhs, labels, ln, 1)
        if e:
            act[(alabels[a], labels[m])] = e
    diff = {}
    for ln, m, rhs in diff_raw:
        if m not in labels:
            raise ParseError(ln, 1, f"known module label (got {m!r})")
        e = _lin_comb(F, rhs, labels, ln, 1)
        if e:
            diff[labels[m]] = e
    # the unit acts as the identity unless stated otherwise
    for i in range(len(basis)):
        act.setdefault((A.unit, i), {i: F.one})
    M = DgModule(A, side, basis, act, diff, name=name)
    pf.modules[name] = M
    pf.module_over[name] = alg
    pf.order.append(("module", name))


def _parse_arrow_block(pf, header_tokens, lineno, lines, kind):
    if len(header_tokens) != 6 or header_tokens[2] != ":" or header_tokens[4] != "->":
        raise ParseError(lineno, 1, f"{kind} <name> : <source> -> <target>")
    name, src, tgt = header_tokens[1], header_tokens[3], header_tokens[5]
    pool = pf.algebras if kind == "morphism" else pf.modules
    store = pf.morphisms if kind == "morphism" else pf.maps
    if name in store:
        raise ParseError(lineno, 1, f"fresh {kind} name (got duplicate {name!r})")
    for t in (src, tgt):
        if t not in pool:
            raise ParseError(lineno, 1, f"declared {'algebra' if kind == 'morphism' else 'module'} (got {t!r})")
    S, T = pool[src], pool[tgt]
    slabels = {lbl: i for i, (lbl, _) in enumerate(S.basis)}
    tlabels = {lbl: i for i, (lbl, _) in enumerate(T.basis)}
    images = {}
    for ln, toks, raw in _block_lines(lines):
        if len(toks) < 3 or toks[1] != "->":
            raise ParseError(ln, 1, "<element> -> <lin-comb>")
        if toks[0] not in slabels:
            raise ParseError(ln, 1, f"known source label (got {toks[0]!r})")
        e = _lin_comb(pf.field, raw.split("->", 1)[1], tlabels, ln, 1)
        if e:
            images[slabels[toks[0]]] = e
    if kind == "morphism":
        store[name] = DgaMorphism(S, T, images, name=name)
    else:
        store[name] = MapDecl(name, S, T, images)
    pf.order.append((kind, name))


def _tokenize_sexpr(text: str, lineno: int):
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    return toks


def _parse_node(pf, toks, pos: int, lineno: int):
    if pos >= len(toks) or toks[pos] != "(":
        raise ParseError(lineno, 1, "'(' starting a build-tree node")
    pos += 1
    if pos >= len(toks):
        raise ParseError(lineno, 1, "node keyword")
    kw = toks[pos]
    pos += 1
    if kw in ("shift", "cone") and pos >= len(toks):
        raise ParseError(lineno, 1, f"{'shift amount' if kw == 'shift' else 'map name'} after {kw!r}")
    if kw == "leaf":
        node = Leaf(0)
    elif kw == "shift":
        t = _int(toks[pos], lineno, 1)
        child, pos = _parse_node(pf, toks, pos + 1, lineno)
        node = Leaf(child.shift + t) if isinstance(child, Leaf) else ShiftNode(t, child)
    elif kw == "sum":
        children = []
        while pos < len(toks) and toks[pos] == "(":
            child, pos = _parse_node(pf, toks, pos, lineno)
            children.append(child)
        node = SumNode(children)
    elif kw == "cone":
        mname = toks[pos]
        if mname not in pf.maps:
            raise ParseError(lineno, 1, f"declared map (got {mname!r})")
        src, pos = _parse_node(pf, toks, pos + 1, lineno)
        tgt, pos = _parse_node(pf, toks, pos, lineno)
        node = ConeNode(src, tgt, pf.maps[mname].matrices())
    else:
        raise ParseError(lineno, 1, f"leaf, shift, sum or cone (got {kw!r})")
    if pos >= len(toks) or toks[pos] != ")":
        raise ParseError(lineno, 1, "')' closing the node")
    return node, pos + 1


def _parse_witness(pf: PresentationFile, header_tokens, lineno: int, lines: _Lines):
    if len(header_tokens) != 4 or header_tokens[2] != "for":
        raise ParseError(lineno, 1, "witness <name> for <module>")
    name, mod = header_tokens[1], header_tokens[3]
    if name in pf.witnesses:
        raise ParseError(lineno, 1, f"fresh witness name (got duplicate {name!r})")
    if mod not in pf.modules:
        raise ParseError(lineno, 1, f"declared module (got {mod!r})")
    body = []
    retract = None
    first_ln = lineno
    for ln, toks, raw in _block_lines(lines):
        if toks[0] == "retract":
            # retract <i> <p> <h> consumes the surrounding tree
            if len(toks) != 4:
                raise ParseError(ln, 1, "retract <incl-map> <proj-map> <homotopy-map>")
            for t in toks[1:]:
                if t not in pf.maps:
                    raise ParseError(ln, 1, f"declared map (got {t!r})")
            retract = (toks[1], toks[2], toks[3])
        else:
            body.append(raw)
            first_ln = ln
    expr = " ".join(" ".join(b.split()) for b in body)
    toks = _tokenize_sexpr(expr, first_ln)
    if not toks:
        raise ParseError(lineno, 1, "build-tree s-expression in the witness block")
    tree, pos = _parse_node(pf, toks, 0, first_ln)
    if pos != len(toks):
        raise ParseError(first_ln, 1, "end of s-expression")
    if retract is None:
        w = BuildTreeWitness(tree)
    else:
        i, p, h = retract
        w = BuildTreeWitness(
            tree,
            incl=pf.maps[i].matrices(),
            proj=pf.maps[p].matrices(),
            homotopy=pf.maps[h].matrices(offset=1),
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
        p = _int(toks[2], lineno, 1)
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
        elif toks[0] == "morphism":
            _parse_arrow_block(pf, toks, lineno, lines, "morphism")
        elif toks[0] == "map":
            _parse_arrow_block(pf, toks, lineno, lines, "map")
        elif toks[0] == "witness":
            _parse_witness(pf, toks, lineno, lines)
        elif toks[0] == "field":
            raise ParseError(lineno, 1, "a single field declaration")
        else:
            raise ParseError(lineno, 1, "algebra, module, morphism, map or witness")


# -- serialization -------------------------------------------------------------


def _render_comb(F: Field, e: dict, labels) -> str:
    if not e:
        return "0"
    parts = []
    for i in sorted(e):
        c = F.to_str(e[i])
        parts.append(labels[i] if c == "1" else f"{c}*{labels[i]}")
    return " + ".join(parts)


def serialize(pf: PresentationFile) -> str:
    out = [f"field {pf.field_decl}"]
    F = pf.field
    for kind, name in pf.order:
        out.append("")
        if kind == "algebra":
            A = pf.algebras[name]
            labels = [lbl for lbl, _ in A.basis]
            out.append(f"algebra {name}")
            out.append("  basis " + " ".join(f"{lbl}:{d}" for lbl, d in A.basis))
            out.append(f"  unit {labels[A.unit]}")
            for (i, j), e in sorted(A.mul.items()):
                if i == A.unit or j == A.unit:
                    continue
                out.append(f"  mul {labels[i]} {labels[j]} = {_render_comb(F, e, labels)}")
            for i, e in sorted(A.diff.items()):
                out.append(f"  d {labels[i]} = {_render_comb(F, e, labels)}")
        elif kind == "module":
            M = pf.modules[name]
            A = M.algebra
            alabels = [lbl for lbl, _ in A.basis]
            labels = [lbl for lbl, _ in M.basis]
            side = " right" if M.side == "right" else ""
            out.append(f"module {name} over {pf.module_over[name]}{side}")
            out.append("  basis " + " ".join(f"{lbl}:{d}" for lbl, d in M.basis))
            for (a, m), e in sorted(M.act.items()):
                if a == A.unit:
                    continue
                out.append(f"  act {alabels[a]} {labels[m]} = {_render_comb(F, e, labels)}")
            for m, e in sorted(M.diff.items()):
                out.append(f"  d {labels[m]} = {_render_comb(F, e, labels)}")
        elif kind in ("morphism", "map"):
            obj = (pf.morphisms if kind == "morphism" else pf.maps)[name]
            S, T = (obj.source, obj.target)
            sname, tname = S.name, T.name
            slabels = [lbl for lbl, _ in S.basis]
            tlabels = [lbl for lbl, _ in T.basis]
            out.append(f"{kind} {name} : {sname} -> {tname}")
            images = obj.images
            for i in sorted(images):
                out.append(f"  {slabels[i]} -> {_render_comb(F, images[i], tlabels)}")
        elif kind == "witness":
            w = pf.witnesses[name]
            out.append(f"witness {name} for {w.module_name}")
            out.append(f"  {w.expr}")
            if w.retract is not None:
                out.append("  retract {} {} {}".format(*w.retract))
    return "\n".join(out) + "\n"
