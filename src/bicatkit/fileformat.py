"""A line-diffable text format for every structure the toolkit builds.

One document holds named definitions — categories, magmas, cocycle data,
bicategories, monoidal categories, lax functors, icons, oplax transformations
— plus builder directives (`build X = from_category C`, `sigma`, `codiscrete`,
`cocycle`, `ordinal`, `cylinder`).  References point at names defined earlier
in the same document (or in a document already merged into the namespace),
and every definition is validated the moment it is complete: a file that
parses is a file whose every structure passes its validator.

Cell identifiers are written as compact JSON values (strings, integers,
arrays for tuples), so heterogeneous ids round-trip exactly; composition
lines fix the textual order as ``compose g after f = h``, meaning g runs
after f.  Serializing any structure and parsing the result yields an equal
structure, names included.

The grammar of every block is one entry of the table `_SCHEMAS`; the
parser and the serializer both read it, so a line form is written once.
Within a block, a keyed line form takes each key once and a single-valued
one appears at most once: a repeated line is refused, not overwritten.
Repeats of a listing line, such as a second `object` line for one object,
are left to the validator, which reports them.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from .bicat import (
    FiniteBicategory,
    Magma,
    MonoidalCategory,
    cocycle_bicategory,
    codiscrete_bicategory,
    from_category,
    sigma_bicategory,
    validate_bicategory,
    validate_monoidal,
)
from .catcore import (
    FiniteCategory,
    Functor,
    NatTrans,
    chain_category,
    validate_category,
)
from .report import StructureError, _tuplify, dump_id, sorted_ids


_DECODER = json.JSONDecoder()


def _tokenize(line: str, where: str):
    """Keywords, punctuation (: -> => =), and JSON values, in order."""
    out, i, n = [], 0, len(line)
    while i < n:
        while i < n and line[i] in " \t":
            i += 1
        if i >= n or line[i] == "#":
            break
        if line.startswith("->", i):
            out.append(("p", "->"))
            i += 2
            continue
        if line.startswith("=>", i):
            out.append(("p", "=>"))
            i += 2
            continue
        ch = line[i]
        if ch in "=:":
            out.append(("p", ch))
            i += 1
            continue
        if ch == '"' or ch == "[" or ch == "-" or ch.isdigit() or \
                line.startswith(("true", "false", "null"), i):
            try:
                val, i = _DECODER.raw_decode(line, i)
            except ValueError:
                raise StructureError(f"{where}: bad value in {line.strip()!r}")
            out.append(("v", _tuplify(val)))
            continue
        j = i
        while j < n and line[j] not in " \t":
            j += 1
        out.append(("w", line[i:j]))
        i = j
    return out


class _Lines:
    """Tokenized, comment-stripped lines with one-line lookahead."""

    def __init__(self, text: str, source: str = "<string>"):
        self.source = source
        self.rows = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            toks = _tokenize(raw, f"{source}:{lineno}")
            if toks:
                self.rows.append((lineno, toks))
        self.pos = 0

    def done(self):
        return self.pos >= len(self.rows)

    def next(self):
        row = self.rows[self.pos]
        self.pos += 1
        return row

    def fail(self, message, lineno):
        raise StructureError(f"{self.source}:{lineno}: {message}")


def _shape(toks):
    """The keyword/punctuation skeleton of a token list."""
    return tuple(t[1] if t[0] in ("w", "p") else "@" for t in toks)


def _values(toks):
    return [t[1] for t in toks if t[0] == "v"]


# ---------------------------------------------------------------------------
# the document

@dataclass
class CocycleData:
    """Raw data for a group delooping with abelian coefficients and a twist."""
    g_elements: list
    g_op: dict
    g_unit: object
    a_elements: list
    a_op: dict
    a_unit: object
    twist: dict


@dataclass
class StructureFile:
    """Named structures of every kind, in definition order."""
    categories: dict = field(default_factory=dict)
    magmas: dict = field(default_factory=dict)
    cocycledata: dict = field(default_factory=dict)
    bicategories: dict = field(default_factory=dict)
    monoidals: dict = field(default_factory=dict)
    laxfunctors: dict = field(default_factory=dict)
    icons: dict = field(default_factory=dict)
    oplaxes: dict = field(default_factory=dict)
    order: list = field(default_factory=list)       # (kind, name)

    def _registry(self, kind):
        return getattr(self, _SCHEMAS[kind].attr)

    def add(self, kind, name, obj):
        reg = self._registry(kind)
        if name in reg:
            raise StructureError(f"duplicate {kind} {name!r}")
        self.order.append((kind, name))
        reg[name] = obj

    def get(self, kind, name):
        reg = self._registry(kind)
        if name not in reg:
            raise StructureError(f"unknown {kind} {name!r}")
        return reg[name]

    def lookup(self, name, kinds=None):
        """(kind, structure) for a name of one of `kinds` (default: any
        kind), or None when the document defines no such name."""
        for kind in kinds or KINDS:
            reg = self._registry(kind)
            if name in reg:
                return kind, reg[name]
        return None


# ---------------------------------------------------------------------------
# the grammar: one schema per block kind

class _Form:
    """One line form, written as the line reads with `{slot}` for each value.

    A line fills `field` of its block.  A "list" field appends the line's one
    value and is written in stored order; a "scalar" field takes it; a "dict"
    field stores the remaining slots under the `key` slots (a tuple when
    there are several of either) and is written in `sorted_ids` order of its
    keys.  A form with a `block` opens a nested block of that schema, named
    by its `{name}` slot, and its value is the structure that block builds.
    """

    def __init__(self, text, field=None, store="dict", key="", block=None):
        self.text, self.field, self.store, self.block = text, field, store, block
        words = text.split()
        self.shape = tuple("@" if w[0] == "{" else w for w in words)
        self.slots = tuple(w[1:-1] for w in words if w[0] == "{")
        self.key = tuple(key.split())
        self.value = tuple(s for s in self.slots if s not in self.key)

    def line(self, vals):
        return self.text.format(**{s: dump_id(vals[s]) for s in self.slots})


class _Schema:
    """The line forms of one block kind, in the order they are written, and
    the finishing step that builds, checks and validates its structure.
    Top-level kinds also have a header line, the StructureFile attribute
    that registers them, their structure type, named "module.Type" within
    the package so that naming it loads no module, and the kind of the
    structures their header names as {source} and {target}."""

    def __init__(self, forms, finish, header=None, attr=None, cls=None, refs=None):
        self.forms, self.finish = forms, finish
        self.header = _Form(header) if header else None
        self.attr, self.cls, self.refs = attr, cls, refs
        self.by_shape = {f.shape: f for f in forms}

    def holds(self, obj):
        """Whether `obj` is of this kind's structure type.  The type is
        looked up in its module only when that is loaded: no structure of a
        kind exists before then."""
        module, name = self.cls.split(".")
        cls = getattr(sys.modules.get(f"{__package__}.{module}"), name, None)
        return cls is not None and isinstance(obj, cls)


class _Block:
    """A block being read: the name and key of its opening line, the fields
    its lines fill, the block it is nested in, and the structures its header
    names.  Refusals point at the opening line."""

    def __init__(self, lines, lineno, what, name, key=(), parent=None):
        self.lines, self.lineno, self.what, self.name = lines, lineno, what, name
        self.key, self.parent = key, parent
        self.source = self.target = None
        self.fields = {}

    def fail(self, message):
        self.lines.fail(message, self.lineno)

    def checked(self, validator, obj):
        _check(validator(obj), self.what, self.lines, self.lineno)
        return obj


def _finish_category(blk):
    return blk.checked(validate_category, FiniteCategory(blk.name, **blk.fields))


def _finish_magma(blk):
    m = Magma(**blk.fields)
    missing = [(x, y) for x in m.elements for y in m.elements
               if (x, y) not in m.table]
    if missing or m.basepoint not in m.elements:
        blk.fail(f"{blk.what} is incomplete (missing {missing or 'basepoint'})")
    outside = _off_elements("op", m.elements, m.table)
    if outside:
        blk.fail(f"{blk.what} leaves its elements at {', '.join(outside)}")
    return m


def _off_elements(word, elements, table):
    """The lines of an operation whose value is not one of its elements;
    the deloopings compose such values again."""
    return [f"{word} {x!r} {y!r}" for x in elements for y in elements
            if table[(x, y)] not in elements]


def _finish_cocycledata(blk):
    d = CocycleData(**blk.fields)
    missing = []
    for word, unit_word, elements, op, unit in (
            ("op", "unit", d.g_elements, d.g_op, d.g_unit),
            ("coop", "counit", d.a_elements, d.a_op, d.a_unit)):
        missing += [f"{word} {x!r} {y!r}" for x in elements for y in elements
                    if (x, y) not in op]
        if unit not in elements:
            missing.append(unit_word)
    if missing:
        blk.fail(f"{blk.what} is incomplete (missing {', '.join(missing)})")
    # the delooping ignores twist entries off the group
    outside = _off_elements("op", d.g_elements, d.g_op) + [
        f"twist {x!r} {y!r} {z!r}" for x, y, z in sorted_ids(d.twist)
        if not {x, y, z} <= set(d.g_elements)]
    if outside:
        blk.fail(f"{blk.what} leaves its elements at {', '.join(outside)}")
    return d


def _finish_bicategory(blk):
    return blk.checked(validate_bicategory, FiniteBicategory(blk.name, **blk.fields))


def _finish_compose_functor(blk):
    x, y, z = blk.key
    homs = blk.parent.fields["homs"]
    for pair in ((y, z), (x, y), (x, z)):
        if pair not in homs:
            blk.fail(f"compose {x} {y} {z} precedes hom {pair}")
    return Functor(blk.name, (homs[(y, z)], homs[(x, y)]), homs[(x, z)], **blk.fields)


def _finish_monoidal(blk):
    if blk.fields["cat"] is None:
        blk.fail(f"{blk.what} has no base category")
    return blk.checked(validate_monoidal, MonoidalCategory(blk.name, **blk.fields))


def _finish_laxfunctor(blk):
    from .laxfun import LaxFunctor, validate_lax_functor
    return blk.checked(validate_lax_functor,
                       LaxFunctor(blk.name, blk.source, blk.target, **blk.fields))


def _finish_hom_functor(blk):
    a, b = blk.key
    fun = blk.parent
    object_map = fun.fields["object_map"]
    if a not in object_map or b not in object_map:
        blk.fail(f"hom {a} {b} precedes its object lines")
    image = (object_map[a], object_map[b])
    if (a, b) not in fun.source.homs:
        blk.fail(f"hom {a} {b} is not a hom of {fun.source.name!r}")
    if image not in fun.target.homs:
        blk.fail(f"hom {a} {b} maps to {image}, not a hom of {fun.target.name!r}")
    return Functor(blk.name, fun.source.homs[(a, b)], fun.target.homs[image],
                   **blk.fields)


def _finish_icon(blk):
    from .icon import Icon, validate_icon
    return blk.checked(validate_icon, Icon.from_components(blk.name, blk.source, blk.target,
                                                           blk.fields["components"]))


def _finish_icon_component(blk):
    icon, (a, b) = blk.parent, blk.key
    if blk.key not in icon.source.hom_functors or \
            blk.key not in icon.target.hom_functors:
        blk.fail(f"{icon.what} names a missing hom {a} {b}")
    hom = icon.source.source.homs[blk.key].objects
    stray = [x for x in blk.fields["components"] if x not in hom]
    if stray:
        blk.fail(f"{blk.what} has a cell at {dump_id(stray[0])}, not a 1-cell of hom {a} {b}")
    return NatTrans(blk.name, icon.source.hom_functors[blk.key],
                    icon.target.hom_functors[blk.key], **blk.fields)


def _finish_oplax(blk):
    from .oplax import OplaxNat, validate_oplax
    return blk.checked(validate_oplax,
                       OplaxNat(blk.name, blk.source, blk.target, **blk.fields))


# The whole .bc grammar: the parser and the serializer both read this table.
# Keys are the top-level keywords, plus the bodies of nested blocks.
_SCHEMAS = {
    "category": _Schema((
        _Form("object {x}", "objects", "list"),
        _Form("morphism {m} : {s} -> {t}", "morphisms", key="m"),
        _Form("identity {x} = {m}", "identity", key="x"),
        _Form("compose {g} after {f} = {h}", "table", key="f g"),
    ), _finish_category, "category {name}", "categories", "catcore.FiniteCategory"),
    "magma": _Schema((
        _Form("element {x}", "elements", "list"),
        _Form("basepoint {x}", "basepoint", "scalar"),
        _Form("op {x} {y} = {z}", "table", key="x y"),
    ), _finish_magma, "magma {name}", "magmas", "bicat.Magma"),
    "cocycledata": _Schema((
        _Form("element {x}", "g_elements", "list"),
        _Form("unit {x}", "g_unit", "scalar"),
        _Form("op {x} {y} = {z}", "g_op", key="x y"),
        _Form("coelement {x}", "a_elements", "list"),
        _Form("counit {x}", "a_unit", "scalar"),
        _Form("coop {x} {y} = {z}", "a_op", key="x y"),
        _Form("twist {x} {y} {z} = {a}", "twist", key="x y z"),
    ), _finish_cocycledata, "cocycledata {name}", "cocycledata", "fileformat.CocycleData"),
    "bicategory": _Schema((
        _Form("object {x}", "objects", "list"),
        _Form("unit {x} = {f}", "unit", key="x"),
        _Form("hom {a} {b} = category {name}", "homs", key="a b", block="category"),
        _Form("compose {x} {y} {z} = functor {name}", "comp", key="x y z",
              block="compose-functor"),
        _Form("assoc {h} {g} {f} = {c}", "associator", key="h g f"),
        _Form("lunit {f} = {c}", "left_unitor", key="f"),
        _Form("runit {f} = {c}", "right_unitor", key="f"),
    ), _finish_bicategory, "bicategory {name}", "bicategories", "bicat.FiniteBicategory"),
    "compose-functor": _Schema((
        _Form("on1 {g} after {f} = {h}", "object_map", key="g f"),
        _Form("on2 {d} after {c} = {e}", "morphism_map", key="d c"),
    ), _finish_compose_functor),
    "monoidal": _Schema((
        _Form("base = category {name}", "cat", "scalar", block="category"),
        _Form("unitobj {x}", "unit_obj", "scalar"),
        _Form("tensor {x} {y} = {z}", "tensor_obj", key="x y"),
        _Form("tensormor {f} {g} = {h}", "tensor_mor", key="f g"),
        _Form("massoc {x} {y} {z} = {m}", "associator", key="x y z"),
        _Form("mlunit {x} = {m}", "left_unitor", key="x"),
        _Form("mrunit {x} = {m}", "right_unitor", key="x"),
    ), _finish_monoidal, "monoidal {name}", "monoidals", "bicat.MonoidalCategory"),
    "laxfunctor": _Schema((
        _Form("object {a} -> {b}", "object_map", key="a"),
        _Form("hom {a} {b} = functor {name}", "hom_functors", key="a b",
              block="hom-functor"),
        _Form("comp {g} {f} = {c}", "comp_constraints", key="g f"),
        _Form("unitcell {a} = {c}", "unit_constraints", key="a"),
    ), _finish_laxfunctor, "laxfunctor {name} : {source} -> {target}",
        "laxfunctors", "laxfun.LaxFunctor", "bicategory"),
    "hom-functor": _Schema((
        _Form("on1 {f} -> {g}", "object_map", key="f"),
        _Form("on2 {c} -> {d}", "morphism_map", key="c"),
    ), _finish_hom_functor),
    "icon": _Schema((
        _Form("at {a} {b} = nat {name}", "components", key="a b", block="nat"),
    ), _finish_icon, "icon {name} : {source} => {target}", "icons", "icon.Icon",
        "laxfunctor"),
    "nat": _Schema((
        _Form("cell {f} = {c}", "components", key="f"),
    ), _finish_icon_component),
    "oplax": _Schema((
        _Form("component {a} = {c}", "components", key="a"),
        _Form("constraint {f} = {c}", "constraints", key="f"),
    ), _finish_oplax, "oplax {name} : {source} => {target}", "oplaxes", "oplax.OplaxNat",
        "laxfunctor"),
}

KINDS = tuple(kind for kind, schema in _SCHEMAS.items() if schema.attr)


def _pick(vals, slots):
    """The values of some slots: one value, or a tuple of several."""
    return vals[slots[0]] if len(slots) == 1 else tuple(vals[s] for s in slots)


def _unpick(slots, value):
    """The inverse of `_pick`: slot name -> value."""
    return dict(zip(slots, value if len(slots) > 1 else (value,)))


# ---------------------------------------------------------------------------
# parsing

def parse(text: str, source: str = "<string>", into: StructureFile = None) -> StructureFile:
    sf = into if into is not None else StructureFile()
    lines = _Lines(text, source)
    while not lines.done():
        lineno, toks = lines.next()
        kind = _shape(toks)[0]
        if kind == "build":
            _run_build(toks, lineno, lines, sf)
        elif kind in KINDS:
            _read_definition(kind, toks, lineno, lines, sf)
        else:
            lines.fail(f"unknown directive {toks[0][1]!r}", lineno)
    return sf


def parse_path(path, into: StructureFile = None) -> StructureFile:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise StructureError(f"{path}: not UTF-8 text (byte {e.start})") from None
    return parse(text, source=str(path), into=into)


def _check(report, what, lines, lineno):
    if not report.ok:
        first = report.first()
        raise StructureError(
            f"{lines.source}:{lineno}: {what} fails validation: "
            f"{first.kind}: {first.message}")


def _read_definition(kind, toks, lineno, lines, sf):
    schema = _SCHEMAS[kind]
    if _shape(toks) != schema.header.shape:
        lines.fail(f"malformed {kind} header line", lineno)
    vals = dict(zip(schema.header.slots, _values(toks)))
    blk = _Block(lines, lineno, f"{kind} {vals['name']!r}", vals["name"])
    if schema.refs:
        blk.source = sf.get(schema.refs, vals["source"])
        blk.target = sf.get(schema.refs, vals["target"])
    sf.add(kind, blk.name, _read_block(schema, blk))


def _read_block(schema, blk):
    """Fill the block's fields from its lines up to `end`, then return what
    the schema's finishing step builds from them."""
    lines = blk.lines
    fields = blk.fields = {f.field: [] if f.store == "list" else
                           {} if f.store == "dict" else None
                           for f in schema.forms}
    read = set()  # (field, key) of each line so far
    while True:
        if lines.done():
            blk.fail(f"{blk.what} is missing its end line")
        lineno, toks = lines.next()
        shape = _shape(toks)
        if shape == ("end",):
            return schema.finish(blk)
        form = schema.by_shape.get(shape)
        if form is None:
            lines.fail(f"unexpected line in {blk.what}", lineno)
        vals = dict(zip(form.slots, _values(toks)))
        key = _pick(vals, form.key) if form.key else ()
        if form.store != "list" and (form.field, key) in read:
            keys = "".join(f" {dump_id(vals[s])}" for s in form.key)
            lines.fail(f"{blk.what} repeats its {form.shape[0]}{keys} line", lineno)
        read.add((form.field, key))
        if form.block:
            name = vals["name"]
            value = _read_block(_SCHEMAS[form.block], _Block(
                lines, lineno, f"{form.shape[-2]} {name!r} in {blk.what}",
                name, key, blk))
        else:
            value = _pick(vals, form.value)
        if form.store == "list":
            fields[form.field].append(value)
        elif form.store == "scalar":
            fields[form.field] = value
        else:
            fields[form.field][key] = value


# ---------------------------------------------------------------------------
# builder directives

def _run_build(toks, lineno, lines, sf):
    shape = _shape(toks)
    if len(shape) != 5 or (shape[1], shape[2], shape[4]) != ("@", "=", "@"):
        lines.fail("malformed build line (build NAME = KIND ARG)", lineno)
    name, kind, arg = toks[1][1], toks[3][1], toks[4][1]
    if kind == "from_category":
        b = from_category(sf.get("category", arg), name)
    elif kind == "sigma":
        b = sigma_bicategory(sf.get("monoidal", arg))
        b.name = name
    elif kind == "codiscrete":
        try:
            b = codiscrete_bicategory(name, sf.get("magma", arg))
        except ValueError as e:
            raise StructureError(f"{lines.source}:{lineno}: {e}")
    elif kind == "cocycle":
        d = sf.get("cocycledata", arg)
        b = cocycle_bicategory(name, d.g_elements, d.g_op, d.g_unit,
                               d.a_elements, d.a_op, d.a_unit, d.twist)
    elif kind == "ordinal":
        if not isinstance(arg, int) or arg < 0:
            lines.fail("ordinal takes a non-negative integer", lineno)
        b = from_category(chain_category(arg), name)
    elif kind == "cylinder":
        from .cylinder import lax_cylinder
        base = sf.get("bicategory", arg)
        try:
            cyl = lax_cylinder(base)
        except Exception as e:
            raise StructureError(f"{lines.source}:{lineno}: {e}")
        sf.add("bicategory", name, cyl.total)
        sf.add("laxfunctor", f"{name}-bottom", cyl.bottom)
        sf.add("laxfunctor", f"{name}-top", cyl.top)
        sf.add("oplax", f"{name}-crossing", cyl.crossing)
        return
    else:
        lines.fail(f"unknown builder {kind!r}", lineno)
    _check(validate_bicategory(b), f"built bicategory {name!r}", lines, lineno)
    sf.add("bicategory", name, b)


# ---------------------------------------------------------------------------
# serialization

def _definition_lines(kind, obj, name, names) -> list:
    """One top-level definition as text lines, under `name`; the structures
    its header refers to go under their entry in `names` (by id), if any."""
    schema = _SCHEMAS[kind]
    vals = {"name": name}
    if schema.refs:
        vals.update(source=names.get(id(obj.source), obj.source.name),
                    target=names.get(id(obj.target), obj.target.name))
    out = [schema.header.line(vals)]
    _write_body(schema, obj, "  ", out)
    out.append("end")
    return out


def _write_body(schema, obj, indent, out):
    for form in schema.forms:
        data = getattr(obj, form.field)
        if form.store == "dict":
            entries = [(key, data[key]) for key in sorted_ids(data)]
        else:
            entries = [((), v) for v in (data if form.store == "list" else [data])]
        for key, value in entries:
            vals = _unpick(form.key, key)
            if form.block:
                vals["name"] = value.name
            else:
                vals.update(_unpick(form.value, value))
            out.append(indent + form.line(vals))
            if form.block:
                _write_body(_SCHEMAS[form.block], value, indent + "  ", out)
                out.append(indent + "end")


def serialize_category(cat: FiniteCategory) -> list:
    return _definition_lines("category", cat, cat.name, {})


def serialize_laxfunctor(fun) -> list:
    return _definition_lines("laxfunctor", fun, fun.name, {})


def serialize(sf: StructureFile) -> str:
    """The whole document, one blank line between definitions; built
    structures are expanded to full blocks so the text stands alone.  Each
    structure and each reference to it uses the structure's (first)
    registered name."""
    names = {}
    for kind, name in sf.order:
        names.setdefault(id(sf.get(kind, name)), name)
    return "\n\n".join("\n".join(_definition_lines(kind, sf.get(kind, name), name, names))
                       for kind, name in sf.order) + "\n"


def document_for(obj, name=None) -> StructureFile:
    """A StructureFile holding one structure plus everything it references,
    dependencies first — the shape `serialize` needs to stand alone."""
    sf = StructureFile()
    _include(sf, obj, name)
    return sf


def _include(sf, obj, name=None):
    kind = next((k for k in KINDS if _SCHEMAS[k].holds(obj)), None)
    if kind is None:
        raise StructureError(f"cannot serialize {type(obj).__name__}")
    if _SCHEMAS[kind].refs:
        _include(sf, obj.source)
        _include(sf, obj.target)
    _add_once(sf, kind, name or getattr(obj, "name", None), obj)


def _add_once(sf, kind, name, obj):
    if name is None:
        raise StructureError(f"a {kind} needs a name to be serialized")
    reg = sf._registry(kind)
    if name in reg:
        if reg[name] != obj:
            raise StructureError(f"name clash on {kind} {name!r}")
        return
    sf.add(kind, name, obj)
