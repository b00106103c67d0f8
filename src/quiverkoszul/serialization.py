"""Presentation documents and canonical JSON.

Schema, format 1: an object with "vertices" (strings), "arrows" (objects
{name, from, to}), "relations" (lists of terms {coef, path}), and an
optional "grading" ({group, weights}).  Coefficients are rational strings
like "3/2"; paths list arrow names in the order they are applied, first
first.  Serialization is canonical: fixed key order, relation terms sorted
by path, so equal presentations produce byte-identical documents.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring

from .algebra import Presentation
from .groups import FiniteGroup, cyclic_group, dihedral_group, direct_product
from .quiver import PathCombination, Quiver, QuiverError, RelationError

FORMAT = 1


class DocumentError(ValueError):
    """A schema or content problem, named by its field path."""


def _fail(path: str, message: str):
    raise DocumentError(f"{path}: {message}")


# ---------------------------------------------------------------------------
# group specs
#
# The same group descriptions appear in two syntaxes: the CLI string grammar
#   cyclic:n | product:SPEC,SPEC | dihedral:n
# and the JSON form {kind, parameters}.  Both normalize to nested tuples
# like ("product", ("cyclic", 2), ("cyclic", 3)).

class GroupSpecError(ValueError):
    pass


def parse_group_spec(text: str) -> tuple:
    spec, rest = _parse_spec(text.strip(), "group spec")
    if rest:
        raise GroupSpecError(f"trailing text {rest!r} after group spec")
    return spec


def _parse_spec(text: str, where: str):
    if text.startswith("cyclic:"):
        n, rest = _parse_int(text[len("cyclic:"):], where)
        if n < 1:
            raise GroupSpecError(f"{where}: cyclic order must be at least 1")
        return ("cyclic", n), rest
    if text.startswith("dihedral:"):
        n, rest = _parse_int(text[len("dihedral:"):], where)
        if n < 2:
            raise GroupSpecError(f"{where}: dihedral parameter must be at least 2")
        return ("dihedral", n), rest
    if text.startswith("product:"):
        left, rest = _parse_spec(text[len("product:"):], where)
        if not rest.startswith(","):
            raise GroupSpecError(f"{where}: product needs two comma-separated factors")
        right, rest = _parse_spec(rest[1:], where)
        return ("product", left, right), rest
    raise GroupSpecError(
        f"{where}: expected cyclic:n, dihedral:n, or product:SPEC,SPEC at {text!r}"
    )


def _parse_int(text: str, where: str):
    digits = ""
    for ch in text:
        if ch.isdigit():
            digits += ch
        else:
            break
    if not digits:
        raise GroupSpecError(f"{where}: expected a number at {text!r}")
    return int(digits), text[len(digits):]


def build_group(spec: tuple) -> FiniteGroup:
    kind = spec[0]
    if kind == "cyclic":
        return cyclic_group(spec[1])
    if kind == "dihedral":
        return dihedral_group(spec[1])
    if kind == "product":
        return direct_product(build_group(spec[1]), build_group(spec[2]))
    raise GroupSpecError(f"unknown group kind {kind!r}")


def group_spec_to_document(spec: tuple) -> dict:
    kind = spec[0]
    if kind in ("cyclic", "dihedral"):
        return {"kind": kind, "parameters": spec[1]}
    return {
        "kind": "product",
        "parameters": [group_spec_to_document(spec[1]), group_spec_to_document(spec[2])],
    }


def group_spec_from_document(doc, path: str) -> tuple:
    if not isinstance(doc, dict):
        _fail(path, "expected an object with kind and parameters")
    kind = doc.get("kind")
    params = doc.get("parameters")
    if kind in ("cyclic", "dihedral"):
        if not isinstance(params, int) or isinstance(params, bool):
            _fail(f"{path}.parameters", f"{kind} takes a single integer")
        floor = 1 if kind == "cyclic" else 2
        if params < floor:
            _fail(f"{path}.parameters", f"{kind} parameter must be at least {floor}")
        return (kind, params)
    if kind == "product":
        if not isinstance(params, list) or len(params) != 2:
            _fail(f"{path}.parameters", "product takes a list of two group specs")
        return (
            "product",
            group_spec_from_document(params[0], f"{path}.parameters[0]"),
            group_spec_from_document(params[1], f"{path}.parameters[1]"),
        )
    _fail(f"{path}.kind", f"unknown kind {kind!r}, expected cyclic, product, or dihedral")


# ---------------------------------------------------------------------------
# presentation documents


@dataclass(frozen=True)
class ParsedDocument:
    """A presentation plus whatever grading the document declared.

    The declared group is built at most once: ``parse_document`` passes on
    the group it built to check the weights, and ``group`` builds one only
    for a document made without it.  It stays out of equality and repr,
    which ``group_spec`` already decides.
    """

    presentation: Presentation
    group_spec: tuple | None = None
    weights: dict | None = None
    _group: FiniteGroup | None = field(default=None, compare=False, repr=False)

    def group(self) -> FiniteGroup | None:
        if self._group is None and self.group_spec:
            object.__setattr__(self, "_group", build_group(self.group_spec))
        return self._group


def parse_document(text: str) -> ParsedDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentError(f"not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        _fail("document", "expected a JSON object")
    fmt = doc.get("format")
    # the int 1 itself: True and 1.0 compare equal to it
    if type(fmt) is not int or fmt != FORMAT:
        _fail("format", f"expected {FORMAT}, got {fmt!r}")

    vertices = doc.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        _fail("vertices", "expected a nonempty list of vertex labels")
    for i, v in enumerate(vertices):
        if not isinstance(v, str) or not v:
            _fail(f"vertices[{i}]", "vertex labels must be nonempty strings")

    arrows_doc = doc.get("arrows", [])
    if not isinstance(arrows_doc, list):
        _fail("arrows", "expected a list")
    arrows = []
    for i, a in enumerate(arrows_doc):
        if not isinstance(a, dict):
            _fail(f"arrows[{i}]", "expected an object {name, from, to}")
        for key in ("name", "from", "to"):
            if not isinstance(a.get(key), str) or not a[key]:
                _fail(f"arrows[{i}].{key}", "must be a nonempty string")
        arrows.append((a["name"], a["from"], a["to"]))

    try:
        quiver = Quiver(vertices, arrows)
    except QuiverError as err:
        raise DocumentError(f"quiver: {err}") from err

    relations_doc = doc.get("relations", [])
    if not isinstance(relations_doc, list):
        _fail("relations", "expected a list")
    relations = []
    for i, rel in enumerate(relations_doc):
        if not isinstance(rel, list) or not rel:
            _fail(f"relations[{i}]", "expected a nonempty list of terms")
        terms = {}
        for j, term in enumerate(rel):
            where = f"relations[{i}][{j}]"
            if not isinstance(term, dict):
                _fail(where, "expected an object {coef, path}")
            coef_raw = term.get("coef")
            if not isinstance(coef_raw, str):
                _fail(f"{where}.coef", "coefficient must be a rational string")
            try:
                coef = Fraction(coef_raw)
            except (ValueError, ZeroDivisionError) as err:
                _fail(f"{where}.coef", f"invalid rational {coef_raw!r} ({err})")
            path_labels = term.get("path")
            if not isinstance(path_labels, list) or not path_labels:
                _fail(f"{where}.path", "expected a nonempty list of arrow names")
            try:
                path = quiver.path(path_labels)
            except QuiverError as err:
                raise DocumentError(f"{where}.path: {err}") from err
            terms[path] = terms.get(path, 0) + coef
        try:
            relations.append(PathCombination(terms))
        except RelationError as err:
            raise DocumentError(f"relations[{i}]: {err}") from err

    try:
        presentation = Presentation(quiver, relations)
    except RelationError as err:
        raise DocumentError(f"relations: {err}") from err

    group_spec = group = weights = None
    grading = doc.get("grading")
    if grading is not None:
        if not isinstance(grading, dict):
            _fail("grading", "expected an object {group, weights}")
        group_spec = group_spec_from_document(grading.get("group"), "grading.group")
        group = build_group(group_spec)
        weights_doc = grading.get("weights")
        if not isinstance(weights_doc, dict):
            _fail("grading.weights", "expected an object arrow name -> element")
        arrow_labels = {a.label for a in quiver.arrows}
        weights = {}
        for name, element in weights_doc.items():
            if name not in arrow_labels:
                _fail(f"grading.weights.{name}", "no such arrow")
            if not isinstance(element, str) or element not in group:
                _fail(
                    f"grading.weights.{name}",
                    f"{element!r} is not an element of the declared group",
                )
            weights[name] = element
        missing = sorted(arrow_labels - set(weights))
        if missing:
            _fail("grading.weights", f"missing weights for arrows {missing}")

    return ParsedDocument(presentation, group_spec, weights, group)


def presentation_to_document(p: Presentation, group_spec: tuple | None = None,
                             weights: dict | None = None) -> dict:
    q = p.quiver
    doc = {
        "format": FORMAT,
        "vertices": list(q.vertices),
        "arrows": [{"name": a.label, "from": a.source, "to": a.target} for a in q.arrows],
        "relations": [
            [
                {"coef": str(c), "path": list(path.labels_first_applied())}
                for path, c in sorted(r.items(), key=lambda item: q.path_key(item[0]))
            ]
            for r in p.relations
        ],
    }
    if group_spec is not None:
        if weights is None:
            raise ValueError("a grading needs weights alongside the group")
        doc["grading"] = {
            "group": group_spec_to_document(group_spec),
            "weights": {a.label: weights[a.label] for a in q.arrows},
        }
    return doc


def canonical_json(obj) -> str:
    """Deterministic rendering: fixed indentation, preserved key order.

    The input is what the program renders, each value of exactly one of the
    types ``dict`` with ``str`` keys, ``list``, ``tuple``, ``str``, ``int``,
    ``bool``, ``None`` and finite ``float``.  On it the text equals
    ``json.dumps(obj, indent=2, ensure_ascii=False) + "\\n"`` byte for byte.
    Any other type, a subclass or a non-str key included, raises
    ``TypeError``, and a NaN or infinite float raises ``ValueError``.
    """
    parts = []
    _render(obj, parts.append, "\n")
    parts.append("\n")
    return "".join(parts)


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"float {x!r} has no JSON text")
    return float.__repr__(x)


# the text of a scalar of exactly this type
_SCALAR_TEXT = {
    str: encode_basestring,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    float: _float_text,
}


def _render(o, append, newline: str) -> None:
    """Append the text of o, whose line starts at ``newline``'s indentation."""
    kind = type(o)
    text = _SCALAR_TEXT.get(kind)
    if text is not None:
        append(text(o))
    elif kind is dict:
        if not o:
            append("{}")
            return
        inner = newline + "  "
        append("{" + inner)
        sep = ""
        for k, v in o.items():
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            text = _SCALAR_TEXT.get(type(v))
            if text is not None:
                append(sep + encode_basestring(k) + ": " + text(v))
            else:
                append(sep + encode_basestring(k) + ": ")
                _render(v, append, inner)
            sep = "," + inner
        append(newline + "}")
    elif kind is list or kind is tuple:
        if not o:
            append("[]")
            return
        inner = newline + "  "
        # like the stdlib, the opening bracket comes with the first item
        sep = "[" + inner
        for v in o:
            text = _SCALAR_TEXT.get(type(v))
            if text is not None:
                append(sep + text(v))
            else:
                append(sep)
                _render(v, append, inner)
            sep = "," + inner
        append(newline + "]")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
