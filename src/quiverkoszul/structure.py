"""Finite-dimensional algebras on labelled bases with explicit products.

Hosts the two product constructions attached to a weight grading (the smash
product with the dual of the group algebra, and the skew group algebra of an
action), plus the radical via the trace form of the regular representation
(exact over the rationals in characteristic zero) and the structure-constant
comparison between a covering and the matching smash product.

Only ``_product_rows`` multiplies basis words of a model, reading the
model's product rows in word ids: ``algebra_to_structure_constants`` and
the smash product take their tables from it, the covering comparison reads
the rows it compares, and the skew group algebra moves each basis word by
``moved_normal_form`` in word ids and sums rows of the base table.  Tables
and units hold exact scalars (``int`` where integral, ``Fraction``
otherwise), so the sweeps run on plain integers wherever they can.

The labels of length at most 1 (vertices and arrows) generate a model's
algebra, and ``short_associativity`` and ``verify_smash_covering_iso``
decide on products with such a left factor; the full sweeps
(``associativity_failures``, and the comparison of every product) are the
fallbacks where that argument does not apply.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import AlgebraModel, InternalError, ideal_breaker, moved_normal_form
from .covering import homogeneous_weights, path_weight, split_sheet
from .groups import FiniteGroup, GroupAction
from .linalg import ONE, ZERO, as_scalar, kernel_basis_sparse, vec_axpy
from .quiver import Arrow, Path, trivial_path


class StructureConstantAlgebra:
    """Basis labels, unit coordinates, and sparse structure constants.

    ``table[(i, j)]`` is b_i b_j as {k: coefficient}, for the nonzero
    products only, and ``unit`` holds the unit's coordinates.  Both are kept
    as given, not copied: their coefficients must be exact scalars (``int``
    where integral, ``Fraction`` otherwise) and nonzero, and neither may
    change after construction, since ``factor_index`` is built once.
    """

    def __init__(self, labels, unit, table):
        self.labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise ValueError("duplicate basis labels")
        self.unit = unit
        self.table = table

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self._index[label]

    @cached_property
    def factor_index(self) -> tuple:
        """The nonzero products b_i b_j, listed by first and by second factor:
        ``starts[i] = [(j, b_i b_j)]`` and ``ends[j] = [(i, b_i b_j)]``, in
        table order; built on first use and kept."""
        starts, ends = {}, {}
        for (i, j), vec in self.table.items():
            starts.setdefault(i, []).append((j, vec))
            ends.setdefault(j, []).append((i, vec))
        return starts, ends

    def associativity_failures(self, *, firsts=None) -> list:
        """Triples (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), in
        lexicographic order, over every i or over the indices ``firsts``.
        Only triples with a nonzero product on either side are visited: any
        other triple is 0 on both sides.  Each b_i reads its own products
        and one index of the table by the labels each product reaches."""
        starts, _ = self.factor_index
        # reaching[m]: (j, k, the coefficient of b_m in b_j b_k)
        reaching = {}
        for (j, k), jk in self.table.items():
            for m, c in jk.items():
                reaching.setdefault(m, []).append((j, k, c))
        failures = []
        for i in range(self.dim) if firsts is None else sorted(firsts):
            defect = {}
            for j, ij in starts.get(i, ()):
                # (b_i b_j) b_k = sum over l of c_ij^l b_l b_k
                for l, c in ij.items():
                    for k, lk in starts.get(l, ()):
                        vec_axpy(defect.setdefault((j, k), {}), c, lk)
            for m, im in starts.get(i, ()):
                # b_i (b_j b_k) = sum over m of c_jk^m b_i b_m
                for j, k, c in reaching.get(m, ()):
                    vec_axpy(defect.setdefault((j, k), {}), -c, im)
            failures += sorted((i, j, k) for (j, k), vec in defect.items() if vec)
        return failures

    def unit_failures(self) -> list:
        """("left", i) where 1·b_i != b_i and ("right", i) where
        b_i·1 != b_i, ascending in i, left before right.  Each side reads
        only the nonzero products with b_i as a factor."""
        starts, ends = self.factor_index
        unit = self.unit
        failures = []
        for i in range(self.dim):
            for side, products in (("left", ends.get(i, ())),
                                   ("right", starts.get(i, ()))):
                # 1·b_i = sum over u of unit_u b_u b_i, and b_i·1 likewise
                out = {}
                for u, vec in products:
                    if u in unit:
                        vec_axpy(out, unit[u], vec)
                if out != {i: ONE}:
                    failures.append((side, i))
        return failures

    def __repr__(self) -> str:
        return f"StructureConstantAlgebra(dim {self.dim})"


def _product_rows(m: AlgebraModel, lefts):
    """(i, [(j, NF(b_i b_j))]) for each word id i in ``lefts``: the nonzero
    products with b_i on the left, j ascending, read from the model's
    product rows.  The model must show its top degree; a product past it is
    zero and is not computed."""
    top = m.top_degree()
    words, lengths = m.words, m.lengths
    ending_at = {}
    for j, b in enumerate(words):
        ending_at.setdefault(b.target, []).append(j)
    for i in lefts:
        room, row = top - lengths[i], []
        for j in ending_at.get(words[i].source, ()):
            if lengths[j] > room:
                break  # ids run by degree, so every later product is zero
            prod = m.product(i, j)
            if prod:
                row.append((j, prod))
        yield i, row


def _unit(m: AlgebraModel) -> dict:
    """The unit, the sum of the vertex idempotents, in word ids."""
    return {m.word_ids[trivial_path(v)]: ONE for v in m.quiver.vertices}


def algebra_to_structure_constants(m: AlgebraModel) -> StructureConstantAlgebra:
    """Present a provably finite-dimensional model on its basis paths.  They
    are the model's words in id order, so its products by id are the table."""
    basis = m.finite_basis()
    table = {(i, j): {k: as_scalar(c) for k, c in prod.items()}
             for i, row in _product_rows(m, range(len(basis))) for j, prod in row}
    return StructureConstantAlgebra(basis, _unit(m), table)


def smash_product(m: AlgebraModel, group: FiniteGroup, weights: dict) -> StructureConstantAlgebra:
    """Smash product with the dual group algebra over a homogeneous grading.

    Basis b#p_g for model basis paths b and group elements g, with
    (a#p_g)(b#p_h) = a·b_{g·h^-1}#p_h where b_w is the weight-w component;
    the unit is sum over g of 1#p_g.  Label (b_i, g) has index
    i·|G| + group.index(g).  The table relabels the model's product rows.
    """
    table_w = homogeneous_weights(m.presentation, group, weights)
    basis = m.finite_basis()
    n = group.order
    # (weight(b_j)·h, h) per j: b_{g h^-1} with b_j homogeneous is nonzero
    # only for g = weight(b_j)·h (in this order: G need not be abelian)
    weight_of = [path_weight(group, table_w, b) for b in basis]
    sheets = [[(group.index(group.multiply(w, elt)), h)
               for h, elt in enumerate(group.elements)] for w in weight_of]
    table = {}
    for i, row in _product_rows(m, range(len(basis))):
        for j, prod in row:
            prod = [(k * n, as_scalar(c)) for k, c in prod.items()]
            for g, h in sheets[j]:
                table[(i * n + g, j * n + h)] = {k + h: c for k, c in prod}
    labels = [(b, g) for b in basis for g in group.elements]
    unit = {u * n + h: c for u, c in _unit(m).items() for h in range(n)}
    return StructureConstantAlgebra(labels, unit, table)


def short_associativity(s: StructureConstantAlgebra, lengths) -> tuple:
    """(failures, decomposed) for labels of lengths ``lengths``, where a label
    is short when its length is at most 1.

    ``failures`` lists the triples (i, j, k) with b_i short and
    (b_i b_j) b_k != b_i (b_j b_k), in lexicographic order; ``decomposed``
    counts the long labels b_l that the table writes as b_a b_x with
    coefficient 1, for a b_a of length 1 and a b_x one shorter than b_l.

    When there are no failures and every long label is decomposed, s is
    associative, by induction on the length of the first factor: for
    b_l = b_a b_x, (b_l y) z = (b_a (b_x y)) z = b_a ((b_x y) z) =
    b_a (b_x (y z)) = b_l (y z), by the short case twice, the induction
    hypothesis for b_x, and the short case again.  Otherwise only the full
    sweep, ``associativity_failures()``, decides."""
    short = [i for i in range(s.dim) if lengths[i] <= 1]
    failures = s.associativity_failures(firsts=short)
    starts, _ = s.factor_index
    decomposed = {
        l for a in short if lengths[a] == 1 for x, ax in starts.get(a, ())
        for l, c in ax.items()
        if len(ax) == 1 and c == 1 and lengths[l] == lengths[x] + 1 > 1
    }
    return failures, len(decomposed)


def skew_group_algebra(m: AlgebraModel, action: GroupAction) -> StructureConstantAlgebra:
    """Skew group algebra of an action on a finite-dimensional model.

    Basis b·g with (a·g)(b·h) = a·g(b)·(gh); the action must send every
    relation back into the ideal.  Label (b_i, g) has index
    i·|G| + group.index(g).
    """
    q = m.quiver
    group = action.group
    action.validate(q)
    for r in m.presentation.relations:
        if r.length > m.max_degree:
            raise ValueError(
                "cannot certify the action preserves the ideal: relation degree "
                f"{r.length} exceeds the window {m.max_degree}"
            )
    sigmas = [action.automorphism(q, g) for g in group.elements]
    for g, sigma in zip(group.elements, sigmas):
        if (r := ideal_breaker(m, sigma)) is not None:
            raise ValueError(f"action of {g!r} does not preserve the ideal (relation {r})")
    base = algebra_to_structure_constants(m)
    n = group.order
    # (g, v) -> [(j, g(b_j))] in basis order, for each nonzero g(b_j) with a
    # term ending at v: only those compose with a b_i starting at v
    moved_into = {}
    for g, sigma in enumerate(sigmas):
        for j, bj in enumerate(base.labels):
            moved = moved_normal_form(m, sigma, bj)
            for v in {m.words[k].target for k in moved}:
                moved_into.setdefault((g, v), []).append((j, moved))
    table = {}
    for i, bi in enumerate(base.labels):
        for g, elt in enumerate(group.elements):
            for j, moved in moved_into.get((g, bi.source), ()):
                # b_i·g(b_j), summed from the rows of the one table
                prod = {}
                for k, c in moved.items():
                    vec_axpy(prod, c, base.table.get((i, k), {}))
                if not prod:
                    continue
                for h, other in enumerate(group.elements):
                    gh = group.index(group.multiply(elt, other))
                    table[(i * n + g, j * n + h)] = {
                        k * n + gh: as_scalar(c) for k, c in prod.items()
                    }
    labels = [(b, g) for b in base.labels for g in group.elements]
    e = group.index(group.identity)
    unit = {u * n + e: c for u, c in base.unit.items()}
    return StructureConstantAlgebra(labels, unit, table)


def radical(s: StructureConstantAlgebra) -> list:
    """Basis of the Jacobson radical: the kernel of the trace form
    (x, y) -> trace(L_x L_y) of the regular representation (characteristic
    zero makes this exact)."""
    starts, ends = s.factor_index
    gram_columns = [{} for _ in range(s.dim)]
    for i in sorted(starts):
        # trace(L_i L_j) = sum over k, l of c_il^k c_jk^l
        row = {}
        for l, il in starts[i]:
            for k, c in il.items():
                for j, jk in ends.get(k, ()):
                    d = jk.get(l)
                    if d:
                        row[j] = row.get(j, ZERO) + c * d
        for j, tr in row.items():
            if tr:
                gram_columns[j][i] = tr
    return kernel_basis_sparse(gram_columns)


def verify_smash_covering_iso(cov: AlgebraModel, sm: StructureConstantAlgebra,
                              left_length: int | None = None) -> bool:
    """Compare a covering model with a smash product through the canonical
    bijection: the class of a lifted path starting on sheet g maps to
    (underlying path)#p_g.  The bijection and the units are compared, then
    the products b_x b_y of the covering's rows, carried to smash indices,
    against sm's: every product, or with ``left_length`` those whose left
    factor b_x has at most that length.  A mismatch returns False.  Both
    tables come from one base model, so a basis size mismatch is a program
    defect, an InternalError.

    With ``left_length`` 1 the comparison relies on both tables being
    associative: the bijection φ keeps the unit and every product with a
    vertex or an arrow on the left, and a longer b_x is b_a b_x' for an
    arrow a in the covering's table, so φ(b_x y) = φ(b_a) φ(b_x' y) =
    φ(b_a) (φ(b_x') φ(y)) = φ(b_x) φ(y) by induction on the length of b_x.
    The caller sweeps sm for associativity and compares every product when
    sm fails it.  The covering's table is associative whenever its model's
    normal form is right, which this check trusts as every other check
    does: no sweep reads that table."""
    basis = cov.finite_basis()
    if len(basis) != sm.dim:
        raise InternalError(
            f"basis size mismatch: covering has {len(basis)}, smash has {sm.dim}"
        )

    base_arrows = {}
    for a in cov.quiver.arrows:
        label, _ = split_sheet(a.label)
        src, _ = split_sheet(a.source)
        tgt, _ = split_sheet(a.target)
        base_arrows.setdefault(label, Arrow(label, src, tgt))

    def project(path: Path):
        _, sheet = split_sheet(path.source)
        if not path.arrows:
            base, _ = split_sheet(path.base)
            return Path((), base), sheet
        return Path(tuple(base_arrows[split_sheet(a.label)[0]] for a in path.arrows)), sheet

    mapping = []
    for b in basis:
        try:
            mapping.append(sm.index(project(b)))
        except KeyError:
            return False
    if len(set(mapping)) != sm.dim:
        return False
    # mapping is a bijection, so the products agree on the compared rows
    # exactly when the covering's unit and rows, carried to smash indices,
    # are sm's
    if {mapping[u]: c for u, c in _unit(cov).items()} != sm.unit:
        return False
    lefts = range(len(basis))
    if left_length is not None:
        lefts = [x for x in lefts if cov.lengths[x] <= left_length]
    starts, _ = sm.factor_index
    return all(
        {mapping[y]: {mapping[k]: c for k, c in prod.items()} for y, prod in row}
        == dict(starts.get(mapping[x], ()))
        for x, row in _product_rows(cov, lefts)
    )
