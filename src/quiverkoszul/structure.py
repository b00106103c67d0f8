"""Finite-dimensional algebras on labelled bases with explicit products.

Hosts the two product constructions attached to a weight grading (the smash
product with the dual of the group algebra, and the skew group algebra of an
action), plus the radical via the trace form of the regular representation
(exact over the rationals in characteristic zero) and the structure-constant
comparison between a covering and the matching smash product.

Only ``algebra_to_structure_constants`` multiplies basis paths of a model;
the smash product and the covering comparison relabel its table, and the
skew group algebra moves each basis word by ``moved_normal_form`` in word
ids and sums rows of that table.  Tables and units hold exact scalars
(``int`` where integral, ``Fraction`` otherwise), so the sweeps run on
plain integers wherever they can.
"""

from __future__ import annotations

from .algebra import AlgebraModel, InternalError, ideal_breaker, moved_normal_form
from .covering import homogeneous_weights, path_weight, split_sheet
from .groups import FiniteGroup, GroupAction
from .linalg import ONE, ZERO, as_scalar, kernel_basis_sparse, vec_axpy
from .quiver import Arrow, Path, trivial_path


class StructureConstantAlgebra:
    """Basis labels, unit coordinates, and sparse structure constants."""

    def __init__(self, labels, unit, table):
        self.labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise ValueError("duplicate basis labels")
        self.unit = {i: as_scalar(c) for i, c in unit.items() if c}
        self.table = {}
        for (i, j), vec in table.items():
            vec = {k: as_scalar(c) for k, c in vec.items() if c}
            if vec:
                self.table[(i, j)] = vec

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self._index[label]

    def factor_index(self) -> tuple:
        """The nonzero products b_i b_j, listed by first and by second factor:
        ``starts[i] = [(j, b_i b_j)]`` and ``ends[j] = [(i, b_i b_j)]``."""
        starts, ends = {}, {}
        for (i, j), vec in self.table.items():
            starts.setdefault(i, []).append((j, vec))
            ends.setdefault(j, []).append((i, vec))
        return starts, ends

    def associativity_failures(self) -> list:
        """Triples (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), in
        lexicographic order.  Only triples with a nonzero product on either
        side are visited: any other triple is 0 on both sides."""
        starts, ends = self.factor_index()
        defect = {}
        for (i, j), ij in self.table.items():
            # (b_i b_j) b_k = sum over l of c_ij^l b_l b_k
            for l, c in ij.items():
                for k, lk in starts.get(l, ()):
                    vec_axpy(defect.setdefault((i, j, k), {}), c, lk)
        for (j, k), jk in self.table.items():
            # b_i (b_j b_k) = sum over m of c_jk^m b_i b_m
            for m, c in jk.items():
                for i, im in ends.get(m, ()):
                    vec_axpy(defect.setdefault((i, j, k), {}), -c, im)
        return sorted(key for key, vec in defect.items() if vec)

    def unit_failures(self) -> list:
        """("left", i) where 1·b_i != b_i and ("right", i) where
        b_i·1 != b_i, ascending in i, left before right.  Each side reads
        only the nonzero products with b_i as a factor."""
        starts, ends = self.factor_index()
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


def algebra_to_structure_constants(m: AlgebraModel) -> StructureConstantAlgebra:
    """Present a provably finite-dimensional model on its basis paths.  They
    are the model's words in id order, so its products by id are the table."""
    basis = m.finite_basis()
    ending_at = {}
    for j, b in enumerate(basis):
        ending_at.setdefault(b.target, []).append(j)
    table = {}
    for i, bi in enumerate(basis):
        for j in ending_at.get(bi.source, ()):
            table[(i, j)] = m.product(i, j)
    unit = {m.word_ids[trivial_path(v)]: ONE for v in m.quiver.vertices}
    return StructureConstantAlgebra(basis, unit, table)


def smash_product(m: AlgebraModel, group: FiniteGroup, weights: dict) -> StructureConstantAlgebra:
    """Smash product with the dual group algebra over a homogeneous grading.

    Basis b#p_g for model basis paths b and group elements g, with
    (a#p_g)(b#p_h) = a·b_{g·h^-1}#p_h where b_w is the weight-w component;
    the unit is sum over g of 1#p_g.  Label (b_i, g) has index
    i·|G| + group.index(g).
    """
    table_w = homogeneous_weights(m.presentation, group, weights)
    base = algebra_to_structure_constants(m)
    n = group.order
    weight_of = [path_weight(group, table_w, b) for b in base.labels]
    table = {}
    for (i, j), prod in base.table.items():
        for h, elt in enumerate(group.elements):
            # b_{g h^-1} with b_j homogeneous: nonzero only for
            # g = weight(b_j)·h (in this order: G need not be abelian)
            g = group.index(group.multiply(weight_of[j], elt))
            table[(i * n + g, j * n + h)] = {k * n + h: c for k, c in prod.items()}
    labels = [(b, g) for b in base.labels for g in group.elements]
    unit = {u * n + h: c for u, c in base.unit.items() for h in range(n)}
    return StructureConstantAlgebra(labels, unit, table)


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
                        k * n + gh: c for k, c in prod.items()
                    }
    labels = [(b, g) for b in base.labels for g in group.elements]
    e = group.index(group.identity)
    unit = {u * n + e: c for u, c in base.unit.items()}
    return StructureConstantAlgebra(labels, unit, table)


def radical(s: StructureConstantAlgebra) -> list:
    """Basis of the Jacobson radical: the kernel of the trace form
    (x, y) -> trace(L_x L_y) of the regular representation (characteristic
    zero makes this exact)."""
    starts, ends = s.factor_index()
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


def verify_smash_covering_iso(cov: AlgebraModel, sm: StructureConstantAlgebra) -> bool:
    """Compare a covering model with a smash product through the canonical
    bijection: the class of a lifted path starting on sheet g maps to
    (underlying path)#p_g.  Exhaustive structure-constant comparison; a
    product mismatch returns False.  Both tables come from one base model,
    so a basis size mismatch is a program defect, an InternalError."""
    s = algebra_to_structure_constants(cov)
    if s.dim != sm.dim:
        raise InternalError(
            f"basis size mismatch: covering has {s.dim}, smash has {sm.dim}"
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
    for b in s.labels:
        try:
            mapping.append(sm.index(project(b)))
        except KeyError:
            return False
    if len(set(mapping)) != s.dim:
        return False
    # mapping is a bijection, so the products agree on every pair exactly
    # when the covering's unit and table, carried to smash indices, are sm's
    if {mapping[u]: c for u, c in s.unit.items()} != sm.unit:
        return False
    mapped = {
        (mapping[i], mapping[j]): {mapping[k]: c for k, c in vec.items()}
        for (i, j), vec in s.table.items()
    }
    return mapped == sm.table
