"""Parametric integer polyhedra (conjunctions of affine constraints).

A :class:`Polyhedron` stores its constraints as integer rows: a tuple of
``(SparseRow, is_equality)`` pairs over a tuple of column names (the
:class:`~repro.linalg.varspace.VariableSpace` the rows were built in).  Set
operations work on those rows and hand them to the elimination core without
a rational detour; :attr:`Polyhedron.constraints` is a view decoded on first
use.

Every operation that simplifies (``from_constraints``, ``add_constraints``,
``intersect``, ``project_onto``, ``fix_dimensions``) interns the column
names in order of first appearance over the rows it starts from, each row
read in column order.  That is the order in which a decoded constraint lists
its coefficients, so the result, down to coefficient order, is the one the
same operation gives on the decoded constraints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ..linalg.rational import Rational, as_exact
from ..linalg.sparse import SparseRow
from ..linalg.varspace import VariableSpace
from .affine import AffineExpr
from .constraint import AffineConstraint
from .fourier_motzkin import (
    constraint_rows,
    eliminate_sparse_columns,
    simplify_sparse_rows,
    sparse_to_constraints,
)
from .space import Space

__all__ = ["Polyhedron"]

Rows = tuple[tuple[SparseRow, bool], ...]


class Polyhedron:
    """A set ``{ x | constraints(x, params) }`` over a named :class:`Space`.

    ``Polyhedron(space, constraints)`` keeps *constraints* exactly as given
    (no simplification), like the set-builder notation it mirrors; the
    constructors and set operations below return simplified polyhedra.
    """

    __slots__ = ("space", "_names", "_rows", "_constraints", "_given")

    def __init__(self, space: Space, constraints: Iterable[AffineConstraint] = ()) -> None:
        constraints = tuple(constraints)
        known = set(space.names)
        for constraint in constraints:
            unknown = constraint.variables() - known
            if unknown:
                raise ValueError(
                    f"constraint {constraint} references unknown dimensions {sorted(unknown)}"
                )
        self.space = space
        self._constraints: tuple[AffineConstraint, ...] | None = constraints
        # Encoded on first use (see _encoded).
        self._names: tuple[str, ...] | None = None
        self._rows: Rows | None = None
        #: True when the constraints were given as-is rather than derived
        #: from rows: their view must then be kept verbatim.
        self._given = True

    @classmethod
    def _from_rows(
        cls,
        space: Space,
        names: Sequence[str],
        rows: Iterable[tuple[SparseRow, bool]],
        constraints: tuple[AffineConstraint, ...] | None = None,
    ) -> "Polyhedron":
        """Trusted constructor over rows whose names all belong to *space*."""
        polyhedron = object.__new__(cls)
        polyhedron.space = space
        polyhedron._names = tuple(names)
        polyhedron._rows = tuple(rows)
        polyhedron._constraints = constraints
        polyhedron._given = False
        return polyhedron

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def universe(cls, space: Space) -> "Polyhedron":
        """The unconstrained polyhedron over *space*."""
        return cls(space, tuple())

    @classmethod
    def from_constraints(
        cls, space: Space, constraints: Iterable[AffineConstraint]
    ) -> "Polyhedron":
        """The simplified polyhedron of *constraints* over *space*."""
        columns = VariableSpace()
        return cls.from_rows(space, columns, constraint_rows(constraints, columns))

    @classmethod
    def from_rows(
        cls,
        space: Space,
        columns: VariableSpace,
        rows: Sequence[tuple[SparseRow, bool]],
    ) -> "Polyhedron":
        """The simplified polyhedron of integer *rows* over the names in *columns*.

        *columns* must hold exactly the names the rows were interned with,
        in order of first appearance; the rows are read as ``>= 0`` or
        ``== 0`` constraints.
        """
        names = columns.names
        simplified = simplify_sparse_rows(rows, len(names))
        _check_names(space, names, simplified)
        return cls._from_rows(space, names, simplified)

    # ------------------------------------------------------------------ #
    # Storage
    # ------------------------------------------------------------------ #
    def _encoded(self) -> tuple[tuple[str, ...], Rows]:
        if self._rows is None:
            columns = VariableSpace()
            rows = tuple(constraint_rows(self._constraints, columns))
            # Names first: a thread that sees the rows also sees their names.
            self._names = columns.names
            self._rows = rows
        return self._names, self._rows

    @property
    def rows(self) -> Rows:
        """The ``(SparseRow, is_equality)`` pairs, over :attr:`column_names`."""
        return self._encoded()[1]

    @property
    def column_names(self) -> tuple[str, ...]:
        """The dimension name of each column index used by :attr:`rows`."""
        return self._encoded()[0]

    @property
    def constraints(self) -> tuple[AffineConstraint, ...]:
        """The constraints as :class:`AffineConstraint` objects (decoded once)."""
        if self._constraints is None:
            self._constraints = tuple(sparse_to_constraints(self._rows, self._names))
        return self._constraints

    def rows_in(
        self, columns: VariableSpace, rename: Mapping[str, str] | None = None
    ) -> list[tuple[SparseRow, bool]]:
        """The rows re-indexed over *columns*, interning names as they appear.

        Names are interned in order of first appearance over the rows, each
        read in column order, after applying *rename* (which must not map
        two of the polyhedron's names onto one).
        """
        names, rows = self._encoded()
        target: dict[int, int] = {}
        for row, _ in rows:
            for column, _ in row.terms:
                if column not in target:
                    name = names[column]
                    if rename is not None:
                        name = rename.get(name, name)
                    target[column] = columns.intern(name)
        if all(column == index for column, index in target.items()):
            return list(rows)
        remapped: list[tuple[SparseRow, bool]] = []
        for row, is_equality in rows:
            terms = [(target[column], value) for column, value in row.terms]
            if len(terms) > 1:
                terms.sort()
            remapped.append((SparseRow(tuple(terms), row.constant), is_equality))
        return remapped

    def row_signature(self) -> frozenset:
        """The rows as an order-free set of ``(is_equality, terms, constant)``.

        Terms are ``(name, coefficient)`` sets, so two polyhedra have the
        same signature exactly when they list the same constraints, in any
        order and over any column numbering.
        """
        names, rows = self._encoded()
        return frozenset(
            (
                is_equality,
                frozenset((names[column], value) for column, value in row.terms),
                row.constant,
            )
            for row, is_equality in rows
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_constraints(self) -> int:
        return len(self._rows if self._rows is not None else self._constraints)

    def equalities(self) -> list[AffineConstraint]:
        return [c for c in self.constraints if c.is_equality]

    def inequalities(self) -> list[AffineConstraint]:
        return [c for c in self.constraints if not c.is_equality]

    def contains(self, point: Mapping[str, Rational]) -> bool:
        """True when *point* (an assignment of every dimension) satisfies all constraints."""
        values = {name: as_exact(point[name]) for name in self.space.names}
        names, rows = self._encoded()
        for row, is_equality in rows:
            total = row.constant
            for column, value in row.terms:
                total += value * values[names[column]]
            if total != 0 if is_equality else total < 0:
                return False
        return True

    def has_trivial_contradiction(self) -> bool:
        """True when some constraint is a constant contradiction (e.g. ``-1 >= 0``)."""
        return any(
            not row.terms and (row.constant != 0 if is_equality else row.constant < 0)
            for row, is_equality in self._encoded()[1]
        )

    # ------------------------------------------------------------------ #
    # Set operations
    # ------------------------------------------------------------------ #
    def add_constraints(self, constraints: Iterable[AffineConstraint]) -> "Polyhedron":
        """The polyhedron with extra constraints added (same space)."""
        columns = VariableSpace()
        rows = self.rows_in(columns)
        rows.extend(constraint_rows(constraints, columns))
        return Polyhedron.from_rows(self.space, columns, rows)

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        """Intersection of two polyhedra over the same space."""
        if other.space != self.space:
            raise ValueError("cannot intersect polyhedra over different spaces")
        columns = VariableSpace()
        rows = self.rows_in(columns)
        rows.extend(other.rows_in(columns))
        return Polyhedron.from_rows(self.space, columns, rows)

    def project_onto(self, names: Sequence[str]) -> "Polyhedron":
        """Project onto the listed iterator dimensions (parameters always kept)."""
        keep = set(names) | set(self.space.parameters)
        drop = [name for name in self.space.iterators if name not in keep]
        columns = VariableSpace()
        rows = self.rows_in(columns)
        eliminated = [
            column
            for column in (columns.get(name) for name in drop)
            if column is not None
        ]
        projected = eliminate_sparse_columns(rows, len(columns), eliminated)
        new_space = Space(
            tuple(n for n in self.space.iterators if n in keep), self.space.parameters
        )
        # The projection is simplified once more over its own columns.
        return Polyhedron._from_rows(new_space, columns.names, projected).add_constraints(())

    def project_out(self, names: Iterable[str]) -> "Polyhedron":
        """Eliminate the listed iterator dimensions."""
        drop = set(names)
        keep = [name for name in self.space.iterators if name not in drop]
        return self.project_onto(keep)

    def rename_iterators(self, mapping: Mapping[str, str]) -> "Polyhedron":
        """Rename iterator dimensions (space and constraints consistently).

        Names of *mapping* that are not iterators are left alone, as in
        :meth:`Space.rename_iterators`; the new space rejects a mapping that
        merges two dimensions.
        """
        space = self.space.rename_iterators(mapping)
        iterators = set(self.space.iterators)
        mapping = {name: new for name, new in mapping.items() if name in iterators}
        if self._given:
            return Polyhedron(
                space, (constraint.rename(mapping) for constraint in self._constraints)
            )
        names = tuple(mapping.get(name, name) for name in self._names)
        return Polyhedron._from_rows(space, names, self._rows)

    def with_space(self, space: Space) -> "Polyhedron":
        """Re-interpret the same constraints in a larger space (must contain all dims)."""
        missing = set(self.space.names) - set(space.names)
        if missing:
            raise ValueError(f"target space is missing dimensions {sorted(missing)}")
        if self._given:
            return Polyhedron(space, self._constraints)
        return Polyhedron._from_rows(space, self._names, self._rows, self._constraints)

    def fix_dimensions(self, values: Mapping[str, Rational]) -> "Polyhedron":
        """Substitute fixed numeric values for some dimensions.

        The fixed dimensions are removed from the space (parameters included),
        which is how parameter context values are applied before enumeration.
        """
        names, rows = self._encoded()
        fixed = {
            column: as_exact(values[name])
            for column, name in enumerate(names)
            if name in values
        }
        substituted: list[tuple[SparseRow, bool]] = []
        for row, is_equality in rows:
            if not any(column in fixed for column, _ in row.terms):
                substituted.append((row, is_equality))
                continue
            constant = row.constant
            terms = []
            for column, value in row.terms:
                if column in fixed:
                    constant += value * fixed[column]
                else:
                    terms.append((column, value))
            if type(constant) is not int:
                # A rational value: scale the row back to integers.
                scale = constant.denominator
                terms = [(column, value * scale) for column, value in terms]
                constant = constant.numerator
            substituted.append((SparseRow.from_terms(terms, constant), is_equality))
        new_space = Space(
            tuple(n for n in self.space.iterators if n not in values),
            tuple(n for n in self.space.parameters if n not in values),
        )
        return Polyhedron._from_rows(new_space, names, substituted).add_constraints(())

    # ------------------------------------------------------------------ #
    # Emptiness / sampling / enumeration (delegated to the ILP layer)
    # ------------------------------------------------------------------ #
    def is_empty(self, extra_assumptions: Iterable[AffineConstraint] = ()) -> bool:
        """Exact integer emptiness check (parameters treated as free integers)."""
        from .emptiness import is_integer_empty

        return is_integer_empty(self.add_constraints(extra_assumptions))

    def sample_point(self) -> dict[str, int] | None:
        """Some integer point of the polyhedron, or ``None`` when empty."""
        from .emptiness import find_integer_point

        return find_integer_point(self)

    def enumerate_points(self, parameter_values: Mapping[str, int] | None = None) -> list[dict[str, int]]:
        """Enumerate all integer points (requires the set to be bounded).

        ``parameter_values`` fixes the parameters first.  Enumeration is meant
        for small validation domains only.
        """
        from .emptiness import enumerate_integer_points

        fixed = self.fix_dimensions(parameter_values or {})
        return enumerate_integer_points(fixed)

    # ------------------------------------------------------------------ #
    # Bounds
    # ------------------------------------------------------------------ #
    def dimension_bounds(
        self, name: str
    ) -> tuple[list[AffineExpr], list[AffineExpr]]:
        """Symbolic lower and upper bound expressions for dimension *name*.

        The bounds are derived from constraints mentioning *name*: each
        constraint ``a*name + e >= 0`` with ``a > 0`` yields the lower bound
        ``ceil(-e / a)`` (returned as the affine expression ``-e/a``; the caller
        applies the ceiling), and symmetrically for upper bounds.  Equalities
        contribute to both lists.
        """
        lower: list[AffineExpr] = []
        upper: list[AffineExpr] = []
        for constraint in self.constraints:
            coeff = constraint.coefficient(name)
            if coeff == 0:
                continue
            rest = constraint.expression - AffineExpr({name: coeff})
            bound = rest * Fraction(-1, 1) * (Fraction(1) / coeff)
            if constraint.is_equality:
                lower.append(bound)
                upper.append(bound)
            elif coeff > 0:
                lower.append(bound)
            else:
                upper.append(bound)
        return lower, upper

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polyhedron):
            return NotImplemented
        return self.space == other.space and self.constraints == other.constraints

    def __hash__(self) -> int:
        return hash((self.space, self.constraints))

    def __reduce__(self):
        if self._given:
            return (Polyhedron, (self.space, self._constraints))
        return (Polyhedron._from_rows, (self.space, self._names, self._rows))

    def __repr__(self) -> str:
        return f"Polyhedron(space={self.space!r}, constraints={self.constraints!r})"

    def __str__(self) -> str:
        body = " and ".join(str(c) for c in self.constraints) or "true"
        return f"{self.space} : {body}"


def _check_names(
    space: Space, names: Sequence[str], rows: Iterable[tuple[SparseRow, bool]]
) -> None:
    """Reject rows that use a dimension *space* does not have."""
    known = set(space.names)
    if known.issuperset(names):
        return
    for row, is_equality in rows:
        unknown = {names[column] for column, _ in row.terms} - known
        if unknown:
            (constraint,) = sparse_to_constraints([(row, is_equality)], names)
            raise ValueError(
                f"constraint {constraint} references unknown dimensions {sorted(unknown)}"
            )
