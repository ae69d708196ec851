"""Differential tests of the integer-native polyhedra against a Fraction path.

The reference is the representation the polyhedra used before they kept
integer rows: :class:`RefExpr` stores ``{name: Fraction}`` coefficients and
a ``Fraction`` constant, and every reference polyhedron operation converts
its constraint list to sparse rows with :func:`rational_row` (denominators
cleared by their LCM), runs the elimination core and decodes the rows back
into ``Fraction`` dictionaries.  The production :class:`~repro.polyhedra.polyhedron.Polyhedron`
must give the same constraint lists: the same constraints in the same order,
each with the same coefficients listed in the same order.  Both sides run
the elimination core selected by ``REPRO_FM_CORE``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.linalg.sparse import SparseRow
from repro.linalg.varspace import VariableSpace, clear_denominators
from repro.polyhedra import fourier_motzkin
from repro.polyhedra.affine import AffineExpr
from repro.polyhedra.constraint import AffineConstraint, ConstraintKind
from repro.polyhedra.polyhedron import Polyhedron
from repro.polyhedra.space import Space
from repro.polyhedra.sparse_fm import SparseSystem


# --------------------------------------------------------------------------- #
# The reference: Fraction dictionaries converted at every call
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RefExpr:
    """An affine expression stored as ``{name: Fraction}`` plus a constant."""

    coefficients: dict = field(default_factory=dict)
    constant: Fraction = Fraction(0)

    def __post_init__(self):
        cleaned = {
            name: Fraction(value) for name, value in self.coefficients.items() if value != 0
        }
        object.__setattr__(self, "coefficients", cleaned)
        object.__setattr__(self, "constant", Fraction(self.constant))

    def __add__(self, other):
        other = _ref(other)
        coefficients = dict(self.coefficients)
        for name, value in other.coefficients.items():
            coefficients[name] = coefficients.get(name, Fraction(0)) + value
        return RefExpr(coefficients, self.constant + other.constant)

    def __neg__(self):
        return RefExpr({k: -v for k, v in self.coefficients.items()}, -self.constant)

    def __sub__(self, other):
        return self + (-_ref(other))

    def __mul__(self, factor):
        f = Fraction(factor)
        return RefExpr({k: v * f for k, v in self.coefficients.items()}, self.constant * f)

    def __eq__(self, other):
        return self.coefficients == other.coefficients and self.constant == other.constant

    def __hash__(self):
        return hash((frozenset(self.coefficients.items()), self.constant))

    def substitute(self, bindings):
        result = RefExpr({}, self.constant)
        for name, coeff in self.coefficients.items():
            if name in bindings:
                result = result + _ref(bindings[name]) * coeff
            else:
                result = result + RefExpr({name: coeff})
        return result

    def rename(self, mapping):
        return RefExpr(
            {mapping.get(name, name): value for name, value in self.coefficients.items()},
            self.constant,
        )


def _ref(value) -> RefExpr:
    return value if isinstance(value, RefExpr) else RefExpr({}, Fraction(value))


#: A reference constraint: (expression, is_equality).
RefConstraint = tuple[RefExpr, bool]


def rational_row(terms: Mapping[int, Fraction], constant: Fraction) -> SparseRow:
    """The GCD-reduced integer row of rational ``column -> value`` data."""
    denominator = math.lcm(
        *(value.denominator for value in terms.values()), constant.denominator
    )
    return SparseRow.from_terms(
        [(column, int(value * denominator)) for column, value in terms.items() if value],
        int(constant * denominator),
    )


def ref_to_rows(constraints, space: VariableSpace):
    for expression, _ in constraints:
        for name in expression.coefficients:
            space.intern(name)
    rows = [
        rational_row(
            {space.index_of(name): value for name, value in expression.coefficients.items()},
            expression.constant,
        )
        for expression, _ in constraints
    ]
    return rows, [is_equality for _, is_equality in constraints]


def ref_from_rows(rows, names) -> list[RefConstraint]:
    return [
        (
            RefExpr({names[c]: Fraction(v) for c, v in row.terms}, Fraction(row.constant)),
            is_equality,
        )
        for row, is_equality in rows
    ]


def ref_to_dense(constraints, space: VariableSpace):
    for expression, _ in constraints:
        for name in expression.coefficients:
            space.intern(name)
    width = len(space)
    rows = []
    for expression, _ in constraints:
        dense = [Fraction(0)] * (width + 1)
        for name, value in expression.coefficients.items():
            dense[space.index_of(name)] = value
        dense[width] = expression.constant
        rows.append(clear_denominators(dense))
    return rows, [is_equality for _, is_equality in constraints]


def ref_from_dense(rows, kinds, names) -> list[RefConstraint]:
    return [
        (
            RefExpr(
                {names[c]: Fraction(v) for c, v in enumerate(row[:-1]) if v},
                Fraction(row[-1]),
            ),
            is_equality,
        )
        for row, is_equality in zip(rows, kinds)
    ]


def ref_eliminate(constraints, names) -> list[RefConstraint]:
    space = VariableSpace()
    if fourier_motzkin.active_core() == "sparse":
        rows, kinds = ref_to_rows(constraints, space)
        system = SparseSystem.from_rows(rows, kinds)
        columns = [c for c in (space.get(n) for n in names) if c is not None]
        system.eliminate_columns(columns)
        return ref_from_rows(system.rows(), space.names)
    rows, kinds = ref_to_dense(constraints, space)
    columns = [c for c in (space.get(n) for n in names) if c is not None]
    if columns:
        rows, kinds = fourier_motzkin.eliminate_columns(rows, kinds, columns)
    else:
        rows, kinds = fourier_motzkin.simplify_rows(rows, kinds)
    return ref_from_dense(rows, kinds, space.names)


def ref_simplify(constraints) -> list[RefConstraint]:
    space = VariableSpace()
    if fourier_motzkin.active_core() == "sparse":
        rows, kinds = ref_to_rows(constraints, space)
        return ref_from_rows(SparseSystem.from_rows(rows, kinds).rows(), space.names)
    rows, kinds = ref_to_dense(constraints, space)
    rows, kinds = fourier_motzkin.simplify_rows(rows, kinds)
    return ref_from_dense(rows, kinds, space.names)


def ref_project(constraints, space: Space, names) -> list[RefConstraint]:
    keep = set(names) | set(space.parameters)
    drop = [name for name in space.iterators if name not in keep]
    return ref_simplify(ref_eliminate(constraints, drop))


def ref_fix(constraints, values: Mapping[str, Fraction]) -> list[RefConstraint]:
    return ref_simplify(
        [(expression.substitute(values), is_equality) for expression, is_equality in constraints]
    )


# --------------------------------------------------------------------------- #
# Conversions between the two sides
# --------------------------------------------------------------------------- #
def listing(constraints) -> list[tuple]:
    """Production constraints as ordered ``(terms, constant, is_equality)``."""
    return [
        (
            tuple(constraint.expression.coefficients.items()),
            constraint.expression.constant,
            constraint.is_equality,
        )
        for constraint in constraints
    ]


def ref_listing(constraints: list[RefConstraint]) -> list[tuple]:
    return [
        (tuple(expression.coefficients.items()), expression.constant, is_equality)
        for expression, is_equality in constraints
    ]


def to_production(constraints: list[RefConstraint]) -> list[AffineConstraint]:
    kinds = {True: ConstraintKind.EQUALITY, False: ConstraintKind.INEQUALITY}
    return [
        AffineConstraint(AffineExpr(expression.coefficients, expression.constant), kinds[eq])
        for expression, eq in constraints
    ]


# --------------------------------------------------------------------------- #
# Strategies: small random systems over i, j, k and one parameter N
# --------------------------------------------------------------------------- #
ITERATORS = ("i", "j", "k")
PARAMETERS = ("N",)
SPACE = Space(ITERATORS, PARAMETERS)
NAMES = ITERATORS + PARAMETERS

_INTEGERS = st.integers(-3, 3)
_RATIONALS = st.one_of(
    _INTEGERS.map(Fraction),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([2, 3, 4])),
)


@st.composite
def ref_exprs(draw, names=NAMES, values=_RATIONALS):
    chosen = draw(st.lists(st.sampled_from(names), unique=True, max_size=len(names)))
    coefficients = {name: draw(values) for name in chosen}
    return RefExpr(coefficients, draw(values))


@st.composite
def ref_constraints(draw):
    return (draw(ref_exprs()), draw(st.booleans().map(lambda b: b and draw(st.booleans()))))


systems = st.lists(ref_constraints(), max_size=7)


@pytest.fixture(params=["sparse", "dense"], autouse=True)
def fm_core(request, monkeypatch):
    monkeypatch.setenv("REPRO_FM_CORE", request.param)
    return request.param


_SETTINGS = settings(max_examples=60, deadline=None)


# --------------------------------------------------------------------------- #
# Polyhedron operations
# --------------------------------------------------------------------------- #
class TestPolyhedronOperations:
    @_SETTINGS
    @given(system=systems)
    def test_from_constraints(self, system):
        polyhedron = Polyhedron.from_constraints(SPACE, to_production(system))
        assert listing(polyhedron.constraints) == ref_listing(ref_simplify(system))

    @_SETTINGS
    @given(system=systems, extra=systems, raw=st.booleans())
    def test_add_constraints(self, system, extra, raw):
        if raw:
            polyhedron = Polyhedron(SPACE, to_production(system))
            start = system
        else:
            polyhedron = Polyhedron.from_constraints(SPACE, to_production(system))
            start = ref_simplify(system)
        added = polyhedron.add_constraints(to_production(extra))
        assert listing(added.constraints) == ref_listing(ref_simplify(start + extra))

    @_SETTINGS
    @given(first=systems, second=systems)
    def test_intersect(self, first, second):
        a = Polyhedron.from_constraints(SPACE, to_production(first))
        b = Polyhedron.from_constraints(SPACE, to_production(second))
        expected = ref_simplify(ref_simplify(first) + ref_simplify(second))
        assert listing(a.intersect(b).constraints) == ref_listing(expected)

    @_SETTINGS
    @given(
        system=systems,
        kept=st.lists(st.sampled_from(ITERATORS), unique=True),
        raw=st.booleans(),
    )
    def test_project_onto(self, system, kept, raw):
        if raw:
            polyhedron = Polyhedron(SPACE, to_production(system))
            start = system
        else:
            polyhedron = Polyhedron.from_constraints(SPACE, to_production(system))
            start = ref_simplify(system)
        projected = polyhedron.project_onto(kept)
        assert projected.space.iterators == tuple(n for n in ITERATORS if n in kept)
        assert listing(projected.constraints) == ref_listing(ref_project(start, SPACE, kept))

    @_SETTINGS
    @given(
        system=systems,
        values=st.dictionaries(st.sampled_from(NAMES), _RATIONALS, max_size=3),
    )
    def test_fix_dimensions(self, system, values):
        polyhedron = Polyhedron.from_constraints(SPACE, to_production(system))
        fixed = polyhedron.fix_dimensions(values)
        expected = ref_fix(ref_simplify(system), values)
        assert set(fixed.space.names) == set(NAMES) - set(values)
        assert listing(fixed.constraints) == ref_listing(expected)

    @_SETTINGS
    @given(
        system=systems,
        targets=st.permutations(["a", "b", "c", "i", "j", "k"]),
        raw=st.booleans(),
    )
    def test_rename_iterators(self, system, targets, raw):
        mapping = dict(zip(ITERATORS, targets))
        if raw:
            polyhedron = Polyhedron(SPACE, to_production(system))
            start = system
        else:
            polyhedron = Polyhedron.from_constraints(SPACE, to_production(system))
            start = ref_simplify(system)
        renamed = polyhedron.rename_iterators(mapping)
        expected = [(expression.rename(mapping), eq) for expression, eq in start]
        assert renamed.space == SPACE.rename_iterators(mapping)
        assert listing(renamed.constraints) == ref_listing(expected)
        # The renamed rows keep working: a further simplification agrees too.
        assert listing(renamed.add_constraints(()).constraints) == ref_listing(
            ref_simplify(expected)
        )

    @_SETTINGS
    @given(system=systems, point=st.tuples(*[st.integers(-3, 3)] * len(NAMES)))
    def test_contains_and_contradiction(self, system, point):
        polyhedron = Polyhedron(SPACE, to_production(system))
        assignment = dict(zip(NAMES, point))
        expected = all(
            (_value(e, assignment) == 0) if eq else (_value(e, assignment) >= 0)
            for e, eq in system
        )
        assert polyhedron.contains(assignment) is expected
        simplified = Polyhedron.from_constraints(SPACE, to_production(system))
        assert simplified.contains(assignment) is expected
        contradiction = any(
            not e.coefficients and (e.constant != 0 if eq else e.constant < 0)
            for e, eq in system
        )
        assert polyhedron.has_trivial_contradiction() is contradiction


def _value(expression: RefExpr, assignment) -> Fraction:
    return sum(
        (c * assignment[n] for n, c in expression.coefficients.items()), expression.constant
    )


# --------------------------------------------------------------------------- #
# AffineExpr algebra against Fraction arithmetic
# --------------------------------------------------------------------------- #
def production(expression: RefExpr) -> AffineExpr:
    return AffineExpr(expression.coefficients, expression.constant)


def same(actual: AffineExpr, expected: RefExpr) -> bool:
    """Equal coefficients, listed in the same order, and equal constants."""
    return (
        list(actual.coefficients.items()) == list(expected.coefficients.items())
        and actual.constant == expected.constant
    )


_NAMES = ("a", "b", "c", "d")
exprs = ref_exprs(names=_NAMES)


class TestAffineExprAlgebra:
    @_SETTINGS
    @given(x=exprs, y=exprs, factor=_RATIONALS)
    def test_arithmetic(self, x, y, factor):
        px, py = production(x), production(y)
        assert same(px + py, x + y)
        assert same(px - py, x - y)
        assert same(-px, -x)
        assert same(px * factor, x * factor)
        assert same(factor * px, x * factor)
        assert same(px + factor, x + factor)
        assert same(factor - px, _ref(factor) - x)

    @_SETTINGS
    @given(
        x=exprs,
        mapping=st.dictionaries(st.sampled_from(_NAMES), st.sampled_from(_NAMES + ("e",))),
    )
    def test_rename_including_collisions(self, x, mapping):
        assert same(production(x).rename(mapping), x.rename(mapping))

    @_SETTINGS
    @given(
        x=exprs,
        bindings=st.dictionaries(
            st.sampled_from(_NAMES), st.one_of(_RATIONALS, exprs), max_size=3
        ),
    )
    def test_substitute(self, x, bindings):
        converted = {
            name: production(value) if isinstance(value, RefExpr) else value
            for name, value in bindings.items()
        }
        assert same(production(x).substitute(converted), x.substitute(bindings))

    @_SETTINGS
    @given(x=exprs, y=exprs)
    def test_equality_and_hash(self, x, y):
        px, py = production(x), production(y)
        assert (px == py) == (x == y)
        # Same expression, terms listed in reverse order.
        reordered = AffineExpr(dict(reversed(list(x.coefficients.items()))), x.constant)
        assert reordered == px
        assert hash(reordered) == hash(px)
        if x == y:
            assert hash(px) == hash(py)

    @_SETTINGS
    @given(x=exprs)
    def test_integer_form_is_canonical(self, x):
        constant, terms, denominator = production(x).integer_form
        assert denominator > 0
        assert math.gcd(denominator, constant, *(v for _, v in terms)) == 1
        assert [name for name, _ in terms] == list(x.coefficients)
        assert all(Fraction(v, denominator) == x.coefficients[n] for n, v in terms)
        assert Fraction(constant, denominator) == x.constant


# --------------------------------------------------------------------------- #
# AffineConstraint.negated_inequality over rational coefficients
# --------------------------------------------------------------------------- #
class TestNegatedInequality:
    def test_half_coefficient(self):
        constraint = AffineConstraint.greater_equal(AffineExpr({"x": Fraction(1, 2)}))
        negated = constraint.negated_inequality()
        assert negated.expression == AffineExpr({"x": -1}, -1)
        for x in range(-6, 7):
            point = {"x": x}
            assert constraint.is_satisfied(point) != negated.is_satisfied(point), x

    @_SETTINGS
    @given(expression=ref_exprs(names=("x", "y")))
    def test_integer_points_fall_on_exactly_one_side(self, expression):
        assume(expression.coefficients)
        constraint = AffineConstraint.greater_equal(production(expression))
        negated = constraint.negated_inequality()
        for x in range(-4, 5):
            for y in range(-4, 5):
                point = {"x": x, "y": y}
                assert constraint.is_satisfied(point) != negated.is_satisfied(point), point
