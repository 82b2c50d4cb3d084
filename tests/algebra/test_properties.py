"""Property-based tests (hypothesis) for expression semantics.

Invariants checked:

* canonicalization (operand reordering, AND/OR commutation) never changes
  evaluation results;
* the ``implies`` checker is *sound*: a proven implication never has a
  counterexample row;
* ``conjunction``/``disjunction`` helpers agree with direct evaluation;
* every property cached on an immutable plan node (``leaves``,
  ``leaf_names``, ``join_conjuncts``, ``Expression.columns()``,
  ``RelationSchema.attribute_names``, ``Attribute.short_name``) equals a
  fresh walk-based recomputation, for trees built by constructors,
  ``with_children`` and ``tree.replace``, before and after a pickle
  round trip.
"""

import pickle
from dataclasses import fields

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra import predicates as P
from repro.algebra import tree
from repro.algebra.expressions import (
    And,
    ColumnRef,
    Comparison,
    Literal,
    Not,
    Or,
    column,
)
from repro.algebra.operators import (
    Join,
    Limit,
    Project,
    Relation,
    Select,
    Sort,
)
from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema

COLUMNS = ("a", "b", "c")
OPS = ("=", "!=", "<", "<=", ">", ">=")


@st.composite
def comparisons(draw):
    col = draw(st.sampled_from(COLUMNS))
    op = draw(st.sampled_from(OPS))
    if draw(st.booleans()):
        other = draw(st.sampled_from(COLUMNS))
        return Comparison(op, column(col), column(other))
    value = draw(st.integers(min_value=0, max_value=10))
    return Comparison(op, column(col), Literal(value))


def expressions(max_depth=3):
    return st.recursive(
        comparisons(),
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda t: _and_or(t, And)),
            st.tuples(children, children).map(lambda t: _and_or(t, Or)),
            children.map(Not),
        ),
        max_leaves=6,
    )


def _and_or(pair, cls):
    left, right = pair
    if left.signature == right.signature:
        return left  # n-ary booleans require two distinct operands
    return cls([left, right])


rows = st.fixed_dictionaries(
    {c: st.integers(min_value=0, max_value=10) for c in COLUMNS}
)


@given(comparisons(), rows)
def test_comparison_canonicalization_preserves_semantics(predicate, row):
    # Rebuild with flipped operand order and mirrored operator.
    from repro.algebra.expressions import MIRRORED_OPS

    flipped = Comparison(
        MIRRORED_OPS[predicate.op], predicate.right, predicate.left
    )
    assert predicate.evaluate(row) == flipped.evaluate(row)


@given(comparisons(), comparisons(), rows)
def test_and_commutation(p, q, row):
    if p.signature == q.signature:
        return
    assert And([p, q]).evaluate(row) == And([q, p]).evaluate(row)
    assert And([p, q]).signature == And([q, p]).signature


@given(comparisons(), comparisons(), rows)
def test_or_commutation(p, q, row):
    if p.signature == q.signature:
        return
    assert Or([p, q]).evaluate(row) == Or([q, p]).evaluate(row)
    assert Or([p, q]).signature == Or([q, p]).signature


@given(expressions(), rows)
def test_not_inverts(predicate, row):
    value = predicate.evaluate(row)
    negated = Not(predicate).evaluate(row)
    if value is None:
        assert negated is None
    else:
        assert negated == (not value)


@given(st.lists(comparisons(), min_size=1, max_size=4), rows)
def test_conjunction_matches_all(parts, row):
    combined = P.conjunction(parts)
    expected = all(bool(p.evaluate(row)) for p in parts)
    assert bool(combined.evaluate(row)) == expected


@given(st.lists(comparisons(), min_size=1, max_size=4), rows)
def test_disjunction_matches_any(parts, row):
    combined = P.disjunction(parts)
    expected = any(bool(p.evaluate(row)) for p in parts)
    assert bool(combined.evaluate(row)) == expected


@given(expressions(), expressions(), rows)
def test_implies_is_sound(strong, weak, row):
    if not P.implies(strong, weak):
        return  # nothing proved, nothing to check
    if strong.evaluate(row) is True:
        assert weak.evaluate(row) is True


@given(expressions(), rows)
def test_signature_equal_expressions_evaluate_equal(predicate, row):
    # Evaluating a structurally-rebuilt copy through substitution with an
    # identity mapping gives the same result.
    clone = predicate.substitute({})
    assert clone.signature == predicate.signature
    assert clone.evaluate(row) == predicate.evaluate(row)


# ---------------------------------------------------------------------------
# cached derived properties of immutable plan nodes
# ---------------------------------------------------------------------------
RELATIONS = ("R", "S", "T", "U")
PLAN_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _relation(name):
    schema = RelationSchema(
        name,
        [
            Attribute("a", DataType.INTEGER),
            Attribute("b", DataType.INTEGER),
            Attribute("c", DataType.STRING),
        ],
    ).qualify()
    return Relation(name, schema)


def _condition(draw, left_names, right_names):
    """``None`` (cross product) or one/two equalities across the inputs."""
    count = draw(st.integers(min_value=0, max_value=2))
    parts = [
        Comparison(
            "=",
            column(draw(st.sampled_from(left_names))),
            column(draw(st.sampled_from(right_names))),
        )
        for _ in range(count)
    ]
    return P.conjunction(parts)


def _decorate(draw, node):
    """Optionally wrap ``node`` in a selection and/or a projection."""
    names = node.schema.attribute_names
    if draw(st.booleans()):
        predicate = Comparison(
            draw(st.sampled_from(("=", "<", ">="))),
            column(draw(st.sampled_from(names))),
            Literal(draw(st.integers(min_value=0, max_value=9))),
        )
        node = Select(node, predicate)
    if draw(st.booleans()):
        kept = draw(
            st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True)
        )
        node = Project(node, kept, distinct=draw(st.booleans()))
    return node


@st.composite
def _subtree(draw, names):
    if len(names) == 1:
        return _decorate(draw, _relation(names[0]))
    split = draw(st.integers(min_value=1, max_value=len(names) - 1))
    left = draw(_subtree(names[:split]))
    right = draw(_subtree(names[split:]))
    condition = _condition(
        draw, left.schema.attribute_names, right.schema.attribute_names
    )
    return _decorate(draw, Join(left, right, condition))


@st.composite
def plans(draw):
    """Random SPJ trees over distinct relations, optionally sorted/limited."""
    names = draw(st.permutations(RELATIONS))
    size = draw(st.integers(min_value=1, max_value=len(RELATIONS)))
    root = draw(_subtree(list(names[:size])))
    if draw(st.booleans()):
        key = draw(st.sampled_from(root.schema.attribute_names))
        root = Sort(root, [(key, draw(st.booleans()))])
    if draw(st.booleans()):
        root = Limit(root, draw(st.integers(min_value=0, max_value=5)))
    return root


def _walked_leaves(root):
    return [node for node in root.walk() if isinstance(node, Relation)]


def _walked_columns(expression):
    out = set()
    stack = [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, ColumnRef):
            out.add(node.name)
        stack.extend(node.children)
    return frozenset(out)


def _expressions_of(node):
    return [
        expression
        for expression in (
            getattr(node, "predicate", None),
            getattr(node, "condition", None),
        )
        if expression is not None
    ]


def _assert_caches_match_walks(root):
    for node in root.walk():
        walked = _walked_leaves(node)
        assert list(node.leaves) == walked
        assert node.leaf_names == frozenset(leaf.name for leaf in walked)
        assert node.base_relations() == node.leaf_names
        assert [c.signature for c in node.join_conjuncts] == [
            c.signature
            for inner in node.walk()
            if isinstance(inner, Join)
            for c in P.conjuncts(inner.condition)
        ]
        for expression in _expressions_of(node):
            stack = [expression]
            while stack:
                sub = stack.pop()
                assert sub.columns() == _walked_columns(sub)
                stack.extend(sub.children)
        schema = node.schema
        assert schema.attribute_names == tuple(a.name for a in schema)
        for attribute in schema:
            assert attribute.short_name == attribute.name.rsplit(".", 1)[-1]
    assert tree.leaves(root) == _walked_leaves(root)


def _touch(root):
    """Populate every lazy cache in the tree."""
    for node in root.walk():
        node.leaves, node.leaf_names, node.join_conjuncts
        for expression in _expressions_of(node):
            expression.columns()


def _rebuild(node):
    return node.with_children([_rebuild(child) for child in node.children])


@PLAN_SETTINGS
@given(plans(), st.booleans())
def test_cached_plan_properties_match_walks(root, warm):
    if warm:
        _touch(root)
    _assert_caches_match_walks(root)
    rebuilt = _rebuild(root)
    assert rebuilt.signature == root.signature
    _assert_caches_match_walks(rebuilt)


@PLAN_SETTINGS
@given(plans(), st.data())
def test_cached_properties_after_replace(root, data):
    _touch(root)  # stale caches on the input must not leak into the output
    joins = [node for node in root.walk() if isinstance(node, Join)]
    if joins and data.draw(st.booleans()):
        target = data.draw(st.sampled_from(joins))
        # Same signature (joins are commutative), mirrored leaf order.
        replacement = Join(target.right, target.left, target.condition)
    else:
        target = data.draw(st.sampled_from(_walked_leaves(root)))
        name = target.schema.attribute_names[0]
        replacement = Select(target, Comparison(">", column(name), Literal(3)))
    replaced = tree.replace(root, target.signature, replacement)
    _assert_caches_match_walks(replaced)
    assert replaced.leaf_names == root.leaf_names


@PLAN_SETTINGS
@given(plans(), st.booleans())
def test_cached_plan_properties_survive_pickle(root, warm):
    if warm:
        _touch(root)
    clone = pickle.loads(pickle.dumps(root))
    assert clone.signature == root.signature
    _assert_caches_match_walks(clone)
    assert clone.leaves == root.leaves  # signature equality, leaf by leaf
    assert clone.leaf_names == root.leaf_names
    assert [c.signature for c in clone.join_conjuncts] == [
        c.signature for c in root.join_conjuncts
    ]
    assert clone.schema == root.schema


@given(
    st.sampled_from(("a", "R.a", "x.y.b", "R.c")),
    st.sampled_from(("a", "R.a", "x.y.b", "R.c")),
    st.sampled_from(list(DataType)),
    st.sampled_from(list(DataType)),
)
def test_attribute_equality_and_hash_unchanged(name, other, datatype, other_type):
    attribute = Attribute(name, datatype)
    assert [f.name for f in fields(Attribute) if f.compare] == ["name", "datatype"]
    assert hash(attribute) == hash((name, datatype))
    assert repr(attribute) == f"Attribute(name={name!r}, datatype={datatype!r})"
    assert (attribute == Attribute(other, other_type)) == (
        (name, datatype) == (other, other_type)
    )
    clone = pickle.loads(pickle.dumps(attribute))
    assert clone == attribute and hash(clone) == hash(attribute)
    assert clone.short_name == attribute.short_name == name.rsplit(".", 1)[-1]
