"""Source-level contracts of the package."""

import ast
from pathlib import Path

import pytest

import rankmetric
from rankmetric import codes, critical, fields, restricted, semifield

PACKAGE_DIR = Path(rankmetric.__file__).resolve().parent


def statements(kind) -> list:
    """file:line of every `kind` node in the package's modules."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, kind)]
    return found


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check that guards a
    # result must be a real raise.
    assert statements(ast.Assert) == []


def test_no_global_statements():
    # module state rebound from inside a function outlives the call that
    # set it; the package keeps no such state.
    assert statements(ast.Global) == []


def test_q_is_read_by_one_function():
    # a q given as an int or as a field handle is read, and refused when
    # it is not an int >= 2, by qcomb._as_int_q alone
    readers = [
        path.name
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if 'getattr(q, "order", q)' in path.read_text()
    ]
    assert readers == ["qcomb.py"]


# one call per removed keyword, each passing it its old default or the
# one value callers used
REMOVED_KEYWORDS = {
    "FiniteField(cap=)": lambda: fields.FiniteField(2, 3, cap=1 << 20),
    "DensityResult.to_json(include_timing=)": lambda: codes.density_bruteforce(
        2, 2, 2, 2, 2
    ).to_json(include_timing=False),
    "density_2dim_formula(s_value=)": lambda: restricted.density_2dim_formula(2, 3, s_value=18),
    "ambient_dim(m=)": lambda: restricted.ambient_dim("full", 2, 2),
    "twisted_class_census(aut_sizes=)": lambda: semifield.twisted_class_census(
        fields.make_ext_field(fields.make_field(2), 3), aut_sizes=True
    ),
    "rank_average_table(N=)": lambda: critical.rank_average_table(10),
}


@pytest.mark.parametrize("call", REMOVED_KEYWORDS.values(), ids=REMOVED_KEYWORDS.keys())
def test_removed_options_are_refused(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize(
    "module,name",
    [
        ("rankmetric", "enumerate_subspaces"),
        ("rankmetric.codes", "enumerate_subspaces"),
        ("rankmetric", "avg_asymptotics"),
        ("rankmetric.critical", "avg_asymptotics"),
        ("rankmetric.qcomb", "prime_powers_up_to"),
    ],
)
def test_removed_entry_points_are_gone(module, name):
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})


# every function of `critical` and `restricted` that takes q, and the
# closed formulas of `codes` and `semifield`, with q = 6 in place of a
# field order
NOT_A_FIELD = {
    "critical.all_points": lambda q: critical.all_points(2, q),
    "critical.PointSet": lambda q: critical.PointSet(2, q, [(1, 0)]),
    "critical.rank_ball_pointset": lambda q: critical.rank_ball_pointset(2, 2, 1, q),
    "critical.avg_density_formula": lambda q: critical.avg_density_formula(3, 3, 3, q),
    "critical.avg_density_exhaustive": lambda q: critical.avg_density_exhaustive(2, 1, 1, q),
    "critical.avg_density_limit_qlarge": lambda q: critical.avg_density_limit_qlarge(3, 2, 1, q),
    "critical.avg_density_limit_mlarge": lambda q: critical.avg_density_limit_mlarge(
        3, 1, 1, 1.0, 2, q
    ),
    "critical.ball_avg_limit": lambda q: critical.ball_avg_limit(2, 2, q, "m_large"),
    "critical.lambda_count": lambda q: critical.lambda_count(3, 1, 3, 2, q),
    "critical.lambda_exhaustive": lambda q: critical.lambda_exhaustive(2, 1, 2, 2, q),
    "critical.avg_density_rank_formula": lambda q: critical.avg_density_rank_formula(
        3, 1, 3, 2, q
    ),
    "critical.hyperplane_density_collinear": lambda q: critical.hyperplane_density_collinear(
        3, 2, q
    ),
    "critical.hyperplane_density_independent": lambda q: critical.hyperplane_density_independent(
        3, 2, q
    ),
    "critical.collinear_pointset": lambda q: critical.collinear_pointset(3, 2, q),
    "critical.independent_pointset": lambda q: critical.independent_pointset(3, 2, q),
    "critical.BlockCode": lambda q: critical.BlockCode(q, ((1, 0), (0, 1))),
    "critical.mds_arc_density": lambda q: critical.mds_arc_density(3, 3, q),
    "critical.moment_curve_arc": lambda q: critical.moment_curve_arc(2, 3, q),
    "critical.arc_plus_point_density": lambda q: critical.arc_plus_point_density(3, 3, q),
    "critical.arc_plus_point_gap": lambda q: critical.arc_plus_point_gap(3, 3, q),
    "critical.arc_plus_point_pointset": lambda q: critical.arc_plus_point_pointset(3, 3, q),
    "restricted.hermitian_field": lambda q: restricted.hermitian_field(q),
    "restricted.ambient_basis": lambda q: restricted.ambient_basis("symmetric", 2, q),
    "restricted.is_member": lambda q: restricted.is_member("symmetric", ((1, 0), (0, 1)), q),
    "restricted.rank_count": lambda q: restricted.rank_count("symmetric", 2, 1, q),
    "restricted.rank_distribution_exhaustive": lambda q: restricted.rank_distribution_exhaustive(
        "symmetric", 2, q
    ),
    "restricted.restricted_density_bruteforce": lambda q: (
        restricted.restricted_density_bruteforce("symmetric", 2, 1, 1, q)
    ),
    "restricted.density_2dim_formula": lambda q: restricted.density_2dim_formula(2, q),
    "restricted.tensor_ratio": lambda q: restricted.tensor_ratio(1, 2, q),
    "codes.density_3x3_formula": lambda q: codes.density_3x3_formula(q),
    "codes.mrd_lowerbound_formula": lambda q: codes.mrd_lowerbound_formula(3, q),
    "codes.asymptotic_constants": lambda q: codes.asymptotic_constants(3, 3, q),
    "semifield.class_count_formula": lambda q: semifield.class_count_formula(3, q),
}


@pytest.mark.parametrize("call", NOT_A_FIELD.values(), ids=NOT_A_FIELD.keys())
def test_every_q_of_a_field_is_a_prime_power(call):
    # before, rank_count("symmetric", 2, 1, 6) returned 35 and
    # mds_arc_density(3, 3, 6) 25/43, for a field GF(6) that does not exist
    call(4)
    with pytest.raises(ValueError, match="not a prime power"):
        call(6)
