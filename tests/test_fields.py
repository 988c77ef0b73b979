"""Field construction and arithmetic: exhaustive axioms at small orders,
deterministic moduli, Frobenius/norm/trace contracts."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmetric import fields
from rankmetric.errors import FieldSizeError
from rankmetric.fields import (
    FiniteField,
    factorize,
    is_prime,
    make_ext_field,
    make_field,
    nth_irreducible,
    prime_power,
)


def all_small_ext_fields(max_order=64):
    """Every extension with base q^h <= 8 and total order <= max_order."""
    out = []
    for p, h in ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3)):
        base = make_field(p, h)
        n = 1
        while base.order ** (n + 1) <= max_order:
            n += 1
            out.append(make_ext_field(base, n))
    return out


def test_make_field_prime_examples():
    F2 = make_field(2)
    assert list(F2.elements()) == [0, 1]
    F3 = make_field(3)
    assert F3.mul(2, 2) == 1


def test_make_field_rejects_nonprime():
    with pytest.raises(ValueError):
        FiniteField(4)
    with pytest.raises(ValueError):
        FiniteField(1)


def test_field_size_cap():
    with pytest.raises(FieldSizeError):
        FiniteField(2, 30)
    with pytest.raises(FieldSizeError):
        FiniteField(make_field(2), 25)
    # the size is checked before primality, which is not decided this high
    with pytest.raises(FieldSizeError):
        FiniteField(2**89 - 1)


def test_f4_multiplicative_group_cyclic_order3():
    F4 = make_field(2, 2)
    for a in F4.units():
        order = 1
        v = a
        while v != 1:
            v = F4.mul(v, a)
            order += 1
        assert 3 % order == 0


def test_first_irreducible_moduli():
    # smallest integer encoding, constant digit least significant
    assert make_ext_field(make_field(2), 3).modulus == (1, 1, 0, 1)  # x^3+x+1
    assert make_ext_field(make_field(2), 2).modulus == (1, 1, 1)
    assert make_ext_field(make_field(3), 2).modulus == (1, 0, 1)  # x^2+1


def test_trivial_extension_is_base_field():
    E = make_ext_field(make_field(2), 1)
    assert E.order == 2
    assert E.mul(1, 1) == 1
    assert E.add(1, 1) == 0


def test_f9_unit_orders_divide_8():
    E9 = make_ext_field(make_field(3), 2)
    for a in E9.units():
        order = 1
        v = a
        while v != 1:
            v = E9.mul(v, a)
            order += 1
        assert 8 % order == 0


@pytest.mark.parametrize("E", all_small_ext_fields(), ids=repr)
def test_field_axioms_exhaustive(E):
    order = E.order
    elems = range(order)
    for a in elems:
        for b in elems:
            ab = E.mul(a, b)
            assert ab == E.mul(b, a)
            assert E.add(a, b) == E.add(b, a)
            for c in elems:
                assert E.mul(ab, c) == E.mul(a, E.mul(b, c))
                assert E.mul(a, E.add(b, c)) == E.add(E.mul(a, b), E.mul(a, c))
    for a in E.units():
        assert E.mul(a, E.inv(a)) == 1
    assert E.mul(0, 5 % order) == 0


@pytest.mark.parametrize("E", all_small_ext_fields(), ids=repr)
def test_frobenius_is_linear_bijection_and_additive_in_power(E):
    q, n = E.q, E.n
    for i in range(n + 1):
        seen = {E.frobenius(a, i) for a in E.elements()}
        assert len(seen) == E.order
    for a in E.elements():
        assert E.frobenius(a, 0) == a
        assert E.frobenius(a, n) == a
        for lam in range(q):
            for b in E.elements():
                lhs = E.frobenius(E.add(E.mul(lam, a), b), 1)
                rhs = E.add(E.mul(lam, E.frobenius(a, 1)), E.frobenius(b, 1))
                assert lhs == rhs
            break  # one b-sweep per (a, lam) keeps this linear-time
    for a in E.elements():
        for i in range(n):
            for j in range(n):
                assert E.frobenius(E.frobenius(a, i), j) == E.frobenius(a, (i + j) % n)


def test_frobenius_f4_squares_generator():
    E4 = make_ext_field(make_field(2), 2)
    w = 2  # the power-basis generator t
    assert E4.frobenius(w, 1) == E4.mul(w, w)


@pytest.mark.parametrize("E", all_small_ext_fields(), ids=repr)
def test_norm_multiplicative_and_lands_in_subfield(E):
    for ell in range(1, E.n + 1):
        if E.n % ell:
            continue
        for a in E.elements():
            na = E.rel_norm(a, ell)
            assert E.in_subfield(na, ell)
        for a in E.units():
            for b in E.units():
                assert E.rel_norm(E.mul(a, b), ell) == E.mul(
                    E.rel_norm(a, ell), E.rel_norm(b, ell)
                )
            break


def test_norm_tower_composition():
    # N_{q^n/q} == N_{q^ell/q} o N_{q^n/q^ell} for every ell | n, order <= 64
    for E in all_small_ext_fields():
        for ell in range(2, E.n):
            if E.n % ell:
                continue
            inner_exp = (E.q**ell - 1) // (E.q - 1)
            for a in E.elements():
                assert E.rel_norm(a, 1) == E.pow(E.rel_norm(a, ell), inner_exp)


def test_norm_examples():
    E4 = make_ext_field(make_field(2), 2)
    assert all(E4.rel_norm(a, 1) == 1 for a in E4.units())
    E9 = make_ext_field(make_field(3), 2)
    assert sum(1 for a in E9.units() if E9.rel_norm(a, 1) == 1) == 4
    with pytest.raises(ValueError):
        make_ext_field(make_field(2), 3).rel_norm(3, 2)


def test_trace_onto_with_equal_fibers_f8():
    E8 = make_ext_field(make_field(2), 3)
    fibers = {}
    for a in E8.elements():
        fibers.setdefault(E8.trace(a), 0)
        fibers[E8.trace(a)] += 1
    assert fibers == {0: 4, 1: 4}
    assert E8.trace(0) == 0


@pytest.mark.parametrize("E", all_small_ext_fields(), ids=repr)
def test_trace_nondegenerate(E):
    for a in E.units():
        assert any(E.trace(E.mul(a, b)) != 0 for b in E.elements())


def test_trace_linear():
    E9 = make_ext_field(make_field(3), 2)
    base = E9.base
    for a in E9.elements():
        for b in E9.elements():
            assert E9.trace(E9.add(a, b)) == base.add(E9.trace(a), E9.trace(b))


def test_element_coords_roundtrip():
    E27 = make_ext_field(make_field(3), 3)
    for a in E27.elements():
        c = E27.coords(a)
        assert len(c) == 3
        assert E27.from_coords(c) == a
    F8 = make_field(2, 3)
    for a in F8.elements():
        assert F8.from_coords(F8.coords(a)) == a


def test_explicit_modulus_and_second_irreducible():
    F2 = make_field(2)
    second = nth_irreducible(F2, 3, 1)
    assert second == (1, 0, 1, 1)  # x^3 + x^2 + 1
    E = FiniteField(F2, 3, modulus=second)
    assert E.order == 8
    for a in E.units():
        assert E.mul(a, E.inv(a)) == 1
    # a pickled field, as a sweep's Pool workers receive it, keeps its modulus
    copy = pickle.loads(pickle.dumps(E))
    assert copy == E and copy.modulus == second
    assert all(copy.mul(a, b) == E.mul(a, b) for a in E.elements() for b in E.elements())
    with pytest.raises(ValueError):
        FiniteField(F2, 3, modulus=(0, 1, 0, 1))  # reducible x^3+x = wrong


def test_factorize():
    assert factorize(1) == ()
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    for n in range(1, 300):
        f = factorize(n)
        assert [p for p, _ in f] == sorted({p for p, _ in f})
        assert all(is_prime(p) and e >= 1 for p, e in f)
        prod = 1
        for p, e in f:
            prod *= p**e
        assert prod == n
    with pytest.raises(ValueError):
        factorize(0)


def trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    for n in range(-2, 20000):
        assert is_prime(n) == trial_division_is_prime(n), n
    # strong pseudoprimes to the first few prime bases are composite
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(1000000000000037)
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)  # beyond the range the bases are proven for
    assert not is_prime(3 * (2**89 - 1))  # a small factor still decides


def test_prime_power_matches_factorization():
    for q in range(-1, 5000):
        f = factorize(q) if q >= 1 else ()
        assert prime_power(q) == (f[0] if len(f) == 1 else None), q
    for p, h in ((2, 1), (2, 64), (3, 40), (1000000000000037, 1), (2**61 - 1, 3)):
        assert prime_power(p**h) == (p, h)
    assert prime_power(2**61 - 1) == (2**61 - 1, 1)
    assert prime_power(3 * 1000000000000037) is None
    assert prime_power(6**20) is None
    assert prime_power(1000000000000037 * 1000003) is None
    with pytest.raises(ValueError):
        prime_power((2**61 - 1) * (2**31 - 1))  # no small factor, above 3.3e24


def test_prime_power_of_a_non_int_is_none():
    for q in (4.0, 2.0, "4", None):
        assert prime_power(q) is None


@given(st.integers(1, 10**40), st.integers(1, 12))
def test_integer_root(n, k):
    r = fields._iroot(n, k)
    assert r**k <= n < (r + 1) ** k


# ----------------------------------------------------------------------
# differential test of the single field type against rules written here
# ----------------------------------------------------------------------

F2, F3 = make_field(2), make_field(3)
DIFF_FIELDS = (
    [make_field(p) for p in (2, 3, 5)]
    + [make_field(p, h) for p, h in ((2, 2), (3, 2), (2, 3), (3, 3), (5, 2))]
    + all_small_ext_fields()
    + [
        make_ext_field(make_field(3, 2), 2),  # GF(81) over GF(9)
        FiniteField(F2, 3, modulus=nth_irreducible(F2, 3, 1)),
        FiniteField(F3, 2, modulus=nth_irreducible(F3, 2, 1)),
    ]
)


def digitwise_add(E, a, b):
    """Add the base-q digits in the base field, down to the primes."""
    if E.base is None:
        return (a + b) % E.p
    out, mult = 0, 1
    for _ in range(E.n):
        out += digitwise_add(E.base, a % E.q, b % E.q) * mult
        a, b, mult = a // E.q, b // E.q, mult * E.q
    return out


def poly_mul_mod(E, a, b):
    """Schoolbook product of the coordinate polynomials over the base
    field, reduced modulo the monic E.modulus."""
    if E.base is None:
        return a * b % E.p
    F, n, m = E.base, E.n, E.modulus
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(E.coords(a)):
        for j, y in enumerate(E.coords(b)):
            prod[i + j] = F.add(prod[i + j], F.mul(x, y))
    for k in range(2 * n - 2, n - 1, -1):
        for i in range(n + 1):
            prod[k - n + i] = F.sub(prod[k - n + i], F.mul(prod[k], m[i]))
    return E.from_coords(prod[:n])


@given(st.sampled_from(DIFF_FIELDS), st.data())
@settings(max_examples=300, deadline=None)
def test_single_field_type_matches_reference_rules(E, data):
    a = data.draw(st.integers(0, E.order - 1), label="a")
    b = data.draw(st.integers(0, E.order - 1), label="b")
    i = data.draw(st.integers(0, 2 * E.n), label="i")
    assert E.add(a, b) == digitwise_add(E, a, b)
    assert digitwise_add(E, a, E.neg(a)) == 0
    assert E.mul(a, b) == poly_mul_mod(E, a, b)
    if a:
        assert poly_mul_mod(E, a, E.inv(a)) == 1
    v = a
    for _ in range(i):
        w = 1
        for _ in range(E.q):
            w = poly_mul_mod(E, w, v)
        v = w
    assert E.frobenius(a, i) == v
    if E.base is not None:
        assert make_ext_field(E.base, E.n).modulus == nth_irreducible(E.base, E.n, 0)


@pytest.mark.parametrize("p, h", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_prime_power_field_is_extension_of_prime_field(p, h):
    F = make_field(p, h)
    E = make_ext_field(make_field(p), h)
    assert F == E and hash(F) == hash(E)
    assert (F.p, F.h, F.base, F.n, F.q, F.order) == (p, h, make_field(p), h, p, p**h)
    assert repr(F) == repr(E) == f"GF({p}^{h})"
    elems = F.elements()
    assert [F.mul(a, b) for a in elems for b in elems] == [
        E.mul(a, b) for a in elems for b in elems
    ]


def test_tower_attributes():
    E = make_ext_field(make_field(2, 2), 2)  # GF(16) over GF(4)
    assert (E.p, E.h, E.n, E.q, E.order, repr(E)) == (2, 4, 2, 4, 16, "GF(4^2)")
    assert E != make_field(2, 4)
    F5 = make_field(5)
    assert (F5.base, F5.n, F5.h, F5.q, F5.modulus, repr(F5)) == (None, 1, 1, 5, None, "GF(5)")


def test_former_extension_name_resolves_to_the_one_class():
    assert fields.ExtField is fields.FiniteField
    assert "ExtField" not in vars(fields)


def multiplicative_order(E, a):
    """The least k >= 1 with a^k = 1, from the prime factors of |E*|."""
    k = E.order - 1
    for p, _ in factorize(k):
        while k % p == 0 and E.pow(a, k // p) == 1:
            k //= p
    return k


@pytest.mark.parametrize(
    "E",
    DIFF_FIELDS + [make_field(4093), FiniteField(make_field(2), 14)],
    ids=repr,
)
def test_generator_is_primitive(E):
    # from the log tables where the field has them, else by search (the
    # prime fields and GF(2^14), above the table limit)
    g = E.generator()
    assert multiplicative_order(E, g) == E.order - 1
    assert (E._exp is None) == (E.h == 1 or E.order > fields._TABLE_LIMIT)
