"""Route independence: every check of the verify registry that computes
one value two ways is an ``_agree`` declaration, and the routes of each
share no code but the common arithmetic and the two sweep primitives, apart
from a short reviewed allow-list. The audit finds its declarations by
their ``run``, so a new ``_agree`` declaration is audited as soon as it is
registered.

It does not see the statistic transports (``_transport``), whose two sides
apply the same statistic where the statement says so, nor the checks that
stay hand-written in their modules: a check of one property, an equation
between values of one route, a check that reports labelled identities, and
the word-derivation step, whose witness names the word whose
multiplicities differ.

Each route runs under ``sys.setprofile`` at the registry's points for small
budgets, with every cache cold, so that a cache hit cannot hide a call.
"""
import inspect
import itertools
import sys
from functools import _lru_cache_wrapper

from eulerian import cli, endofunctions, registry, transforms, words
from eulerian import permutations as perms
from eulerian import polynomials as poly
from eulerian import series as ser

MODULES = (cli, endofunctions, perms, poly, registry, ser, transforms, words)
# cross-method-tables meets every 2 <= r < n <= 6 at these budgets
BUDGETS = {"max_n": 6, "order": 6, "fn_scan_max": 4}

# Reviewed overlaps: the declarations, and the functions their routes may share.
ALLOWED = [
    # euler_numbers picks its route by a string, which perfbench/layers.py:231
    # pins; series._binomial_sum is the kernel product of TruncSeries, checked
    # against its Fraction reference in tests/test_series.py
    ({"euler-number-modes", "euler-number-table"}, {"words.euler_numbers", "series._binomial_sum"}),
    # both cropped routes count the positive entries of their own cropped
    # vector, which the descent and excedance kernels compute apart;
    # positive_count is the one-line count that the statement names
    ({"reciprocal-descent"}, {"permutations.positive_count"}),
]


def _owners() -> dict:
    """Each code object of the package, nested ones included, mapped to the
    module-level function or method it belongs to."""
    owners = {}

    def walk(code, name):
        owners[code] = name
        for const in code.co_consts:
            if inspect.iscode(const):
                walk(const, name)

    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for name, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    fn = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
                    if inspect.isfunction(fn):
                        walk(fn.__code__, f"{short}.{name}.{attr}")
            elif inspect.isfunction(inspect.unwrap(value)) and value.__module__ == module.__name__:
                walk(inspect.unwrap(value).__code__, f"{short}.{name}")
    return owners


OWNERS = _owners()


def _name(code) -> str:
    return OWNERS.get(code, f"{code.co_filename}:{code.co_name}")


def _calls(route, point) -> set:
    """The code objects of the package that route(**point) runs."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("eulerian."):
            codes.add(frame.f_code)

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        route(**point)
    finally:
        sys.setprofile(outer)
    return codes


def _common() -> set[str]:
    """Poly and TruncSeries methods, check_budget, and the two sweep
    primitives with everything they call, over every class they sweep."""
    common = {name for name in OWNERS.values() if name.startswith(("polynomials.Poly.", "series.TruncSeries."))}
    common |= {"permutations.check_budget", "permutations.enumerate_class", "permutations.position_sum_counts"}
    tags = [perms.ClassTag(kind) for kind in perms._PREDICATES] + [perms.r_tail_ordered(2)]
    for tag in tags:
        common |= set(map(_name, _calls(lambda tag=tag: list(perms.enumerate_class(5, tag)), {})))
    weight = [[int(i == j) for j in range(5)] for i in range(5)]
    common |= set(map(_name, _calls(lambda: perms.position_sum_counts(5, weight), {})))
    return common


def _cold() -> None:
    poly._TRIANGLE_ROWS.clear()
    poly._STIRLING_ROWS.clear()
    poly._STIRLING_ROWS[1] = (1,)
    for module in MODULES:
        for value in vars(module).values():
            if isinstance(value, _lru_cache_wrapper):
                value.cache_clear()


def _shared(decl: registry.Declaration, common: set[str]) -> set[str]:
    """The functions outside ``common`` that two routes of decl both run."""
    closure = inspect.getclosurevars(decl.run).nonlocals
    routes = [closure["first"], *closure["routes"].values()]
    called = [set() for _ in routes]
    for point in decl.points(BUDGETS):
        for seen, route in zip(called, routes):
            _cold()
            seen |= _calls(route, point)
    shared = set().union(*(a & b for a, b in itertools.combinations(called, 2)))
    return {_name(code) for code in shared} - common


def test_routes_share_only_the_common_arithmetic():
    common = _common()
    checks = [decl for decl in registry._registry() if decl.run.__qualname__ == "_agree.<locals>.run"]
    assert len(checks) == 22  # the audit must find every two-route check of the registry
    found = {decl.name: shared for decl in checks if (shared := _shared(decl, common))}
    assert found == {name: funcs for names, funcs in ALLOWED for name in names}


def test_a_shared_function_is_reported():
    check = registry.Declaration(
        "chapter2", "twice", registry._agree(poly.stirling2, again=lambda p, q: poly.stirling2(p, q)), [{"p": 4, "q": 2}]
    )
    assert _shared(check, _common()) == {"polynomials.stirling2", "polynomials._stirling_row"}
