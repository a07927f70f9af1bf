"""The four benchmark workloads: inputs drawn from a seed, the public gmforms
calls each one makes, and the checks on every call's output.

Each workload is a closed loop with one caller: an operation is one
top-level public call, and the next starts when the previous one returns.
Calls go through module attributes (``gmforms.gm.scan_exponents``) looked up
at call time, so the outside tracer in ``spans`` sees them.  The inputs are
plain JSON data; gmforms receives nothing else from the benchmark.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import resource
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: OEIS A057429 (Gaussian Mersenne prime exponents) up to 2000.
A057429 = (3, 5, 7, 11, 19, 29, 47, 73, 79, 113, 151, 157, 163, 167, 239, 241,
           283, 353, 367, 379, 457, 997, 1367)
SCAN_RANGE = (3, 2000)
AUDIT_PMAX = 1200
REFUTED_D7 = (239, 353, 457)
DEEP_P = 1367
#: Mersenne prime exponents p = 1 (mod 3) for the control crosscheck.
MERSENNE_P = (607, 1279, 2203, 2281, 3217, 4423)
CLASSGROUP_D_RANGE = (4000, 10000)
CLASSGROUP_COUNT = 32
#: The d list of the tests; seed 0 draws it.
DEFAULT_D = (31, 55, 79, 103, 127)


def load_expected() -> dict:
    """Outputs recorded from gmforms at the commit that added the benchmark."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def gm_value(p: int) -> int:
    """G_p = 2^p - (2/p)*2^((p+1)/2) + 1, recomputed outside gmforms."""
    eps = 1 if p % 8 in (1, 7) else -1
    return (1 << p) - eps * (1 << (p + 1) // 2) + 1


def squarefree_7_mod_24(lo: int, hi: int) -> list[int]:
    return [d for d in range(lo, hi + 1)
            if d % 24 == 7 and all(d % (k * k) for k in range(2, math.isqrt(d) + 1))]


def residue_signature(d: int) -> tuple[bool, ...]:
    """Whether -d is a square mod G_997 and mod G_1367 (both prime).

    Only a residue reaches the Tonelli-Shanks root, which costs ~0.3 s at
    p = 997 and ~0.8-1 s at p = 1367; a non-residue is rejected at once.
    """
    def is_square(g: int) -> bool:
        return pow(-d % g, (g - 1) // 2, g) == 1  # Euler's criterion, g prime

    return tuple(is_square(gm_value(p)) for p in (997, DEEP_P))


def draw_d(seed: int) -> list[int]:
    """Five square-free d = 7 (mod 24) below 200, drawn by the seed.

    Every draw has as many d of each residue signature as DEFAULT_D, so the
    count of expensive square roots, and with it the cost of the audit and
    deep workloads, is the same for every seed.  Seed 0 draws DEFAULT_D.
    """
    signature = {d: residue_signature(d) for d in squarefree_7_mod_24(8, 199)}
    groups: dict[tuple[bool, ...], list[int]] = {}
    for d, key in signature.items():
        groups.setdefault(key, []).append(d)
    per_group = [list(itertools.combinations(
        members, sum(signature[d] == key for d in DEFAULT_D)))
        for key, members in groups.items()]
    draws = list(itertools.product(*per_group))
    return sorted(d for part in draws[seed % len(draws)] for d in part)


def order_search_composes(orders: list[int]) -> int:
    """Compositions a generic invariant-factor search makes on a group with
    these invariant factors: the order of every element, then the cyclic
    subgroup and its cosets, then the same on the quotient."""
    total = 0
    orders = [n for n in orders if n > 1]
    while orders:
        for element in itertools.product(*(range(n) for n in orders)):
            total += math.lcm(*(n // math.gcd(a, n) for a, n in zip(element, orders)))
        total += orders[0] + math.prod(orders)
        orders = orders[1:]
    return total


def draw_classgroup(seed: int, table: dict[str, list]) -> list[int]:
    """32 of the square-free d = 7 (mod 24) in [4000, 10000], drawn by the seed.

    The candidates are sorted by the cost of the class-group order search
    and cut into 32 strata; the seed draws one d from each.  A plain sample
    of 32 lets the run's cost swing by a quarter from seed to seed.
    """
    candidates = squarefree_7_mod_24(*CLASSGROUP_D_RANGE)
    ranked = sorted(candidates, key=lambda d: (order_search_composes(table[str(d)][1]), d))
    rng = random.Random(seed)
    n, k = len(ranked), CLASSGROUP_COUNT
    return sorted(ranked[rng.randrange(i * n // k, (i + 1) * n // k)] for i in range(k))


def make_inputs(workload: str, seed: int) -> dict:
    if workload == "scan":
        rng = random.Random(seed)
        lo, hi = SCAN_RANGE
        cuts = sorted(rng.sample(range(lo + 1, hi + 1), rng.randint(3, 7)))
        bounds = [lo] + cuts + [hi + 1]
        return {"windows": [[a, b - 1] for a, b in zip(bounds, bounds[1:])]}
    if workload == "audit":
        return {"pmax": AUDIT_PMAX, "d": [7] + draw_d(seed)}
    if workload == "deep":
        return {"p": DEEP_P, "d": draw_d(seed), "mersenne": list(MERSENNE_P)}
    if workload == "classgroup":
        return {"d": draw_classgroup(seed, load_expected()["classgroup"])}
    raise ValueError(f"unknown workload {workload!r}")


# --- operations -----------------------------------------------------------
# Each returns a list of (args, thunk); args name the call for its check.

def scan_operations(inputs: dict, outdir: str):
    import gmforms
    return [((lo, hi), lambda lo=lo, hi=hi: gmforms.gm.scan_exponents(lo, hi))
            for lo, hi in inputs["windows"]]


def audit_operations(inputs: dict, outdir: str):
    import gmforms
    argv = ["verify", "--pmax", str(inputs["pmax"]), "--d", ",".join(map(str, inputs["d"])),
            "--generalized", "--out", os.path.join(outdir, "audit.json")]
    return [(tuple(inputs["d"]), lambda: gmforms.cli.main(argv))]


def deep_operations(inputs: dict, outdir: str):
    import gmforms
    p = inputs["p"]
    ops = [(("audit", p, 7), lambda: gmforms.verify.audit_theorem_d7(p))]
    ops += [(("audit", p, d), lambda d=d: gmforms.verify.audit_generalized(p, d))
            for d in inputs["d"]]
    ops += [(("mersenne", q), lambda q=q: gmforms.verify.mersenne_crosscheck(q))
            for q in inputs["mersenne"]]
    return ops


def classgroup_operations(inputs: dict, outdir: str):
    import gmforms
    return [(d, lambda d=d: gmforms.cli.main(
                ["classgroup", str(-8 * d), "--out", os.path.join(outdir, f"classgroup-{d}.json")]))
            for d in inputs["d"]]


# --- checks ---------------------------------------------------------------
# Each returns the list of problems found in one operation's output.

def check_scan(args, hits, outdir, expected) -> list[str]:
    lo, hi = args
    problems = []
    found = [norm.p for norm in hits]
    want = [p for p in A057429 if lo <= p <= hi]
    if found != want:
        problems.append(f"scan [{lo}, {hi}] found {found}, expected {want}")
    for norm in hits:
        if norm.value != gm_value(norm.p):
            problems.append(f"G_{norm.p} value differs from the closed formula")
        if norm.primality != ("proven-small" if norm.value < 1 << 64 else "probable-prime"):
            problems.append(f"G_{norm.p} labelled {norm.primality}")
    return problems


def _check_representation(rep: dict, d: int, g: int, where: str) -> list[str]:
    x, y = int(rep["x"]), int(rep["y"])
    if x <= 0 or y <= 0 or x * x + d * y * y != g or int(rep["n"]) != g:
        return [f"{where}: representation does not solve x^2 + {d}*y^2 = G_p"]
    return []


def records_digest(records: list[dict]) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode("utf-8")).hexdigest()


def check_audit(d_list, exit_code, outdir, expected) -> list[str]:
    out = os.path.join(outdir, "audit.json")
    problems = []
    if exit_code != 3:
        problems.append(f"verify exit code {exit_code}, expected 3 (refuted)")
    try:
        with open(out, encoding="utf-8") as handle:
            envelope = json.load(handle)
    except (OSError, ValueError) as exc:
        return problems + [f"verify report unreadable: {exc}"]
    records = envelope["records"]
    refuted_d7 = sorted(r["p"] for r in records if r["d"] == 7 and r["verdict"] == "REFUTED")
    if refuted_d7 != list(REFUTED_D7):
        problems.append(f"d = 7 REFUTED at {refuted_d7}, expected {list(REFUTED_D7)}")
    if envelope["summary"]["refuted"] != sum(r["verdict"] == "REFUTED" for r in records):
        problems.append("summary refuted count disagrees with the records")
    for r in records:
        where = f"(p={r['p']}, d={r['d']})"
        g = int(r["g_value"])
        if g != gm_value(r["p"]):
            problems.append(f"{where}: g_value differs from the closed formula")
        if r["representation"] is not None:
            problems += _check_representation(r["representation"], r["d"], g, where)
    if sorted({r["d"] for r in records}) != sorted(d_list):
        problems.append("records do not cover exactly the requested d")
    digests = expected["audit_records_sha256"]
    for d in d_list:
        if records_digest([r for r in records if r["d"] == d]) != digests[str(d)]:
            problems.append(f"d = {d}: records digest differs from the recorded one")
    return problems


def check_deep(args, result, outdir, expected) -> list[str]:
    if args[0] == "mersenne":
        q = args[1]
        if result is None:
            return [f"M_{q}: no record"]
        x, y = result.x, result.y
        if result.m_value != (1 << q) - 1 or x * x + 7 * y * y != result.m_value:
            return [f"M_{q}: representation does not solve x^2 + 7*y^2 = M_p"]
        if x % 8 != 0 or y % 8 not in (3, 5) or (result.x_mod8, result.y_mod8) != (x % 8, y % 8):
            return [f"M_{q}: residues x={x % 8}, y={y % 8} (mod 8), expected 8 | x, y = +-3"]
        return []
    _, p, d = args
    where = f"(p={p}, d={d})"
    problems = []
    if result.g_value != gm_value(p):
        problems.append(f"{where}: g_value differs from the closed formula")
    want = expected["deep_verdict_1367"][str(d)]
    if result.verdict != want:
        problems.append(f"{where}: verdict {result.verdict}, expected {want}")
    rep = result.representation
    if rep is not None:
        problems += _check_representation(dataclasses.asdict(rep), d, result.g_value, where)
        if (result.x_mod8, result.y_mod8) != (rep.x % 8, rep.y % 8):
            problems.append(f"{where}: stored residues disagree with x, y")
    if d == 7 and (rep is None or (rep.x % 8, rep.y % 8) != (1, 4)):
        problems.append(f"{where}: expected x = 1, y = 4 (mod 8)")
    return problems


def _is_reduced(a: int, b: int, c: int) -> bool:
    return abs(b) <= a <= c and not (b < 0 and (abs(b) == a or a == c))


def check_classgroup(d, exit_code, outdir, expected) -> list[str]:
    out = os.path.join(outdir, f"classgroup-{d}.json")
    disc = -8 * d
    where = f"classgroup {disc}"
    problems = []
    if exit_code != 0:
        problems.append(f"{where}: exit code {exit_code}")
    try:
        with open(out, encoding="utf-8") as handle:
            record = json.load(handle)["records"][0]
    except (OSError, ValueError, LookupError) as exc:
        return problems + [f"{where}: report unreadable: {exc}"]
    h, orders, forms = record["h"], record["cyclic_orders"], record["forms"]
    if record["discriminant"] != disc or h != len(forms) or h != math.prod(orders):
        problems.append(f"{where}: h = {h} disagrees with the forms or invariant factors")
    if any(prev % k for prev, k in zip(orders, orders[1:])):
        problems.append(f"{where}: invariant factors {orders} do not divide each other")
    if record["has_order_4_element"] != any(k % 4 == 0 for k in orders):
        problems.append(f"{where}: has_order_4_element disagrees with {orders}")
    if len({tuple(f) for f in forms}) != len(forms) or not all(
            _is_reduced(a, b, c) and b * b - 4 * a * c == disc and math.gcd(a, b, c) == 1
            for a, b, c in forms):
        problems.append(f"{where}: forms are not distinct primitive reduced forms")
    if [h, orders] != expected["classgroup"][str(d)]:
        problems.append(f"{where}: (h, invariant factors) differ from the recorded ones")
    return problems


WORKLOADS = {
    "scan": (scan_operations, check_scan),
    "audit": (audit_operations, check_audit),
    "deep": (deep_operations, check_deep),
    "classgroup": (classgroup_operations, check_classgroup),
}


def run_repetition(workload: str, inputs: dict, outdir: str) -> dict:
    """Run every operation once, timed, then check the outputs untimed.

    A raised exception or a failed check counts the operation as failed.
    Peak memory is read before the checks, which allocate their own.
    """
    operations, check = WORKLOADS[workload]
    ops = operations(inputs, outdir)
    results = []
    started = time.perf_counter()
    for _, call in ops:
        try:
            results.append(call())
        except (Exception, SystemExit) as exc:  # counted as a failed operation below
            results.append(exc)
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    expected = load_expected()
    problems = []
    for (args, _), result in zip(ops, results):
        if isinstance(result, (Exception, SystemExit)):
            found = [f"{args}: raised {result!r}"]
        else:
            try:
                found = check(args, result, outdir, expected)
            except Exception as exc:  # malformed output the check could not read
                found = [f"{args}: check failed on malformed output: {exc!r}"]
        if found:
            problems.append(found)
    return {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "attempted": len(ops),
            "failed": len(problems), "problems": [p for found in problems for p in found]}
