"""Reference code the tests compare the package against.  The package
itself uses none of it: a full sweep for the oracle, the solutions a
minimal basis generates, the lemma of the three valuations, the
point-by-point lift of a reduced solution with the inner bound it was
listed at, and a parameter sweep over full assignments."""

import itertools
from math import inf

from trisolve.expr import ExactDivisionError
from trisolve.intcore import ResourceLimit, valuation
from trisolve.solset import box_bounds
from trisolve.twomon import power_fiber


def brute_force_naive(poly, bound):
    """Full sweep without the residual trick; cross-check for the oracle."""
    variables = list(poly.variables)
    rng = range(-bound, bound + 1)
    out = []
    for point in itertools.product(rng, repeat=len(variables)):
        if poly.evaluate(dict(zip(variables, point))) == 0:
            out.append(point)
    return out


def generate_solutions(basis, nvars, homogeneous, bound):
    """All solutions with entries <= bound of a lindioph.MinimalBasis of a
    system in `nvars` variables, with a zero right-hand side or not,
    generated as particular plus non-negative combinations of the
    homogeneous minimals."""
    seeds = ([(0,) * nvars] if homogeneous
             else [tuple(seed) for seed in basis.particular])
    out = set()
    for start in seeds:
        stack = [start]
        seen = {start}
        while stack:
            cur = stack.pop()
            out.add(cur)
            for h in basis.homogeneous:
                nxt = tuple(c + d for c, d in zip(cur, h))
                if max(nxt) <= bound and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return out


#: Valuation of zero.  Float infinity compares exactly with every int and is
#: never equal to one.
OO = inf


def valuation_or_infinity(n, p):
    """valuation(n, p), with OO for n = 0."""
    return OO if n == 0 else valuation(n, p)


def valuation_split(a, b, c, p):
    """For a + b + c = 0, identify which two of v_p(a), v_p(b), v_p(c) attain
    the common minimum: tag 'ab', 'ac', 'bc', or 'abc' when all equal.

    Returns (tag, minimum).  The two smallest valuations of a zero-sum triple
    are always equal, which this function asserts.
    """
    if a + b + c != 0:
        raise ValueError("expected a + b + c = 0")
    if a == 0 and b == 0 and c == 0:
        raise ValueError("at least one of a, b, c must be nonzero")
    va = valuation_or_infinity(a, p)
    vb = valuation_or_infinity(b, p)
    vc = valuation_or_infinity(c, p)
    lo = min(va, vb, vc)
    hits = [t for t, v in (("a", va), ("b", vb), ("c", vc)) if v == lo]
    if len(hits) < 2:
        raise AssertionError(f"valuation split violated for ({a},{b},{c}) at p={p}")
    tag = "abc" if len(hits) == 3 else "".join(hits)
    return tag, lo


def _fiber_core_options(term, values, bound):
    """Positive magnitude assignments for the non-free block positions of a
    term, each at most the bound: (positions, list of magnitude tuples).
    Signs of block variables never matter downstream (term values come from
    the transformed variables and the back map uses absolute values)."""
    if term.kind == "const":
        support = [i for i, e in enumerate(term.side_exps) if e]
        if not support:
            return [], [()]
        return support, [t for t in term.side_mags if max(t) <= bound]

    if term.kind == "case3":
        support = [i for i, e in enumerate(term.exps) if e]
        core = []
        for i in support:
            val = abs(values[term.varnames[i]]) * term.scales[i]
            if val > bound:
                return support, []
            core.append(val)
        return support, [tuple(core)]

    # case2: prod U^{e_k/d} = +- qstar * U' / vdiv, with U' nonzero
    support = [i for i, e in enumerate(term.orig_exps) if e]
    red_exps = [term.orig_exps[i] // term.d for i in support]
    return support, power_fiber(
        red_exps, abs(term.qstar * values[term.varnames[0]]), term.vdiv,
        bound)


def _term_value(term, values):
    if term.kind == "const":
        return term.coeff
    val = term.coeff
    if term.kind == "case3":
        for name, e in zip(term.varnames, term.exps):
            if e:
                val *= values[name] ** e
        return val
    return val * values[term.varnames[0]] ** term.d


def lift_reduced_solution(red, values, bound):
    """Original solutions generated by one solution `values` (by name) of
    the reduced equation red, restricted to the cube of bound `bound`, by a
    recursive walk over the term fibers and the free block variables."""
    if any(m > bound for m in red.particular):
        return []
    tvals = [_term_value(t, values) for t in red.terms]
    if sum(tvals) != 0 or any(t == 0 for t in tvals):
        return []

    term_data = []
    free_vecs = []
    for term, basis in zip(red.terms, red.bases):
        positions, opts = _fiber_core_options(term, values, bound)
        if positions and not opts:
            return []
        term_data.append((basis, positions, opts))
        for i in term.free_idx:
            free_vecs.append(basis[i])

    pattern = tuple(t > 0 for t in tvals)
    eps_union = (red.sign_table.get(pattern, [])
                 + red.sign_table.get(tuple(not p for p in pattern), []))
    if not eps_union:
        return []
    eq = red.source
    nv = len(eq.variables)
    tabs = [abs(t) for t in tvals]
    out = set()
    coeff_abs = [abs(c) for c in eq.coeffs]

    def emit(mags):
        m = []
        for j in range(3):
            val = coeff_abs[j]
            for i in range(nv):
                if eq.rows[j][i]:
                    val *= mags[i] ** eq.rows[j][i]
            m.append(val)
        # common positive ratio |M_j| / |T_j|
        if m[0] * tabs[1] != m[1] * tabs[0] or m[1] * tabs[2] != m[2] * tabs[1]:
            return
        for eps in eps_union:
            out.add(tuple(v if not e else -v for v, e in zip(mags, eps)))

    def sweep_free(idx, mags):
        if idx == len(free_vecs):
            emit(mags)
            return
        vec = free_vecs[idx]
        val = 1
        while val <= bound:
            nxt = [m * val ** vec[i] for i, m in enumerate(mags)]
            if any(m > bound for m in nxt):
                break
            sweep_free(idx + 1, nxt)
            val += 1

    def walk_terms(t_idx, mags):
        if t_idx == 3:
            sweep_free(0, list(mags))
            return
        basis, positions, opts = term_data[t_idx]
        if not positions:
            walk_terms(t_idx + 1, mags)
            return
        for tup in opts:
            nxt = list(mags)
            dead = False
            for pos, val in zip(positions, tup):
                vec = basis[pos]
                for i in range(nv):
                    if vec[i]:
                        nxt[i] *= val ** vec[i]
                        if nxt[i] > bound:
                            dead = True
                            break
                if dead:
                    break
            if not dead:
                walk_terms(t_idx + 1, nxt)

    walk_terms(0, list(red.particular))
    return sorted(out)


def plain_inner_bound(branches, names, b):
    """The inner bound a reduced lift family was listed at before its bound
    read the basis and the particular solution: every block value of a box
    point at most b, so a case2 variable at most ceil(vdiv * b^p / qstar),
    p the sum of the positive e_k/d, and any other variable at most b."""
    caps = {(t.varnames[0], t.vdiv,
             sum(e for e in t.orig_exps if e > 0) // t.d, t.qstar)
            if t.kind == "case2" else (name, 1, 1, 1)
            for red in branches for t in red.terms
            for name in t.varnames}
    need = {}
    for name, v, p, q in caps:
        need[name] = max(need.get(name, 0), -(-v * b**p // q))
    bounds = tuple(need.get(name, b) for name in names)
    if max(bounds, default=0) > 10**6:
        raise ResourceLimit(f"the inner set to bound {max(bounds)}")
    return bounds


def _extended(assignments, name, domain, limit):
    """Each assignment extended by every value of the parameter `name` in
    its domain up to the limit, lazily; the domain reads the assignment."""
    return ({**env, name: value} for env in assignments
            for value in domain.enumerate(env, limit))


def sweep_by_assignments(family, box):
    """The box points of a SolutionFamily without a box_enumerator, from
    every full assignment of its parameters: the coordinates of each are
    evaluated in order until one leaves the box or a division fails."""
    bounds = box_bounds(box, family.variables)
    top = max(bounds, default=0)
    names = [name for name, _ in family.params]
    limits = (family.param_bound(dict(zip(family.variables, bounds)))
              if family.param_bound else dict.fromkeys(names, top))
    exprs = [family.exprs[v] for v in family.variables]
    out = set()
    assignments = [{}]
    for name, domain in family.params:
        assignments = _extended(assignments, name, domain, limits[name])
    for env in assignments:
        tup = []
        try:
            for e, b in zip(exprs, bounds):
                tup.append(e.eval(env))
                if abs(tup[-1]) > b:
                    break
            else:
                out.add(tuple(tup))
        except ExactDivisionError:
            continue
    return out
