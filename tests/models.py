"""Models that only the tests build: the circle, the chain-nondegenerate
double of a complex, and the degree-1 Darboux chart with the Hamiltonian lift
of a bivector."""

from gq import GPoly, GradingError
from gq.complexes import GradedComplex, SimplicialComplex, SymplecticComplex
from gq.linalg import Matrix
from gq.sigma_structures import ConjugatePair, DarbouxChart, skew_table


def circle_complex(m: int) -> GradedComplex:
    """Cochains of the cyclic m-gon."""
    if m < 3:
        raise ValueError("circle needs at least 3 segments")
    K = SimplicialComplex.from_tops([(i, (i + 1) % m) for i in range(m)])
    return K.graded_complex()


def double_complex(C: GradedComplex, n: int) -> SymplecticComplex:
    """C + C*[n] with the evaluation pairing: chain-nondegenerate and
    Q-compatible, the abstract model where the orthogonality lemma is exact."""
    degs = C.degrees()
    comps = {}
    for k in degs:
        comps[k] = comps.get(k, 0) + C.dim(k)
        comps[n - k] = comps.get(n - k, 0) + C.dim(k)

    def c_dim(k):
        return C.dim(k)

    def d_dim(k):
        return C.dim(n - k)

    diffs = {}
    all_degs = sorted(comps)
    # sigma_j relates the two pairing blocks; the compatibility identity forces
    # sigma_{j+1} = (-1)^(n+1) sigma_j, solved by this closed form
    sigma = {j: -1 if (n + 1) * j % 2 else 1 for j in all_degs}
    for k in all_degs:
        rows = c_dim(k + 1) + d_dim(k + 1)
        cols = c_dim(k) + d_dim(k)
        if rows == 0 or cols == 0:
            continue
        entries = [(r, c, x) for r, row in enumerate(C.d(k).rows) for c, x in row.items()]
        # dual differential: (delta phi)(x) = (-1)^{n-k} phi(dx)
        s = -1 if (n - k) % 2 else 1
        entries += ((c_dim(k + 1) + r, c_dim(k) + c, s * x)
                    for c, row in enumerate(C.d(n - k - 1).rows) for r, x in row.items())
        diffs[k] = Matrix.from_entries(rows, cols, entries)
    pairings = {}
    for k in all_degs:
        l = n - k
        if l not in comps:
            continue
        entries = [(i, c_dim(l) + i, 1) for i in range(c_dim(k))]      # <u, phi> = phi(u)
        entries += ((c_dim(k) + i, i, sigma[k]) for i in range(d_dim(k)))  # <phi, u> = sigma_k phi(u)
        pairings[k] = Matrix.from_entries(comps[k], comps[l], entries)
    return SymplecticComplex(GradedComplex(comps, diffs), n, pairings)


def poisson_chart(m: int) -> DarbouxChart:
    """T*[1]R^m: pairs (x_a: 0, p_a: 1), coefficient +1."""
    return DarbouxChart(1, [ConjugatePair(f"x{a}", 0, f"p{a}", 1) for a in range(1, m + 1)])


def poisson_theta(dchart: DarbouxChart, pi) -> GPoly:
    """Hamiltonian lift of a bivector: Theta_pi = -1/2 pi^{ab} p_a p_b.

    pi: mapping (a, b) -> weight-0 polynomial (or rational), antisymmetric
    (`skew_table`); missing entries default to 0.
    The normalization makes derived_bracket(Theta_pi, x^a, x^b) = pi^{ab}.
    """
    if dchart.n != 1:
        raise GradingError("poisson_theta lives on a degree-1 chart")
    chart = dchart.chart
    upper = skew_table(pi, len(dchart.pairs),
                       lambda v: v if isinstance(v, GPoly) else chart.const(v), "bivector entries")
    # the (a,b) and (b,a) orders of the 1/2 pi^{ab} p_a p_b sum coincide
    return chart.sum_of_products((-coeff * chart.var(f"p{a}"), chart.var(f"p{b}"))
                                 for (a, b), coeff in upper.items())
