"""Allocation optimization over candidate query sets: E/T scalarizations,
robust (worst-case over a functional family) objectives, greedy and
exponentiated-gradient solvers, a brute-force simplex oracle, rounding,
and bias/variance budget balancing."""

import itertools

import numpy as np

from .confidence import fixed_interp_ellipsoid, l2_error_bound, xi
from .estimators import (_on_simplex, _ridge_solves, _weighted_info_matrices,
                         info_matrix_interp, weighted_info_matrix)
from .functionals import FunctionalFamily, gradient_functional
from .features import PriorOperator, evaluate_design_matrix
from .linalg import min_eig, solve_spd, sym


class Allocation:
    """Support points with simplex weights and optional rounded counts."""

    def __init__(self, support_points, X, eta, counts=None, budget=None,
                 objective_value=None, trace=None, min_spread=None):
        eta = np.asarray(eta, dtype=float).reshape(-1)
        if not _on_simplex(eta):
            raise ValueError("eta must lie on the probability simplex")
        self.support_points = list(support_points)
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.eta = np.clip(eta, 0.0, None)
        self.counts = None if counts is None else np.asarray(counts, dtype=int)
        self.budget = budget
        self.objective_value = objective_value
        self.trace = list(trace) if trace is not None else None
        # greedy only: the smallest (best - worst) / |best| of the candidate
        # scores over its steps; near roundoff, the objective did not tell
        # the candidates apart
        self.min_spread = min_spread

    @property
    def n(self):
        return self.X.shape[0]


class DesignObjective:
    """Scalarized information objective f(W(D(eta)^{1/2} X_S)).

    kind: 'E' (lambda_min) or 'T' (trace); estimator_kind: 'interp' or
    'ridge'; functional: LinearFunctional or FunctionalFamily (robust:
    worst case over the family's grid).
    """

    def __init__(self, kind, estimator_kind, functional, V0=None,
                 lam=None, sigma=None):
        if kind not in ("E", "T"):
            raise ValueError("kind must be 'E' or 'T'")
        if estimator_kind not in ("interp", "ridge"):
            raise ValueError("estimator_kind must be 'interp' or 'ridge'")
        if estimator_kind == "ridge" and (lam is None or sigma is None):
            raise ValueError("ridge objective needs lam and sigma")
        self.kind = kind
        self.estimator_kind = estimator_kind
        self.functional = functional
        self.V0 = V0
        self.lam = lam
        self.sigma = sigma

    def _functionals(self):
        if isinstance(self.functional, FunctionalFamily):
            return self.functional.functionals()
        return [self.functional]

    def _v0(self, m):
        return self.V0 if self.V0 is not None else PriorOperator(dim=m)


def _scalarize(kind, W):
    if kind == "E":
        return min_eig(W)
    return float(np.trace(W))


def evaluate_objective(obj, alloc_or_X, eta=None):
    """Objective value at an allocation; min over the gamma grid when robust.

    An unidentifiable design under the interpolation estimator returns -inf
    rather than raising, and so does an eta off the probability simplex.
    """
    if eta is None:
        X_S, eta = alloc_or_X.X, alloc_or_X.eta
    else:
        X_S = np.atleast_2d(np.asarray(alloc_or_X, dtype=float))
        eta = np.asarray(eta, dtype=float).reshape(-1)
    if eta.shape[0] != X_S.shape[0] or not _on_simplex(eta):
        return -np.inf
    return min(_member_values(obj, X_S, eta))


def _member_values(obj, X_S, eta):
    """Scalarized objective of each functional of obj at raw weights eta.

    eta is clipped at 0 and not checked against the simplex (the greedy
    solver scores unnormalized counts).  Every value is -inf when the
    interpolation design is unidentifiable.
    """
    Cms = [C.matrix for C in obj._functionals()]
    try:
        Ws = _weighted_info_matrices(X_S, eta, Cms, obj._v0(X_S.shape[1]),
                                     obj.estimator_kind, obj.lam, obj.sigma)
    except ValueError:
        return [-np.inf] * len(Cms)
    return [_scalarize(obj.kind, W.matrix) for W in Ws]


# ---------------------------------------------------------------------------
# exact gradients
# ---------------------------------------------------------------------------

def _grad_single(obj, X_S, eta, C, V0):
    """(Super)gradient of f(W(eta)) wrt eta for one functional.

    Both kinds write W^{-1} = M and dM/deta_i = -v_i v_i^T, so the T-gradient
    is |M^{-1} v_i|^2 and the E-supergradient (v_i^T u_top)^2 / w_top^2 for
    the top eigenvector u_top of M, i.e. a unit vector in the bottom
    eigenspace of W; it is the gradient when that eigenvalue is simple.
    """
    Cm = C.matrix
    grad = np.zeros_like(eta)
    if obj.estimator_kind == "ridge":
        sigma = obj.sigma
        Xw = np.sqrt(np.clip(eta, 0.0, None))[:, None] * X_S
        (AinvCt,) = _ridge_solves(Xw, [Cm], V0, obj.lam, sigma)
        M = sym(sigma ** 2 * (Cm @ AinvCt))
        V = sigma * (X_S @ AinvCt).T              # col i = sigma C A^{-1} x_i
        keep = slice(None)
    else:
        # interpolation kind: restrict to the positive sub-support, where the
        # weights L of the weighted rows give M = L L^T, v_i = L[:, i]/sqrt(eta_i)
        keep = eta > 0
        rt = np.sqrt(eta[keep])
        Xw = rt[:, None] * X_S[keep]
        B = Xw @ V0.inv()
        L = solve_spd(sym(B @ Xw.T), B @ Cm.T).T  # warns, never raises
        M = sym(L @ L.T)
        V = L / rt[None, :]
    if obj.kind == "T":
        grad[keep] = np.sum(solve_spd(M, V) ** 2, axis=0)
        return grad
    w, u = np.linalg.eigh(M)
    grad[keep] = (u[:, -1] @ V) ** 2 / w[-1] ** 2
    return grad


def _fd_gradient(obj, X_S, eta, step=1e-7):
    """Central finite differences of the objective at raw weights eta;
    reference for tests only, the solvers never call it."""
    g = np.zeros_like(eta)
    for i in range(eta.size):
        e = np.zeros_like(eta)
        e[i] = step
        up = min(_member_values(obj, X_S, eta + e))
        dn = min(_member_values(obj, X_S, eta - e))
        g[i] = (up - dn) / (2 * step)
    return g


def objective_gradient(obj, X_S, eta):
    """Supergradient of the (robust) objective at eta: the exact gradient of
    the worst family member, with the E-supergradient at tied eigenvalues."""
    X_S = np.atleast_2d(np.asarray(X_S, dtype=float))
    eta = np.asarray(eta, dtype=float)
    V0 = obj._v0(X_S.shape[1])
    functionals = obj._functionals()
    C = functionals[0]
    if len(functionals) > 1:
        C = functionals[int(np.argmin(_member_values(obj, X_S, eta)))]
    return _grad_single(obj, X_S, eta, C, V0)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def mirror_descent_design(obj, support_points, X_S=None, iters=300,
                          step0=None, eta0=None, feature_map=None):
    """Exponentiated-gradient ascent on the simplex.

    Update eta <- eta * exp(s_t * grad f) renormalized, with s_t = step0/sqrt(t).
    step0=None normalizes the stepsize by the gradient scale at the start
    point (step0 = 1/max|grad f(eta0)|), making the schedule invariant to the
    objective's units.  Returns the best iterate seen.  A non-finite gradient
    rejects the step and halves the stepsize; 20 consecutive rejections abort.
    """
    if X_S is None:
        if feature_map is None:
            raise ValueError("need X_S or a feature_map to embed the support")
        X_S = evaluate_design_matrix(feature_map, support_points)
    X_S = np.atleast_2d(np.asarray(X_S, dtype=float))
    n = X_S.shape[0]
    eta = (np.full(n, 1.0 / n) if eta0 is None
           else np.asarray(eta0, dtype=float) / np.sum(eta0))
    best_eta = eta.copy()
    best_val = evaluate_objective(obj, X_S, eta)
    if not np.isfinite(best_val):
        raise ValueError(
            "objective is infeasible at the start allocation (for the "
            "interpolation estimator all positively weighted rows must be "
            "linearly independent); pass a feasible eta0")
    trace = [best_val]
    if step0 is None:
        g0 = objective_gradient(obj, X_S, eta)
        scale = np.abs(g0).max() if np.all(np.isfinite(g0)) else 0.0
        step = 1.0 / scale if scale > 0 else 1.0
    else:
        step = float(step0)
    rejections = 0
    for t in range(1, iters + 1):
        g = objective_gradient(obj, X_S, eta)
        if not np.all(np.isfinite(g)):
            rejections += 1
            step *= 0.5
            if rejections >= 20:
                raise RuntimeError("mirror descent: 20 consecutive "
                                   "non-finite gradients")
            trace.append(trace[-1])
            continue
        rejections = 0
        s = step / np.sqrt(t)
        # center the gradient for numerical stability of exp
        w = eta * np.exp(s * (g - g.max()))
        total = w.sum()
        if total <= 0 or not np.isfinite(total):
            trace.append(trace[-1])
            continue
        eta = w / total
        val = evaluate_objective(obj, X_S, eta)
        trace.append(val)
        if val > best_val:
            best_val = val
            best_eta = eta.copy()
    return Allocation(support_points, X_S, best_eta,
                      objective_value=best_val, trace=trace)


def greedy_design(obj, candidate_points, budget, X_cand=None,
                  feature_map=None, seed_indices=None):
    """Frank-Wolfe-style greedy: eta_{t+1} = (t eta_t + delta_best)/(t+1).

    Ridge objectives only (the weighted pseudo-inverse is discontinuous in
    eta, so the greedy step can destroy progress under interpolation; use
    mirror_descent_design there).  Starts from one count on each of p+1 seed
    candidates so W_lambda is well conditioned from step 0.

    The recorded trace (and objective_value) is the objective of the
    unnormalized counts design, i.e. the accumulated information, which is
    non-decreasing in t; the objective of the normalized allocation is not
    monotone (appending any count to an already optimal allocation must
    perturb the weights).  Each step scores every candidate from one
    factorization (_candidate_scores); the Allocation records the smallest
    relative spread of those scores over the steps.
    """
    if obj.estimator_kind != "ridge":
        raise ValueError("greedy_design supports the ridge estimator only; "
                         "use mirror_descent_design for interpolation")
    if X_cand is None:
        if feature_map is None:
            raise ValueError("need X_cand or a feature_map")
        X_cand = evaluate_design_matrix(feature_map, candidate_points)
    X_cand = np.atleast_2d(np.asarray(X_cand, dtype=float))
    n = X_cand.shape[0]
    p = obj._functionals()[0].p
    if seed_indices is None:
        seed_indices = np.unique(
            np.linspace(0, n - 1, min(p + 1, n)).round().astype(int))
    counts = np.zeros(n, dtype=int)
    counts[np.asarray(seed_indices, dtype=int)] += 1
    t = int(counts.sum())
    if budget < t:
        raise ValueError(f"budget {budget} below seed size {t}")
    trace = [min(_member_values(obj, X_cand, counts.astype(float)))]
    min_spread = None
    while t < budget:
        scores = _candidate_scores(obj, X_cand, counts)
        best = scores.max()
        spread = float((best - scores.min()) / abs(best))
        min_spread = spread if min_spread is None else min(min_spread, spread)
        # argmax takes the first maximum: the lowest index wins exact ties
        counts[int(np.argmax(scores))] += 1
        t += 1
        trace.append(min(_member_values(obj, X_cand, counts.astype(float))))
    eta = counts / budget
    return Allocation(candidate_points, X_cand, eta, counts=counts,
                      budget=budget, objective_value=trace[-1], trace=trace,
                      min_spread=min_spread)


def _candidate_scores(obj, X_cand, counts):
    """Ridge objective of (counts + e_j) / (t + 1) for every candidate j,
    with t = sum(counts): the greedy step's scores.

    Each candidate adds x_j x_j^T / (t + 1) to the same base
    A_0 = sigma^2 lam V0 + X^T D(counts / (t + 1)) X, so one factor of A_0
    serves them all (Sherman-Morrison; Fedorov 1972, Theory of Optimal
    Experiments).  For each functional C, with G = C A_0^{-1} C^T,
    v_j = C A_0^{-1} x_j and d_j = t + 1 + x_j^T A_0^{-1} x_j,
    M_j = C A_j^{-1} C^T = G - v_j v_j^T / d_j and W_j = M_j^{-1} / sigma^2.
    T: tr M_j^{-1} = tr G^{-1} + |G^{-1} v_j|^2 / (d_j - v_j^T G^{-1} v_j).
    E: lambda_min(W_j) = 1 / (sigma^2 lambda_max(M_j)), from one stacked
    eigvalsh of the (n, p, p) matrices M_j.  Robust objectives take the
    minimum over the family.
    """
    sigma, t1 = obj.sigma, counts.sum() + 1.0
    Xw = np.sqrt(counts / t1)[:, None] * X_cand
    Cms = [C.matrix for C in obj._functionals()]
    *SCs, SX = _ridge_solves(Xw, Cms + [X_cand], obj._v0(X_cand.shape[1]),
                             obj.lam, sigma)
    d = t1 + np.einsum("ij,ji->i", X_cand, SX)
    scores = np.full(X_cand.shape[0], np.inf)
    for Cm, SCm in zip(Cms, SCs):
        G, V = sym(Cm @ SCm), Cm @ SX           # column j of V is v_j
        p = G.shape[0]
        if obj.kind == "T":
            R = solve_spd(G, np.hstack([np.eye(p), V]))
            GinvV = R[:, p:]
            val = (np.trace(R[:, :p]) + np.sum(GinvV ** 2, axis=0)
                   / (d - np.sum(V * GinvV, axis=0)))
        else:
            M = np.einsum("in,jn->nij", V, V)
            M /= -d[:, None, None]
            M += G
            val = 1.0 / np.linalg.eigvalsh(M)[:, -1]
        scores = np.minimum(scores, val / sigma ** 2)
    return scores


def _simplex_lattice(n, resolution):
    for comp in itertools.combinations(range(resolution + n - 1), n - 1):
        prev = -1
        parts = []
        for c in comp:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + n - 2 - prev)
        yield np.array(parts, dtype=float) / resolution


def grid_search_design(obj, support_points, resolution, X_S=None,
                       feature_map=None):
    """Exhaustive lattice search over the simplex (oracle for n <= 4)."""
    if X_S is None:
        X_S = evaluate_design_matrix(feature_map, support_points)
    X_S = np.atleast_2d(np.asarray(X_S, dtype=float))
    n = X_S.shape[0]
    if n > 4:
        raise ValueError("grid search oracle limited to n <= 4 support points")
    best_eta, best_val = None, -np.inf
    for eta in _simplex_lattice(n, int(resolution)):
        val = evaluate_objective(obj, X_S, eta)
        if val > best_val:
            best_val, best_eta = val, eta
    return Allocation(support_points, X_S, best_eta, objective_value=best_val)


def round_allocation(alloc, budget):
    """Ceiling rounding: counts_i = ceil(eta_i * T) on the support."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    counts = np.where(alloc.eta > 0,
                      np.ceil(alloc.eta * budget - 1e-12).astype(int), 0)
    return Allocation(alloc.support_points, alloc.X, alloc.eta, counts=counts,
                      budget=budget, objective_value=alloc.objective_value,
                      trace=alloc.trace)


class BalanceResult:
    def __init__(self, h_star, crossing, table, boundary):
        self.h_star = h_star
        self.crossing = crossing
        self.table = table          # rows (h, variance_term, bias_term, total)
        self.boundary = boundary    # True when the minimum sits on the grid edge


def balance_bias_variance(family, h_grid, C, sigma, lam, delta, V0=None,
                          reps=1):
    """Pick h minimizing the total certified error over an h grid.

    family maps h to (design matrix X, nu); the total error is
    l2_error_bound of the fixed interpolation ellipsoid for the functional C.
    Also reports the grid point where the variance and bias terms cross.
    """
    import warnings
    table = []
    for h in h_grid:
        X, nu = family(h)
        prior = V0 if V0 is not None else PriorOperator(dim=X.shape[1])
        W = info_matrix_interp(X, C, prior)
        e = fixed_interp_ellipsoid(np.zeros(W.p), W, nu, lam, sigma, reps, delta)
        var_term = (sigma / np.sqrt(reps)) * np.sqrt(xi(delta, W.p))
        bias_term = nu / np.sqrt(lam)
        table.append((h, var_term, bias_term, l2_error_bound(e)))
    totals = np.array([r[3] for r in table])
    idx = int(np.argmin(totals))
    boundary = idx in (0, len(table) - 1)
    if boundary and (np.all(np.diff(totals) >= 0) or np.all(np.diff(totals) <= 0)):
        warnings.warn("total error is monotone across the h grid; "
                      "returning the boundary point")
    gaps = np.array([abs(r[1] - r[2]) for r in table])
    crossing = table[int(np.argmin(gaps))][0]
    return BalanceResult(table[idx][0], crossing, table, boundary)


def query_complexity(eps, p, lambda_min, sigma, nu, lam, delta):
    """Smallest T with sqrt(lambda_min^{-1}/T) sigma sqrt(xi) + bias floor <= eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    bias_floor = nu / np.sqrt(lam) / np.sqrt(lambda_min)
    if bias_floor >= eps:
        raise ValueError(
            f"bias floor {bias_floor:.6g} exceeds the target accuracy {eps:.6g}: "
            "no repetition count can reach it")
    var_unit = sigma * np.sqrt(xi(delta, p)) / np.sqrt(lambda_min)
    T = int(np.ceil((var_unit / (eps - bias_floor)) ** 2 - 1e-12))
    return max(T, 1)


def gradient_design_geometry_check(feature_map, x, h_grid, V0=None):
    """Equal-weight finite-difference design sweep: (h, lambda_min(W_dagger)^{-1}).

    Fits c on the two smallest grid points and checks the geometric bound
    value <= d*h + c*h^2 across the grid.
    """
    x = np.asarray(x, dtype=float)
    d = feature_map.input_dim
    if V0 is None:
        V0 = PriorOperator(dim=feature_map.dim)
    h_grid = sorted(float(h) for h in h_grid)
    table = []
    for h in h_grid:
        pts = []
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            pts.extend([x + e, x - e])
        X = evaluate_design_matrix(feature_map, pts)
        C = gradient_functional(feature_map, x)
        W = weighted_info_matrix(X, np.full(len(pts), 1.0 / len(pts)),
                                 C, V0, "interp")
        val = 1.0 / min_eig(W.matrix)
        table.append((h, val))
    c = max((val - d * h) / h ** 2 for h, val in table[:2])
    bound_holds = all(val <= d * h + c * h ** 2 + 1e-9 * (1 + abs(val))
                      for h, val in table)
    return {"table": table, "c": c, "bound_holds": bound_holds, "d": d}
