"""Exact computations on explicitly enumerated solution sets.

Everything here works with fully materialized vertex sets and distribution
vectors: surrogate objective, closed-form decomposition / coordination,
partial minimizer and Jensen gap, plus the numeric certificates for the
convergence rate, the mirror-descent equivalence, the five-point property,
the risk bound, and the moment/distribution conjugate identity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    CheckRow,
    InputError,
    LinearOracle,
    RngStream,
    Scenario,
    ensure_finite,
    make_rng,
)
from .regularizers import (
    NEGENTROPY,
    SPARSE_PERTURBATION,
    SQUARED_L2,
    RegularizerKind,
    conjugate_rows,
    prediction_rows,
    validate_distribution,
    value_rows,
)

log = logging.getLogger(__name__)

# Distributions are clamped here before taking logs; a clamp is logged and
# treated as a boundary event in strict mode.
INTERIOR_CLAMP = 1e-300


class BoundaryError(RuntimeError):
    """An iterate touched the simplex boundary where a log is required."""

    def __init__(self, message: str, vertex: int | None = None, iteration: int | None = None):
        super().__init__(message)
        self.vertex = vertex
        self.iteration = iteration


def nearest_point_in_hull_sq(candidate: np.ndarray, others: np.ndarray,
                             max_iters: int = 5000) -> float:
    """Squared distance from ``candidate`` to conv(rows of ``others``).

    Solved as min over simplex weights of ||candidate - others^T w||^2 with
    an accelerated projected-gradient method; no LP dependency, desk scale
    only.
    """
    o = np.asarray(others, dtype=float)  # (k, d)
    c = np.asarray(candidate, dtype=float)
    k = o.shape[0]
    projection = RegularizerKind.squared_l2()
    gram = o @ o.T
    lin = o @ c
    lip = 2.0 * max(np.linalg.norm(gram, 2), 1e-12)
    w = np.full(k, 1.0 / k)
    z = w.copy()
    t_acc = 1.0
    f_prev = np.inf
    for _ in range(max_iters):
        grad = 2.0 * (gram @ z - lin)
        w_next = prediction_rows((z - grad / lip)[None, :], projection)[0]
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        z = w_next + ((t_acc - 1.0) / t_next) * (w_next - w)
        w, t_acc = w_next, t_next
        diff = c - o.T @ w
        f = float(diff @ diff)
        if abs(f_prev - f) < 1e-16 * (1.0 + abs(f)):
            break
        f_prev = f
    diff = c - o.T @ w
    return float(diff @ diff)


def is_exposed_vertex(candidate: np.ndarray, others: Sequence[np.ndarray]) -> bool:
    """True iff ``candidate`` is not a convex combination of ``others``.

    Membership is declared when the nearest-point-in-hull squared distance
    falls below 1e-9.  Desk-scale only (|others| up to ~1e4).
    """
    c = ensure_finite(candidate, "candidate")
    if len(others) == 0:
        return True
    o = np.asarray(others, dtype=float)
    if o.ndim != 2 or o.shape[1] != c.shape[0]:
        raise InputError("candidate and others must share one dimension")
    return nearest_point_in_hull_sq(c, o) >= 1e-9


@dataclass(frozen=True)
class ExplicitPolytope:
    """An enumerated solution set with its d x |Y| vertex matrix."""

    matrix: np.ndarray  # columns are the vertices

    def __post_init__(self):
        m = ensure_finite(self.matrix, "vertex matrix")
        if m.ndim != 2:
            raise InputError("vertex matrix must be two-dimensional")
        object.__setattr__(self, "matrix", m)
        self.matrix.setflags(write=False)

    @staticmethod
    def from_vertices(vertices, validate: bool = True) -> "ExplicitPolytope":
        arr = np.asarray(vertices, dtype=float)
        if arr.ndim != 2:
            raise InputError("vertices must form a (|Y|, d) array")
        poly = ExplicitPolytope(arr.T.copy())
        if validate:
            poly.validate_vertices()
        return poly

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.matrix.shape[1]

    @property
    def vertices(self) -> np.ndarray:
        return self.matrix.T

    def validate_vertices(self) -> None:
        """Check vertices are pairwise distinct and all exposed."""
        verts = self.vertices
        seen = set()
        for v in verts:
            key = v.tobytes()
            if key in seen:
                raise InputError("polytope vertices must be pairwise distinct")
            seen.add(key)
        for i in range(len(verts)):
            others = np.delete(verts, i, axis=0)
            if len(others) and not is_exposed_vertex(verts[i], others):
                raise InputError(f"vertex {i} is a convex combination of the others")

    def lift_scores(self, theta: np.ndarray) -> np.ndarray:
        """Map a direction theta in R^d to the score vector (theta.y)_y."""
        return self.matrix.T @ ensure_finite(theta, "theta")

    def moment(self, q: np.ndarray) -> np.ndarray:
        return self.matrix @ validate_distribution(q)


class ExplicitOracle(LinearOracle):
    """Linear oracle backed by an enumerated vertex set.

    For the cost-shifted problem, the scenario's ``noise_payload`` must be
    the cost score vector (c(y, xi))_y over the same vertex order.
    """

    def __init__(self, polytope: ExplicitPolytope):
        self.polytope = polytope

    def _scores(self, thetas: np.ndarray) -> np.ndarray:
        """(m, |Y|) scores <thetas[r]|y> of finite (m, d) directions."""
        thetas = ensure_finite(thetas, "theta")
        if thetas.ndim != 2 or thetas.shape[1] != self.polytope.dim:
            raise InputError("directions must form an (m, d) array")
        return thetas @ self.polytope.matrix

    def argmax_linear_many(self, thetas: np.ndarray) -> np.ndarray:
        return self.polytope.vertices[np.argmax(self._scores(thetas), axis=1)]

    def argmin_shifted_many(self, theta_tildes, kappa, scenario: Scenario) -> np.ndarray:
        gamma = ensure_finite(scenario.noise_payload, "cost payload")
        if gamma.shape != (self.polytope.n_vertices,):
            raise InputError("the cost payload needs one entry per vertex")
        obj = gamma[None, :] - kappa * self._scores(theta_tildes)
        return self.polytope.vertices[np.argmin(obj, axis=1)]


@dataclass(frozen=True)
class CostTable:
    """Per-scenario cost score vectors gamma_i = (c(y, xi_i))_y, one row each."""

    gamma: np.ndarray  # (N, |Y|)

    def __post_init__(self):
        g = ensure_finite(self.gamma, "cost table")
        if g.ndim != 2:
            raise InputError("cost table must be (N, |Y|)")
        object.__setattr__(self, "gamma", g)
        self.gamma.setflags(write=False)

    @property
    def n_scenarios(self) -> int:
        return self.gamma.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.gamma.shape[1]


@dataclass(frozen=True)
class LabConfig:
    kappa: float
    regularizer: RegularizerKind
    max_iters: int = 200
    damping_alpha: float = 0.5

    def __post_init__(self):
        if self.kappa <= 0:
            raise InputError("kappa must be positive")
        if not (0.0 < self.damping_alpha < 1.0):
            raise InputError("damping_alpha must lie in (0, 1)")
        if self.max_iters < 1:
            raise InputError("max_iters must be >= 1")


def _partial_min_fast(q: np.ndarray, gamma: np.ndarray, kappa: float,
                      kind: RegularizerKind) -> float:
    n = q.shape[0]
    cost_part = float(np.einsum("ij,ij->", gamma, q)) / n
    values = value_rows(q, kind)
    q_bar = q.mean(axis=0)
    bar_value = float(value_rows(q_bar[None, :], kind)[0])
    return cost_part + (kappa / n) * (float(values.sum()) - n * bar_value)


def _jensen_gap_fast(q: np.ndarray, kind: RegularizerKind) -> float:
    mean_value = float(value_rows(q, kind).mean())
    return mean_value - float(value_rows(q.mean(axis=0)[None, :], kind)[0])


def _coordination_fast(q: np.ndarray, kind: RegularizerKind, strict: bool) -> np.ndarray:
    q_bar = q.mean(axis=0)
    if kind.tag == NEGENTROPY:
        zero = np.nonzero(q_bar <= 0.0)[0]
        if zero.size:
            raise BoundaryError(
                f"mean distribution vanishes at vertex {int(zero[0])}", vertex=int(zero[0])
            )
        if np.any(q_bar < INTERIOR_CLAMP):
            if strict:
                idx = int(np.argmin(q_bar))
                raise BoundaryError(
                    f"mean distribution below clamp at vertex {idx}", vertex=idx
                )
            log.debug("clamping mean distribution at %.0e before log", INTERIOR_CLAMP)
            q_bar = np.maximum(q_bar, INTERIOR_CLAMP)
        s = np.log(q_bar)
    elif kind.tag == SQUARED_L2:
        s = q_bar.copy()
    else:
        raise InputError(f"no exact coordination for regularizer {kind.tag!r}")
    return s - s.mean()


# ---------------------------------------------------------------------------
# Surrogate objective and exact updates
# ---------------------------------------------------------------------------

def surrogate_value(
    s_product: np.ndarray,
    q_product: np.ndarray,
    costs: CostTable,
    kappa: float,
    kind: RegularizerKind,
) -> float:
    """(1/N) sum_i [<gamma_i|q_i> + kappa * FY(s_i; q_i)].

    ``s_product`` may be one common score vector or one row per scenario.
    """
    q = validate_distribution(q_product, ndim=2)
    n, k = q.shape
    s = np.asarray(s_product, dtype=float)
    if s.ndim == 1:
        s = np.broadcast_to(s, (n, k))
    if s.shape != (n, k) or costs.gamma.shape != (n, k):
        raise InputError("inconsistent surrogate dimensions")
    fy = (
        conjugate_rows(s, kind)
        + value_rows(q, kind)
        - np.einsum("ij,ij->i", s, q)
    )
    per_scenario = np.einsum("ij,ij->i", costs.gamma, q) + kappa * fy
    return float(per_scenario.mean())


def exact_decomposition(
    s: np.ndarray, costs_row: np.ndarray, kappa: float, kind: RegularizerKind
) -> np.ndarray:
    """Closed-form per-scenario primal update: prediction at s - gamma/kappa."""
    if kappa <= 0:
        raise InputError("kappa must be positive")
    scores = np.asarray(s, dtype=float) - np.asarray(costs_row, dtype=float) / kappa
    return prediction_rows(ensure_finite(scores, "score")[None, :], kind)[0]


def exact_coordination(
    q_product: np.ndarray, kind: RegularizerKind, strict: bool = True
) -> np.ndarray:
    """Common score s with prediction(s) = mean of the per-scenario rows.

    Scores are defined up to a constant shift; the zero-sum representative
    is returned so trajectories are comparable across runs.
    """
    q = validate_distribution(q_product, ndim=2)
    return _coordination_fast(q, kind, strict)


def partial_min_surrogate(
    q_product: np.ndarray, costs: CostTable, kappa: float, kind: RegularizerKind
) -> float:
    """Surrogate minimized over the common score, in closed form."""
    q = validate_distribution(q_product, ndim=2)
    return _partial_min_fast(q, costs.gamma, kappa, kind)


def jensen_gap(q_product: np.ndarray, kind: RegularizerKind) -> float:
    """(1/N) sum_i Psi(q_i) - Psi(mean q_i); nonnegative by convexity."""
    return _jensen_gap_fast(validate_distribution(q_product, ndim=2), kind)


# ---------------------------------------------------------------------------
# Jensen-gap convexity probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JensenGapReport:
    kind: str
    trials: int
    max_violation: float
    violations: int
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


def random_interior_product(g: np.random.Generator, n: int, k: int,
                            floor: float = 2e-3) -> np.ndarray:
    """Random product of interior distributions (every entry >= floor/k)."""
    raw = g.dirichlet(np.ones(k), size=n)
    return (1.0 - floor) * raw + floor / k


def check_jensen_gap_convexity(
    kind: RegularizerKind,
    n_trials: int,
    rng: RngStream,
    n_scenarios: int = 4,
    n_atoms: int = 5,
    tolerance: float = 1e-10,
) -> JensenGapReport:
    """Probe midpoint-style convexity of the Jensen gap on random triples."""
    if not kind.is_exact:
        raise InputError("convexity probe requires an exact regularizer kind")
    if n_trials < 1:
        raise InputError("the convexity probe needs at least one trial")
    g = rng.generator()
    worst = -np.inf
    violations = 0
    for _ in range(n_trials):
        qa = random_interior_product(g, n_scenarios, n_atoms)
        qb = random_interior_product(g, n_scenarios, n_atoms)
        t = float(g.uniform(0.05, 0.95))
        combo = t * qa + (1.0 - t) * qb
        violation = jensen_gap(combo, kind) - (
            t * jensen_gap(qa, kind) + (1.0 - t) * jensen_gap(qb, kind)
        )
        worst = max(worst, violation)
        if violation > tolerance:
            violations += 1
    return JensenGapReport(kind.tag, n_trials, float(worst), violations, tolerance)


# ---------------------------------------------------------------------------
# Alternating minimization and its certificates
# ---------------------------------------------------------------------------

@dataclass
class AlternatingTrajectory:
    """Per-iteration record of the exact alternating scheme."""

    values: np.ndarray            # partial-min surrogate at each iteration
    q_products: list[np.ndarray]  # kept only when record_iterates
    scores: list[np.ndarray]
    first_q: np.ndarray
    final_q: np.ndarray
    final_score: np.ndarray
    clamp_events: int = 0

    @property
    def iterations(self) -> np.ndarray:
        return np.arange(1, len(self.values) + 1)


def run_alternating_exact(
    costs: CostTable,
    config: LabConfig,
    s0: np.ndarray,
    record_iterates: bool = True,
    strict: bool = False,
) -> AlternatingTrajectory:
    """Exact decomposition/coordination iterations from a common score s0.

    When the surrogate optimum sits on the simplex boundary, the scores
    drift and probabilities eventually underflow; with ``strict=False``
    those coordinates are clamped at the interior floor (value changes of
    the order of the clamp, far below every certificate tolerance) and the
    events are counted on the trajectory.
    """
    kind = config.regularizer
    if not kind.is_exact:
        raise InputError("exact alternating scheme needs negentropy or squared-l2")
    s = np.asarray(s0, dtype=float).copy()
    values = []
    q_products: list[np.ndarray] = []
    scores: list[np.ndarray] = []
    first_q = None
    q = None
    clamp_events = 0
    shifted_costs = costs.gamma / config.kappa
    for t in range(1, config.max_iters + 1):
        q = prediction_rows(s[None, :] - shifted_costs, kind)
        if first_q is None:
            first_q = q.copy()
        if kind.tag == NEGENTROPY and float(q.mean(axis=0).min()) < INTERIOR_CLAMP:
            clamp_events += 1
        try:
            s = _coordination_fast(q, kind, strict=strict)
        except BoundaryError as err:
            err.iteration = t
            raise
        values.append(_partial_min_fast(q, costs.gamma, config.kappa, kind))
        if record_iterates:
            q_products.append(q)
            scores.append(s.copy())
    return AlternatingTrajectory(
        values=np.asarray(values),
        q_products=q_products,
        scores=scores,
        first_q=first_q,
        final_q=q,
        final_score=s,
        clamp_events=clamp_events,
    )


def alternating_trace(
    costs: CostTable, config: LabConfig, s0: np.ndarray
) -> list[tuple[int, float, float, float]]:
    """Per-iteration rows (iteration, surrogate at the decomposition pair,
    partial-min value, Jensen gap) for CSV emission."""
    kind = config.regularizer
    s = np.asarray(s0, dtype=float).copy()
    rows = []
    for t in range(1, config.max_iters + 1):
        q = prediction_rows(s[None, :] - costs.gamma / config.kappa, kind)
        sur = surrogate_value(s, q, costs, config.kappa, kind)
        pm = _partial_min_fast(q, costs.gamma, config.kappa, kind)
        gap = _jensen_gap_fast(q, kind)
        s = _coordination_fast(q, kind, strict=False)
        rows.append((t, sur, pm, gap))
    return rows


@dataclass(frozen=True)
class FivePointReport:
    kind: str
    probes: int
    worst_slack: float
    violations: int
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _five_point_slack(
    s0: np.ndarray, probe_q: np.ndarray, costs: CostTable, kappa: float, kind: RegularizerKind
) -> float:
    """Slack of the partial-minimizer five-point inequality at one probe."""
    n = costs.n_scenarios
    q1 = prediction_rows(s0[None, :] - costs.gamma / kappa, kind)
    s1 = _coordination_fast(q1, kind, strict=True)
    lhs = _partial_min_fast(probe_q, costs.gamma, kappa, kind) - _partial_min_fast(
        q1, costs.gamma, kappa, kind
    )
    rhs = (kappa / n) * (
        float(np.sum(q1 @ s1))
        + float(np.sum(probe_q @ s0))
        - float(np.sum(probe_q @ s1))
        - float(np.sum(q1 @ s0))
    )
    return lhs - rhs


def five_point_check(
    costs: CostTable,
    config: LabConfig,
    probes: int,
    rng: RngStream,
    tolerance: float = 1e-9,
    score_scale: float = 1.0,
) -> FivePointReport:
    """Assert the five-point inequality on random probes and score starts."""
    if probes < 1:
        raise InputError("the five-point check needs at least one probe")
    kind = config.regularizer
    g = rng.generator()
    n, k = costs.gamma.shape
    worst = np.inf
    violations = 0
    for _ in range(probes):
        s0 = score_scale * g.standard_normal(k)
        s0 -= s0.mean()
        probe_q = random_interior_product(g, n, k)
        slack = _five_point_slack(s0, probe_q, costs, config.kappa, kind)
        worst = min(worst, slack)
        if slack < -tolerance:
            violations += 1
    return FivePointReport(kind.tag, probes, float(worst), violations, tolerance)


@dataclass
class MirrorComparison:
    deviations: np.ndarray           # per-iteration max-abs primal deviation
    primal_alternating: list[np.ndarray]
    primal_mirror: list[np.ndarray]

    @property
    def max_deviation(self) -> float:
        return float(self.deviations.max())


def run_mirror_descent_comparison(
    costs: CostTable,
    config: LabConfig,
    s0: np.ndarray,
    iters: int,
    eta: float | None = None,
) -> tuple[float, MirrorComparison]:
    """Damped alternating scheme vs mirror descent with step eta = N alpha / kappa.

    Both paths are run from matched initializations; the returned deviation
    is the max over iterations and scenarios of the sup-norm difference of
    the primal iterates.  Pass an explicit ``eta`` to mismatch the step on
    purpose (negative control).
    """
    kind = config.regularizer
    if kind.tag != NEGENTROPY:
        raise InputError("mirror-descent comparison requires the negentropy kind")
    n, k = costs.gamma.shape
    alpha = config.damping_alpha
    kappa = config.kappa
    if eta is None:
        eta = n * alpha / kappa
    gamma = costs.gamma

    def guard(q: np.ndarray, label: str) -> np.ndarray:
        if np.any(q < INTERIOR_CLAMP):
            raise BoundaryError(f"{label} iterate fell below {INTERIOR_CLAMP:.0e}")
        return q

    # Path A: damped alternating minimization on the exact maps.
    s0 = np.asarray(s0, dtype=float)
    s_bar = s0.copy()
    primal_a: list[np.ndarray] = []
    for _ in range(iters):
        q = guard(prediction_rows(s_bar[None, :] - gamma / kappa, kind), "alternating")
        primal_a.append(q)
        s_half = _coordination_fast(q, kind, strict=True)
        s_bar = alpha * s_half + (1.0 - alpha) * s_bar

    # Path B: mirror descent on the partial-min surrogate with the
    # separable entropy mirror map, from the matched first primal iterate.
    q = guard(prediction_rows(s0[None, :] - gamma / kappa, kind), "mirror")
    primal_b: list[np.ndarray] = [q]
    for _ in range(iters - 1):
        log_q = np.log(q)
        log_mean = np.log(guard(q.mean(axis=0), "mirror mean"))
        mirror_points = (1.0 + log_q)  # gradient of sum q log q, rowwise
        grads = (gamma + kappa * (log_q - log_mean[None, :])) / n
        q = guard(prediction_rows(mirror_points - eta * grads, kind), "mirror")
        primal_b.append(q)

    deviations = np.array(
        [np.max(np.abs(a - b)) for a, b in zip(primal_a, primal_b)]
    )
    comparison = MirrorComparison(deviations, primal_a, primal_b)
    return comparison.max_deviation, comparison


# ---------------------------------------------------------------------------
# Risk bound and conjugate identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiskBoundReport:
    per_scenario_slack: np.ndarray  # bound_i - |S_i - R_i|, should be >= 0
    summed_slack: float
    risk: float
    partial_surrogate: float

    @property
    def ok(self) -> bool:
        return bool(np.all(self.per_scenario_slack >= -1e-12) and self.summed_slack >= -1e-12)


def _partial_surrogate_terms(
    s: np.ndarray, costs: CostTable, kappa: float, kind: RegularizerKind
) -> tuple[np.ndarray, np.ndarray]:
    """Per-scenario (risk, partially minimized surrogate) at a common score."""
    risks = np.empty(costs.n_scenarios)
    partials = np.empty(costs.n_scenarios)
    q_pred = prediction_rows(s[None, :], kind)[0]
    conjugate = float(conjugate_rows(s[None, :], kind)[0])
    q_hat = prediction_rows(s[None, :] - costs.gamma / kappa, kind)
    values = value_rows(q_hat, kind)
    # Per-row inner products, not one einsum: the reported sums keep their bits.
    for i, gamma in enumerate(costs.gamma):
        risks[i] = float(gamma @ q_pred)
        fy = conjugate + float(values[i]) - float(s @ q_hat[i])
        partials[i] = float(gamma @ q_hat[i]) + kappa * fy
    return risks, partials


def risk_bound_check(
    theta: np.ndarray,
    poly: ExplicitPolytope,
    costs: CostTable,
    kappa: float,
    kind: RegularizerKind,
    L: float = 1.0,
) -> RiskBoundReport:
    """Check |partial surrogate - risk| <= 3 ||gamma_i||^2 / (2 L kappa), per
    scenario and summed."""
    if not kind.is_exact:
        raise InputError("risk bound check requires an exact regularizer kind")
    s = poly.lift_scores(theta)
    risks, partials = _partial_surrogate_terms(s, costs, kappa, kind)
    norms_sq = np.einsum("ij,ij->i", costs.gamma, costs.gamma)
    bounds = 3.0 * norms_sq / (2.0 * L * kappa)
    per_scenario = bounds - np.abs(partials - risks)
    n = costs.n_scenarios
    summed_bound = 3.0 / (2.0 * n * L * kappa) * float(norms_sq.sum())
    summed_slack = summed_bound - abs(float(partials.mean()) - float(risks.mean()))
    return RiskBoundReport(
        per_scenario_slack=per_scenario,
        summed_slack=float(summed_slack),
        risk=float(risks.mean()),
        partial_surrogate=float(partials.mean()),
    )


def risk_suboptimality_pair_slack(
    theta_a: np.ndarray,
    theta_b: np.ndarray,
    poly: ExplicitPolytope,
    costs: CostTable,
    kappa: float,
    kind: RegularizerKind,
    L: float = 1.0,
) -> float:
    """Slack of the derived bound R(th1) - R(th2) <= (3/(L kappa N)) sum ||gamma||^2,
    where th1 is whichever of the pair has the smaller partial surrogate."""
    sa = poly.lift_scores(theta_a)
    sb = poly.lift_scores(theta_b)
    risks_a, partials_a = _partial_surrogate_terms(sa, costs, kappa, kind)
    risks_b, partials_b = _partial_surrogate_terms(sb, costs, kappa, kind)
    if partials_a.mean() <= partials_b.mean():
        risk_gap = risks_a.mean() - risks_b.mean()
    else:
        risk_gap = risks_b.mean() - risks_a.mean()
    norms_sq = float(np.einsum("ij,ij->", costs.gamma, costs.gamma))
    bound = 3.0 / (L * kappa * costs.n_scenarios) * norms_sq
    return float(bound - risk_gap)


@dataclass(frozen=True)
class ConjugateReport:
    kind: str
    max_abs_diff: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_abs_diff <= self.tolerance


def omega_c_conjugate_check(
    theta: np.ndarray,
    poly: ExplicitPolytope,
    kind: RegularizerKind,
    rng: RngStream | None = None,
    tolerance: float = 1e-12,
) -> ConjugateReport:
    """Moment-space conjugate equals distribution-space conjugate at Y^T theta.

    Negentropy: log-sum-exp of the lifted scores against an independently
    accumulated log-partition of the linear-feature family.  Sparse
    perturbation: per-draw equality of the moment-space and
    distribution-space perturbed maxima under shared draws.
    """
    s = poly.lift_scores(theta)
    if kind.tag == NEGENTROPY:
        lse = float(conjugate_rows(s[None, :], kind)[0])
        scores_ld = poly.matrix.T.astype(np.longdouble) @ np.asarray(theta, dtype=np.longdouble)
        m = scores_ld.max()
        log_partition = float(m + np.log(np.exp(scores_ld - m).sum()))
        return ConjugateReport(kind.tag, abs(lse - log_partition), tolerance)
    if kind.tag == SPARSE_PERTURBATION:
        stream = rng if rng is not None else make_rng(0, 0)
        z = stream.generator().standard_normal((kind.nb_samples, poly.dim))
        worst = 0.0
        for zj in z:
            tilted = np.asarray(theta, dtype=float) + kind.epsilon * zj
            moment_side = float(np.max(tilted @ poly.matrix))
            dist_side = float(np.max(s + kind.epsilon * (poly.matrix.T @ zj)))
            worst = max(worst, abs(moment_side - dist_side))
        return ConjugateReport(kind.tag, worst, tolerance)
    raise InputError(f"conjugate check undefined for regularizer {kind.tag!r}")


# ---------------------------------------------------------------------------
# Random instances and verification suites
# ---------------------------------------------------------------------------

def random_cost_table(g: np.random.Generator, n: int, k: int, scale: float = 1.0) -> CostTable:
    return CostTable(scale * g.standard_normal((n, k)))


def random_binary_polytope(g: np.random.Generator, d: int, k: int,
                           max_tries: int = 200) -> ExplicitPolytope:
    """Sample k distinct exposed 0/1 vertices in R^d (resampling as needed)."""
    if k > 2 ** d:
        raise InputError("cannot pick that many distinct binary vertices")
    for _ in range(max_tries):
        chosen: list[np.ndarray] = []
        seen = set()
        while len(chosen) < k:
            v = g.integers(0, 2, size=d).astype(float)
            key = v.tobytes()
            if key not in seen:
                seen.add(key)
                chosen.append(v)
        verts = np.asarray(chosen)
        try:
            return ExplicitPolytope.from_vertices(verts, validate=True)
        except InputError:
            continue
    raise RuntimeError("failed to sample an exposed binary vertex set")


def run_convergence_suite(
    n_instances: int = 20,
    n_scenarios: int = 5,
    n_atoms: int = 6,
    kappa: float = 1.0,
    t_check: int = 200,
    t_opt: int = 10_000,
    seed: int = 0,
) -> list[CheckRow]:
    """Monotone descent and the O(1/t) five-point rate on random instances."""
    kind = RegularizerKind.negentropy()
    rows: list[CheckRow] = []
    for inst in range(n_instances):
        inst_seed = seed + inst
        g = make_rng(inst_seed, 7).generator()
        costs = random_cost_table(g, n_scenarios, n_atoms)
        config = LabConfig(kappa=kappa, regularizer=kind, max_iters=t_opt)
        s0 = np.zeros(n_atoms)
        traj = run_alternating_exact(costs, config, s0, record_iterates=False)
        values = traj.values
        worst_increase = float(np.max(np.diff(values))) if len(values) > 1 else 0.0
        rows.append(
            CheckRow("convergence/monotone", inst_seed, worst_increase, 1e-12,
                     worst_increase <= 1e-12)
        )
        v_opt = float(values[-1])
        c_const = surrogate_value(s0, traj.final_q, costs, kappa, kind) - surrogate_value(
            s0, traj.first_q, costs, kappa, kind
        )
        ts = np.arange(1, t_check + 1)
        excess = values[:t_check] - v_opt
        rate_violation = float(np.max(excess - c_const / ts))
        rows.append(
            CheckRow("convergence/rate", inst_seed, rate_violation, 1e-10,
                     rate_violation <= 1e-10)
        )
    return rows


def run_five_point_suite(
    probes: int = 1000,
    n_scenarios: int = 4,
    n_atoms: int = 5,
    kappa: float = 1.0,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> list[CheckRow]:
    rows: list[CheckRow] = []
    g = make_rng(seed, 11).generator()
    # Negentropy: arbitrary scales; iterates stay interior.
    costs = random_cost_table(g, n_scenarios, n_atoms)
    report = five_point_check(
        costs, LabConfig(kappa, RegularizerKind.negentropy()), probes, make_rng(seed, 12),
        tolerance=tolerance,
    )
    rows.append(CheckRow("five-point/negentropy", seed, -report.worst_slack, tolerance,
                         report.ok))
    # Squared-l2: small scales keep the projections full-support, the regime
    # where the gradient identity behind the inequality applies.
    costs_l2 = random_cost_table(g, n_scenarios, n_atoms, scale=0.05)
    report_l2 = five_point_check(
        costs_l2, LabConfig(kappa, RegularizerKind.squared_l2()), probes, make_rng(seed, 13),
        tolerance=tolerance, score_scale=0.02,
    )
    rows.append(CheckRow("five-point/squared-l2", seed, -report_l2.worst_slack, tolerance,
                         report_l2.ok))
    return rows


def run_jensen_gap_suite(trials: int = 1000, seed: int = 0,
                         tolerance: float = 1e-10) -> list[CheckRow]:
    rows: list[CheckRow] = []
    for kind, sid in ((RegularizerKind.negentropy(), 21), (RegularizerKind.squared_l2(), 22)):
        report = check_jensen_gap_convexity(kind, trials, make_rng(seed, sid),
                                            tolerance=tolerance)
        rows.append(
            CheckRow(f"jensen-gap/{kind.tag}", seed, report.max_violation, tolerance,
                     report.ok)
        )
    return rows


def run_mirror_descent_suite(
    iters: int = 50,
    n_scenarios: int = 3,
    n_atoms: int = 4,
    alpha: float = 0.5,
    kappa: float = 1.0,
    seed: int = 0,
) -> list[CheckRow]:
    g = make_rng(seed, 31).generator()
    costs = random_cost_table(g, n_scenarios, n_atoms)
    config = LabConfig(kappa, RegularizerKind.negentropy(), damping_alpha=alpha)
    s0 = g.standard_normal(n_atoms)
    s0 -= s0.mean()
    matched_dev, _ = run_mirror_descent_comparison(costs, config, s0, iters)
    doubled_dev, _ = run_mirror_descent_comparison(
        costs, config, s0, iters, eta=2.0 * n_scenarios * alpha / kappa
    )
    return [
        CheckRow("mirror-descent/matched", seed, matched_dev, 1e-8, matched_dev < 1e-8),
        CheckRow("mirror-descent/eta-doubled-control", seed, doubled_dev, 1e-3,
                 doubled_dev > 1e-3),
    ]


def run_risk_bound_suite(
    n_instances: int = 100,
    n_scenarios: int = 3,
    n_atoms: int = 6,
    d: int = 4,
    kappas: tuple[float, ...] = (0.5, 1.0, 5.0),
    L: float = 1.0,
    seed: int = 0,
) -> list[CheckRow]:
    kind = RegularizerKind.negentropy()
    rows: list[CheckRow] = []
    for inst in range(n_instances):
        inst_seed = seed + inst
        g = make_rng(inst_seed, 41).generator()
        poly = random_binary_polytope(g, d, n_atoms)
        costs = random_cost_table(g, n_scenarios, n_atoms)
        theta = g.standard_normal(d)
        theta_other = g.standard_normal(d)
        for kappa in kappas:
            report = risk_bound_check(theta, poly, costs, kappa, kind, L)
            slack = min(float(report.per_scenario_slack.min()), report.summed_slack)
            rows.append(
                CheckRow(f"risk-bound/kappa={kappa:g}", inst_seed, slack, 0.0,
                         slack >= -1e-12)
            )
            pair_slack = risk_suboptimality_pair_slack(
                theta, theta_other, poly, costs, kappa, kind, L
            )
            rows.append(
                CheckRow(f"risk-bound/pair/kappa={kappa:g}", inst_seed, pair_slack, 0.0,
                         pair_slack >= -1e-12)
            )
    return rows


def run_conjugate_suite(
    n_instances: int = 50,
    n_atoms: int = 8,
    d: int = 3,
    seed: int = 0,
    tolerance: float = 1e-12,
) -> list[CheckRow]:
    rows: list[CheckRow] = []
    negentropy = RegularizerKind.negentropy()
    pert = RegularizerKind.sparse_perturbation(epsilon=0.7, nb_samples=64)
    for inst in range(n_instances):
        inst_seed = seed + inst
        g = make_rng(inst_seed, 51).generator()
        poly = random_binary_polytope(g, d, n_atoms)
        theta = g.standard_normal(d)
        neg = omega_c_conjugate_check(theta, poly, negentropy, tolerance=tolerance)
        rows.append(CheckRow("conjugates/negentropy", inst_seed, neg.max_abs_diff,
                             tolerance, neg.ok))
        per = omega_c_conjugate_check(theta, poly, pert, rng=make_rng(inst_seed, 52),
                                      tolerance=tolerance)
        rows.append(CheckRow("conjugates/perturbation", inst_seed, per.max_abs_diff,
                             tolerance, per.ok))
    # 1-D closed form: both sides equal log(1 + exp(t)) on Y = {0, 1}.
    line = ExplicitPolytope.from_vertices(np.array([[0.0], [1.0]]))
    g = make_rng(seed, 53).generator()
    worst = 0.0
    for t in g.uniform(-5.0, 5.0, size=20):
        scores = line.lift_scores(np.array([t]))[None, :]
        lse = float(conjugate_rows(scores, negentropy)[0])
        worst = max(worst, abs(lse - float(np.log1p(np.exp(t)))))
    rows.append(CheckRow("conjugates/line-closed-form", seed, worst, 1e-12, worst <= 1e-12))
    return rows
