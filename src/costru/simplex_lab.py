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

import numpy as np

from .core import (
    CheckRow,
    InputError,
    LinearOracle,
    RngStream,
    Scenario,
    direction_rows,
    ensure_finite,
    make_rng,
    require_positive,
    require_samples,
)
from .regularizers import (
    NEGENTROPY,
    RegularizerKind,
    conjugate_rows,
    negentropy_terms,
    prediction_rows,
    validate_distribution,
    value_rows,
)

log = logging.getLogger(__name__)

# Distributions are clamped here before taking logs; a clamp is logged and
# treated as a boundary event in strict mode.
INTERIOR_CLAMP = 1e-300
# The alternating scheme prices its partial-min surrogate once per block of
# this many iterations: at 20 instances of 5 x 6 a block holds 307 KB.
PRICING_BLOCK = 64
# kappa of the convergence suite, and kappa and the damping alpha of the
# mirror-descent suite; the suites and their ``costru verify`` traces read them.
CONVERGENCE_KAPPA = 1.0
MIRROR_DESCENT_KAPPA, MIRROR_DESCENT_ALPHA = 1.0, 0.5


class BoundaryError(RuntimeError):
    """An iterate touched the simplex boundary where a log is required."""

    def __init__(self, message: str, vertex: int | None = None, iteration: int | None = None,
                 instance: int | None = None):
        super().__init__(message)
        self.vertex = vertex
        self.iteration = iteration
        self.instance = instance


class ExplicitOracle(LinearOracle):
    """Linear oracle backed by an enumerated (|Y|, d) vertex set, not checked
    for exposed vertices: the lab's certificates hold for any finite Y.
    ``matrix`` is the read-only C-contiguous (d, |Y|) matrix whose columns
    are the vertices.

    For the cost-shifted problem, the scenario's ``noise_payload`` must be
    the cost score vector (c(y, xi))_y over the same vertex order.

    Its scores are one BLAS product per call, so its answer to a row can
    depend on the rows around it: on OpenBLAS's Haswell core at d = 60 a
    tail block of rows rounds otherwise than the same rows of a larger
    product, which breaks ``perturbed_argmax_stats``' block contract unless
    no maximizer flips.  At the gradient suite's d = 4 the rows agree.
    """

    def __init__(self, vertices):
        vertices = ensure_finite(vertices, "vertices")
        if vertices.ndim != 2 or not len(vertices):
            raise InputError("vertices must form a (|Y|, d) array, |Y| >= 1")
        self.matrix = vertices.T.copy()
        self.matrix.setflags(write=False)

    def _scores(self, thetas, kappa: float = 0.0) -> np.ndarray:
        """(m, |Y|) scores <thetas[r]|y> of (m, d) directions, checked with
        kappa by ``direction_rows``."""
        return direction_rows(thetas, self.matrix.shape[0], kappa) @ self.matrix

    def argmax_linear_many(self, thetas: np.ndarray) -> np.ndarray:
        """np.argmax of each row's scores as a scan over the vertices under a
        strict >: ties go to the lowest index, and a row with a NaN score
        (finite directions can overflow to inf - inf) to its first NaN."""
        scores = self._scores(thetas)
        best, *columns = scores.T.copy()
        index, wins = np.zeros(len(scores), dtype=np.intp), np.empty(len(scores), dtype=bool)
        for j, column in enumerate(columns, start=1):
            # j exceeds every earlier index, so the last win is the maximum.
            np.maximum(index, np.multiply(np.greater(column, best, out=wins), j), out=index)
            np.maximum(best, column, out=best)  # a NaN stays
        nan = np.isnan(best)
        index[nan] = np.argmax(scores[nan], axis=1)
        return self.matrix.T[index]

    def argmin_shifted_many(self, theta_tildes, kappa, scenario: Scenario) -> np.ndarray:
        gamma = ensure_finite(scenario.noise_payload, "cost payload")
        if gamma.shape != (self.matrix.shape[1],):
            raise InputError("the cost payload needs one entry per vertex")
        obj = gamma[None, :] - kappa * self._scores(theta_tildes, kappa)
        return self.matrix.T[np.argmin(obj, axis=1)]


def _row_order_sum(a: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sum along ``axis`` in numpy's order for a contiguous row (a sum over
    another axis adds left to right): left to right below 8 terms, in eight
    interleaved partial sums up to 128, in halves at a multiple of 8 above."""
    n = a.shape[axis]
    if n < 8:
        return np.add.reduce(a, axis=axis, out=out)
    a = np.moveaxis(a, axis, 0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return np.add(_row_order_sum(a[:half], 0), _row_order_sum(a[half:], 0), out=out)
    r = np.add.reduce(a[:n - n % 8].reshape(n // 8, 8, *a.shape[1:]), axis=0)
    total = np.add((r[0] + r[1]) + (r[2] + r[3]), (r[4] + r[5]) + (r[6] + r[7]), out=out)
    for rest in a[n - n % 8:]:
        total += rest
    return total


def _cost_table(gamma, ndim: int = 2) -> np.ndarray:
    """``gamma`` checked finite with ``ndim`` axes: an (N, K) table of cost
    score vectors gamma_i = (c(y, xi_i))_y, or a (B, N, K) stack of them."""
    gamma = ensure_finite(gamma, "cost table")
    if gamma.ndim != ndim:
        raise InputError("a cost table must be (N, K)" if ndim == 2
                         else "a stack of cost tables must be (B, N, K)")
    return gamma


# ---------------------------------------------------------------------------
# Surrogate objective and exact updates
# ---------------------------------------------------------------------------

def surrogate_value(
    s_common: np.ndarray,
    q_product: np.ndarray,
    gamma: np.ndarray,
    kappa: float,
    kind: RegularizerKind,
) -> float:
    """(1/N) sum_i [<gamma_i|q_i> + kappa * FY(s; q_i)] for one common score
    vector s (K,), an (N, K) product q and an (N, K) cost table gamma."""
    q = validate_distribution(q_product, ndim=2)
    gamma = _cost_table(gamma)
    n, k = q.shape
    s = np.asarray(s_common, dtype=float)
    if s.shape != (k,) or gamma.shape != (n, k):
        raise InputError("inconsistent surrogate dimensions")
    s = np.broadcast_to(s, (n, k))
    fy = conjugate_rows(s, kind) + value_rows(q, kind) - np.einsum("ij,ij->i", s, q)
    per_scenario = np.einsum("ij,ij->i", gamma, q) + kappa * fy
    return float(per_scenario.mean())


def exact_coordination(q: np.ndarray, kind: RegularizerKind, strict: bool = True) -> np.ndarray:
    """Common score s with prediction(s) = the mean of the (N, K) rows of q,
    or one per entry of a (B, N, K) stack; of the scores, defined up to a
    shift, the zero-sum one keeps trajectories comparable across runs."""
    # q.mean(axis=-2) bit for bit, C-ordered (so summed by rows) for any q.
    q_bar = np.add.reduce(q, axis=-2, out=np.empty(q.shape[:-2] + q.shape[-1:]))
    q_bar /= q.shape[-2]
    if kind.tag == NEGENTROPY:
        if (q_bar < INTERIOR_CLAMP).any():
            vanished = bool((q_bar <= 0.0).any())
            if strict or vanished:
                # The first vanished entry, else the smallest, in row-major order.
                where = np.argwhere(q_bar <= 0.0 if vanished else q_bar == q_bar.min())[0]
                vertex = int(where[-1])
                instance = int(where[0]) if q_bar.ndim == 2 else None
                of = "" if instance is None else f" of instance {instance}"
                what = "vanishes" if vanished else "below clamp"
                raise BoundaryError(f"mean distribution{of} {what} at vertex {vertex}",
                                    vertex=vertex, instance=instance)
            log.debug("clamping mean distribution at %.0e before log", INTERIOR_CLAMP)
            np.maximum(q_bar, INTERIOR_CLAMP, out=q_bar)
        np.log(q_bar, out=q_bar)
    return q_bar - np.add.reduce(q_bar, axis=-1, keepdims=True) / q_bar.shape[-1]


def partial_min_surrogate(q: np.ndarray, gamma: np.ndarray, kappa: float,
                          kind: RegularizerKind) -> np.ndarray:
    """Surrogate minimized over the common score, in closed form, for (N, K)
    rows of q and costs gamma, or one per entry of a (..., N, K) stack."""
    n = q.shape[-2]
    values, bar_value = _value_terms(q, kind)
    return np.einsum("...ij,...ij->...", gamma, q) / n + (kappa / n) * (values - n * bar_value)


def _value_terms(q: np.ndarray, kind: RegularizerKind) -> tuple[np.ndarray, np.ndarray]:
    """sum_i Omega(q_i) and Omega(mean_i q_i) of the (..., N, K) stack q, the
    negentropy's reduced over the outer axes of an (N, K, ...) copy."""
    n, k = q.shape[-2:]
    if kind.tag == NEGENTROPY:
        atoms = np.moveaxis(q, (-2, -1), (0, 1)).copy()
        q_bar = np.add.reduce(atoms, axis=0) / n
        return (_row_order_sum(_row_order_sum(negentropy_terms(atoms), 1), 0),
                _row_order_sum(negentropy_terms(q_bar), 0))
    q_bar = np.add.reduce(q, axis=-2) / n  # q.mean(axis=-2) bit for bit
    return (value_rows(q.reshape(-1, k), kind).reshape(q.shape[:-1]).sum(axis=-1),
            value_rows(q_bar.reshape(-1, k), kind).reshape(q_bar.shape[:-1]))


def jensen_gap(q_products: np.ndarray, kind: RegularizerKind) -> np.ndarray:
    """(1/N) sum_i Psi(q_i) - Psi(mean q_i), nonnegative by convexity, of
    each (N, K) product of a (B, N, K) stack: a (B,) array."""
    q = ensure_finite(q_products, "distribution")
    if q.ndim != 3:
        raise InputError("a stack of product distributions must be a (B, N, |Y|) array")
    validate_distribution(q.reshape(-1, q.shape[-1]), ndim=2)
    values, bar_value = _value_terms(q, kind)
    return values / q.shape[-2] - bar_value


# ---------------------------------------------------------------------------
# Jensen-gap convexity probe
# ---------------------------------------------------------------------------

def random_interior_product(g: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Random product of interior distributions (every entry >= 2e-3 / k)."""
    return _interior(g.dirichlet(np.ones(k), size=n))


def _interior(raw: np.ndarray) -> np.ndarray:  # mixed with 2e-3 of the uniform
    return (1.0 - 2e-3) * raw + 2e-3 / raw.shape[-1]


def check_jensen_gap_convexity(kind: RegularizerKind, n_trials: int, rng: RngStream) -> float:
    """Largest convexity violation of the Jensen gap over random triples of
    products of four distributions on five atoms."""
    if n_trials < 1:
        raise InputError("the convexity probe needs at least one trial")
    g = rng.generator()
    ones = np.ones(5)
    qa, qb, t = np.empty((n_trials, 4, 5)), np.empty((n_trials, 4, 5)), np.empty(n_trials)
    for i in range(n_trials):  # each trial draws qa, then qb, then t
        qa[i], qb[i], t[i] = (g.dirichlet(ones, size=4), g.dirichlet(ones, size=4),
                              g.uniform(0.05, 0.95))
    qa, qb = _interior(qa), _interior(qb)
    combo = t[:, None, None] * qa + (1.0 - t[:, None, None]) * qb
    violation = jensen_gap(combo, kind) - (t * jensen_gap(qa, kind)
                                           + (1.0 - t) * jensen_gap(qb, kind))
    return float(violation.max())


# ---------------------------------------------------------------------------
# Alternating minimization and its certificates
# ---------------------------------------------------------------------------

@dataclass
class AlternatingTrajectory:
    """Time-major record of the exact alternating scheme on B instances."""

    values: np.ndarray            # (T, B) partial-min surrogate at each iteration
    q_products: list[np.ndarray]  # (B, N, K) per iteration, kept only when record_iterates
    scores: list[np.ndarray]      # (B, K) per iteration, likewise
    first_q: np.ndarray           # (B, N, K)
    final_q: np.ndarray


def run_alternating_exact(
    gamma: np.ndarray,
    s0: np.ndarray,
    kappa: float,
    kind: RegularizerKind,
    max_iters: int,
    record_iterates: bool = True,
) -> AlternatingTrajectory:
    """``max_iters`` exact decomposition/coordination iterations on a
    (B, N, K) stack of cost tables, advanced in lockstep from their common
    scores s0, shape (B, K).  A single instance is a stack of one.

    When the surrogate optimum sits on the simplex boundary, the scores
    drift and probabilities eventually underflow; those coordinates are
    clamped at the interior floor (value changes of the order of the clamp,
    far below every certificate tolerance).  A mean that vanishes outright
    raises a ``BoundaryError`` naming the instance and the iteration.
    The iterate is one reused atoms-major (N, K, B) array, whose softmax and
    mean reduce over outer axes in the row-wise maps' order; the returned
    arrays are fresh copies.
    """
    gamma = _cost_table(gamma, ndim=3)
    require_positive("kappa", kappa)
    require_samples(max_iters=max_iters)
    b, n, k = gamma.shape
    shifted_costs = (gamma / kappa).transpose(1, 2, 0).copy()
    s = np.asarray(s0, dtype=float)
    if s.shape != (b, k):
        raise InputError(f"s0 must hold one score row per instance, shape ({b}, {k})")
    q, row = np.empty((n, k, b)), np.empty((n, b))  # row: each row's max, then its sum
    q_rows, row_wide = q.transpose(2, 0, 1), row[:, None, :]
    values = np.empty((max_iters, b))
    block = np.empty((min(PRICING_BLOCK, max_iters), b, n, k))  # reused: q_t are copied in
    q_products: list[np.ndarray] = []
    scores: list[np.ndarray] = []
    for t in range(max_iters):
        np.subtract(s.T, shifted_costs, out=q)
        if kind.tag == NEGENTROPY:  # prediction_rows' softmax
            np.maximum.reduce(q, axis=1, out=row)
            np.subtract(q, row_wide, out=q)
            np.exp(q, out=q)
            _row_order_sum(q, 1, out=row)
            np.divide(q, row_wide, out=q)
        else:
            q_rows[...] = prediction_rows(q_rows.reshape(-1, k), kind).reshape(b, n, k)
        try:
            s = exact_coordination(q_rows, kind, strict=False)
        except BoundaryError as err:
            err.iteration = t + 1
            raise
        filled = t % PRICING_BLOCK + 1
        block[filled - 1] = q_rows
        if filled == PRICING_BLOCK or t + 1 == max_iters:
            values[t + 1 - filled:t + 1] = partial_min_surrogate(block[:filled], gamma, kappa,
                                                                 kind)
        if t == 0:
            first_q = q_rows.copy()
        if record_iterates:
            q_products.append(q_rows.copy())
            scores.append(s)
    return AlternatingTrajectory(values, q_products, scores, first_q, q_rows.copy())


def five_point_check(
    gamma: np.ndarray,
    kappa: float,
    kind: RegularizerKind,
    probes: int,
    rng: RngStream,
    score_scale: float = 1.0,
) -> float:
    """Largest violation (negated slack) of the five-point inequality on an
    (N, K) cost table over random probes and score starts."""
    gamma = _cost_table(gamma)
    require_positive("kappa", kappa)
    if probes < 1:
        raise InputError("the five-point check needs at least one probe")
    g = rng.generator()
    n, k = gamma.shape
    ones = np.ones(k)
    s0, probe_q = np.empty((probes, k)), np.empty((probes, n, k))
    for p in range(probes):  # each probe draws its start score, then its product
        s0[p], probe_q[p] = g.standard_normal(k), g.dirichlet(ones, size=n)
    s0 *= score_scale
    s0 -= np.add.reduce(s0, axis=1, keepdims=True) / k
    probe_q = _interior(probe_q)
    # One step from each start: q1 decomposes at s0, s1 coordinates q1.
    q1 = prediction_rows((s0[:, None, :] - gamma / kappa).reshape(-1, k), kind).reshape(-1, n, k)
    s1 = exact_coordination(q1, kind, strict=True)
    lhs = (partial_min_surrogate(probe_q, gamma, kappa, kind)
           - partial_min_surrogate(q1, gamma, kappa, kind))
    # Per-probe products: batched ones round differently in the last bits.
    rhs = np.array([float(np.sum(q @ s_b)) + float(np.sum(probe @ s_a))
                    - float(np.sum(probe @ s_b)) - float(np.sum(q @ s_a))
                    for q, probe, s_a, s_b in zip(q1, probe_q, s0, s1)])
    return -float(np.min(lhs - (kappa / n) * rhs))


def run_mirror_descent_comparison(
    gamma: np.ndarray,
    s0: np.ndarray,
    kappa: float,
    iters: int,
    alpha: float = MIRROR_DESCENT_ALPHA,
    eta: float | None = None,
) -> np.ndarray:
    """Alternating scheme damped by alpha vs mirror descent, step eta = N alpha / kappa,
    both under the negentropy on an (N, K) cost table.

    Both paths are run from matched initializations; entry t of the result
    is the sup-norm difference of the primal iterates at iteration t + 1,
    over all scenarios, and its max is the reported deviation.  Pass an
    explicit ``eta`` to mismatch the step on purpose (negative control).
    """
    gamma = _cost_table(gamma)
    require_positive("kappa", kappa)
    require_samples(iters=iters)
    if not (0.0 < alpha < 1.0):
        raise InputError(f"alpha must lie in (0, 1), not {alpha!r}")
    kind = RegularizerKind.negentropy()
    n = gamma.shape[0]
    if eta is None:
        eta = n * alpha / kappa

    def guard(q: np.ndarray, label: str) -> np.ndarray:
        if (q < INTERIOR_CLAMP).any():
            raise BoundaryError(f"{label} iterate fell below {INTERIOR_CLAMP:.0e}")
        return q

    # Path A: damped alternating minimization on the exact maps.
    s0 = np.asarray(s0, dtype=float)
    s_bar = s0.copy()
    primal_a: list[np.ndarray] = []
    for _ in range(iters):
        q = guard(prediction_rows(s_bar[None, :] - gamma / kappa, kind), "alternating")
        primal_a.append(q)
        s_half = exact_coordination(q, kind, strict=True)
        s_bar = alpha * s_half + (1.0 - alpha) * s_bar

    # Path B: mirror descent on the partial-min surrogate with the
    # separable entropy mirror map, from the matched first primal iterate.
    q = guard(prediction_rows(s0[None, :] - gamma / kappa, kind), "mirror")
    primal_b: list[np.ndarray] = [q]
    for _ in range(iters - 1):
        log_q = np.log(q)
        log_mean = np.log(guard(np.add.reduce(q, axis=0) / n, "mirror mean"))
        mirror_points = (1.0 + log_q)  # gradient of sum q log q, rowwise
        grads = (gamma + kappa * (log_q - log_mean[None, :])) / n
        q = guard(prediction_rows(mirror_points - eta * grads, kind), "mirror")
        primal_b.append(q)

    return np.array([np.max(np.abs(a - b)) for a, b in zip(primal_a, primal_b)])


# ---------------------------------------------------------------------------
# Risk bound and conjugate identity
# ---------------------------------------------------------------------------

def partial_surrogate_terms(
    s: np.ndarray, gamma: np.ndarray, kappa: float, kind: RegularizerKind
) -> tuple[np.ndarray, np.ndarray]:
    """Per-scenario (risk, partially minimized surrogate) at a common score,
    for an (N, K) cost table gamma."""
    require_positive("kappa", kappa)
    gamma = _cost_table(gamma)
    risks = np.empty(gamma.shape[0])
    partials = np.empty(gamma.shape[0])
    q_pred = prediction_rows(s[None, :], kind)[0]
    conjugate = float(conjugate_rows(s[None, :], kind)[0])
    q_hat = prediction_rows(s[None, :] - gamma / kappa, kind)
    values = value_rows(q_hat, kind)
    # Per-row inner products, not one einsum: the reported sums keep their bits.
    for i, row in enumerate(gamma):
        risks[i] = float(row @ q_pred)
        fy = conjugate + float(values[i]) - float(s @ q_hat[i])
        partials[i] = float(row @ q_hat[i]) + kappa * fy
    return risks, partials


def risk_bound_check(
    terms: tuple[np.ndarray, np.ndarray], gamma: np.ndarray, kappa: float, L: float = 1.0
) -> float:
    """Smallest slack of |partial surrogate - risk| <= 3 ||gamma_i||^2 / (2 L kappa)
    over the scenarios and their mean; the bound holds when it is >= 0.
    ``terms`` are the partial_surrogate_terms at the lifted scores."""
    require_positive("kappa", kappa)
    require_positive("L", L)
    risks, partials = terms
    gamma = _cost_table(gamma)
    norms_sq = np.einsum("ij,ij->i", gamma, gamma)
    bounds = 3.0 * norms_sq / (2.0 * L * kappa)
    per_scenario = bounds - np.abs(partials - risks)
    n = gamma.shape[0]
    summed_bound = 3.0 / (2.0 * n * L * kappa) * float(norms_sq.sum())
    summed_slack = summed_bound - abs(float(partials.mean()) - float(risks.mean()))
    return min(float(per_scenario.min()), float(summed_slack))


def risk_suboptimality_pair_slack(
    terms_a: tuple[np.ndarray, np.ndarray],
    terms_b: tuple[np.ndarray, np.ndarray],
    gamma: np.ndarray,
    kappa: float,
    L: float = 1.0,
) -> float:
    """Slack of the derived bound R(th1) - R(th2) <= (3/(L kappa N)) sum ||gamma||^2,
    where th1 is whichever of the pair has the smaller partial surrogate; the
    terms are the partial_surrogate_terms of the two directions."""
    require_positive("kappa", kappa)
    require_positive("L", L)
    (risks_a, partials_a), (risks_b, partials_b) = terms_a, terms_b
    if partials_a.mean() <= partials_b.mean():
        risk_gap = risks_a.mean() - risks_b.mean()
    else:
        risk_gap = risks_b.mean() - risks_a.mean()
    gamma = _cost_table(gamma)
    norms_sq = float(np.einsum("ij,ij->", gamma, gamma))
    bound = 3.0 / (L * kappa * gamma.shape[0]) * norms_sq
    return float(bound - risk_gap)


def omega_c_conjugate_check(theta: np.ndarray, matrix: np.ndarray) -> float:
    """|moment-space - distribution-space negentropy conjugate| at Y^T theta,
    Y being an ``ExplicitOracle.matrix``: log-sum-exp of the lifted scores
    against an independently accumulated long-double log-partition of the
    linear-feature family."""
    s = matrix.T @ ensure_finite(theta, "theta")
    lse = float(conjugate_rows(s[None, :], RegularizerKind.negentropy())[0])
    scores_ld = matrix.T.astype(np.longdouble) @ np.asarray(theta, dtype=np.longdouble)
    m = scores_ld.max()
    return abs(lse - float(m + np.log(np.exp(scores_ld - m).sum())))


def perturbation_conjugate_check(theta: np.ndarray, matrix: np.ndarray, epsilon: float,
                                 n_draws: int, rng: RngStream) -> float:
    """Largest per-draw |moment-space - distribution-space| perturbed maximum,
    max <theta + eps z | y> against max_y (Y^T theta + eps Y^T z)_y, under
    shared draws z, Y being an ``ExplicitOracle.matrix``."""
    require_samples(n_draws=n_draws)
    require_positive("epsilon", epsilon)
    theta = ensure_finite(theta, "theta")
    matrix = ensure_finite(matrix, "vertex matrix")  # NaN differences would read as 0
    s = matrix.T @ theta
    worst = 0.0
    for zj in rng.generator().standard_normal((n_draws, matrix.shape[0])):
        moment_side = float(np.max((theta + epsilon * zj) @ matrix))
        dist_side = float(np.max(s + epsilon * (matrix.T @ zj)))
        worst = max(worst, abs(moment_side - dist_side))
    return worst


# ---------------------------------------------------------------------------
# Random instances and verification suites
# ---------------------------------------------------------------------------

def random_cost_table(g: np.random.Generator, n: int, k: int, scale: float = 1.0) -> np.ndarray:
    return scale * g.standard_normal((n, k))


def convergence_instance(inst_seed: int) -> np.ndarray:
    """The convergence suite's cost table for one instance seed (five
    scenarios, six atoms)."""
    return random_cost_table(make_rng(inst_seed, 7).generator(), 5, 6)


def mirror_descent_instance(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The mirror-descent suite's cost table (three scenarios, four atoms)
    and zero-sum start score."""
    g = make_rng(seed, 31).generator()
    costs = random_cost_table(g, 3, 4)
    s0 = g.standard_normal(4)
    return costs, s0 - s0.mean()


def random_binary_oracle(g: np.random.Generator, d: int, k: int) -> ExplicitOracle:
    """The oracle over k distinct random 0/1 vertices in R^d, extreme points
    of their hull."""
    if k > 2 ** d:
        raise InputError("cannot pick that many distinct binary vertices")
    chosen: list[np.ndarray] = []
    seen = set()
    while len(chosen) < k:
        v = g.integers(0, 2, size=d).astype(float)
        key = v.tobytes()
        if key not in seen:
            seen.add(key)
            chosen.append(v)
    return ExplicitOracle(np.asarray(chosen))


def run_convergence_suite(n_instances: int = 20, seed: int = 0) -> list[CheckRow]:
    """Monotone descent and the O(1/t) rate at kappa = 1 on random instances,
    the rate checked at t = 2..200 of 10 000 iterations.

    The rate.  With L = kappa/N, an alternating step is mirror descent with
    step 1/L on the partial-min surrogate f (``values[t - 1]`` at the
    iterate q_t) under the mirror map h(q) = sum_i Omega(q_i): grad h(q_t) -
    grad_i f(q_t)/L = grad Omega(q_bar_t) - gamma_i/kappa.  f is convex and
    L h - f = kappa Omega(q_bar) - (1/N) sum_i <gamma_i|q_i> is convex, so by
    Lu, Freund & Nesterov (2018, Thm 3.1), started at x^0 = q_1 (which comes
    from s0, not from a step), f(q_t) - f(x) <= L D_h(x, q_1)/(t - 1) for all
    x and t >= 2.  At x = q_T, C = L D_h(q_T, q_1) = kappa mean_i KL(q_T,i ||
    q_1,i) is the surrogate at (s0, q_T) minus that at (s0, q_1).  Boundary
    instances are clamped, which moves values far below the 1e-10 tolerance.
    """
    require_samples(n_instances=n_instances)
    kappa, t_check, t_opt = CONVERGENCE_KAPPA, 200, 10_000
    kind = RegularizerKind.negentropy()
    tables = [convergence_instance(seed + inst) for inst in range(n_instances)]
    s0 = np.zeros(tables[0].shape[1])
    traj = run_alternating_exact(np.stack(tables), np.zeros((n_instances, len(s0))), kappa,
                                 kind, t_opt, record_iterates=False)
    steps = np.arange(1, t_check)  # t - 1 for t = 2..t_check
    rows: list[CheckRow] = []
    for inst, costs in enumerate(tables):
        inst_seed = seed + inst
        values = traj.values[:, inst]
        worst_increase = float(np.max(np.diff(values)))
        rows.append(
            CheckRow("convergence/monotone", inst_seed, worst_increase, 1e-12,
                     worst_increase <= 1e-12)
        )
        v_opt = float(values[-1])
        c_const = surrogate_value(s0, traj.final_q[inst], costs, kappa, kind) - surrogate_value(
            s0, traj.first_q[inst], costs, kappa, kind
        )
        excess = values[1:t_check] - v_opt
        rate_violation = float(np.max(excess - c_const / steps))
        rows.append(
            CheckRow("convergence/rate", inst_seed, rate_violation, 1e-10,
                     rate_violation <= 1e-10)
        )
    return rows


def run_five_point_suite(probes: int, seed: int = 0) -> list[CheckRow]:
    """The five-point inequality at kappa = 1 on four scenarios over five
    atoms, to 1e-9."""
    g = make_rng(seed, 11).generator()
    # Negentropy: arbitrary scales; iterates stay interior.
    costs = random_cost_table(g, 4, 5)
    neg = five_point_check(costs, 1.0, RegularizerKind.negentropy(), probes, make_rng(seed, 12))
    # Squared-l2: small scales keep the projections full-support, the regime
    # where the gradient identity behind the inequality applies.
    costs_l2 = random_cost_table(g, 4, 5, scale=0.05)
    l2 = five_point_check(costs_l2, 1.0, RegularizerKind.squared_l2(), probes,
                          make_rng(seed, 13), score_scale=0.02)
    return [CheckRow(f"five-point/{name}", seed, violation, 1e-9, violation <= 1e-9)
            for name, violation in (("negentropy", neg), ("squared-l2", l2))]


def run_jensen_gap_suite(trials: int, seed: int = 0) -> list[CheckRow]:
    """The Jensen gap's convexity under both regularizers, to 1e-10."""
    rows: list[CheckRow] = []
    for kind, sid in ((RegularizerKind.negentropy(), 21), (RegularizerKind.squared_l2(), 22)):
        worst = check_jensen_gap_convexity(kind, trials, make_rng(seed, sid))
        rows.append(CheckRow(f"jensen-gap/{kind.tag}", seed, worst, 1e-10, worst <= 1e-10))
    return rows


def run_mirror_descent_suite(iters: int, seed: int = 0) -> list[CheckRow]:
    """The alternating scheme damped by alpha = 1/2 against mirror descent at
    kappa = 1, and the same comparison at twice the matched step as a
    negative control."""
    costs, s0 = mirror_descent_instance(seed)
    kappa, alpha = MIRROR_DESCENT_KAPPA, MIRROR_DESCENT_ALPHA
    matched_dev = float(run_mirror_descent_comparison(costs, s0, kappa, iters, alpha).max())
    doubled_dev = float(run_mirror_descent_comparison(
        costs, s0, kappa, iters, alpha, eta=2.0 * len(costs) * alpha / kappa).max())
    return [
        CheckRow("mirror-descent/matched", seed, matched_dev, 1e-8, matched_dev < 1e-8),
        CheckRow("mirror-descent/eta-doubled-control", seed, doubled_dev, 1e-3,
                 doubled_dev > 1e-3),
    ]


def run_risk_bound_suite(n_instances: int = 100, seed: int = 0) -> list[CheckRow]:
    """The risk bound (modulus L = 1) and its pair form on three scenarios
    over six random binary vertices in R^4, at kappa = 0.5, 1 and 5."""
    require_samples(n_instances=n_instances)
    kind = RegularizerKind.negentropy()
    rows: list[CheckRow] = []
    for inst in range(n_instances):
        inst_seed = seed + inst
        g = make_rng(inst_seed, 41).generator()
        matrix = random_binary_oracle(g, 4, 6).matrix
        costs = random_cost_table(g, 3, 6)
        s = matrix.T @ g.standard_normal(4)
        s_other = matrix.T @ g.standard_normal(4)
        for kappa in (0.5, 1.0, 5.0):
            terms = partial_surrogate_terms(s, costs, kappa, kind)
            slack = risk_bound_check(terms, costs, kappa)
            rows.append(
                CheckRow(f"risk-bound/kappa={kappa:g}", inst_seed, slack, 0.0,
                         slack >= -1e-12)
            )
            pair_slack = risk_suboptimality_pair_slack(
                terms, partial_surrogate_terms(s_other, costs, kappa, kind), costs, kappa
            )
            rows.append(
                CheckRow(f"risk-bound/pair/kappa={kappa:g}", inst_seed, pair_slack, 0.0,
                         pair_slack >= -1e-12)
            )
    return rows


def run_conjugate_suite(n_instances: int = 50, seed: int = 0) -> list[CheckRow]:
    """The moment/distribution conjugate identities on eight random binary
    vertices in R^3, and the closed form on the line, all to 1e-12."""
    require_samples(n_instances=n_instances)
    rows: list[CheckRow] = []
    for inst in range(n_instances):
        inst_seed = seed + inst
        g = make_rng(inst_seed, 51).generator()
        matrix = random_binary_oracle(g, 3, 8).matrix
        theta = g.standard_normal(3)
        neg = omega_c_conjugate_check(theta, matrix)
        per = perturbation_conjugate_check(theta, matrix, 0.7, 64, make_rng(inst_seed, 52))
        rows += [CheckRow("conjugates/negentropy", inst_seed, neg, 1e-12, neg <= 1e-12),
                 CheckRow("conjugates/perturbation", inst_seed, per, 1e-12, per <= 1e-12)]
    # 1-D closed form: both sides equal log(1 + exp(t)) on Y = {0, 1}.
    line = ExplicitOracle(np.array([[0.0], [1.0]])).matrix
    g = make_rng(seed, 53).generator()
    worst = 0.0
    for t in g.uniform(-5.0, 5.0, size=20):
        scores = (line.T @ np.array([t]))[None, :]
        lse = float(conjugate_rows(scores, RegularizerKind.negentropy())[0])
        worst = max(worst, abs(lse - float(np.log1p(np.exp(t)))))
    rows.append(CheckRow("conjugates/line-closed-form", seed, worst, 1e-12, worst <= 1e-12))
    return rows
