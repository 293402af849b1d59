"""Quantitative verification: segmentation error, block-diagonality,
enforced-block-diagonal (EBD) condition checks, grouping-effect stats, and
the four claim suites that ``lsrseg check`` and the acceptance gate run.
The ``segment`` report, ``SegmentationReport``, holds the run's
``spectral.Labeling`` beside its score; its ``to_dict`` writes the JSON.

These are numeric witnesses, not proofs: every failed condition is a
recorded counterexample that can be serialized and inspected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from . import datagen, linalg, solvers, spectral
from .solvers import Coefficients, coefficient_array, data_array

# Pass tolerances of the claim suites, fixed so that no caller can loosen
# a verification gate.
ORACLE_TOL = 1e-8  # max |lsr1 - column_oracle_ridge|
GROUPING_SLACK_TOL = 1e-9  # max slack violation of the grouping bound
DUPLICATE_GAP_TOL = 1e-10  # coefficient gap of a duplicated column pair
BLOCK_DIAG_TOL = 1e-8  # constrained solver, independent subspaces
BLOCK_DIAG_ORTH_TOL = 1e-10  # lsr1 and lsr2, orthogonal subspaces

UNIT_NORM_TOL = 1e-10  # |norm - 1| a unit column may show
# (pair, query) entries grouping_effect_stats holds at once
PAIR_BLOCK_ELEMENTS = 2**14
# rows of |Z| block_diag_violation holds at once: 0.13 n x n at n = 500
VIOLATION_BLOCK_ROWS = 64


class LengthMismatch(linalg.NumericError):
    """Predicted and ground-truth labelings have different lengths."""


class UnnormalizedColumn(linalg.NumericError):
    """A column expected to have unit l2 norm does not."""

    def __init__(self, index: int, norm: float):
        self.index = index
        self.norm = norm
        super().__init__(f"column {index} has l2 norm {norm!r}, expected 1")


@dataclass
class SegmentationReport:
    """End-to-end segmentation outcome: the clustering, its score and the
    per-stage wall times.

    ``block_diag_violation`` is measured on the affinity W = (|Z| + |Z^T|) / 2:
    in exact arithmetic it equals Z's cross-label share of the mass, since
    the mirror of a cross-label pair is one too. Without ground-truth labels,
    ``error_rate`` and ``aligned_permutation`` are None and the violation is
    scored against the predicted labels.
    """

    labeling: spectral.Labeling
    error_rate: float | None
    aligned_permutation: dict[int, int] | None
    block_diag_violation: float
    wall_times: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The ``segment`` JSON report: the score, then the labeling's fields
        under their report names. Containers are copied, so editing the dict
        leaves the report as it was."""
        lab = self.labeling
        return {
            "error_rate": self.error_rate,
            "aligned_permutation": None if self.aligned_permutation is None
            else dict(self.aligned_permutation),
            "block_diag_violation": self.block_diag_violation,
            "wall_times": dict(self.wall_times),
            "n_samples": lab.n,
            "n_clusters": lab.k,
            "predicted_labels": lab.labels.tolist(),
            "degenerate_affinity": lab.degenerate,
            "eigen_tie": lab.eigen_tie,
            "zero_degree": list(lab.zero_degree),
            "kmeans_objective": lab.kmeans_objective,
            "lloyd_iterations": lab.lloyd_iterations,
            "lloyd_converged": lab.lloyd_converged,
            "eigengap": lab.eigengap,
        }


@dataclass
class GroupingEffectSummary:
    """Pairwise correlation vs coefficient-difference statistics."""

    max_row_gap: float  # largest ||z_i - sign(r) z_j|| over the pairs
    max_ratio: float
    min_slack: float
    n_checked: int

    def bound_holds(self) -> bool:
        return self.min_slack >= -GROUPING_SLACK_TOL


def _labels_array(labels) -> np.ndarray:
    return datagen.label_array(getattr(labels, "labels", labels))


def align_clusters(pred, truth) -> tuple[float, dict[int, int]]:
    """Best-permutation alignment of predicted onto true cluster labels.

    Returns (error_rate, mapping) where mapping sends predicted label ids
    to the true label ids they were matched with: a maximum-weight full
    bipartite matching of the confusion matrix (scipy's csgraph), with
    min(kp, kt) pairs. The weights are the counts plus 1, so every pair is
    an edge and a full matching exists; the 1 adds the same min(kp, kt) to
    every full matching and leaves the optimum where it is. The mapping is
    one maximum matching; which of several tied ones is unspecified.
    """
    p = _labels_array(pred)
    t = _labels_array(truth)
    if p.shape[0] != t.shape[0]:
        raise LengthMismatch(f"prediction has {p.shape[0]} labels, truth has {t.shape[0]}")
    n = p.shape[0]
    if n == 0:
        return 0.0, {}

    p_ids, p_inv = np.unique(p, return_inverse=True)
    t_ids, t_inv = np.unique(t, return_inverse=True)
    kp, kt = p_ids.size, t_ids.size
    confusion = np.zeros((kp, kt), dtype=int)
    np.add.at(confusion, (p_inv, t_inv), 1)

    rows, cols = min_weight_full_bipartite_matching(csr_matrix(confusion + 1), maximize=True)
    matches = int(confusion[rows, cols].sum())
    mapping = {int(p_ids[a]): int(t_ids[b]) for a, b in zip(rows, cols)}
    return 1.0 - matches / n, mapping


def segmentation_error(pred, truth) -> float:
    """Fraction of misassigned points under the best label permutation."""
    error, _ = align_clusters(pred, truth)
    return error


def block_diag_violation(z, truth) -> float:
    """Share of absolute coefficient mass falling across cluster boundaries.

    ``z`` is Coefficients, an Affinity (whose W is finite and nonnegative by
    construction, so it is neither rescanned nor made absolute) or a plain
    array, which is validated. Each block of VIOLATION_BLOCK_ROWS rows of
    |Z| is multiplied by the n x L label-indicator matrix, one BLAS product
    (``linalg.matmul``) that gives every row's mass on each label's columns.
    The masses on the other labels are added up directly rather than as
    total minus the own label's, so an exactly block-diagonal Z scores
    exactly 0. Only one block of rows of |Z| is copied at a time, and none
    of an Affinity.
    """
    affinity = isinstance(z, spectral.Affinity)
    mat = z.w if affinity else coefficient_array(z)
    labels = _labels_array(truth)
    n = mat.shape[0]
    if labels.shape[0] != n or n != mat.shape[1]:
        raise LengthMismatch(
            f"labels length {labels.shape[0]} does not match matrix {mat.shape}"
        )
    _, codes = np.unique(labels, return_inverse=True)
    indicator = np.zeros((n, codes.max() + 1))
    indicator[np.arange(n), codes] = 1.0
    total = cross = 0.0
    for start in range(0, n, VIOLATION_BLOCK_ROWS):
        rows = mat[start : start + VIOLATION_BLOCK_ROWS]
        mass = linalg.matmul(rows if affinity else np.abs(rows), indicator)
        total += mass.sum()
        mass[np.arange(mass.shape[0]), codes[start : start + VIOLATION_BLOCK_ROWS]] = 0.0
        cross += mass.sum()
    if total == 0.0:
        return 0.0
    return float(cross / total)


# ---------------------------------------------------------------------------
# Criteria for the EBD condition checks. Each takes an (..., m, n) stack and
# returns one value per matrix: an array for a stack, a float for one matrix.
# ---------------------------------------------------------------------------

def _per_matrix(values) -> float | np.ndarray:
    return float(values) if np.ndim(values) == 0 else values


def l1_norm(z: np.ndarray) -> float | np.ndarray:
    return _per_matrix(np.abs(z).sum(axis=(-2, -1)))


def frobenius_norm(z: np.ndarray) -> float | np.ndarray:
    # the BLAS dot product np.linalg.norm(z, "fro") takes of one matrix
    flat = np.reshape(z, np.shape(z)[:-2] + (-1,))
    return _per_matrix(np.sqrt(np.vecdot(flat, flat)))


def frobenius_norm_sq(z: np.ndarray) -> float | np.ndarray:
    return _per_matrix((z * z).sum(axis=(-2, -1)))


# The spectral criteria take the stack's singular values `s` when the caller
# has them (``linalg.singular_values(z)``), and compute them otherwise.

def nuclear_norm(z: np.ndarray, s: np.ndarray | None = None) -> float | np.ndarray:
    if s is None:
        s = linalg.singular_values(z)
    return _per_matrix(s.sum(axis=-1))


def gram_l1(z: np.ndarray) -> float | np.ndarray:
    return _per_matrix(np.abs(np.swapaxes(z, -1, -2) @ z).sum(axis=(-2, -1)))


def rank_criterion(z: np.ndarray, s: np.ndarray | None = None) -> float | np.ndarray:
    if s is None:
        s = linalg.singular_values(z)
    return _per_matrix(np.asarray(linalg.numeric_rank(s), dtype=float))


def msr_criterion(z: np.ndarray, s: np.ndarray | None = None) -> float | np.ndarray:
    """l1 plus the nuclear norm."""
    return l1_norm(z) + nuclear_norm(z, s)


_SPECTRAL_CRITERIA = frozenset({nuclear_norm, rank_criterion, msr_criterion})


def power_criterion(p: float, s: float = 1.0):
    """(sum_ij |Z_ij|^p)^s. Additivity only holds for s = 1."""

    def criterion(z: np.ndarray) -> float | np.ndarray:
        total = (np.abs(z) ** p).sum(axis=(-2, -1))
        if s != 1.0:
            # one C pow per matrix: numpy's vectorized power rounds differently
            total = np.reshape([t ** s for t in np.ravel(total).tolist()], np.shape(total))
        return _per_matrix(total)

    return criterion


# name -> (criterion, trials kept nonnegative (SSQP domain), the
# conditions check_ebd is expected to find it failing)
EBD_TABLE = {
    "l1": (l1_norm, False, []),
    "frobenius": (frobenius_norm, False, ["additivity"]),
    "frobenius-sq": (frobenius_norm_sq, False, []),
    "nuclear": (nuclear_norm, False, []),
    "gram-l1": (gram_l1, True, []),
    "rank": (rank_criterion, False, ["dominance"]),
    "msr": (msr_criterion, False, []),
}


@dataclass(frozen=True)
class _EbdTrials:
    """The drawn trials: each trial's block shape (n1, n2), and per shape the
    ascending trial indices and the stacks of their Z and column
    permutations."""

    shapes: list[tuple[int, int]]
    groups: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]]

    def z(self, trial: int) -> np.ndarray:
        index, z, _ = self.groups[self.shapes[trial]]
        return z[np.searchsorted(index, trial)]


def _draw_ebd_trials(trials: int, seed: int) -> _EbdTrials:
    rng = np.random.default_rng(seed)
    shapes, by_shape = [], {}
    for trial in range(trials):
        n1 = int(rng.integers(2, 6))
        n2 = int(rng.integers(2, 6))
        n = n1 + n2
        while True:
            full = rng.standard_normal((n, n))
            off_mass = np.abs(full[:n1, n1:]).sum() + np.abs(full[n1:, :n1]).sum()
            if off_mass >= 1e-6:
                break
        shapes.append((n1, n2))
        by_shape.setdefault((n1, n2), []).append((trial, full, rng.permutation(n)))
    # each shape's draws are freed as soon as they are stacked
    groups = {
        shape: tuple(np.array(column) for column in zip(*by_shape.pop(shape)))
        for shape in list(by_shape)
    }
    return _EbdTrials(shapes, groups)


def _block_diagonal(z: np.ndarray, n1: int) -> np.ndarray:
    """Z_D: a copy of the (stack of) Z with the off-diagonal blocks zeroed."""
    zd = z.copy()
    zd[..., :n1, n1:] = 0.0
    zd[..., n1:, :n1] = 0.0
    return zd


def _ebd_stacks(z: np.ndarray, perms: np.ndarray, n1: int) -> dict[str, np.ndarray]:
    """One shape group's stacks of Z, Z_D, ZP, A and D."""
    return {
        "z": z,
        "zd": _block_diagonal(z, n1),
        "zp": np.take_along_axis(z, perms[:, np.newaxis, :], axis=2),
        "a": np.ascontiguousarray(z[:, :n1, :n1]),
        "d": np.ascontiguousarray(z[:, n1:, n1:]),
    }


def _ebd_values(criteria: dict, trials: _EbdTrials) -> dict[str, dict[str, np.ndarray]]:
    """name -> stack key -> each trial's value, for criteria mapping a name to
    (f, nonnegative). One shape group's stacks are held at a time, and each
    stack's singular values are computed once, for every _SPECTRAL_CRITERIA
    member among the criteria."""
    values = {name: {key: np.empty(len(trials.shapes)) for key in ("z", "zd", "zp", "a", "d")}
              for name in criteria}
    for (n1, _), (index, z, perms) in trials.groups.items():
        for nonnegative in (False, True):
            names = [name for name, (_, nonneg) in criteria.items() if nonneg == nonnegative]
            if not names:
                continue
            for key, stack in _ebd_stacks(np.abs(z) if nonnegative else z, perms, n1).items():
                spectrum = None
                for name in names:
                    f = criteria[name][0]
                    if f in _SPECTRAL_CRITERIA:
                        if spectrum is None:
                            spectrum = linalg.singular_values(stack)
                        out = f(stack, spectrum)
                    else:
                        out = f(stack)
                    out = np.asarray(out, dtype=np.float64)
                    if out.shape != index.shape:
                        raise ValueError(
                            f"criterion gave shape {out.shape} for {index.size} matrices; "
                            "it must give one value per matrix of an (..., m, n) stack"
                        )
                    values[name][key][index] = out
    return values


def _ebd_counterexamples(values: dict[str, np.ndarray], trials: _EbdTrials,
                         nonnegative: bool) -> dict[str, dict]:
    """The first counterexample per failed condition, from one criterion's values."""
    fz, fzd, fzp, fa, fd = (values[key] for key in ("z", "zd", "zp", "a", "d"))
    scale = 1.0 + np.abs(fz)
    # condition -> (which trials fail it, the values its witness carries)
    tests = {
        "permutation": (np.abs(fz - fzp) > 1e-9 * scale, {"f_z": fz, "f_zp": fzp}),
        "dominance": (fz - fzd <= 1e-7 * scale, {"f_z": fz, "f_zd": fzd}),
        "additivity": (np.abs(fzd - (fa + fd)) > 1e-9 * (1.0 + np.abs(fzd)),
                       {"f_zd": fzd, "f_a": fa, "f_d": fd}),
    }
    # keyed in the order the failures occur, conditions of one trial in the above order
    first = sorted(
        ((int(np.argmax(fails)), condition) for condition, (fails, _) in tests.items()
         if fails.any()),
        key=lambda hit: hit[0],
    )
    counterexamples = {}
    for trial, condition in first:
        n1, z = trials.shapes[trial][0], trials.z(trial)
        if nonnegative:
            z = np.abs(z)
        if condition == "additivity":
            z = _block_diagonal(z, n1)
        counterexamples[condition] = {"trial": trial, "z": z.tolist()} | {
            name: float(v[trial]) for name, v in tests[condition][1].items()
        }
    return counterexamples


def check_ebd(
    f,
    trials: int = 200,
    seed: int = 0,
    nonnegative: bool = False,
) -> dict[str, dict]:
    """Numerically test the three enforced-block-diagonal conditions on f.

    Per trial a random 2-block matrix Z = [[A, B], [C, D]] (|Z| when
    ``nonnegative``) and a random column permutation P are drawn, and we
    require (1) f(Z) = f(ZP), (2) f(Z) > f(Z_D) where Z_D zeroes the
    off-diagonal blocks (strict, by 1e-7 relative, because the generated
    off-blocks carry mass), and (3) f(Z_D) = f(A) + f(D), the equalities to
    1e-9 relative. Returns the first counterexample per failed condition,
    keyed "permutation", "dominance" or "additivity"; f meets every
    condition without a key.

    f takes an (..., m, n) stack and returns one value per matrix, as the
    EBD_TABLE criteria and ``power_criterion`` do. The trials are grouped by
    their block sizes (n1, n2), 16 shapes; f runs once on each shape's
    stacks of Z, Z_D, ZP, A and D, and the conditions are array comparisons.
    A condition's counterexample is its failing trial of lowest index. The
    trials are drawn in sequence from one generator, the permutation on
    every trial, so they do not depend on f.
    """
    draws = _draw_ebd_trials(trials, seed)
    values = _ebd_values({"f": (f, nonnegative)}, draws)["f"]
    return _ebd_counterexamples(values, draws, nonnegative)


def check_unit_columns(mat: np.ndarray) -> np.ndarray:
    """The column l2 norms, or UnnormalizedColumn for the first that is not 1."""
    norms = np.linalg.norm(mat, axis=0)
    bad = np.nonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)[0]
    if bad.size:
        raise UnnormalizedColumn(int(bad[0]), float(norms[bad[0]]))
    return norms


def grouping_effect_stats(z: Coefficients, x) -> GroupingEffectSummary:
    """Check the grouping bound of a ridge representation against its data.

    For every column pair (i, j) with correlation r = x_i^T x_j (a negative
    r is treated by sign-flipping x_j, which flips the sign of row j), the
    per-query bound |Z_ic - Z_jc| / ||x_c|| <= sqrt(2(1 - r)) / lam is
    verified for all query columns c. Pairs touching the query column are
    skipped when the diagonal is constrained, since that coefficient is
    pinned to zero. ``max_row_gap`` is the largest whole-row difference
    ||z_i - z_j|| (after the flip). The pairs are taken in row-major blocks
    of at most PAIR_BLOCK_ELEMENTS (pair, query) entries: O(n^2) memory,
    not O(n^3).
    """
    if not isinstance(z, Coefficients):
        raise TypeError("grouping_effect_stats needs solver Coefficients (for lam)")
    if z.lam <= 0:
        raise ValueError("grouping bound requires lam > 0")
    mat = data_array(x)
    col_norms = check_unit_columns(mat)
    n = mat.shape[1]
    if z.n != n:
        raise LengthMismatch(f"coefficients are {z.n}x{z.n}, data has {n} columns")
    gram = mat.T @ mat
    # pair (i, j > i) has flat index row_start[i] + j - i - 1
    row_start = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    n_pairs = int(row_start[-1])

    max_row_gap = max_ratio = 0.0
    min_slack = np.inf
    step = max(1, PAIR_BLOCK_ELEMENTS // n)
    for start in range(0, n_pairs, step):
        flat = np.arange(start, min(start + step, n_pairs))
        i = np.searchsorted(row_start, flat, side="right") - 1
        j = flat - row_start[i] + i + 1
        r = np.clip(gram[i, j], -1.0, 1.0)
        rhs = np.sqrt(2.0 * (1.0 - np.abs(r))) / z.lam
        diff = z.z[j]
        diff *= np.where(r < 0, 1.0, -1.0)[:, np.newaxis]
        diff += z.z[i]  # row i minus the sign-flipped row j
        row_gap = np.sqrt(np.einsum("pc,pc->p", diff, diff).max())
        max_row_gap = max(max_row_gap, float(row_gap))
        lhs = np.abs(diff, out=diff)
        lhs /= col_norms
        if z.diag_constrained:
            rows = np.arange(flat.size)
            lhs[rows, i] = -np.inf
            lhs[rows, j] = -np.inf
        # Rounded division and subtraction are monotone, so the extremes
        # over a pair's queries come from its largest lhs.
        worst = lhs.max(axis=1)
        min_slack = min(min_slack, float((rhs - worst).min()))
        ratio = np.divide(worst, rhs, out=np.zeros_like(rhs), where=rhs > 0)
        max_ratio = max(max_ratio, float(ratio.max()))

    if not np.isfinite(min_slack):
        min_slack = 0.0
    return GroupingEffectSummary(
        max_row_gap=max_row_gap,
        max_ratio=float(max_ratio),
        min_slack=float(min_slack),
        n_checked=n_pairs * (n - 2 if z.diag_constrained else n),
    )


# ---------------------------------------------------------------------------
# Claim suites: each returns a JSON-ready dict with "name", "passed" and,
# when it fails, a "witness" (the first failing trial).
# ---------------------------------------------------------------------------

def ebd_conditions_suite(trials: int, seed: int) -> dict:
    """Every EBD_TABLE criterion fails exactly its expected conditions. Each
    row carries the criterion's counterexamples, so rank's expected
    dominance failure comes with its witness; the suite's witness is the
    first row that is not ok."""
    draws = _draw_ebd_trials(trials, seed)
    values = _ebd_values({name: (f, nonneg) for name, (f, nonneg, _) in EBD_TABLE.items()},
                         draws)
    results = []
    for name, (_, nonneg, expected) in EBD_TABLE.items():
        found = _ebd_counterexamples(values.pop(name), draws, nonneg)
        results.append({"criterion": name, "expected": expected, "counterexamples": found,
                        "ok": sorted(found) == sorted(expected)})
    witness = next((row for row in results if not row["ok"]), None)
    return {
        "name": "ebd-conditions",
        "passed": witness is None,
        "results": results,
        "witness": witness,
    }


def oracle_equivalence_suite(trials: int, seed: int, n_max: int = 80) -> dict:
    """lsr1 equals the per-column reference on Gaussian d x n data,
    d in [2, 30], n in [3, n_max], lam log-uniform in [1e-4, 10]."""
    rng = np.random.default_rng(seed)
    worst, witness = 0.0, None
    for trial in range(trials):
        d = int(rng.integers(2, 31))
        n = int(rng.integers(3, n_max + 1))
        lam = float(10 ** rng.uniform(-4, 1))
        x = rng.standard_normal((d, n))
        gap = float(
            np.max(np.abs(solvers.lsr1(x, lam).z - solvers.column_oracle_ridge(x, lam).z))
        )
        worst = max(worst, gap)
        if witness is None and gap > ORACLE_TOL:
            witness = {"trial": trial, "d": d, "n": n, "lam": lam, "gap": gap}
    return {
        "name": "woodbury-equivalence",
        "passed": witness is None,
        "max_gap": worst,
        "tolerance": ORACLE_TOL,
        "witness": witness,
    }


def grouping_bound_suite(trials: int, seed: int) -> dict:
    """The grouping bound holds for every column of lsr2's and lsr1's Z on
    unit-column data (d in [2, 15], n in [2, 20]); lsr1 leaves each query
    out of its dictionary. On every third trial column 1 duplicates column 0
    and the two rows of lsr2's Z must be equal."""
    rng = np.random.default_rng(seed)
    worst, worst_dup, witness = -np.inf, 0.0, None
    for trial in range(trials):
        d = int(rng.integers(2, 16))
        n = int(rng.integers(2, 21))
        lam = float(rng.choice([0.01, 0.1, 1.0]))
        x = rng.standard_normal((d, n))
        duplicated = trial % 3 == 0
        if duplicated:
            x[:, 1] = x[:, 0]
        x /= np.linalg.norm(x, axis=0)
        for solver, solve in ((solvers.LSR2, solvers.lsr2), (solvers.LSR1, solvers.lsr1)):
            z = solve(x, lam)
            violation = -grouping_effect_stats(z, x).min_slack
            gap = 0.0
            if duplicated and solver == solvers.LSR2:
                gap = float(np.max(np.abs(z.z[0] - z.z[1])))
            worst, worst_dup = max(worst, violation), max(worst_dup, gap)
            if witness is None and (violation > GROUPING_SLACK_TOL or gap > DUPLICATE_GAP_TOL):
                witness = {"trial": trial, "solver": solver, "d": d, "n": n, "lam": lam,
                           "violation": violation, "duplicate_gap": gap}
    return {
        "name": "grouping-bound",
        "passed": witness is None,
        "max_violation": worst,
        "max_duplicate_gap": worst_dup,
        "tolerances": {"slack": GROUPING_SLACK_TOL, "duplicate_gap": DUPLICATE_GAP_TOL},
        "witness": witness,
    }


def _block_diag_spec_pair(
    rng: np.random.Generator, trial: int
) -> tuple[datagen.SubspaceSpec, datagen.SubspaceSpec]:
    """An independent spec (n_i = d_i + 3) and an orthogonal one over k in
    {2, 3, 4, 5} subspaces, both noise-free in sum(dims) + 2 dimensions.
    The orthogonal spec samples insufficiently (n_i = d_i - 1) on even
    trials; its dims are >= 3 there so every block keeps >= 2 samples and
    the violation ratio has genuine within-block mass in its denominator."""

    def spec(dims, samples, mode):
        return datagen.SubspaceSpec(
            ambient_dim=sum(dims) + 2,
            subspace_dims=dims,
            samples_per_subspace=samples,
            mode=mode,
            seed=int(rng.integers(0, 2**31)),
        )

    k = int(rng.choice([2, 3, 4, 5]))
    dims = tuple(int(rng.integers(1, 4)) for _ in range(k))
    independent = spec(dims, tuple(d + 3 for d in dims), datagen.INDEPENDENT)
    if trial % 2 == 0:
        odims = tuple(int(rng.integers(3, 5)) for _ in range(k))
        osamples = tuple(d - 1 for d in odims)
    else:
        odims, osamples = dims, tuple(d + 2 for d in dims)
    return independent, spec(odims, osamples, datagen.ORTHOGONAL)


def block_diagonality_suite(trials: int, seed: int) -> dict:
    """The constrained solution is block diagonal on independent subspaces,
    and lsr1/lsr2 (lam = 0.1) are on orthogonal ones, including the
    insufficiently sampled specs of even trials."""
    rng = np.random.default_rng(seed)
    worst_indep, worst_orth, insufficient, witness = 0.0, 0.0, 0, None
    for trial in range(trials):
        ispec, ospec = _block_diag_spec_pair(rng, trial)
        data, _ = datagen.generate(ispec)
        indep = block_diag_violation(solvers.lsr_constrained(data), data.labels)
        odata, _ = datagen.generate(ospec)
        orth = max(
            block_diag_violation(solve(odata, 0.1), odata.labels)
            for solve in (solvers.lsr1, solvers.lsr2)
        )
        insufficient += any(n < d for n, d in zip(ospec.samples_per_subspace, ospec.subspace_dims))
        worst_indep, worst_orth = max(worst_indep, indep), max(worst_orth, orth)
        if witness is None and (indep > BLOCK_DIAG_TOL or orth > BLOCK_DIAG_ORTH_TOL):
            witness = {"trial": trial, "independent_violation": indep,
                       "orthogonal_violation": orth}
    return {
        "name": "block-diagonality",
        "passed": witness is None,
        "max_independent_violation": worst_indep,
        "max_orthogonal_violation": worst_orth,
        "insufficient_specs": insufficient,
        "tolerances": {"independent": BLOCK_DIAG_TOL, "orthogonal": BLOCK_DIAG_ORTH_TOL},
        "witness": witness,
    }
