"""Quantitative verification: segmentation error, block-diagonality,
enforced-block-diagonal (EBD) condition checks, grouping-effect stats, and
the four claim suites that ``lsrseg check`` and the acceptance gate run.

These are numeric witnesses, not proofs: every failed flag carries a
recorded counterexample that can be serialized and inspected.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import datagen, linalg, solvers
from .solvers import Coefficients, check_unit_columns, data_array

# Pass tolerances of the claim suites, fixed so that no caller can loosen
# a verification gate.
ORACLE_TOL = 1e-8  # max |lsr1 - column_oracle_ridge|
GROUPING_SLACK_TOL = 1e-9  # max slack violation of the grouping bound
DUPLICATE_GAP_TOL = 1e-10  # coefficient gap of a duplicated column pair
BLOCK_DIAG_TOL = 1e-8  # constrained solver, independent subspaces
BLOCK_DIAG_ORTH_TOL = 1e-10  # lsr1 and lsr2, orthogonal subspaces


class LengthMismatch(ValueError):
    """Predicted and ground-truth labelings have different lengths."""


@dataclass
class SegmentationReport:
    """End-to-end segmentation outcome plus per-stage wall times."""

    error_rate: float | None
    aligned_permutation: dict[int, int] | None
    block_diag_violation: float
    wall_times: dict[str, float] = field(default_factory=dict)
    n_samples: int = 0
    n_clusters: int = 0
    predicted_labels: list[int] = field(default_factory=list)
    truth_available: bool = False
    degenerate_affinity: bool = False
    eigen_tie: bool = False
    zero_degree: tuple[int, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["zero_degree"] = list(self.zero_degree)
        return d


@dataclass
class EBDCheckResult:
    """Outcome of the three block-diagonality-enforcing condition checks."""

    criterion: str
    trials: int
    permutation_invariance_pass: bool
    diagonal_dominance_pass: bool
    additivity_pass: bool
    counterexamples: dict[str, dict] = field(default_factory=dict)

    def passes(self) -> bool:
        return (
            self.permutation_invariance_pass
            and self.diagonal_dominance_pass
            and self.additivity_pass
        )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class GroupingEffectSummary:
    """Pairwise correlation vs coefficient-difference statistics."""

    lam: float
    pairs: list[tuple[int, int, float, float]]  # (i, j, r, row_diff_norm)
    max_ratio: float
    min_slack: float
    n_checked: int

    def bound_holds(self) -> bool:
        return self.min_slack >= -GROUPING_SLACK_TOL


def _labels_array(labels) -> np.ndarray:
    labels = getattr(labels, "labels", labels)
    arr = np.asarray(labels, dtype=int)
    if arr.ndim != 1:
        raise ValueError("labels must be 1-D")
    return arr


def coefficient_array(z) -> np.ndarray:
    if isinstance(z, Coefficients):
        return z.z
    return linalg.as_matrix(z, name="coefficients")


def align_clusters(pred, truth) -> tuple[float, dict[int, int]]:
    """Best-permutation alignment of predicted onto true cluster labels.

    Returns (error_rate, mapping) where mapping sends predicted label ids
    to the true label ids they were matched with, by an exact Hungarian
    assignment on the confusion matrix.
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

    rows, cols = linear_sum_assignment(-confusion)
    matches = int(confusion[rows, cols].sum())
    mapping = {int(p_ids[a]): int(t_ids[b]) for a, b in zip(rows, cols)}
    return 1.0 - matches / n, mapping


def segmentation_error(pred, truth) -> float:
    """Fraction of misassigned points under the best label permutation."""
    error, _ = align_clusters(pred, truth)
    return error


def block_diag_violation(z, truth) -> float:
    """Share of absolute coefficient mass falling across cluster boundaries."""
    mat = coefficient_array(z)
    labels = _labels_array(truth)
    if labels.shape[0] != mat.shape[0] or mat.shape[0] != mat.shape[1]:
        raise LengthMismatch(
            f"labels length {labels.shape[0]} does not match matrix {mat.shape}"
        )
    magnitude = np.abs(mat)
    total = float(magnitude.sum())
    if total == 0.0:
        return 0.0
    cross = labels[:, np.newaxis] != labels[np.newaxis, :]
    return float(magnitude[cross].sum()) / total


# ---------------------------------------------------------------------------
# Criteria for the EBD condition checks.
# ---------------------------------------------------------------------------

def l1_norm(z: np.ndarray) -> float:
    return float(np.abs(z).sum())


def frobenius_norm(z: np.ndarray) -> float:
    return float(np.linalg.norm(z, "fro"))


def frobenius_norm_sq(z: np.ndarray) -> float:
    return float(np.sum(z * z))


def nuclear_norm(z: np.ndarray) -> float:
    return float(linalg.singular_values(z).sum())


def gram_l1(z: np.ndarray) -> float:
    return float(np.abs(z.T @ z).sum())


def rank_criterion(z: np.ndarray) -> float:
    return float(linalg.matrix_rank(z))


def msr_criterion(delta: float = 1.0):
    """l1 plus delta times the nuclear norm."""

    def criterion(z: np.ndarray) -> float:
        return l1_norm(z) + delta * nuclear_norm(z)

    return criterion


def power_criterion(p: float, s: float = 1.0):
    """(sum_ij |Z_ij|^p)^s. Additivity only holds for s = 1."""

    def criterion(z: np.ndarray) -> float:
        return float(np.sum(np.abs(z) ** p) ** s)

    return criterion


# name -> (criterion, trials kept nonnegative (SSQP domain), expected
# (permutation invariance, diagonal dominance, additivity) flags)
EBD_TABLE = {
    "l1": (l1_norm, False, (True, True, True)),
    "frobenius": (frobenius_norm, False, (True, True, False)),
    "frobenius-sq": (frobenius_norm_sq, False, (True, True, True)),
    "nuclear": (nuclear_norm, False, (True, True, True)),
    "gram-l1": (gram_l1, True, (True, True, True)),
    "rank": (rank_criterion, False, (True, False, True)),
    "msr": (msr_criterion(1.0), False, (True, True, True)),
}


def _ebd_witness(trial: int, z: np.ndarray, **values) -> dict:
    witness = {"trial": trial, "z": z.tolist()}
    witness.update({k: float(v) if np.isscalar(v) else v for k, v in values.items()})
    return witness


def check_ebd(
    f,
    trials: int = 200,
    seed: int = 0,
    nonnegative: bool = False,
    name: str | None = None,
) -> EBDCheckResult:
    """Numerically test the three enforced-block-diagonal conditions on f.

    Per trial a random 2-block matrix Z = [[A, B], [C, D]] is drawn and we
    require (1) f(Z) = f(ZP) for a random permutation P, (2) f(Z) > f(Z_D)
    where Z_D zeroes the off-diagonal blocks (strict because the generated
    off-blocks carry mass), and (3) f(Z_D) = f(A) + f(D). The first
    counterexample per condition is recorded.
    """
    rng = np.random.default_rng(seed)
    perm_ok, dom_ok, add_ok = True, True, True
    counterexamples: dict[str, dict] = {}

    for trial in range(trials):
        n1 = int(rng.integers(2, 6))
        n2 = int(rng.integers(2, 6))
        n = n1 + n2
        while True:
            full = rng.standard_normal((n, n))
            if nonnegative:
                full = np.abs(full)
            off_mass = np.abs(full[:n1, n1:]).sum() + np.abs(full[n1:, :n1]).sum()
            if off_mass >= 1e-6:
                break
        a = full[:n1, :n1]
        d = full[n1:, n1:]
        zd = np.zeros_like(full)
        zd[:n1, :n1] = a
        zd[n1:, n1:] = d

        fz = f(full)
        fzd = f(zd)
        scale = 1.0 + abs(fz)

        if perm_ok:
            p = np.eye(n)[:, rng.permutation(n)]
            fzp = f(full @ p)
            if abs(fz - fzp) > 1e-9 * scale:
                perm_ok = False
                counterexamples["permutation"] = _ebd_witness(
                    trial, full, f_z=fz, f_zp=fzp
                )
        if dom_ok:
            if fz < fzd - 1e-9 * scale or fz - fzd <= 1e-7 * scale:
                dom_ok = False
                counterexamples["dominance"] = _ebd_witness(
                    trial, full, f_z=fz, f_zd=fzd
                )
        if add_ok:
            fa, fd = f(a), f(d)
            if abs(fzd - (fa + fd)) > 1e-9 * (1.0 + abs(fzd)):
                add_ok = False
                counterexamples["additivity"] = _ebd_witness(
                    trial, zd, f_zd=fzd, f_a=fa, f_d=fd
                )

    return EBDCheckResult(
        criterion=name or getattr(f, "__name__", "criterion"),
        trials=trials,
        permutation_invariance_pass=perm_ok,
        diagonal_dominance_pass=dom_ok,
        additivity_pass=add_ok,
        counterexamples=counterexamples,
    )


def grouping_effect_stats(z: Coefficients, x) -> GroupingEffectSummary:
    """Check the grouping bound of a ridge representation against its data.

    For every column pair (i, j) with correlation r = x_i^T x_j (a negative
    r is treated by sign-flipping x_j, which flips the sign of row j), the
    per-query bound |Z_ic - Z_jc| <= sqrt(2(1 - r)) / lam is verified for
    all query columns c. Pairs touching the query column are skipped when
    the diagonal is constrained, since that coefficient is pinned to zero.
    """
    if not isinstance(z, Coefficients):
        raise TypeError("grouping_effect_stats needs solver Coefficients (for lam)")
    if z.lam <= 0:
        raise ValueError("grouping bound requires lam > 0")
    mat = data_array(x)
    check_unit_columns(mat)
    n = mat.shape[1]
    if z.n != n:
        raise LengthMismatch(f"coefficients are {z.n}x{z.n}, data has {n} columns")
    gram = mat.T @ mat
    col_norms = np.linalg.norm(mat, axis=0)

    # One row i at a time over all (j > i, c): O(n^2) memory, not O(n^3).
    pairs = []
    max_ratio = 0.0
    min_slack = np.inf
    n_checked = 0
    for i in range(n - 1):
        j = np.arange(i + 1, n)
        r = np.clip(gram[i, j], -1.0, 1.0)
        sign = np.where(r < 0, -1.0, 1.0)
        rhs = np.sqrt(np.maximum(2.0 * (1.0 - np.abs(r)), 0.0))[:, np.newaxis] / z.lam
        diff = z.z[i] - sign[:, np.newaxis] * z.z[j]
        # 1-D norms per row: norm(diff, axis=1) sums in another order.
        row_diff = [float(np.linalg.norm(row)) for row in diff]
        pairs.extend(zip([i] * j.size, j.tolist(), r.tolist(), row_diff))
        lhs = np.abs(diff) / col_norms
        checked = np.ones(lhs.shape, dtype=bool)
        if z.diag_constrained:
            checked[:, i] = False
            checked[np.arange(j.size), j] = False
        n_checked += int(checked.sum())
        if checked.any():
            min_slack = min(min_slack, float((rhs - lhs)[checked].min()))
        positive = checked & (rhs > 0)
        if positive.any():
            ratio = (lhs / np.where(rhs > 0, rhs, 1.0))[positive]
            max_ratio = max(max_ratio, float(ratio.max()))

    if not np.isfinite(min_slack):
        min_slack = 0.0
    return GroupingEffectSummary(
        lam=z.lam,
        pairs=pairs,
        max_ratio=float(max_ratio),
        min_slack=float(min_slack),
        n_checked=n_checked,
    )


# ---------------------------------------------------------------------------
# Claim suites: each returns a JSON-ready dict with "name", "passed" and,
# when it fails, a "witness" (the first failing trial).
# ---------------------------------------------------------------------------

def ebd_conditions_suite(trials: int, seed: int) -> dict:
    """Every EBD_TABLE criterion shows its expected condition flags; rank's
    expected dominance failure must carry a counterexample."""
    results, failures = [], []
    for name, (f, nonneg, expected) in EBD_TABLE.items():
        res = check_ebd(f, trials=trials, seed=seed, nonnegative=nonneg, name=name)
        actual = (
            res.permutation_invariance_pass,
            res.diagonal_dominance_pass,
            res.additivity_pass,
        )
        ok = actual == expected
        if name == "rank" and ok and "dominance" not in res.counterexamples:
            ok = False  # the expected failure must carry a witness
        results.append({"criterion": name, "expected": expected, "actual": actual, "ok": ok})
        if not ok:
            failures.append({"criterion": name, "result": res.to_dict()})
    return {
        "name": "ebd-conditions",
        "passed": not failures,
        "results": results,
        "witness": failures[0] if failures else None,
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
    """The pairwise grouping bound holds on unit-column ridge queries
    (d in [2, 15], n in [2, 20]), and on every third trial column 1
    duplicates column 0 and must get the same coefficient."""
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
        y = rng.standard_normal(d)
        report = solvers.grouping_bound_report(x, y, lam)
        violation = report.max_slack_violation
        gap = float(abs(report.coefficients[0] - report.coefficients[1])) if duplicated else 0.0
        worst, worst_dup = max(worst, violation), max(worst_dup, gap)
        if witness is None and (violation > GROUPING_SLACK_TOL or gap > DUPLICATE_GAP_TOL):
            witness = {"trial": trial, "d": d, "n": n, "lam": lam,
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
