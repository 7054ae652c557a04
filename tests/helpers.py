"""Independent reference implementations used as test oracles.

Everything here is deliberately written with different techniques than the
package (exact rational arithmetic instead of floats, set-based sudoku
checks instead of bitmasks, naive first-blank backtracking instead of MRV)
so that agreement between the two is meaningful.
"""

from fractions import Fraction
from typing import Optional, Sequence

from reflect_lab.sim import EngineStats


def frac_rates(mu: Fraction, em: Fraction, ep: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    alpha = mu * em + (1 - mu) * (1 - ep)
    beta = mu * (1 - em)
    gamma = (1 - mu) * ep
    return alpha, beta, gamma


def frac_rmtp(mu: Fraction, em: Fraction, ep: Fraction, n: int) -> Fraction:
    alpha, beta, _ = frac_rates(mu, em, ep)
    return (beta / (1 - alpha)) ** n


def frac_posterior_rmtp(
    mu: Sequence[Fraction], em: Sequence[Fraction], ep: Sequence[Fraction], n: int
) -> Fraction:
    """Exact retry-in-place success with attempt-indexed rates.

    Attempt i advances with beta_i after i - 1 rejections; attempts from the
    last entry on share its rates, so the series is the finite prefix over
    the earlier entries plus the geometric tail prefix * beta_L / (1 - alpha_L).
    """
    rates = [frac_rates(*entry) for entry in zip(mu, em, ep)]
    per_step = Fraction(0)
    prefix = Fraction(1)
    for alpha, beta, _ in rates[:-1]:
        per_step += prefix * beta
        prefix *= alpha
    alpha, beta, _ = rates[-1]
    if beta:
        per_step += prefix * beta / (1 - alpha)
    return per_step**n


def exact_rtbs_success(
    mu: Fraction, em: Fraction, ep: Fraction, f: Fraction, m: int, n: int
) -> Fraction:
    """Exact success probability of width-m backtracking from scale n.

    Computed by direct recursion on the search semantics (every node,
    the root included, holds m attempts), not via the per-scale advance
    probabilities, so it is structurally independent of the package's
    product form.  For each scale it tracks the chance a fresh node's
    subtree terminates correctly (S), terminates with a wrong accepted
    answer (T), and, for derailed nodes, terminates at all (W); anything
    else pops back to the parent.
    """
    alpha, beta, gamma = frac_rates(mu, em, ep)
    memo: dict[int, tuple[Fraction, Fraction, Fraction]] = {}

    def node(t: int) -> tuple[Fraction, Fraction, Fraction]:
        if t == 0:
            return (Fraction(1), Fraction(0), Fraction(1))
        if t in memo:
            return memo[t]
        s_child, t_child, w_child = node(t - 1)
        dead_child = 1 - s_child - t_child
        s = t_ = w = Fraction(0)
        for _ in range(m):
            s = alpha * s + beta * (s_child + dead_child * s) + gamma * (1 - w_child) * s
            t_ = (
                alpha * t_
                + beta * (t_child + dead_child * t_)
                + gamma * (w_child + (1 - w_child) * t_)
            )
            w = f * w + (1 - f) * (w_child + (1 - w_child) * w)
        memo[t] = (s, t_, w)
        return memo[t]

    return node(n)[0]


# --- sudoku references ---


def sudoku_rows(cells: Sequence[int]) -> list[list[int]]:
    return [list(cells[9 * r : 9 * r + 9]) for r in range(9)]


def sudoku_is_complete_valid(cells: Sequence[int]) -> bool:
    """Set-based full-solution check: each unit is exactly {1..9}."""
    want = set(range(1, 10))
    grid = sudoku_rows(cells)
    for r in range(9):
        if set(grid[r]) != want:
            return False
    for c in range(9):
        if {grid[r][c] for r in range(9)} != want:
            return False
    for br in range(0, 9, 3):
        for bc in range(0, 9, 3):
            box = {grid[br + i][bc + j] for i in range(3) for j in range(3)}
            if box != want:
                return False
    return True


def sudoku_no_duplicates(cells: Sequence[int]) -> bool:
    """Partial-board check: no filled value repeats in any unit."""
    grid = sudoku_rows(cells)
    units = []
    units.extend(grid)
    units.extend([[grid[r][c] for r in range(9)] for c in range(9)])
    for br in range(0, 9, 3):
        for bc in range(0, 9, 3):
            units.append([grid[br + i][bc + j] for i in range(3) for j in range(3)])
    for unit in units:
        filled = [v for v in unit if v != 0]
        if len(filled) != len(set(filled)):
            return False
    return True


def solve_sudoku_reference(cells: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Naive first-blank backtracking solver, values tried in order 1..9."""
    grid = list(cells)
    if not sudoku_no_duplicates(grid):
        return None

    def candidates(idx: int) -> list[int]:
        r, c = divmod(idx, 9)
        used = set(grid[9 * r : 9 * r + 9])
        used |= {grid[9 * k + c] for k in range(9)}
        br, bc = 3 * (r // 3), 3 * (c // 3)
        used |= {grid[9 * (br + i) + bc + j] for i in range(3) for j in range(3)}
        return [v for v in range(1, 10) if v not in used]

    def recurse() -> bool:
        try:
            idx = grid.index(0)
        except ValueError:
            return True
        for v in candidates(idx):
            grid[idx] = v
            if recurse():
                return True
            grid[idx] = 0
        return False

    return tuple(grid) if recurse() else None


def mc_batch_reference(
    beta: Sequence[float],
    beta_gamma: Sequence[float],
    one_minus_f: float,
    n: int,
    width: Optional[int],
    budget: int,
    root_unlimited: bool,
    episodes: int,
    rng,
) -> tuple[int, int, int, int, EngineStats]:
    """The vector engine's chain law for one batch, one row at a time.

    Returns (successes, correct_len_sum, exhausted, done, stats), stats as
    the engine's `EngineStats`.  Each pass draws one uniform per row in row
    order, closed rows included, until at most three quarters of the rows
    are live, when the closed rows are dropped.  `beta` and `beta_gamma` are
    per-attempt tables whose last entry is reused; `width` is None for
    retry-in-place.  A backtracking row keeps an explicit stack of
    (on_track, attempts) frames and pops them one at a time.
    """
    rows = [{"depth": 0, "on": True, "att": 0, "props": 0, "frames": []} for _ in range(episodes)]
    live = [True] * episodes
    successes = len_sum = exhausted = done = 0
    passes = compactions = row_passes = pops = 0
    while any(live):
        draws = rng.random(len(rows))
        passes += 1
        row_passes += len(rows)
        for i, row in enumerate(rows):
            if not live[i]:
                continue
            u = float(draws[i])
            row["props"] += 1
            k = min(row["att"], len(beta) - 1)
            if row["on"]:
                fate = "advance" if u < beta[k] else "derail" if u < beta_gamma[k] else "reject"
            else:
                fate = "derail" if u < one_minus_f else "reject"
            closed = False
            if fate != "reject" and row["depth"] == n - 1:
                closed = True
                if fate == "advance":
                    successes += 1
                    len_sum += row["props"]
            elif fate != "reject":
                row["frames"].append((row["on"], row["att"] + 1))
                row["depth"] += 1
                row["on"] = fate == "advance"
                row["att"] = 0
            else:
                row["att"] += 1
                if width is not None and row["att"] >= width and row["depth"] > 0:
                    pops += 1
                while width is not None and row["att"] >= width:
                    if row["depth"] == 0:
                        closed = not root_unlimited
                        break
                    row["on"], row["att"] = row["frames"].pop()
                    row["depth"] -= 1
            if not closed and row["props"] >= budget:
                closed = True
                exhausted += 1
            if closed:
                live[i] = False
                done += 1
        count = sum(live)
        if count and count <= 0.75 * len(rows):
            compactions += 1
            rows = [row for row, keep in zip(rows, live) if keep]
            live = [True] * count
    stats = EngineStats(passes, compactions, row_passes, pops, int(passes == budget))
    return (successes, len_sum, exhausted, done, stats)
