"""Independent reference implementations used as test oracles.

Everything here is deliberately written with different techniques than the
package (exact rational arithmetic instead of floats, set-based sudoku
checks instead of bitmasks, naive first-blank backtracking instead of MRV)
so that agreement between the two is meaningful.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional, Sequence

from reflect_lab.mtp import Step
from reflect_lab.sim import EngineStats
from reflect_lab.tasks.sudoku import (
    _ALL_MASK,
    _CANDIDATES,
    _UNITS,
    DeadEndError,
    SudokuBoard,
    SudokuMove,
    _masks,
    _unit_lists,
)


def frac_rates(mu: Fraction, em: Fraction, ep: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    alpha = mu * em + (1 - mu) * (1 - ep)
    beta = mu * (1 - em)
    gamma = (1 - mu) * ep
    return alpha, beta, gamma


def frac_rmtp(mu: Fraction, em: Fraction, ep: Fraction, n: int) -> Fraction:
    alpha, beta, _ = frac_rates(mu, em, ep)
    return (beta / (1 - alpha)) ** n


def _smallest_fixed_point(c0: Decimal, cm: Decimal, m: int) -> Decimal:
    """Smallest x in [0, 1] with x = c0 + cm x^m, for c0, cm >= 0 and
    c0 + cm <= 1, by bisection.

    h(x) = c0 + cm x^m - x is convex with h(0) = c0 >= 0.  If c0 + cm < 1,
    h(1) < 0 and the root lies in (0, 1).  Otherwise x = 1 is a root, and a
    smaller one exists iff h'(1) = m cm - 1 > 0; it lies below h's minimiser.
    """
    if c0 == 0:
        return Decimal(0)
    if c0 + cm < 1:
        hi = Decimal(1)
    elif m * cm <= 1:
        return Decimal(1)
    else:
        hi = (1 / (m * cm)) ** (Decimal(1) / (m - 1))
    lo = Decimal(0)
    for _ in range(180):  # 2^-180 < 1e-54
        mid = (lo + hi) / 2
        if c0 + cm * mid**m - mid > 0:
            lo = mid
        else:
            hi = mid
    return hi


def limit_rtbs_beats_rmtp(mu: Fraction, em: Fraction, ep: Fraction, f: Fraction, m: int) -> bool:
    """Whether width-m backtracking's per-level success sigma* exceeds
    retry-in-place's beta / (beta + gamma), in 50-digit decimals.

    eps* is the smallest root of x = f + (1 - f) x^m (a derailed node ends
    rejected), delta* the smallest root of x = alpha + gamma eps*^m +
    beta x^m (an on-track node ends rejected), and
    sigma* = beta (1 + delta* + ... + delta*^(m-1)).  Gaps of 1e-40 or less
    are ties: exact ties leave gaps near the working precision.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        mu, em, ep, f = (Decimal(x.numerator) / x.denominator for x in (mu, em, ep, f))
        alpha = mu * em + (1 - mu) * (1 - ep)
        beta = mu * (1 - em)
        gamma = (1 - mu) * ep
        if beta + gamma == 0:
            return False
        eps = _smallest_fixed_point(f, 1 - f, m)
        delta = _smallest_fixed_point(alpha + gamma * eps**m, beta, m)
        sigma = beta * m if delta == 1 else beta * (1 - delta**m) / (1 - delta)
        return sigma - beta / (beta + gamma) > Decimal("1e-40")


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
    """Exact success probability of width-m backtracking from scale n at
    constant rates: the one-entry case of `exact_posterior_rtbs_success`."""
    return exact_posterior_rtbs_success((mu,), (em,), (ep,), f, m, n)


def exact_posterior_rtbs_success(
    mu: Sequence[Fraction],
    em: Sequence[Fraction],
    ep: Sequence[Fraction],
    f: Fraction,
    m: int,
    n: int,
) -> Fraction:
    """Exact success probability of width-m backtracking from scale n, with
    attempt-indexed rates at on-track nodes.

    Computed by direct recursion on the search semantics (every node,
    the root included, holds m attempts), not via the per-scale advance
    probabilities, so it is structurally independent of the package's
    product form.  For each scale it tracks the chance a fresh node's
    subtree terminates correctly (S), terminates with a wrong accepted
    answer (T), and, for derailed nodes, terminates at all (W); anything
    else pops back to the parent.  A node with k attempts left spends its
    attempt m - k + 1, at the rates of entry min(m - k, L - 1) of the L
    entries; derailed nodes reject at the one rate f.
    """
    rates = [frac_rates(*entry) for entry in zip(mu, em, ep)]
    memo: dict[int, tuple[Fraction, Fraction, Fraction]] = {}

    def node(t: int) -> tuple[Fraction, Fraction, Fraction]:
        if t == 0:
            return (Fraction(1), Fraction(0), Fraction(1))
        if t in memo:
            return memo[t]
        s_child, t_child, w_child = node(t - 1)
        dead_child = 1 - s_child - t_child
        s = t_ = w = Fraction(0)
        for left in range(1, m + 1):
            alpha, beta, gamma = rates[min(m - left, len(rates) - 1)]
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


def sudoku_detailed_labels_reference(
    old: Sequence[int], new: Sequence[int], fills: Sequence[tuple[int, int, int]]
) -> tuple[bool, ...]:
    """One label per fill, row-major: the fill targets a blank of the old
    board, the new board holds its value, and no other cell of any of the
    27 units that contain it holds that value in the new board."""
    units = [[9 * r + c for c in range(9)] for r in range(9)]
    units += [[9 * r + c for r in range(9)] for c in range(9)]
    units += [
        [9 * (br + i) + bc + j for i in range(3) for j in range(3)]
        for br in range(0, 9, 3)
        for bc in range(0, 9, 3)
    ]
    labels = []
    for row, col, value in sorted(fills):
        idx = 9 * row + col
        clash = any(new[j] == value for unit in units if idx in unit for j in unit if j != idx)
        labels.append(old[idx] == 0 and new[idx] == value and not clash)
    return tuple(labels)


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


def sudoku_expert_step_reference(board: SudokuBoard, rng) -> Step:
    """The expert step as it was before boards kept its decision: every call
    runs the sweeps on the board's cells and builds plain boards."""
    if board.full:
        return Step(content=board, is_answer=True)
    units = _masks(board.cells)
    if units is None:
        idx = board.cells.index(0)
        raise DeadEndError(*divmod(idx, 9))
    rows, cols, boxes = _unit_lists(units)
    cells = list(board.cells)
    blanks = [(idx, *_UNITS[idx]) for idx, v in enumerate(cells) if v == 0]
    fills: list[tuple[int, int, int]] = []
    fewest = 10
    ties: list[tuple[int, tuple[int, ...]]] = []
    while True:
        filled_one = False
        for idx, r, c, b in blanks:
            if cells[idx]:
                continue
            values = _CANDIDATES[_ALL_MASK & ~(rows[r] | cols[c] | boxes[b])]
            if not values:
                raise DeadEndError(r, c)
            if len(values) == 1:
                v = values[0]
                cells[idx] = v
                rows[r] |= 1 << v
                cols[c] |= 1 << v
                boxes[b] |= 1 << v
                fills.append((r, c, v))
                filled_one = True
            elif not fills and len(values) <= fewest:
                if len(values) < fewest:
                    fewest, ties = len(values), []
                ties.append((idx, values))
        if not filled_one:
            break
    if fills:
        return Step(content=SudokuMove(tuple(fills), False, SudokuBoard(tuple(cells))))
    pick, values = ties[int(rng.integers(len(ties)))]
    r, c, _ = _UNITS[pick]
    v = values[int(rng.integers(len(values)))]
    cells[pick] = v
    return Step(content=SudokuMove(((r, c, v),), True, SudokuBoard(tuple(cells))))


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
    stats = EngineStats(
        passes, compactions, row_passes, pops, int(passes == budget and exhausted > 0)
    )
    return (successes, len_sum, exhausted, done, stats)

