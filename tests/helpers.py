"""Closed-form oracles and reference computations shared by the test modules."""

import numpy as np

from dirac1d import GAMMA0, GAMMA1
from dirac1d.lorentz import GAMMA5, local_blocks
from dirac1d.solver import _step_polynomial


def dispersion_multiset(n: int, h: float, m: float, wilson_r: float) -> np.ndarray:
    """All 2n eigenvalues of the free periodic operator, sorted ascending.

    Plane waves exp(i k x) with k h = 2 pi j / n diagonalize the stencil:
    the central difference contributes sin(kh)/h, the Wilson term shifts the
    mass to m_eff = m + (2 r / h) sin^2(kh/2), and the 2x2 symbol has
    eigenvalues +-sqrt(m_eff^2 + (sin(kh)/h)^2).
    """
    kh = 2.0 * np.pi * np.arange(n) / n
    m_eff = m + (2.0 * wilson_r / h) * np.sin(0.5 * kh) ** 2
    e = np.sqrt(m_eff ** 2 + (np.sin(kh) / h) ** 2)
    return np.sort(np.concatenate([e, -e]))


def lowest_by_abs(values: np.ndarray, count: int) -> np.ndarray:
    """The count entries that a (|E|, E)-ordered solver keeps."""
    order = np.lexsort((values, np.abs(values)))
    return values[order][:count]


def canonical_sorted(values: np.ndarray, tol: float) -> np.ndarray:
    """values in the report order of the matrix solver, by a plain loop.

    Levels with |Im E| <= tol * max(1, |Re E|) first get Im E = 0.  Then
    sort by |Re E| and split into tie classes wherever the next |Re E| is
    more than tol * max(1, |Re E|) above the previous one; inside a class
    -E comes before +E, then Im E ascends, then Re E.
    """
    snapped = [complex(e.real, 0.0) if abs(e.imag) <= tol * max(1.0, abs(e.real))
               else complex(e) for e in values]
    by_mag = sorted(snapped, key=lambda e: abs(e.real))
    classes = [[by_mag[0]]]
    for prev, e in zip(by_mag, by_mag[1:]):
        if abs(e.real) - abs(prev.real) <= tol * max(1.0, abs(e.real)):
            classes[-1].append(e)
        else:
            classes.append([e])
    return np.array([e for cls in classes
                     for e in sorted(cls, key=lambda e: (np.sign(e.real), e.imag, e.real))])


def symbol_eigenvector(kh: float, h: float, m: float, wilson_r: float,
                       branch: int) -> tuple[float, np.ndarray]:
    """Energy and spinor amplitude of one plane-wave mode.

    The 2x2 symbol in the (phi_plus, phi_minus) basis is
    [[s, c], [c, -s]] with s = sin(kh)/h and c = m_eff; branch +1/-1 picks
    the positive/negative energy eigenvector.
    """
    s = np.sin(kh) / h
    c = m + (2.0 * wilson_r / h) * np.sin(0.5 * kh) ** 2
    e = branch * np.hypot(s, c)
    # eigenvector of [[s, c], [c, -s]] for eigenvalue e
    if abs(c) > 1e-300:
        vec = np.array([c, e - s], dtype=complex)
    else:
        vec = np.array([1.0, 0.0], dtype=complex) if branch > 0 else \
            np.array([0.0, 1.0], dtype=complex)
    return float(e), vec / np.linalg.norm(vec)


def reference_balance_terms(result, k: int, k_prime: int,
                            window: tuple[int, int] | None = None
                            ) -> tuple[complex, complex, complex]:
    """(term_energy, term_boundary, term_potential) of one pair, by itself.

    A plain per-pair restatement of the balance identity, kept apart from
    the library's all-pairs matrix form so the two can be checked against
    each other: (E_k - conj(E_k')) times the gamma0 overlap, the discrete
    flux of the assembled stencil at the two window edges, and the
    quadrature of the anti-Hermitian potential bilinear.
    """
    grid = result.grid
    n = grid.n_points
    col, col_prime = result.states[k], result.states[k_prime]
    row = np.conj(col_prime) @ GAMMA0
    if window is None:
        lo, hi = 0, n - 1
        weights = grid.quadrature_weights
    else:
        lo, hi = window
        weights = np.full(n, grid.h)
    nodes = range(lo, hi + 1)

    # gamma0 gamma0 = 1: phibar_k' gamma0 phi_k is the plain component overlap
    overlap = sum(weights[j] * np.vdot(col_prime[j], col[j]) for j in nodes)
    term_energy = (result.energies[k] - np.conj(result.energies[k_prime])) * overlap

    anti = result.operator.potential.anti_hermitian
    term_potential = sum(weights[j] * (row[j] @ anti[j] @ col[j]) for j in nodes)

    wilson = result.operator.wilson_r
    term_boundary = 0.0j
    for sign, a in ((1.0, hi), (-1.0, lo - 1)):
        b = a + 1
        if grid.boundary == "periodic":
            a, b = a % n, b % n
        elif a < 0 or b >= n:
            continue  # the states vanish past a hard wall
        p_sym = row[a] @ GAMMA1 @ col[b] + row[b] @ GAMMA1 @ col[a]
        a_anti = row[a] @ col[b] - row[b] @ col[a]
        term_boundary += sign * (0.5j * p_sym + 0.5 * wilson * a_anti)
    return complex(term_energy), complex(term_boundary), complex(term_potential)


def reference_operator(grid, pot, mass, wilson_r: float) -> tuple[np.ndarray, float]:
    """The dense operator and its max |H - H^dagger|, by Kronecker products.

    The assembly the index-assignment builder replaced, kept apart from it
    so the two can be checked against each other bit for bit:
    kron(sigma_z, -i D) + kron(sigma_x, Wilson term) from np.eye shifts,
    plus the local blocks of the active nodes added in place, and the
    Hermiticity defect formed on the whole matrix.
    """
    periodic = grid.boundary == "periodic"
    k = grid.n_points if periodic else grid.n_points - 2
    up = np.eye(k, k=1)
    if periodic:
        up[-1, 0] = 1.0
    down = up.T
    d = (up - down) / (2.0 * grid.h)
    t = up + down - 2.0 * np.eye(k)
    act = slice(None) if periodic else slice(1, -1)
    h = (np.kron(GAMMA5, -1.0j * d)
         + np.kron(GAMMA0, -(wilson_r / (2.0 * grid.h)) * t))
    node = np.arange(k)
    h.reshape(2, k, 2, k)[:, node, :, node] += local_blocks(pot, mass)[act]
    return h, float(np.max(np.abs(h - h.conj().T)))


SPECTRUM_COLUMNS = ("index", "energy_re", "energy_im", "residual",
                    "classification", "tail_amplitude", "continuity_max")


def reference_spectrum_columns(result) -> dict[str, np.ndarray]:
    """The diagnose spectrum table of a normalized result, one state at a time.

    The per-state loop the column form replaced, kept apart from it so the
    two can be checked against each other bit for bit: j0 of each state, the
    lattice current on each edge from the state and its neighbours shifted
    by concatenation, its divergence over the quadrature weights, the
    anti-Hermitian bilinear as the adjoint row times the matrix-vector
    product at each node, the continuity maximum by np.abs over the state's
    residual, and tail_amplitude from abs(complex) at the two nodes next to
    the walls (0 on periodic grids).
    """
    grid = result.grid
    wilson_r = result.operator.wilson_r
    anti = result.operator.potential.anti_hermitian
    near_wall = (1, grid.n_points - 2) if grid.boundary == "dirichlet" else ()
    rows = []
    for i, (energy, col) in enumerate(zip(result.energies.tolist(), result.states)):
        d = col.real ** 2 + col.imag ** 2
        bar, up = np.conj(col), np.concatenate((col[1:], col[:1]))
        flux = ((bar[:, 0] * up[:, 0] - bar[:, 1] * up[:, 1]).real
                + wilson_r * (bar[:, 0] * up[:, 1] + bar[:, 1] * up[:, 0]).imag)
        div = (flux - np.concatenate((flux[-1:], flux[:-1]))) / grid.quadrature_weights
        bilinear = np.sum((bar @ GAMMA0) * (anti @ col[:, :, None])[:, :, 0], axis=1)
        r = 2.0 * energy.imag * (d[:, 0] + d[:, 1]) + div + 1.0j * bilinear
        tail = max((abs(col[j, 0]) + abs(col[j, 1]) for j in near_wall), default=0.0)
        rows.append((i, energy.real, energy.imag, float(result.residuals[i]),
                     result.classification[i], tail, float(np.max(np.abs(r)))))
    return {key: np.array(column)
            for key, column in zip(SPECTRUM_COLUMNS, zip(*rows))}


def reference_rhs(y: np.ndarray, energy: complex, block) -> np.ndarray:
    """The shooting system phi' = F(x) phi at one stage abscissa.

    block is the local 2x2 block there,
    [[V_t+V_sp, M+V_s+iV_p], [M+V_s-iV_p, V_t-V_sp]], as one stage of the
    solver's coefficient table; the two equations are written out by hand.
    """
    (h_pp, h_pm), (h_mp, h_mm) = block
    dp = 1.0j * (energy - h_pp) * y[0] - 1.0j * h_pm * y[1]
    dm = -1.0j * (energy - h_mm) * y[1] + 1.0j * h_mp * y[0]
    return np.array([dp, dm])


def reference_rk4_substep(y: np.ndarray, energy: complex, dx: float,
                          stages) -> np.ndarray:
    """One classical RK4 substep on vectors; stages = (start, middle, end) blocks."""
    start, middle, end = stages
    k1 = reference_rhs(y, energy, start)
    k2 = reference_rhs(y + 0.5 * dx * k1, energy, middle)
    k3 = reference_rhs(y + 0.5 * dx * k2, energy, middle)
    k4 = reference_rhs(y + dx * k3, energy, end)
    return y + (dx / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_rk4_segment(xs: np.ndarray, y0: np.ndarray, energy: complex,
                          table: np.ndarray) -> np.ndarray:
    """The state at every node of xs, one RK4 substep at a time.

    The per-substep vector loop the step-matrix shooter replaced, kept apart
    from it so the two can be checked against each other.  table is the
    solver's coefficient table for xs; there is no overflow rescaling, so
    use it only where the amplitudes stay finite.
    """
    substeps = table.shape[1]
    out = np.empty((len(xs), 2), dtype=complex)
    y = np.asarray(y0, dtype=complex)
    out[0] = y
    for i in range(len(xs) - 1):
        dx = (xs[i + 1] - xs[i]) / substeps
        for stages in table[i].tolist():
            y = reference_rk4_substep(y, energy, dx, stages)
        out[i + 1] = y
    return out


def reference_coefficient_table(xs: np.ndarray, spline, substeps: int) -> tuple:
    """The RK4 stage table of one segment, one spline call per stage.

    The per-segment table the stacked build replaced, kept apart from it so
    the two can be checked against each other bit for bit: three
    (2, 2, (len(xs) - 1) * substeps) stacks, the local block at the start,
    middle and end of every substep, substep j of interval i at
    i * substeps + j.
    """
    x = xs[:-1, None]
    dx = (xs[1:, None] - x) / substeps
    xa = x + np.arange(substeps) * dx
    dx = np.broadcast_to(dx, xa.shape)
    return tuple(np.ascontiguousarray(spline(xq.ravel()).transpose(1, 2, 0))
                 for xq in (xa, xa + 0.5 * dx, xa + dx))


def reference_segment_polynomials(segments, spline, substeps: int) -> tuple:
    """The shooter's five (2, 2, S, W) step-quartic stacks, segment by segment.

    The build the stacked one replaced, kept apart from it so the two can be
    checked against each other bit for bit: one table and one quartic per
    segment, copied into zeroed stacks whose padding past a shorter
    segment's end is filled with identity steps (C0 = I, C1..C4 = 0).
    """
    quartics = [_step_polynomial(reference_coefficient_table(xs, spline, substeps),
                                 np.repeat(np.diff(xs) / substeps, substeps))
                for xs in segments]
    width = max(q[0].shape[-1] for q in quartics)
    poly = tuple(np.zeros((2, 2, len(segments), width), dtype=complex) for _ in range(5))
    poly[0][...] = np.identity(2).reshape(2, 2, 1, 1)
    for s, quartic in enumerate(quartics):
        for dst, c in zip(poly, quartic):
            dst[:, :, s, : c.shape[-1]] = c
    return poly


def reference_node_pass(steps: np.ndarray, substeps: int, y0: np.ndarray) -> np.ndarray:
    """The state at every node of one segment, one node at a time.

    The sequential node pass the prefix scan replaced, kept apart from it so
    the two can be checked against each other.  steps is the segment's
    (2, 2, K) stack of RK4 substep matrices; each interval's substeps are
    multiplied into one node matrix, then applied in turn to Python complex
    scalars.  The whole trajectory is divided by the running amplitude
    whenever that passes 1e150, so earlier values may flush to zero.
    """
    by_node = steps.reshape(2, 2, -1, substeps)
    nodes = by_node[..., 0]
    for j in range(1, substeps):
        nodes = np.einsum("ijn,jkn->ikn", by_node[..., j], nodes)
    out = np.empty((nodes.shape[-1] + 1, 2), dtype=complex)
    p, m = (complex(v) for v in y0)
    out[0] = p, m
    for i, ((a, b), (c, d)) in enumerate(np.moveaxis(nodes, -1, 0).tolist()):
        p, m = a * p + b * m, c * p + d * m
        big = max(abs(p), abs(m))
        if big > 1e150:
            p, m = p / big, m / big
            out[: i + 1] /= big
        out[i + 1] = p, m
    return out
