"""Backward-Euler transient analysis with Newton iteration.

The solver targets the circuit class produced by :mod:`repro.spice.circuit`:
small (tens to a few hundred nodes), tree-structured RC networks with a
handful of MOSFETs. Dense linear algebra is therefore the right tool — the
per-step Jacobian solve is microseconds — and the implementation stays
simple enough to audit.

Numerical scheme:

- nodal analysis over *unknown* nodes (ground, Vdd and waveform-driven
  nodes are eliminated as known voltages);
- backward Euler: ``C (v_k - v_{k-1})/h + G v_k + i_nl(v_k) = inj_k``;
- Newton with per-update damping; the linear part ``A0 = G + C/h`` and the
  known-node injection schedule are precomputed for the whole run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.spice.circuit import Circuit, GROUND
from repro.spice.mosfet import mosfet_current
from repro.timing.waveform import Waveform

#: Diagonal leak added for the DC operating-point solve only, so nodes with
#: purely capacitive DC paths do not make the conductance matrix singular.
DC_GLEAK = 1e-12


class ConvergenceError(RuntimeError):
    """Newton iteration failed to converge."""


@dataclass
class TransientOptions:
    """Knobs for :func:`simulate`."""

    dt: float = 1.0e-12  # timestep (s)
    t_start: float = 0.0  # absolute start time (global timebase)
    t_stop: float | None = None  # absolute end time; derived from sources if None
    max_newton: int = 60
    vtol: float = 1.0e-6  # Newton convergence: max |dv| (V)
    damping_v: float = 0.3  # max |dv| applied per Newton update (V)
    auto_stop: bool = True  # stop early once the circuit settles
    settle_dv: float = 1.0e-5  # "settled" means max step-to-step dv below this
    settle_steps: int = 8  # ... for this many consecutive steps
    tail_time: float = 30.0e-12  # minimum sim time past the last input sample


@dataclass
class TransientResult:
    """Sampled node voltages over time."""

    times: np.ndarray
    node_index: dict[str, int]
    voltages: np.ndarray  # shape (n_steps, n_nodes), ground excluded

    def waveform(self, node: str) -> Waveform:
        """Waveform at ``node`` (ground returns an all-zero waveform)."""
        if node == GROUND:
            return Waveform(self.times, np.zeros_like(self.times))
        try:
            col = self.node_index[node]
        except KeyError:
            raise KeyError(f"no such node {node!r}") from None
        return Waveform(self.times, self.voltages[:, col])

    @property
    def nodes(self) -> list[str]:
        return sorted(self.node_index)

    def final_voltage(self, node: str) -> float:
        return float(self.voltages[-1, self.node_index[node]])


@dataclass
class _System:
    """Precompiled matrices and index maps for one circuit."""

    names: list[str]  # all non-ground nodes
    index: dict[str, int]  # name -> column in the full voltage vector
    unknown: list[int]  # indices (into names) of unknown nodes
    known: list[int]
    g_uu: np.ndarray  # conductance among unknowns
    g_uk: np.ndarray  # conductance unknowns x knowns
    c_diag: np.ndarray  # grounded capacitance at unknowns
    mosfets: list  # Mosfet elements
    unknown_pos: dict[int, int] = field(default_factory=dict)


def _compile(circuit: Circuit) -> _System:
    names = circuit.all_nodes()
    index = {name: i for i, name in enumerate(names)}
    source_map = circuit.source_nodes()
    known = [index[n] for n in names if n in source_map]
    unknown = [index[n] for n in names if n not in source_map]
    if not unknown:
        raise ValueError("circuit has no unknown nodes to solve for")
    upos = {node: i for i, node in enumerate(unknown)}
    kpos = {node: i for i, node in enumerate(known)}
    n_u, n_k = len(unknown), len(known)
    g_uu = np.zeros((n_u, n_u))
    g_uk = np.zeros((n_u, n_k))
    c_diag = np.zeros(n_u)

    def stamp_g(i: int, j: int, g: float) -> None:
        """Conductance g between full-indices i, j (j may be -1 = ground)."""
        if i in upos:
            g_uu[upos[i], upos[i]] += g
            if j >= 0:
                if j in upos:
                    g_uu[upos[i], upos[j]] -= g
                else:
                    g_uk[upos[i], kpos[j]] -= g

    for r in circuit.resistors:
        i = index[r.n1] if r.n1 != GROUND else -1
        j = index[r.n2] if r.n2 != GROUND else -1
        g = 1.0 / r.r
        stamp_g(i, j, g)
        stamp_g(j, i, g)
    for c in circuit.caps:
        if c.node == GROUND:
            continue
        i = index[c.node]
        if i in upos:
            c_diag[upos[i]] += c.c
    sys = _System(
        names, index, unknown, known, g_uu, g_uk, c_diag, circuit.mosfets
    )
    sys.unknown_pos = upos
    return sys


def _known_voltages(circuit: Circuit, sys: _System, times: np.ndarray) -> np.ndarray:
    """Voltage schedule of the known nodes, shape (n_known, n_steps)."""
    source_map = circuit.source_nodes()
    vk = np.zeros((len(sys.known), times.size))
    for pos, node_idx in enumerate(sys.known):
        value = source_map[sys.names[node_idx]]
        if isinstance(value, Waveform):
            vk[pos, :] = np.interp(times, value.times, value.values)
        else:
            vk[pos, :] = value
    return vk


def _mosfet_terminals(sys: _System, m) -> tuple[int, int, int]:
    """Full indices of (gate, drain, source); ground maps to -1."""

    def idx(name: str) -> int:
        return -1 if name == GROUND else sys.index[name]

    return idx(m.gate), idx(m.drain), idx(m.source)


def _newton_solve(
    sys: _System,
    a0: np.ndarray,
    rhs: np.ndarray,
    v_full: np.ndarray,
    opts: TransientOptions,
    mos_terms: list[tuple[int, int, int]],
    a0_lu=None,
) -> np.ndarray:
    """Solve ``a0 v_u + i_nl(v) = rhs`` for the unknown sub-vector.

    ``v_full`` holds the current voltage estimate for every node (knowns
    already set for this timestep); it is updated in place and returned.
    Without MOSFETs the Jacobian is ``a0`` itself, so no copy is stamped
    and a prefactored ``a0_lu`` (scipy LU) can be reused across every
    timestep of a run.
    """
    if a0_lu is not None:
        from scipy.linalg import lu_solve
    upos = sys.unknown_pos
    u_idx = np.array(sys.unknown, dtype=int)
    max_dv = float("inf")
    damping = opts.damping_v
    dv_prev = None
    for iteration in range(opts.max_newton):
        v_u = v_full[u_idx]
        f = a0 @ v_u - rhs
        if mos_terms:
            jac = a0.copy()
            for m, (g, d, s) in zip(sys.mosfets, mos_terms):
                vg = v_full[g] if g >= 0 else 0.0
                vd = v_full[d] if d >= 0 else 0.0
                vs = v_full[s] if s >= 0 else 0.0
                i, di_dvg, di_dvd, di_dvs = mosfet_current(vg, vd, vs, m.params)
                if d in upos:
                    row = upos[d]
                    f[row] += i
                    for term, dterm in ((g, di_dvg), (d, di_dvd), (s, di_dvs)):
                        if term in upos:
                            jac[row, upos[term]] += dterm
                if s in upos:
                    row = upos[s]
                    f[row] -= i
                    for term, dterm in ((g, di_dvg), (d, di_dvd), (s, di_dvs)):
                        if term in upos:
                            jac[row, upos[term]] -= dterm
            dv = np.linalg.solve(jac, -f)
        elif a0_lu is not None:
            dv = lu_solve(a0_lu, -f)
        else:
            dv = np.linalg.solve(a0, -f)
        max_dv = float(np.max(np.abs(dv)))
        # Oscillation control: when consecutive updates reverse direction
        # (limit cycling across model-region boundaries), shrink the
        # allowed step so the iteration contracts.
        if dv_prev is not None and float(dv @ dv_prev) < 0.0:
            damping = max(damping * 0.5, 1e-4)
        if max_dv > damping:
            dv = dv * (damping / max_dv)
        dv_prev = dv
        v_full[u_idx] = v_u + dv
        if max_dv < opts.vtol:
            return v_full
        # Micro-volt limit cycles (piecewise model-region boundaries) are
        # physically irrelevant for ps-scale timing: accept after enough
        # iterations once the update is within 100x of the tolerance.
        if iteration > opts.max_newton // 2 and max_dv < 100.0 * opts.vtol:
            return v_full
    # Last resort: a sub-millivolt residual update changes threshold
    # crossings by well under 0.1 ps; accept rather than abort the run.
    if max_dv < 1.0e-3:
        return v_full
    raise ConvergenceError(
        f"Newton failed after {opts.max_newton} iterations (max dv = {max_dv:.3g} V)"
    )


def dc_operating_point(circuit: Circuit, at_time: float = 0.0) -> dict[str, float]:
    """DC solution with sources held at their ``at_time`` values."""
    sys = _compile(circuit)
    opts = TransientOptions()
    times = np.array([at_time, at_time + 1.0])
    vk = _known_voltages(circuit, sys, times)[:, 0]
    n_u = len(sys.unknown)
    a0 = sys.g_uu + DC_GLEAK * np.eye(n_u)
    rhs = -sys.g_uk @ vk
    v_full = _logic_guess(circuit, sys, vk)
    mos_terms = [_mosfet_terminals(sys, m) for m in circuit.mosfets]
    try:
        v_full = _newton_solve(sys, a0, rhs, v_full, opts, mos_terms)
    except ConvergenceError:
        # Fall back to pseudo-transient continuation: big capacitive steps.
        v_full = _pseudo_transient_dc(sys, a0, rhs, v_full, opts, mos_terms)
    return {name: float(v_full[sys.index[name]]) for name in sys.names}


def _pseudo_transient_dc(sys, a0, rhs, v_full, opts, mos_terms):
    """Relax toward DC by damped fixed-capacitance pseudo-timestepping."""
    n_u = len(sys.unknown)
    u_idx = np.array(sys.unknown, dtype=int)
    c_pseudo = np.full(n_u, 1e-12)
    for h in (1e-9, 1e-8, 1e-7):
        a_step = a0 + np.diag(c_pseudo / h)
        for _ in range(40):
            rhs_step = rhs + (c_pseudo / h) * v_full[u_idx]
            v_full = _newton_solve(sys, a_step, rhs_step, v_full, opts, mos_terms)
    return v_full


def _logic_guess(circuit: Circuit, sys: _System, vk: np.ndarray) -> np.ndarray:
    """Initial DC guess by propagating logic levels through inverters.

    Resistively connected nodes share a level; each MOSFET pair's output
    takes the inverse of its gate's level. Iterated to a fixed point (stage
    circuits are acyclic, so a few passes suffice).
    """
    vdd = circuit.tech.vdd
    n_all = len(sys.names)
    v_full = np.zeros(n_all)
    level: list[float | None] = [None] * n_all
    for pos, node_idx in enumerate(sys.known):
        level[node_idx] = float(vk[pos])
        v_full[node_idx] = vk[pos]

    # Union resistively connected nodes.
    parent = list(range(n_all))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for r in circuit.resistors:
        if r.n1 == GROUND or r.n2 == GROUND:
            continue
        a, b = find(sys.index[r.n1]), find(sys.index[r.n2])
        if a != b:
            parent[a] = b

    groups: dict[int, list[int]] = {}
    for i in range(n_all):
        groups.setdefault(find(i), []).append(i)

    def group_level(i: int) -> float | None:
        for j in groups[find(i)]:
            if level[j] is not None:
                return level[j]
        return None

    def set_group_level(i: int, val: float) -> None:
        for j in groups[find(i)]:
            if level[j] is None:
                level[j] = val

    for _ in range(len(circuit.mosfets) + 2):
        changed = False
        for m in circuit.mosfets:
            if m.gate == GROUND:
                gate_level = 0.0
            else:
                gate_level = group_level(sys.index[m.gate])
            if gate_level is None or m.drain == GROUND:
                continue
            drain_idx = sys.index[m.drain]
            if group_level(drain_idx) is None:
                out = 0.0 if gate_level > vdd / 2.0 else vdd
                set_group_level(drain_idx, out)
                changed = True
        if not changed:
            break
    for i in range(n_all):
        lvl = group_level(i)
        v_full[i] = lvl if lvl is not None else 0.0
    for pos, node_idx in enumerate(sys.known):
        v_full[node_idx] = vk[pos]
    return v_full


def _input_end_time(circuit: Circuit, opts: TransientOptions) -> float:
    """Last sample time over all waveform sources."""
    t_last = opts.t_start
    for s in circuit.sources:
        if isinstance(s.value, Waveform):
            t_last = max(t_last, float(s.value.times[-1]))
    if t_last == opts.t_start:
        t_last = opts.t_start + 100 * opts.dt
    return t_last


def _prefactor(a0: np.ndarray):
    """scipy's LU factorization of ``a0``, or ``None`` to solve densely.

    A zero pivot means ``a0`` is singular; ``None`` then makes every
    solve fall back to ``np.linalg.solve`` so the run still fails loudly
    (``lu_solve`` would return inf instead of raising). scipy is imported
    here rather than at module level, so importing the package, and
    synthesis, which never simulates, do not load it.
    """
    try:
        from scipy.linalg import lu_factor
    except ImportError:  # pragma: no cover - exercised only without scipy
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu = lu_factor(a0)
    return None if np.any(np.diag(lu[0]) == 0.0) else lu


def simulate(
    circuit: Circuit,
    options: TransientOptions | None = None,
) -> TransientResult:
    """Run a backward-Euler transient from the DC operating point."""
    opts = options or TransientOptions()
    sys = _compile(circuit)
    t_input_end = _input_end_time(circuit, opts)
    t_stop = opts.t_stop if opts.t_stop is not None else t_input_end + opts.tail_time
    n_steps = max(2, int(round((t_stop - opts.t_start) / opts.dt)) + 1)
    times = opts.t_start + np.arange(n_steps) * opts.dt

    vk_all = _known_voltages(circuit, sys, times)
    u_idx = np.array(sys.unknown, dtype=int)
    k_idx = np.array(sys.known, dtype=int)
    n_u = len(sys.unknown)
    mos_terms = [_mosfet_terminals(sys, m) for m in circuit.mosfets]

    # DC operating point at t = 0.
    a_dc = sys.g_uu + DC_GLEAK * np.eye(n_u)
    rhs_dc = -sys.g_uk @ vk_all[:, 0]
    v_full = _logic_guess(circuit, sys, vk_all[:, 0])
    try:
        v_full = _newton_solve(sys, a_dc, rhs_dc, v_full, TransientOptions(max_newton=100), mos_terms)
    except ConvergenceError:
        v_full = _pseudo_transient_dc(sys, a_dc, rhs_dc, v_full, opts, mos_terms)

    c_over_h = sys.c_diag / opts.dt
    a0 = sys.g_uu + np.diag(c_over_h)
    # Linear circuits (no MOSFETs) reuse one LU factorization of a0 for
    # every Newton solve of every timestep.
    a0_lu = None if mos_terms else _prefactor(a0)
    # Injection from known nodes, precomputed for every step.
    inj_known = -sys.g_uk @ vk_all  # (n_u, n_steps)

    voltages = np.empty((n_steps, len(sys.names)))
    voltages[0, :] = v_full
    settled = 0
    last_step = n_steps - 1
    for k in range(1, n_steps):
        v_prev_u = v_full[u_idx].copy()
        v_full[k_idx] = vk_all[:, k]
        rhs = inj_known[:, k] + c_over_h * v_prev_u
        v_full = _newton_solve(sys, a0, rhs, v_full, opts, mos_terms, a0_lu=a0_lu)
        voltages[k, :] = v_full
        if opts.auto_stop:
            step_dv = float(np.max(np.abs(v_full[u_idx] - v_prev_u)))
            input_active = times[k] < t_input_end
            settled = 0 if (step_dv > opts.settle_dv or input_active) else settled + 1
            if settled >= opts.settle_steps:
                last_step = k
                break

    index = {name: i for i, name in enumerate(sys.names)}
    return TransientResult(
        times[: last_step + 1], index, voltages[: last_step + 1, :]
    )
