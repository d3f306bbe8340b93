//! Qubit layout and routing.
//!
//! Maps logical circuit qubits onto physical device qubits and inserts SWAP
//! gates when a two-qubit gate addresses a pair that is not directly
//! coupled. Two layout strategies are provided:
//!
//! * **Trivial** — logical `i` on physical `i` (Qiskit levels 0–2).
//! * **Noise-adaptive** — choose the connected window and assignment that
//!   minimize the error-weighted gate cost of the circuit (Qiskit level 3,
//!   the setting of the paper's Table 7).

use qnat_noise::device::DeviceModel;
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;
use std::collections::VecDeque;

/// A logical→physical qubit assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// `physical[q]` is the physical qubit holding logical `q`.
    pub physical: Vec<usize>,
}

impl Layout {
    /// The trivial layout over `n` logical qubits.
    pub fn trivial(n: usize) -> Layout {
        Layout {
            physical: (0..n).collect(),
        }
    }
}

/// All-pairs shortest-path distances over the device coupling graph (BFS).
pub fn distances(model: &DeviceModel) -> Vec<Vec<usize>> {
    let n = model.n_qubits();
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in model.coupling() {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut dist = vec![vec![usize::MAX; n]; n];
    for s in 0..n {
        dist[s][s] = 0;
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if dist[s][v] == usize::MAX {
                    dist[s][v] = dist[s][u] + 1;
                    queue.push_back(v);
                }
            }
        }
    }
    dist
}

/// Error-weighted cost of running `circuit` under a candidate layout:
/// single-qubit gates cost their physical qubit's error, two-qubit gates
/// cost the edge error (or, if the pair is distant, a SWAP-inflated estimate
/// of `(3·(d−1)+1)` CX equivalents), and each qubit pays its readout error
/// once.
pub fn layout_cost(
    circuit: &Circuit,
    model: &DeviceModel,
    layout: &Layout,
    dist: &[Vec<usize>],
) -> f64 {
    let mut cost = 0.0;
    for g in circuit.gates() {
        if g.arity() == 1 {
            if !DeviceModel::is_virtual(g.kind) {
                cost += model
                    .single_qubit_error(layout.physical[g.qubits[0]])
                    .total();
            }
        } else {
            let (pa, pb) = (layout.physical[g.qubits[0]], layout.physical[g.qubits[1]]);
            let d = dist[pa][pb];
            if d == usize::MAX {
                return f64::INFINITY;
            }
            let cx_count = if d <= 1 { 1 } else { 3 * (d - 1) + 1 };
            // Approximate per-CX error by twice the edge spec (both qubits).
            let edge = 2.0 * model.two_qubit_error(pa, pb).total();
            cost += cx_count as f64 * edge.max(1e-12);
        }
    }
    for &p in &layout.physical {
        let m = model.readout_error(p);
        cost += (m.matrix()[0][1] + m.matrix()[1][0]) / 2.0;
    }
    cost
}

fn injective_maps(n_logical: usize, n_physical: usize) -> Vec<Vec<usize>> {
    // Enumerate all injective maps for small devices.
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(n_logical);
    let mut used = vec![false; n_physical];
    fn rec(
        n_logical: usize,
        n_physical: usize,
        current: &mut Vec<usize>,
        used: &mut Vec<bool>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == n_logical {
            out.push(current.clone());
            return;
        }
        for p in 0..n_physical {
            if !used[p] {
                used[p] = true;
                current.push(p);
                rec(n_logical, n_physical, current, used, out);
                current.pop();
                used[p] = false;
            }
        }
    }
    rec(n_logical, n_physical, &mut current, &mut used, &mut out);
    out
}

/// Chooses a noise-adaptive layout minimizing [`layout_cost`]. Small devices
/// (≤ 7 physical qubits) are searched exhaustively; larger ones use a greedy
/// window (best-scoring connected region) with exhaustive assignment inside
/// when feasible.
pub fn noise_adaptive_layout(circuit: &Circuit, model: &DeviceModel) -> Layout {
    let n_log = circuit.n_qubits();
    let n_phys = model.n_qubits();
    assert!(n_log <= n_phys, "circuit larger than device");
    let dist = distances(model);

    if n_phys <= 7 {
        let mut best = Layout::trivial(n_log);
        let mut best_cost = layout_cost(circuit, model, &best, &dist);
        for cand in injective_maps(n_log, n_phys) {
            let layout = Layout { physical: cand };
            let c = layout_cost(circuit, model, &layout, &dist);
            if c < best_cost {
                best_cost = c;
                best = layout;
            }
        }
        return best;
    }

    // Greedy connected window on big devices.
    let qubit_score = |p: usize| -> f64 {
        let ro = model.readout_error(p);
        model.single_qubit_error(p).total() + (ro.matrix()[0][1] + ro.matrix()[1][0]) / 2.0
    };
    let mut adj = vec![Vec::new(); n_phys];
    for &(a, b) in model.coupling() {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut best_window: Option<Vec<usize>> = None;
    let mut best_window_score = f64::INFINITY;
    for start in 0..n_phys {
        let mut window = vec![start];
        while window.len() < n_log {
            let next = window
                .iter()
                .flat_map(|&w| adj[w].iter().copied())
                .filter(|p| !window.contains(p))
                .min_by(|&a, &b| qubit_score(a).total_cmp(&qubit_score(b)));
            match next {
                Some(p) => window.push(p),
                None => break,
            }
        }
        if window.len() == n_log {
            let score: f64 = window.iter().map(|&p| qubit_score(p)).sum();
            if score < best_window_score {
                best_window_score = score;
                best_window = Some(window);
            }
        }
    }
    // A device without a large-enough connected region degrades to the
    // trivial layout; routing then reports the unmappable pairs instead of
    // this pass panicking.
    let window = match best_window {
        Some(w) => w,
        None => return Layout::trivial(n_log),
    };
    // Assign the most two-qubit-active logical qubits to the best physical
    // qubits in the window.
    let mut activity = vec![0usize; n_log];
    for g in circuit.gates() {
        for k in 0..g.arity() {
            activity[g.qubits[k]] += if g.arity() == 2 { 3 } else { 1 };
        }
    }
    let mut logical_order: Vec<usize> = (0..n_log).collect();
    logical_order.sort_by_key(|&q| std::cmp::Reverse(activity[q]));
    let mut window_sorted = window;
    window_sorted.sort_by(|&a, &b| qubit_score(a).total_cmp(&qubit_score(b)));
    let mut physical = vec![0usize; n_log];
    for (rank, &q) in logical_order.iter().enumerate() {
        physical[q] = window_sorted[rank];
    }
    Layout { physical }
}

/// Routes a circuit under a layout: emits gates on physical qubits and
/// inserts SWAP chains for distant two-qubit gates. Returns the physical
/// circuit (over the full device register) and the *final* layout (SWAPs
/// permute which physical qubit holds each logical one).
pub fn route(circuit: &Circuit, model: &DeviceModel, layout: &Layout) -> (Circuit, Layout) {
    let n_phys = model.n_qubits();
    let dist = distances(model);
    let mut adj = vec![Vec::new(); n_phys];
    for &(a, b) in model.coupling() {
        adj[a].push(b);
        adj[b].push(a);
    }
    let no_coupling = model.coupling().is_empty();
    let mut phys_of = layout.physical.clone();
    let mut out = Circuit::new(n_phys);
    for g in circuit.gates() {
        match g.arity() {
            1 => {
                let mut pg = *g;
                pg.qubits[0] = phys_of[g.qubits[0]];
                out.push(pg);
            }
            _ => {
                let (la, lb) = (g.qubits[0], g.qubits[1]);
                if !no_coupling {
                    // Walk `la`'s physical qubit toward `lb`'s with SWAPs.
                    loop {
                        let (pa, pb) = (phys_of[la], phys_of[lb]);
                        // `<= 1` reaches coupled pairs; an unreachable pair
                        // (disconnected graph) would otherwise swap forever.
                        if dist[pa][pb] <= 1 || dist[pa][pb] == usize::MAX {
                            break;
                        }
                        // Move pa one step along a shortest path to pb. An
                        // isolated qubit has no step to take; emit the gate
                        // as-is and let backend validation flag the pair.
                        let next = match adj[pa].iter().min_by_key(|&&v| dist[v][pb]) {
                            Some(&v) => v,
                            None => break,
                        };
                        out.push(Gate::swap(pa, next));
                        // Whichever logical qubit lived on `next` moves to pa.
                        for p in phys_of.iter_mut() {
                            if *p == next {
                                *p = pa;
                            } else if *p == pa {
                                *p = next;
                            }
                        }
                    }
                }
                let mut pg = *g;
                pg.qubits[0] = phys_of[la];
                pg.qubits[1] = phys_of[lb];
                out.push(pg);
            }
        }
    }
    (out, Layout { physical: phys_of })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnat_noise::presets;
    use qnat_sim::statevector::simulate;

    #[test]
    fn trivial_layout_is_identity() {
        let l = Layout::trivial(4);
        assert_eq!(l.physical, vec![0, 1, 2, 3]);
    }

    #[test]
    fn distances_on_line() {
        let d = distances(&presets::santiago());
        assert_eq!(d[0][4], 4);
        assert_eq!(d[1][3], 2);
        assert_eq!(d[2][2], 0);
    }

    #[test]
    fn route_inserts_swaps_for_distant_pairs() {
        // CX(0, 3) on a line needs SWAPs.
        let mut c = Circuit::new(4);
        c.push(Gate::cx(0, 3));
        let model = presets::santiago();
        let (routed, final_layout) = route(&c, &model, &Layout::trivial(4));
        assert!(routed.len() > 1);
        // Every 2q gate in the routed circuit is on a coupled pair.
        for g in routed.gates().iter().filter(|g| g.arity() == 2) {
            assert!(
                model.are_coupled(g.qubits[0], g.qubits[1]),
                "{g} not coupled"
            );
        }
        // Layout changed.
        assert_ne!(final_layout.physical, vec![0, 1, 2, 3]);
    }

    #[test]
    fn routing_preserves_semantics_up_to_layout() {
        // Prepare a state, route, and compare logical expectations through
        // the final layout.
        let mut c = Circuit::new(4);
        c.push(Gate::ry(0, 0.7));
        c.push(Gate::ry(3, 1.1));
        c.push(Gate::cx(0, 3));
        c.push(Gate::ry(1, -0.4));
        c.push(Gate::cx(1, 2));
        let model = presets::santiago();
        let (routed, fl) = route(&c, &model, &Layout::trivial(4));
        let logical = simulate(&c);
        let mut physical = qnat_sim::StateVector::zero_state(5);
        physical.run(&routed);
        for q in 0..4 {
            assert!(
                (logical.expect_z(q) - physical.expect_z(fl.physical[q])).abs() < 1e-10,
                "logical qubit {q}"
            );
        }
    }

    #[test]
    fn adaptive_layout_beats_trivial_cost() {
        let mut c = Circuit::new(3);
        for _ in 0..5 {
            c.push(Gate::sx(0));
            c.push(Gate::sx(1));
            c.push(Gate::sx(2));
            c.push(Gate::cx(0, 1));
            c.push(Gate::cx(1, 2));
        }
        let model = presets::yorktown();
        let dist = distances(&model);
        let adaptive = noise_adaptive_layout(&c, &model);
        let c_triv = layout_cost(&c, &model, &Layout::trivial(3), &dist);
        let c_adap = layout_cost(&c, &model, &adaptive, &dist);
        assert!(c_adap <= c_triv, "adaptive {c_adap} vs trivial {c_triv}");
    }

    #[test]
    fn adaptive_layout_on_large_device_is_valid() {
        let mut c = Circuit::new(10);
        for q in 0..10 {
            c.push(Gate::sx(q));
        }
        for q in 0..9 {
            c.push(Gate::cx(q, q + 1));
        }
        let model = presets::melbourne();
        let layout = noise_adaptive_layout(&c, &model);
        let mut seen = layout.physical.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 10, "layout must be injective");
        assert!(layout.physical.iter().all(|&p| p < 15));
    }

    #[test]
    fn layout_cost_penalizes_distance() {
        let model = presets::santiago();
        let dist = distances(&model);
        let mut c = Circuit::new(2);
        c.push(Gate::cx(0, 1));
        let near = layout_cost(
            &c,
            &model,
            &Layout {
                physical: vec![0, 1],
            },
            &dist,
        );
        let far = layout_cost(
            &c,
            &model,
            &Layout {
                physical: vec![0, 4],
            },
            &dist,
        );
        assert!(far > near);
    }
}
