//! Kernel execution: sparse-times-dense pipelines per Table 1.

use crate::kernel::Kernel;
use grain_graph::{transition_matrix, CsrMatrix, Graph};
use grain_linalg::{ops, DenseMatrix};

/// Propagates `x` through `kernel` on graph `g`, building the kernel's
/// transition matrix internally (with self-loops, the GNN convention).
pub fn propagate(g: &Graph, kernel: Kernel, x: &DenseMatrix) -> DenseMatrix {
    let t = transition_matrix(g, kernel.transition_kind(), true);
    propagate_with(&t, kernel, x, 0, &|| false, None)
        .expect("propagation with a never-stopping probe cannot be cancelled")
}

/// Propagates `x` through `kernel` over a prebuilt transition matrix `t`,
/// running every SpMM round over `threads` workers (`0` = auto).
///
/// The per-round combination steps (`scale`/`axpy`) are sequential and
/// each SpMM output row is accumulated by exactly one worker, so `X^(k)`
/// is bit-identical at any thread count.
///
/// `should_stop` is a cooperative stop probe, polled **between SpMM power
/// steps** (the expensive unit of work). Returns `None` as soon as the
/// probe reports `true` — no partially combined `X^(k)` is ever returned,
/// so a cancelled propagation leaves nothing to cache.
///
/// `ladder`, when present, is cleared and then receives the **power
/// ladder**: a clone of the step state *after* each of steps `1..=k-1`
/// (the SpMM input of steps `2..=k`). For the iterative kernels that
/// state is `X^(l)` itself; for S2GC/GBP it is the power `T^l X` feeding
/// the accumulator. The ladder is what makes
/// [`repropagate_rows_laddered`] output-proportional; capturing it never
/// alters the arithmetic and costs `k-1` dense clones.
///
/// # Panics
/// Panics if `t` is not square of size `x.rows()`.
pub fn propagate_with(
    t: &CsrMatrix,
    kernel: Kernel,
    x: &DenseMatrix,
    threads: usize,
    should_stop: &dyn Fn() -> bool,
    mut ladder: Option<&mut Vec<DenseMatrix>>,
) -> Option<DenseMatrix> {
    assert_eq!(t.rows(), t.cols(), "transition matrix must be square");
    assert_eq!(
        t.cols(),
        x.rows(),
        "transition ({}x{}) does not match features ({} rows)",
        t.rows(),
        t.cols(),
        x.rows()
    );
    let steps = kernel.steps();
    if let Some(ladder) = ladder.as_deref_mut() {
        ladder.clear();
    }
    let mut capture = |state: &DenseMatrix, step: usize| {
        if let Some(ladder) = ladder.as_deref_mut() {
            if step < steps {
                ladder.push(state.clone());
            }
        }
    };
    let out = match kernel {
        Kernel::SymNorm { k } | Kernel::RandomWalk { k } | Kernel::TriangleIa { k } => {
            let mut cur = x.clone();
            for step in 1..=k {
                if should_stop() {
                    return None;
                }
                cur = t.spmm(&cur, threads);
                capture(&cur, step);
            }
            cur
        }
        Kernel::Ppr { k, alpha } => {
            // X^(k) = (1-a) T X^(k-1) + a X^(0)
            let mut cur = x.clone();
            for step in 1..=k {
                if should_stop() {
                    return None;
                }
                let mut next = t.spmm(&cur, threads);
                ops::scale(&mut next, 1.0 - alpha);
                ops::axpy(&mut next, alpha, x);
                cur = next;
                capture(&cur, step);
            }
            cur
        }
        Kernel::S2gc { k, alpha } => {
            // X^(k) = (1/k) Σ_{l=1..k} ((1-a) T^l X + a X)
            assert!(k >= 1, "S2GC needs k >= 1");
            let mut power = x.clone(); // T^l X
            let mut acc = DenseMatrix::zeros(x.rows(), x.cols());
            for step in 1..=k {
                if should_stop() {
                    return None;
                }
                power = t.spmm(&power, threads);
                ops::axpy(&mut acc, 1.0 - alpha, &power);
                ops::axpy(&mut acc, alpha, x);
                capture(&power, step);
            }
            ops::scale(&mut acc, 1.0 / k as f32);
            acc
        }
        Kernel::Gbp { k, beta } => {
            // X^(k) = Σ_{l=0..k} β^l T^l X
            let mut power = x.clone();
            let mut acc = x.clone(); // l = 0 term
            let mut weight = 1.0f32;
            for step in 1..=k {
                if should_stop() {
                    return None;
                }
                power = t.spmm(&power, threads);
                weight *= beta;
                ops::axpy(&mut acc, weight, &power);
                capture(&power, step);
            }
            acc
        }
    };
    Some(out)
}

/// Incremental re-propagation: recomputes only the `dirty` rows of
/// `X^(k)` against a (possibly edited) transition matrix and feature
/// matrix, splicing them into a copy of `old` — the prop-layer half of
/// the streaming bit-identity contract.
///
/// `old_ladder` is the power ladder [`propagate_with`] captured for `old`.
/// Because every level's clean rows are on hand, only the `dirty` rows
/// are recomputed at each of the `k` steps — `O(k · |dirty| · nnz/row ·
/// d)` work, with exactly the per-row accumulation order of
/// [`CsrMatrix::spmm`] and the same per-element combination steps as
/// [`propagate_with`]. Returns the patched `X^(k)` **and** the patched
/// ladder (each level's dirty rows spliced over a copy), so the caller
/// can re-cache both and the *next* delta patches just as cheaply. Runs
/// serially: dirty sets are small by construction.
///
/// Bit-identity contract: every level-`l` row that differs from a cold
/// build over the edited corpus must be in `dirty`, and `old_ladder` must
/// be the cold build's ladder over the pre-delta corpus. Under that
/// contract the result is byte-identical to the cold build. Every kernel's
/// level `l` is linear in `T^j X` for `j ≤ l`, so a level-`l` row can
/// differ only within `l-1` hops of a changed transition row `T_d` or `l`
/// hops of a changed feature row `F`: `ball_{l-1}(T_d) ∪ ball_l(F)` (`F`
/// at `l = 0`; see `grain_graph::edit::k_hop_ball`). These sets nest in
/// `l`, so `dirty ⊇ ball_{k-1}(T_d) ∪ ball_k(F)` meets the contract at
/// every level; the derivation is in `grain_core::streaming`'s module
/// docs.
///
/// # Panics
/// Panics on shape mismatches, an unsorted/duplicate/out-of-range
/// `dirty` list, a ladder whose length is not `k - 1` (or whose levels
/// mismatch `x`'s shape), or an S2GC kernel with `k = 0`.
pub fn repropagate_rows_laddered(
    t: &CsrMatrix,
    kernel: Kernel,
    x: &DenseMatrix,
    old: &DenseMatrix,
    old_ladder: &[&DenseMatrix],
    dirty: &[u32],
) -> (DenseMatrix, Vec<DenseMatrix>) {
    assert_eq!(t.rows(), t.cols(), "transition matrix must be square");
    assert_eq!(
        t.cols(),
        x.rows(),
        "transition ({}x{}) does not match features ({} rows)",
        t.rows(),
        t.cols(),
        x.rows()
    );
    assert_eq!(
        old.shape(),
        x.shape(),
        "old X^(k) shape {:?} does not match features shape {:?}",
        old.shape(),
        x.shape()
    );
    let k = kernel.steps();
    assert_eq!(
        old_ladder.len(),
        k.saturating_sub(1),
        "ladder has {} levels, kernel {} needs {}",
        old_ladder.len(),
        kernel.name(),
        k.saturating_sub(1)
    );
    for level in old_ladder {
        assert_eq!(
            level.shape(),
            x.shape(),
            "ladder level shape {:?} does not match features shape {:?}",
            level.shape(),
            x.shape()
        );
    }
    for w in dirty.windows(2) {
        assert!(w[0] < w[1], "dirty rows must be sorted and unique");
    }
    if let Some(&last) = dirty.last() {
        assert!(
            (last as usize) < t.rows(),
            "dirty row {last} out of range ({} rows)",
            t.rows()
        );
    }
    if let Kernel::S2gc { k, .. } = kernel {
        assert!(k >= 1, "S2GC needs k >= 1");
    }
    let mut out = old.clone();
    let mut new_ladder: Vec<DenseMatrix> =
        old_ladder.iter().map(|level| (*level).clone()).collect();
    if dirty.is_empty() {
        return (out, new_ladder);
    }
    if k == 0 {
        // Every k=0 kernel is the identity: X^(0) = X.
        for &r in dirty {
            out.row_mut(r as usize).copy_from_slice(x.row(r as usize));
        }
        return (out, new_ladder);
    }
    let d = x.cols();
    let m = dirty.len();
    // Flat per-dirty-row buffers; `dirty` is sorted so membership is a
    // binary search, no hashing.
    fn row_slice(buf: &[f32], j: usize, d: usize) -> &[f32] {
        &buf[j * d..(j + 1) * d]
    }
    // One SpMM output row per dirty row, in spmm's exact accumulation
    // order: dirty prev values from `prev_dirty`, clean ones from the
    // level's cold-state source (`x` at level 1, the old ladder above).
    let spmm_dirty = |level: usize, prev_dirty: &[f32], cur: &mut [f32]| {
        for (j, &r) in dirty.iter().enumerate() {
            let row = &mut cur[j * d..(j + 1) * d];
            row.fill(0.0);
            let (idx, vals) = t.row(r as usize);
            for (&c, &w) in idx.iter().zip(vals) {
                if w == 0.0 {
                    continue;
                }
                let prev_row: &[f32] = match dirty.binary_search(&c) {
                    Ok(p) => row_slice(prev_dirty, p, d),
                    Err(_) if level == 1 => x.row(c as usize),
                    Err(_) => old_ladder[level - 2].row(c as usize),
                };
                for (o, &xv) in row.iter_mut().zip(prev_row) {
                    *o += w * xv;
                }
            }
        }
    };
    let splice = |dst: &mut DenseMatrix, src: &[f32]| {
        for (j, &r) in dirty.iter().enumerate() {
            dst.row_mut(r as usize)
                .copy_from_slice(row_slice(src, j, d));
        }
    };
    let mut prev: Vec<f32> = Vec::with_capacity(m * d);
    for &r in dirty {
        prev.extend_from_slice(x.row(r as usize));
    }
    let mut cur = vec![0.0f32; m * d];
    match kernel {
        Kernel::SymNorm { .. } | Kernel::RandomWalk { .. } | Kernel::TriangleIa { .. } => {
            // cur = T cur, k times.
            for l in 1..=k {
                spmm_dirty(l, &prev, &mut cur);
                if l < k {
                    splice(&mut new_ladder[l - 1], &cur);
                }
                std::mem::swap(&mut prev, &mut cur);
            }
            splice(&mut out, &prev);
        }
        Kernel::Ppr { alpha, .. } => {
            // cur = (1-a) T cur + a X, per element in scale-then-axpy order.
            for l in 1..=k {
                spmm_dirty(l, &prev, &mut cur);
                for (j, &r) in dirty.iter().enumerate() {
                    let row = &mut cur[j * d..(j + 1) * d];
                    for (v, &x0) in row.iter_mut().zip(x.row(r as usize)) {
                        *v *= 1.0 - alpha;
                        *v += alpha * x0;
                    }
                }
                if l < k {
                    splice(&mut new_ladder[l - 1], &cur);
                }
                std::mem::swap(&mut prev, &mut cur);
            }
            splice(&mut out, &prev);
        }
        Kernel::S2gc { alpha, .. } => {
            // acc += (1-a) T^l X + a X per step (two axpy passes, matching
            // the full build), then acc /= k. The ladder holds powers.
            let mut acc = vec![0.0f32; m * d];
            for l in 1..=k {
                spmm_dirty(l, &prev, &mut cur);
                for (a, &pv) in acc.iter_mut().zip(cur.iter()) {
                    *a += (1.0 - alpha) * pv;
                }
                for (j, &r) in dirty.iter().enumerate() {
                    let a = &mut acc[j * d..(j + 1) * d];
                    for (v, &x0) in a.iter_mut().zip(x.row(r as usize)) {
                        *v += alpha * x0;
                    }
                }
                if l < k {
                    splice(&mut new_ladder[l - 1], &cur);
                }
                std::mem::swap(&mut prev, &mut cur);
            }
            let inv = 1.0 / k as f32;
            for v in acc.iter_mut() {
                *v *= inv;
            }
            splice(&mut out, &acc);
        }
        Kernel::Gbp { beta, .. } => {
            // acc = Σ β^l T^l X, l = 0 term included up front.
            let mut acc = prev.clone();
            let mut weight = 1.0f32;
            for l in 1..=k {
                spmm_dirty(l, &prev, &mut cur);
                weight *= beta;
                for (a, &pv) in acc.iter_mut().zip(cur.iter()) {
                    *a += weight * pv;
                }
                if l < k {
                    splice(&mut new_ladder[l - 1], &cur);
                }
                std::mem::swap(&mut prev, &mut cur);
            }
            splice(&mut out, &acc);
        }
    }
    (out, new_ladder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_graph::generators;
    use grain_graph::TransitionKind;

    fn features(n: usize, d: usize) -> DenseMatrix {
        DenseMatrix::from_vec(
            n,
            d,
            (0..n * d).map(|i| ((i * 37 % 11) as f32) * 0.1).collect(),
        )
    }

    fn test_graph() -> Graph {
        generators::erdos_renyi_gnm(30, 60, 9)
    }

    #[test]
    fn zero_steps_is_identity_for_iterative_kernels() {
        let g = test_graph();
        let x = features(30, 4);
        for kernel in [
            Kernel::SymNorm { k: 0 },
            Kernel::RandomWalk { k: 0 },
            Kernel::Ppr { k: 0, alpha: 0.1 },
        ] {
            let y = propagate(&g, kernel, &x);
            assert_eq!(y, x, "{} should be identity at k=0", kernel.name());
        }
    }

    #[test]
    fn random_walk_preserves_constant_features() {
        // A row-stochastic operator maps the all-ones column to itself.
        let g = test_graph();
        let x = DenseMatrix::full(30, 1, 1.0);
        let y = propagate(&g, Kernel::RandomWalk { k: 3 }, &x);
        for i in 0..30 {
            assert!((y.get(i, 0) - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn ppr_preserves_constant_features() {
        let g = test_graph();
        let x = DenseMatrix::full(30, 1, 1.0);
        let y = propagate(&g, Kernel::Ppr { k: 4, alpha: 0.15 }, &x);
        for i in 0..30 {
            assert!((y.get(i, 0) - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn s2gc_preserves_constant_features() {
        let g = test_graph();
        let x = DenseMatrix::full(30, 1, 1.0);
        let y = propagate(&g, Kernel::S2gc { k: 3, alpha: 0.1 }, &x);
        for i in 0..30 {
            assert!((y.get(i, 0) - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn gbp_weights_sum_geometrically() {
        // On constant input, GBP yields Σ β^l = (1-β^{k+1})/(1-β).
        let g = test_graph();
        let x = DenseMatrix::full(30, 1, 1.0);
        let beta = 0.5f32;
        let k = 3usize;
        let y = propagate(&g, Kernel::Gbp { k, beta }, &x);
        let want = (1.0 - beta.powi(k as i32 + 1)) / (1.0 - beta);
        for i in 0..30 {
            assert!(
                (y.get(i, 0) - want).abs() < 1e-4,
                "{} vs {want}",
                y.get(i, 0)
            );
        }
    }

    #[test]
    fn sym_norm_smooths_toward_neighbors() {
        // Path graph: after propagation, the middle node mixes its ends.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let x = DenseMatrix::from_vec(3, 1, vec![1.0, 0.0, -1.0]);
        let y = propagate(&g, Kernel::SymNorm { k: 1 }, &x);
        // Symmetric structure keeps the middle at 0, ends shrink toward it.
        assert!((y.get(1, 0)).abs() < 1e-6);
        assert!(y.get(0, 0) < 1.0 && y.get(0, 0) > 0.0);
    }

    #[test]
    fn propagate_with_accepts_prebuilt_transition() {
        let g = test_graph();
        let x = features(30, 3);
        let t = transition_matrix(&g, TransitionKind::RandomWalk, true);
        let a = propagate(&g, Kernel::RandomWalk { k: 2 }, &x);
        let b = propagate_with(&t, Kernel::RandomWalk { k: 2 }, &x, 0, &|| false, None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn propagation_is_thread_count_invariant_per_kernel() {
        let g = generators::erdos_renyi_gnm(200, 500, 21);
        let x = features(200, 4);
        for kernel in Kernel::all_table1(2) {
            let t = transition_matrix(&g, kernel.transition_kind(), true);
            let serial = propagate_with(&t, kernel, &x, 1, &|| false, None).unwrap();
            for threads in [2usize, 8] {
                assert_eq!(
                    propagate_with(&t, kernel, &x, threads, &|| false, None).unwrap(),
                    serial,
                    "{} at {threads} threads",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn ppr_interpolates_between_walk_and_input() {
        let g = test_graph();
        let x = features(30, 2);
        // alpha = 1 keeps the input exactly.
        let y = propagate(&g, Kernel::Ppr { k: 3, alpha: 1.0 }, &x);
        assert_eq!(y, x);
    }

    #[test]
    fn triangle_kernel_runs_on_triangle_rich_graph() {
        let g = generators::erdos_renyi_gnp(40, 0.3, 5);
        let x = features(40, 3);
        let y = propagate(&g, Kernel::TriangleIa { k: 2 }, &x);
        assert_eq!(y.shape(), (40, 3));
        assert!(!y.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn shape_mismatch_panics() {
        let g = test_graph();
        let x = features(10, 2);
        let _ = propagate(&g, Kernel::RandomWalk { k: 1 }, &x);
    }

    /// `X^(k)` plus its power ladder, built serially.
    fn laddered(t: &CsrMatrix, kernel: Kernel, x: &DenseMatrix) -> (DenseMatrix, Vec<DenseMatrix>) {
        let mut ladder = Vec::new();
        let out = propagate_with(t, kernel, x, 1, &|| false, Some(&mut ladder)).unwrap();
        (out, ladder)
    }

    /// Patches `old` over an edit of `g` into `edited` and checks the
    /// result and its ladder against a cold build over `edited`.
    fn assert_patch_matches_cold(
        g: &Graph,
        edited: &Graph,
        endpoints: &[u32],
        x: &DenseMatrix,
        kernel: Kernel,
    ) {
        use grain_graph::edit::k_hop_ball;
        let k = kernel.steps();
        let t_old = transition_matrix(g, kernel.transition_kind(), true);
        let t_new = transition_matrix(edited, kernel.transition_kind(), true);
        let (old, old_ladder) = laddered(&t_old, kernel, x);
        let (cold, cold_ladder) = laddered(&t_new, kernel, x);
        assert_eq!(old_ladder.len(), k.saturating_sub(1), "{}", kernel.name());
        // Generous dirty superset: every changed transition row lies
        // within one hop of a touched endpoint, so the (k+1)-hop ball
        // covers the k-hop ball of the transition-dirty rows.
        let dirty = k_hop_ball(edited, endpoints, k + 1);
        let refs: Vec<&DenseMatrix> = old_ladder.iter().collect();
        let (patched, patched_ladder) =
            repropagate_rows_laddered(&t_new, kernel, x, &old, &refs, &dirty);
        assert_eq!(patched, cold, "{} patched != cold", kernel.name());
        assert_eq!(
            patched_ladder,
            cold_ladder,
            "{} patched ladder != cold ladder",
            kernel.name()
        );
    }

    #[test]
    fn repropagated_rows_match_cold_build_after_edits() {
        use grain_graph::edit::apply_edge_edits;
        let g = generators::erdos_renyi_gnm(60, 150, 11);
        let x = features(60, 4);
        // Delete two existing edges, insert two fresh ones.
        let (u0, v0) = (0u32, *g.neighbors(0).first().expect("node 0 has neighbors"));
        let (u1, v1) = (5u32, *g.neighbors(5).first().expect("node 5 has neighbors"));
        let mut inserts = Vec::new();
        'outer: for u in 0..60u32 {
            for v in (u + 1)..60 {
                if !g.has_edge(u as usize, v) {
                    inserts.push((u, v, 0.75));
                    if inserts.len() == 2 {
                        break 'outer;
                    }
                }
            }
        }
        let (edited, endpoints) = apply_edge_edits(&g, &inserts, &[(u0, v0), (u1, v1)]).unwrap();
        for kernel in Kernel::all_table1(2) {
            assert_patch_matches_cold(&g, &edited, &endpoints, &x, kernel);
        }
    }

    #[test]
    fn laddered_repropagation_matches_cold_build_and_cold_ladder() {
        use grain_graph::edit::apply_edge_edits;
        let g = generators::erdos_renyi_gnm(60, 150, 13);
        let x = features(60, 4);
        let (u0, v0) = (3u32, *g.neighbors(3).first().expect("node 3 has neighbors"));
        let (edited, endpoints) = apply_edge_edits(&g, &[(0, 59, 1.25)], &[(u0, v0)]).unwrap();
        for kernel in Kernel::all_table1(3) {
            assert_patch_matches_cold(&g, &edited, &endpoints, &x, kernel);
        }
    }

    #[test]
    fn ladder_capture_does_not_perturb_the_result() {
        let g = test_graph();
        let x = features(30, 3);
        for kernel in Kernel::all_table1(3) {
            let t = transition_matrix(&g, kernel.transition_kind(), true);
            let plain = propagate_with(&t, kernel, &x, 1, &|| false, None).unwrap();
            let (with_ladder, ladder) = laddered(&t, kernel, &x);
            assert_eq!(plain, with_ladder, "{}", kernel.name());
            assert_eq!(ladder.len(), kernel.steps().saturating_sub(1));
        }
    }

    #[test]
    fn repropagate_with_empty_dirty_set_is_identity() {
        let g = test_graph();
        let x = features(30, 3);
        let kernel = Kernel::RandomWalk { k: 2 };
        let t = transition_matrix(&g, kernel.transition_kind(), true);
        let (old, ladder) = laddered(&t, kernel, &x);
        let refs: Vec<&DenseMatrix> = ladder.iter().collect();
        assert_eq!(
            repropagate_rows_laddered(&t, kernel, &x, &old, &refs, &[]),
            (old, ladder)
        );
    }

    #[test]
    fn repropagate_at_k0_copies_features() {
        let g = test_graph();
        let x = features(30, 3);
        let kernel = Kernel::RandomWalk { k: 0 };
        let t = transition_matrix(&g, kernel.transition_kind(), true);
        // Pretend rows 3 and 7 are stale; a k=0 kernel has no ladder.
        let mut old = x.clone();
        old.row_mut(3).fill(99.0);
        old.row_mut(7).fill(-1.0);
        let (patched, ladder) = repropagate_rows_laddered(&t, kernel, &x, &old, &[], &[3, 7]);
        assert_eq!(patched, x);
        assert!(ladder.is_empty());
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn repropagate_rejects_unsorted_dirty() {
        let g = test_graph();
        let x = features(30, 2);
        let kernel = Kernel::RandomWalk { k: 1 };
        let t = transition_matrix(&g, kernel.transition_kind(), true);
        let (old, _) = laddered(&t, kernel, &x);
        let _ = repropagate_rows_laddered(&t, kernel, &x, &old, &[], &[7, 3]);
    }

    #[test]
    fn never_stopping_probe_is_bit_identical() {
        use std::cell::Cell;
        let g = test_graph();
        let x = features(30, 3);
        for kernel in Kernel::all_table1(2) {
            let t = transition_matrix(&g, kernel.transition_kind(), true);
            let polls = Cell::new(0usize);
            let probe = || {
                polls.set(polls.get() + 1);
                false
            };
            let polled = propagate_with(&t, kernel, &x, 1, &probe, None).unwrap();
            assert_eq!(polled, propagate(&g, kernel, &x), "{}", kernel.name());
            assert_eq!(polls.get(), kernel.steps(), "{}", kernel.name());
        }
    }

    #[test]
    fn stop_probe_cancels_between_power_steps() {
        use std::cell::Cell;
        let g = test_graph();
        let x = features(30, 3);
        let t = transition_matrix(&g, TransitionKind::RandomWalk, true);
        // Stop before the very first step...
        assert!(propagate_with(&t, Kernel::RandomWalk { k: 3 }, &x, 1, &|| true, None).is_none());
        // ...and between steps: the probe is polled once per power.
        let polls = Cell::new(0usize);
        let stop_after_two = || {
            polls.set(polls.get() + 1);
            polls.get() > 2
        };
        assert!(propagate_with(
            &t,
            Kernel::RandomWalk { k: 5 },
            &x,
            1,
            &stop_after_two,
            None
        )
        .is_none());
        assert_eq!(polls.get(), 3, "polled at each of the first three powers");
    }
}
