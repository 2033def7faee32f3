//! Candidate pruning (§3.4 efficiency optimization).
//!
//! "The key idea is to identify and dismiss uninfluential nodes in order to
//! dramatically reduce the amount of computation for evaluating influence
//! spread. For example, we can use the degree of nodes or the distribution
//! of random walkers throughout the nodes to filter out a vast number of
//! uninfluential nodes."

use crate::config::PruneStrategy;
use grain_graph::Graph;
use grain_influence::InfluenceRows;

/// Applies a [`PruneStrategy`] to a candidate pool, returning the retained
/// candidates sorted by node id.
///
/// At least one candidate always survives (a non-empty pool never prunes to
/// nothing). Ties at the cutoff break toward the smaller node id.
pub fn prune_candidates(
    strategy: PruneStrategy,
    graph: &Graph,
    influence: &InfluenceRows,
    candidates: &[u32],
) -> Vec<u32> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let (scores, keep_fraction): (Vec<f64>, f64) = match strategy {
        PruneStrategy::Degree { keep_fraction } => (
            candidates
                .iter()
                .map(|&c| graph.degree(c as usize) as f64)
                .collect(),
            keep_fraction,
        ),
        PruneStrategy::WalkMass { keep_fraction } => {
            let mass = influence.walk_mass();
            (
                candidates
                    .iter()
                    .map(|&c| mass[c as usize] as f64)
                    .collect(),
                keep_fraction,
            )
        }
    };
    let keep =
        ((candidates.len() as f64 * keep_fraction).ceil() as usize).clamp(1, candidates.len());
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .total_cmp(&scores[a])
            .then(candidates[a].cmp(&candidates[b]))
    });
    let mut kept: Vec<u32> = order[..keep].iter().map(|&i| candidates[i]).collect();
    kept.sort_unstable();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_graph::{generators, transition_matrix, TransitionKind};
    use grain_influence::walk::kernel_power_weights;
    use grain_prop::Kernel;

    fn fixtures() -> (Graph, InfluenceRows) {
        let g = generators::barabasi_albert(100, 2, 3);
        let t = transition_matrix(&g, TransitionKind::RandomWalk, true);
        let weights = kernel_power_weights(Kernel::RandomWalk { k: 2 });
        let rows = InfluenceRows::build(&t, &weights, 0.0, 0, 0, &|| false).unwrap();
        (g, rows)
    }

    #[test]
    fn degree_prune_keeps_hubs() {
        let (g, rows) = fixtures();
        let candidates: Vec<u32> = (0..100).collect();
        let kept = prune_candidates(
            PruneStrategy::Degree { keep_fraction: 0.1 },
            &g,
            &rows,
            &candidates,
        );
        assert_eq!(kept.len(), 10);
        let min_kept_degree = kept.iter().map(|&c| g.degree(c as usize)).min().unwrap();
        let dropped_max = candidates
            .iter()
            .filter(|c| !kept.contains(c))
            .map(|&c| g.degree(c as usize))
            .max()
            .unwrap();
        assert!(min_kept_degree >= dropped_max.saturating_sub(0) || min_kept_degree >= dropped_max);
    }

    #[test]
    fn walk_mass_prune_keeps_influential_nodes() {
        let (g, rows) = fixtures();
        let candidates: Vec<u32> = (0..100).collect();
        let kept = prune_candidates(
            PruneStrategy::WalkMass { keep_fraction: 0.2 },
            &g,
            &rows,
            &candidates,
        );
        assert_eq!(kept.len(), 20);
        let mass = rows.walk_mass();
        let min_kept = kept
            .iter()
            .map(|&c| mass[c as usize])
            .fold(f32::MAX, f32::min);
        let max_dropped = candidates
            .iter()
            .filter(|c| !kept.contains(c))
            .map(|&c| mass[c as usize])
            .fold(f32::MIN, f32::max);
        assert!(min_kept >= max_dropped - 1e-6);
    }

    #[test]
    fn at_least_one_candidate_survives() {
        let (g, rows) = fixtures();
        let kept = prune_candidates(
            PruneStrategy::Degree {
                keep_fraction: 0.0001,
            },
            &g,
            &rows,
            &[5, 6, 7],
        );
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn full_fraction_keeps_everything() {
        let (g, rows) = fixtures();
        let candidates: Vec<u32> = vec![9, 3, 27];
        let kept = prune_candidates(
            PruneStrategy::Degree { keep_fraction: 1.0 },
            &g,
            &rows,
            &candidates,
        );
        assert_eq!(kept, vec![3, 9, 27]);
    }

    #[test]
    fn empty_pool_stays_empty() {
        let (g, rows) = fixtures();
        let kept = prune_candidates(
            PruneStrategy::WalkMass { keep_fraction: 0.5 },
            &g,
            &rows,
            &[],
        );
        assert!(kept.is_empty());
    }
}
