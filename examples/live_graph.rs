//! Streaming maintenance end to end: a live corpus absorbing an
//! open-loop churn stream while selections keep serving warm.
//!
//! Each round applies a `GraphDelta` (edge toggles, occasionally a
//! feature overwrite) through `GrainService::apply_update` and prints
//! what the epoch flip cost: how far the dirty frontier spread, which
//! resident engines were patched vs. skipped, and the per-stage repair
//! timings. Between rounds a selection lands on the *new* epoch warm —
//! no propagation, influence, or index rebuild, and the ball lists are
//! repaired for the embedding rows the flip re-propagated, not rebuilt.
//!
//! The stream is net-zero (every inserted edge is later deleted), so the
//! final corpus is the original one — and the closing selection is
//! bit-identical to the opening baseline, the streaming contract made
//! visible.
//!
//! ```text
//! cargo run -p grain --release --example live_graph
//! ```

use grain::prelude::*;
use std::time::Instant;

/// `count` node pairs absent from `g`, derived from a hash counter —
/// the churn set the stream toggles on and off.
fn absent_pairs(g: &Graph, count: usize, salt: u64) -> Vec<(u32, u32)> {
    let n = g.num_nodes() as u64;
    let mut pairs = Vec::with_capacity(count);
    let mut i: u64 = salt;
    while pairs.len() < count {
        let a = (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 17) % n;
        let b = (i.wrapping_mul(0xc2b2_ae3d_27d4_eb4f) >> 19) % n;
        i += 1;
        let (a, b) = (a.min(b) as u32, a.max(b) as u32);
        if a != b && !g.has_edge(a as usize, b) && !pairs.contains(&(a, b)) {
            pairs.push((a, b));
        }
    }
    pairs
}

fn main() -> GrainResult<()> {
    let n = 4_000;
    println!("generating a papers-like corpus with {n} nodes ...");
    let dataset = grain::data::synthetic::papers_like(n, 99);

    let service = GrainService::new();
    service.register_graph("live", dataset.graph.clone(), dataset.features.clone())?;

    // Two resident fingerprints over the same corpus: both get patched on
    // every epoch flip. A third, triangle-induced engine demonstrates the
    // one artifact family that must rebuild cold instead.
    let ball = SelectionRequest::new("live", GrainConfig::ball_d(), Budget::Fixed(20))
        .with_candidates(dataset.split.train.clone());
    let truncated = SelectionRequest::new(
        "live",
        GrainConfig {
            influence_row_top_k: 16,
            ..GrainConfig::ball_d()
        },
        Budget::Fixed(20),
    )
    .with_candidates(dataset.split.train.clone());
    let triangle = SelectionRequest::new(
        "live",
        GrainConfig {
            kernel: Kernel::TriangleIa { k: 2 },
            ..GrainConfig::ball_d()
        },
        Budget::Fixed(20),
    )
    .with_candidates(dataset.split.train.clone());
    let baseline = service.select(&ball)?;
    service.select(&truncated)?;
    service.select(&triangle)?;
    println!(
        "warmed {} engines at epoch {}; baseline selected {:?}...\n",
        service.pool().len(),
        service.epoch("live")?,
        &baseline.outcome().selected[..4.min(baseline.outcome().selected.len())],
    );

    // ------------------------------------------------------------------
    // The churn stream: five rounds of edge toggles (insert a batch, later
    // delete it) plus one feature overwrite, interleaved with selections.
    // ------------------------------------------------------------------
    let graph = service.graph("live")?;
    let batches: Vec<Vec<(u32, u32)>> = (0..2)
        .map(|round| absent_pairs(&graph, 8 << round, 1000 * round as u64 + 7))
        .collect();
    let mut updates = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let insert = batch
            .iter()
            .fold(GraphDelta::new(), |d, &(a, b)| d.insert_edge(a, b));
        updates.push((format!("insert {:>3} edges", batch.len()), insert));
        if i == 0 {
            // A feature correction rides along mid-stream: new row for one
            // node, reverted before the stream ends.
            let old_row = dataset.features.row(17).to_vec();
            let new_row: Vec<f32> = old_row.iter().map(|v| v * 0.5 + 0.1).collect();
            updates.push((
                "overwrite features".to_string(),
                GraphDelta::new().set_features(17, new_row),
            ));
            updates.push((
                "revert features".to_string(),
                GraphDelta::new().set_features(17, old_row),
            ));
        }
    }
    for batch in batches.iter().rev() {
        let delete = batch
            .iter()
            .fold(GraphDelta::new(), |d, &(a, b)| d.delete_edge(a, b));
        updates.push((format!("delete {:>3} edges", batch.len()), delete));
    }

    for (label, delta) in &updates {
        let t = Instant::now();
        let report = service.apply_update("live", delta)?;
        let widest = report.max_dirty_propagation();
        println!(
            "[epoch {:>2} -> {:>2}] {label}: {} engine(s) patched \
             ({} triangle rebuilds deferred), widest dirty frontier {widest} \
             rows, {:.2?}",
            report.from_epoch,
            report.epoch,
            report.engines_patched(),
            report.engines_skipped_triangle,
            t.elapsed(),
        );
        for patch in &report.patched {
            println!(
                "               dirty prop/influence {:>4}/{:<4} | stages: \
                 T {:.1?}  P {:.1?}  E {:.1?}  I {:.1?}  X {:.1?}",
                patch.dirty_propagation,
                patch.dirty_influence,
                patch.timings.transition,
                patch.timings.propagation,
                patch.timings.embedding,
                patch.timings.influence,
                patch.timings.index,
            );
        }
        // Patched engines serve the new epoch without rebuilding any of
        // the heavy artifacts; the ball lists are repaired for the rows
        // the flip re-propagated instead of rescanned pair by pair.
        let warm = service.select(&ball)?;
        assert_eq!(warm.pool_event, PoolEvent::Hit);
        assert_eq!(warm.artifact_builds.propagation_builds, 0);
        assert_eq!(warm.artifact_builds.influence_builds, 0);
        assert_eq!(warm.artifact_builds.index_builds, 0);
        assert_eq!(warm.artifact_builds.diversity_builds, 0);
    }

    // ------------------------------------------------------------------
    // Net-zero stream: the corpus is back at its original adjacency and
    // features, so a fresh selection reproduces the opening baseline
    // bit for bit — patched artifacts are byte-identical to cold ones.
    // ------------------------------------------------------------------
    let closing = service.select(&ball)?;
    assert_eq!(
        closing.outcome().selected,
        baseline.outcome().selected,
        "net-zero churn must reproduce the baseline selection"
    );
    assert_eq!(
        closing.outcome().objective_trace,
        baseline.outcome().objective_trace,
        "objective trace must match bit for bit"
    );
    println!(
        "\nafter {} epoch flips the net-zero stream reproduced the baseline \
         selection bit-for-bit ({} nodes, identical objective trace)",
        service.epoch("live")?,
        closing.outcome().selected.len(),
    );
    println!(
        "pool: {:?} over {} engines",
        service.pool_stats(),
        service.pool().len()
    );
    Ok(())
}
