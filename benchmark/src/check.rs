//! The correctness oracle: every answer the benchmark receives must
//! equal, in its deterministic subset, what a separate in-process
//! `GrainService::select` over a cold build of the same corpus state
//! returns. Oracle answers are computed after the timed phases.

use crate::workload::{Corpus, Item, Plan, Spec, GRAPH_ID};
use grain_core::edge::proto::WireOutcome;
use grain_core::{GrainService, GraphDelta};
use grain_graph::Graph;
use std::collections::HashMap;
use std::sync::Arc;

/// Corpus state an answer was computed on: the registered graph, or the
/// graph with the toggled edge inserted. Updates alternate between them.
pub type State = usize;

/// The delta that moves the corpus from `state` to the other state.
pub fn toggle_delta(corpus: &Corpus, state: State) -> GraphDelta {
    let (u, v) = corpus.toggle;
    if state == 0 {
        GraphDelta::new().insert_edge(u, v)
    } else {
        GraphDelta::new().delete_edge(u, v)
    }
}

/// The state reached after `epoch` updates.
pub fn state_at(epoch: u64) -> State {
    (epoch % 2) as State
}

/// One answer to check: which request, and on which states it may
/// have run (a read racing an update may see either side).
pub struct Answer {
    pub item: Item,
    pub states: Vec<State>,
    pub outcome: WireOutcome,
}

pub struct Oracle {
    /// One fresh service per state, each cold-building its own engines.
    services: Vec<GrainService>,
    cache: HashMap<(State, Spec), WireOutcome>,
}

impl Oracle {
    pub fn new(corpus: &Corpus) -> Oracle {
        let mutated = mutated_graph(corpus);
        let services = [Arc::clone(&corpus.graph), mutated]
            .into_iter()
            .map(|graph| {
                let service = GrainService::new();
                service
                    .register_graph(GRAPH_ID, graph, Arc::clone(&corpus.features))
                    .expect("oracle corpus registers");
                service
            })
            .collect();
        Oracle {
            services,
            cache: HashMap::new(),
        }
    }

    pub fn answer(
        &mut self,
        plan: &Plan,
        corpus: &Corpus,
        state: State,
        spec: Spec,
    ) -> &WireOutcome {
        let service = &self.services[state];
        self.cache.entry((state, spec)).or_insert_with(|| {
            let request = corpus.request(plan, Item { tenant: 0, spec });
            let report = service.select(&request).expect("oracle selection succeeds");
            WireOutcome::from_outcome(report.outcome())
        })
    }

    /// Counts the answers that match no allowed state.
    pub fn wrong(&mut self, plan: &Plan, corpus: &Corpus, answers: &[Answer]) -> usize {
        answers
            .iter()
            .filter(|a| {
                !a.states
                    .iter()
                    .any(|&s| *self.answer(plan, corpus, s, a.item.spec) == a.outcome)
            })
            .count()
    }
}

/// The registered graph with the toggled edge inserted, spliced by a
/// scratch service exactly as `apply_update` splices it.
fn mutated_graph(corpus: &Corpus) -> Arc<Graph> {
    let scratch = GrainService::new();
    scratch
        .register_graph(
            GRAPH_ID,
            Arc::clone(&corpus.graph),
            Arc::clone(&corpus.features),
        )
        .expect("scratch corpus registers");
    scratch
        .apply_update(GRAPH_ID, &toggle_delta(corpus, 0))
        .expect("toggle insert applies");
    scratch.graph(GRAPH_ID).expect("scratch corpus present")
}

/// Flips one selected node: the self-test's deliberately wrong answer.
pub fn corrupt(outcome: &mut WireOutcome) {
    match outcome.selected.first_mut() {
        Some(first) => *first ^= 1,
        None => outcome.evaluations += 1,
    }
}
