//! Greedy maximization: Algorithm 1 and its CELF lazy variant.
//!
//! For monotone submodular `F`, plain greedy attains `F(S) ≥ (1 − 1/e)
//! F(S*)` (Nemhauser et al.). CELF exploits submodularity further: a
//! candidate's cached gain from an earlier round upper-bounds its current
//! gain, so the top of a max-heap can be accepted as soon as its cached
//! gain is fresh — identical output, far fewer evaluations.

use crate::cancel::{CancelCause, CancelToken};
use crate::fault;
use crate::objective::MarginalObjective;

/// Outcome of a greedy run.
///
/// Neither algorithm reads the budget inside a round, so a run with
/// budget `b` is exactly the first `b` rounds of any run with a larger
/// budget over the same objective and candidates. [`GreedyTrace::selected`],
/// [`GreedyTrace::objective_trace`] and [`GreedyTrace::round_evaluations`]
/// therefore answer every smaller budget by slicing — which is how
/// [`crate::engine::SelectionEngine`] serves warm requests from one cached
/// run.
#[derive(Clone, Debug, PartialEq)]
pub struct GreedyTrace {
    /// Selected seeds in pick order.
    pub selected: Vec<u32>,
    /// `F(S)` after each pick (length = `selected.len()`).
    pub objective_trace: Vec<f64>,
    /// Number of marginal-gain evaluations performed.
    pub evaluations: usize,
    /// Cumulative evaluations at each round boundary: entry 0 is the
    /// count before the first pick (CELF's heap seeding, 0 for plain
    /// greedy) and entry `i` the count at the `i`-th pick's acceptance —
    /// exactly the `evaluations` a run with budget `i` reports. Length
    /// `selected.len() + 1`, except that a lazy run cancelled while
    /// seeding its heap leaves it empty.
    pub round_evaluations: Vec<usize>,
    /// `Some(cause)` if the run stopped early at a cooperative
    /// cancellation checkpoint. The picks made so far (and their
    /// `round_evaluations`) are byte-for-byte a prefix of the uncancelled
    /// run: checkpoints sit at round boundaries and between evaluations,
    /// never between choosing a candidate and committing it — so the
    /// engine may keep a cancelled run as its cached trace.
    pub cancelled: Option<CancelCause>,
}

/// Algorithm 1: evaluates every remaining candidate each round.
///
/// Ties break toward the smaller node id, making runs deterministic.
///
/// `cancel` is polled at every round boundary and after every
/// `check_every` marginal-gain evaluations (`usize::MAX` polls only at
/// round boundaries). On a trip the trace is returned as-is (an exact
/// prefix of the uncancelled run) with [`GreedyTrace::cancelled`] set; no
/// pick is ever half-committed. An untripped token changes nothing: the
/// selection, trace, and evaluation count are bit-identical at any
/// `check_every`.
pub fn plain_greedy(
    objective: &mut impl MarginalObjective,
    candidates: &[u32],
    budget: usize,
    cancel: &CancelToken,
    check_every: usize,
) -> GreedyTrace {
    let budget = budget.min(candidates.len());
    let check_every = check_every.max(1);
    let mut remaining: Vec<u32> = candidates.to_vec();
    remaining.sort_unstable();
    remaining.dedup();
    let mut selected = Vec::with_capacity(budget);
    let mut trace = Vec::with_capacity(budget);
    let mut evaluations = 0;
    let mut round_evaluations = Vec::with_capacity(budget + 1);
    round_evaluations.push(0);
    let mut cancelled = None;
    'rounds: for _ in 0..budget {
        fault::point("greedy.round", Some(cancel));
        if let Some(cause) = cancel.cause() {
            cancelled = Some(cause);
            break;
        }
        let mut best: Option<(usize, f64)> = None;
        for (pos, &c) in remaining.iter().enumerate() {
            let gain = objective.marginal_gain(c);
            evaluations += 1;
            if evaluations % check_every == 0 {
                fault::point("greedy.eval.block", Some(cancel));
                if let Some(cause) = cancel.cause() {
                    // Abandon the half-scanned round without picking:
                    // the committed prefix stays exact.
                    cancelled = Some(cause);
                    break 'rounds;
                }
            }
            // Tie-break toward the smaller node id (swap_remove below
            // shuffles `remaining`, so position order is not id order).
            let better = match best {
                None => true,
                Some((bpos, bg)) => gain > bg || (gain == bg && c < remaining[bpos]),
            };
            if better {
                best = Some((pos, gain));
            }
        }
        let Some((pos, _)) = best else { break };
        let chosen = remaining.swap_remove(pos);
        objective.add(chosen);
        selected.push(chosen);
        trace.push(objective.value());
        round_evaluations.push(evaluations);
    }
    GreedyTrace {
        selected,
        objective_trace: trace,
        evaluations,
        round_evaluations,
        cancelled,
    }
}

/// CELF lazy greedy.
///
/// Maintains a max-heap of `(cached_gain, candidate)`; a popped candidate
/// whose cache is stale is re-evaluated and pushed back. Requires `F`
/// submodular for exactness (property-tested against [`plain_greedy`]).
///
/// `cancel` is polled at every acceptance (round) boundary and after every
/// `check_every` evaluations (initial heap seeding and stale
/// re-evaluations both count), with the same prefix guarantee as
/// [`plain_greedy`].
pub fn lazy_greedy(
    objective: &mut impl MarginalObjective,
    candidates: &[u32],
    budget: usize,
    cancel: &CancelToken,
    check_every: usize,
) -> GreedyTrace {
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct Entry {
        gain: f64,
        /// Stored negated so equal gains pop the smaller id first.
        neg_id: i64,
        round: usize,
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.gain
                .total_cmp(&other.gain)
                .then(self.neg_id.cmp(&other.neg_id))
        }
    }

    let budget = budget.min(candidates.len());
    let check_every = check_every.max(1);
    let mut uniq: Vec<u32> = candidates.to_vec();
    uniq.sort_unstable();
    uniq.dedup();
    let mut evaluations = 0;
    let mut cancelled = None;
    let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(uniq.len());
    for &c in &uniq {
        evaluations += 1;
        heap.push(Entry {
            gain: objective.marginal_gain(c),
            neg_id: -(c as i64),
            round: 0,
        });
        if evaluations % check_every == 0 {
            fault::point("greedy.eval.block", Some(cancel));
            if let Some(cause) = cancel.cause() {
                cancelled = Some(cause);
                break;
            }
        }
    }
    let mut selected = Vec::with_capacity(budget);
    let mut trace = Vec::with_capacity(budget);
    let mut round_evaluations = Vec::with_capacity(budget + 1);
    if cancelled.is_none() {
        round_evaluations.push(evaluations);
    }
    let mut round = 0usize;
    while cancelled.is_none() && selected.len() < budget {
        let Some(top) = heap.pop() else { break };
        if top.round == round {
            // Round boundary: the next pick is decided but not yet
            // committed — the last safe place to stop.
            fault::point("greedy.round", Some(cancel));
            if let Some(cause) = cancel.cause() {
                cancelled = Some(cause);
                break;
            }
            let c = (-top.neg_id) as u32;
            objective.add(c);
            selected.push(c);
            trace.push(objective.value());
            round_evaluations.push(evaluations);
            round += 1;
        } else {
            let c = (-top.neg_id) as u32;
            evaluations += 1;
            heap.push(Entry {
                gain: objective.marginal_gain(c),
                neg_id: top.neg_id,
                round,
            });
            if evaluations % check_every == 0 {
                fault::point("greedy.eval.block", Some(cancel));
                if let Some(cause) = cancel.cause() {
                    cancelled = Some(cause);
                    break;
                }
            }
        }
    }
    GreedyTrace {
        selected,
        objective_trace: trace,
        evaluations,
        round_evaluations,
        cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Weighted-coverage toy objective: element e has weight w[e]; each
    /// candidate covers a fixed element set. Monotone + submodular.
    struct Cover {
        sets: Vec<Vec<usize>>,
        weights: Vec<f64>,
        covered: Vec<bool>,
        value: f64,
    }
    impl Cover {
        fn new(sets: Vec<Vec<usize>>, weights: Vec<f64>) -> Self {
            let n = weights.len();
            Self {
                sets,
                weights,
                covered: vec![false; n],
                value: 0.0,
            }
        }
    }
    impl MarginalObjective for Cover {
        fn marginal_gain(&mut self, c: u32) -> f64 {
            self.sets[c as usize]
                .iter()
                .filter(|&&e| !self.covered[e])
                .map(|&e| self.weights[e])
                .sum()
        }
        fn add(&mut self, c: u32) {
            for &e in &self.sets[c as usize].clone() {
                if !self.covered[e] {
                    self.covered[e] = true;
                    self.value += self.weights[e];
                }
            }
        }
        fn value(&self) -> f64 {
            self.value
        }
    }

    fn toy() -> Cover {
        Cover::new(
            vec![
                vec![0, 1, 2],    // candidate 0
                vec![2, 3],       // candidate 1
                vec![4],          // candidate 2
                vec![0, 1, 2, 3], // candidate 3 (dominates 0 and 1)
                vec![],           // candidate 4
            ],
            vec![1.0, 1.0, 1.0, 1.0, 5.0],
        )
    }

    #[test]
    fn plain_greedy_picks_heavy_element_first() {
        let mut obj = toy();
        let trace = plain_greedy(
            &mut obj,
            &[0, 1, 2, 3, 4],
            2,
            &CancelToken::new(),
            usize::MAX,
        );
        // Element 4 weighs 5 -> candidate 2 first, then candidate 3 (covers 4).
        assert_eq!(trace.selected, vec![2, 3]);
        assert_eq!(trace.objective_trace, vec![5.0, 9.0]);
    }

    #[test]
    fn lazy_matches_plain_on_toy() {
        let mut a = toy();
        let ta = plain_greedy(&mut a, &[0, 1, 2, 3, 4], 4, &CancelToken::new(), usize::MAX);
        let mut b = toy();
        let tb = lazy_greedy(&mut b, &[0, 1, 2, 3, 4], 4, &CancelToken::new(), usize::MAX);
        assert_eq!(ta.selected, tb.selected);
        assert_eq!(ta.objective_trace, tb.objective_trace);
    }

    #[test]
    fn lazy_uses_no_more_evaluations_per_extra_round() {
        let mut a = toy();
        let ta = plain_greedy(&mut a, &[0, 1, 2, 3, 4], 3, &CancelToken::new(), usize::MAX);
        let mut b = toy();
        let tb = lazy_greedy(&mut b, &[0, 1, 2, 3, 4], 3, &CancelToken::new(), usize::MAX);
        assert!(tb.evaluations <= ta.evaluations);
    }

    #[test]
    fn budget_clamped_to_candidates() {
        let mut obj = toy();
        let trace = plain_greedy(&mut obj, &[1, 2], 10, &CancelToken::new(), usize::MAX);
        assert_eq!(trace.selected.len(), 2);
    }

    #[test]
    fn duplicate_candidates_deduped() {
        let mut obj = toy();
        let trace = plain_greedy(&mut obj, &[2, 2, 2], 3, &CancelToken::new(), usize::MAX);
        assert_eq!(trace.selected, vec![2]);
    }

    #[test]
    fn tie_breaks_toward_smaller_id() {
        // Candidates 0 and 1 have identical singleton sets.
        let mut obj = Cover::new(vec![vec![0], vec![0]], vec![1.0]);
        let plain = plain_greedy(&mut obj, &[1, 0], 1, &CancelToken::new(), usize::MAX);
        assert_eq!(plain.selected, vec![0]);
        let mut obj2 = Cover::new(vec![vec![0], vec![0]], vec![1.0]);
        let lazy = lazy_greedy(&mut obj2, &[1, 0], 1, &CancelToken::new(), usize::MAX);
        assert_eq!(lazy.selected, vec![0]);
    }

    #[test]
    fn empty_candidates_yield_empty_selection() {
        let mut obj = toy();
        let trace = lazy_greedy(&mut obj, &[], 3, &CancelToken::new(), usize::MAX);
        assert!(trace.selected.is_empty());
        assert_eq!(trace.evaluations, 0);
    }

    #[test]
    fn untripped_token_changes_no_bit() {
        let token = CancelToken::new();
        for check_every in [1usize, 2, 1024] {
            let mut a = toy();
            let plain = plain_greedy(&mut a, &[0, 1, 2, 3, 4], 4, &CancelToken::new(), usize::MAX);
            let mut b = toy();
            let ctl = plain_greedy(&mut b, &[0, 1, 2, 3, 4], 4, &token, check_every);
            assert_eq!(plain, ctl, "plain, check_every={check_every}");
            let mut c = toy();
            let lazy = lazy_greedy(&mut c, &[0, 1, 2, 3, 4], 4, &CancelToken::new(), usize::MAX);
            let mut d = toy();
            let lctl = lazy_greedy(&mut d, &[0, 1, 2, 3, 4], 4, &token, check_every);
            assert_eq!(lazy, lctl, "lazy, check_every={check_every}");
        }
    }

    #[test]
    fn pre_tripped_token_selects_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let mut a = toy();
        let plain = plain_greedy(&mut a, &[0, 1, 2, 3, 4], 3, &token, 1);
        assert!(plain.selected.is_empty());
        assert_eq!(plain.cancelled, Some(CancelCause::Caller));
        let mut b = toy();
        let lazy = lazy_greedy(&mut b, &[0, 1, 2, 3, 4], 3, &token, 1);
        assert!(lazy.selected.is_empty());
        assert_eq!(lazy.cancelled, Some(CancelCause::Caller));
    }

    /// A probe objective that trips the token after a fixed number of
    /// marginal-gain evaluations — a deterministic mid-run cancel.
    struct TripAfter<'a> {
        inner: Cover,
        token: &'a CancelToken,
        trip_at: usize,
        evals: usize,
    }
    impl MarginalObjective for TripAfter<'_> {
        fn marginal_gain(&mut self, c: u32) -> f64 {
            self.evals += 1;
            if self.evals == self.trip_at {
                self.token.cancel();
            }
            self.inner.marginal_gain(c)
        }
        fn add(&mut self, c: u32) {
            self.inner.add(c)
        }
        fn value(&self) -> f64 {
            self.inner.value()
        }
    }

    #[test]
    fn cancelled_runs_are_exact_prefixes_of_the_uncancelled_run() {
        let cands = [0u32, 1, 2, 3, 4];
        for (algo, name) in [(false, "plain"), (true, "lazy")] {
            let mut oracle_obj = toy();
            let oracle = if algo {
                lazy_greedy(&mut oracle_obj, &cands, 4, &CancelToken::new(), usize::MAX)
            } else {
                plain_greedy(&mut oracle_obj, &cands, 4, &CancelToken::new(), usize::MAX)
            };
            for trip_at in 1..=oracle.evaluations {
                let token = CancelToken::new();
                let mut obj = TripAfter {
                    inner: toy(),
                    token: &token,
                    trip_at,
                    evals: 0,
                };
                let got = if algo {
                    lazy_greedy(&mut obj, &cands, 4, &token, 1)
                } else {
                    plain_greedy(&mut obj, &cands, 4, &token, 1)
                };
                assert!(
                    got.selected.len() <= oracle.selected.len(),
                    "{name} trip_at={trip_at}"
                );
                assert_eq!(
                    got.selected,
                    oracle.selected[..got.selected.len()],
                    "{name} trip_at={trip_at}: partial must be an exact prefix"
                );
                assert_eq!(
                    got.objective_trace,
                    oracle.objective_trace[..got.objective_trace.len()],
                    "{name} trip_at={trip_at}"
                );
                assert_eq!(got.cancelled, Some(CancelCause::Caller));
                // A recorded prefix carries the uncancelled run's counts.
                let recorded = got.round_evaluations.len();
                assert!(
                    recorded == 0 || recorded == got.selected.len() + 1,
                    "{name} trip_at={trip_at}"
                );
                assert_eq!(
                    got.round_evaluations,
                    oracle.round_evaluations[..recorded],
                    "{name} trip_at={trip_at}"
                );
            }
        }
    }

    #[test]
    fn round_evaluations_match_every_smaller_budget() {
        let cands = [0u32, 1, 2, 3, 4];
        for lazy in [false, true] {
            let run = |budget: usize| {
                let mut obj = toy();
                let token = CancelToken::new();
                if lazy {
                    lazy_greedy(&mut obj, &cands, budget, &token, usize::MAX)
                } else {
                    plain_greedy(&mut obj, &cands, budget, &token, usize::MAX)
                }
            };
            let full = run(cands.len());
            assert_eq!(full.round_evaluations.len(), full.selected.len() + 1);
            assert_eq!(full.round_evaluations.last(), Some(&full.evaluations));
            for budget in 0..=full.selected.len() {
                let short = run(budget);
                assert_eq!(short.selected, full.selected[..budget], "lazy={lazy}");
                assert_eq!(short.evaluations, full.round_evaluations[budget]);
                assert_eq!(short.round_evaluations, full.round_evaluations[..=budget]);
            }
        }
    }
}
