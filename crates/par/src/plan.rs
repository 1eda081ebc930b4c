//! Adaptive granularity: how a parallel call is split into chunks, and
//! when it should not be split at all.
//!
//! The old runtime used one fixed heuristic (`SPAWN_MIN` items) tuned for
//! per-call thread spawning. The persistent pool changes the cost model —
//! engaging a helper now costs a condvar wake plus a queue transaction, not
//! a thread spawn — so the decision is made by a pure, unit-testable
//! planner instead:
//!
//! * **serial fast path** — when the *estimated total work* (items × a
//!   static per-item cost weight) is below [`SERIAL_CUTOVER_WORK`], every
//!   helper woken would cost more than it contributes; the call runs on the
//!   caller. This is what keeps `data_gen`-sized workloads from paying any
//!   coordination tax at 8 threads.
//! * **cost-aware chunk sizing** — cheap items get big chunks (amortizing
//!   the atomic claim), expensive items get small ones (load balance). The
//!   floor is `CLAIM_AMORTIZE_WORK / cost` items per chunk, the target is
//!   ~[`CHUNKS_PER_WORKER`] chunks per participant.
//! * **oversubscription guard** — an *ambient* budget (resolved from
//!   `SJC_PAR_THREADS` or the global override) is capped at
//!   [`crate::hardware_threads`]: more CPU-bound threads than cores only
//!   adds context-switch overhead, which is exactly the negative scaling
//!   the old baseline measured. An *explicit* budget
//!   ([`crate::Budget::explicit`]) is honored verbatim so tests can drive
//!   the pool oversubscribed on any box.
//!
//! Everything here is a pure function of its arguments, so the planner
//! itself is deterministic and directly testable.

use crate::Budget;

/// Minimum estimated work (items × cost weight) before any helper is woken.
/// A pool hand-off costs a few microseconds end to end; at the default item
/// cost this engages helpers from ~1k items upward.
pub const SERIAL_CUTOVER_WORK: u64 = 4096;

/// Target work units per chunk so the atomic range-claim stays negligible.
const CLAIM_AMORTIZE_WORK: u64 = 256;

/// Target chunks per participating thread: enough stealable slack for the
/// tail without re-introducing per-item claim traffic.
const CHUNKS_PER_WORKER: usize = 8;

/// Chunks are capped at this multiple of the claim-amortize floor, so
/// expensive items keep fine-grained dispatch (better tail balance) while
/// cheap items still get claim-amortizing large chunks.
const CHUNK_SPREAD: usize = 16;

/// Default per-item cost weight used by the `par_*` entry points: a typical
/// mapped item (a record transform, a key extraction) is a few times the
/// cost of a trivial integer op (weight 1).
pub const DEFAULT_ITEM_COST: u32 = 4;

/// Per-item weight for coarse tasks (a cell, a stripe, a reduce group):
/// always worth dispatching individually.
pub const COARSE_ITEM_COST: u32 = 256;

/// How one parallel call executes: `helpers == 0` is the serial fast path;
/// otherwise the caller plus up to `helpers` pool workers claim ranges of
/// `chunk` items each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    pub chunk: usize,
    pub helpers: usize,
}

impl ChunkPlan {
    pub fn is_serial(&self) -> bool {
        self.helpers == 0
    }
}

/// Plans a call over `n` items at the default cost weight.
pub fn plan(n: usize, budget: Budget) -> ChunkPlan {
    plan_weighted(n, budget, DEFAULT_ITEM_COST)
}

/// Plans a call over `n` items whose per-item cost weight is `cost`
/// (relative to a trivial integer op = 1).
pub fn plan_weighted(n: usize, budget: Budget, cost: u32) -> ChunkPlan {
    let cost = u64::from(cost.max(1));
    let threads = budget.effective_threads();
    let work = (n as u64).saturating_mul(cost);
    if threads <= 1 || work < SERIAL_CUTOVER_WORK {
        return ChunkPlan { chunk: n.max(1), helpers: 0 };
    }

    // Floor: enough work per chunk to amortize the claim; cap: a bounded
    // multiple of that floor, so high item costs force finer dispatch.
    // Between the two, target ~CHUNKS_PER_WORKER chunks per participant.
    let amortize_floor = (CLAIM_AMORTIZE_WORK / cost).max(1) as usize;
    let balance_target = n.div_ceil(threads * CHUNKS_PER_WORKER).max(1);
    let chunk = balance_target.min(amortize_floor * CHUNK_SPREAD).max(amortize_floor).min(n);

    let n_chunks = n.div_ceil(chunk);
    let helpers = threads.min(n_chunks).saturating_sub(1);
    ChunkPlan { chunk, helpers }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_inputs_take_the_serial_fast_path_even_at_eight_threads() {
        // The data_gen regression: sub-threshold workloads must not wake a
        // single helper no matter the requested budget.
        for n in [0, 1, 16, 100, 1000] {
            let p = plan_weighted(n, Budget::explicit(8), 1);
            assert!(p.is_serial(), "n={n} plan={p:?}");
        }
        // Just past the cutover the same budget engages helpers.
        let p = plan_weighted(SERIAL_CUTOVER_WORK as usize, Budget::explicit(8), 1);
        assert!(!p.is_serial(), "{p:?}");
    }

    #[test]
    fn cost_weight_moves_the_serial_cutover() {
        // 100 coarse tasks are worth dispatching; 100 trivial items are not.
        assert!(!plan_weighted(100, Budget::explicit(4), COARSE_ITEM_COST).is_serial());
        assert!(plan_weighted(100, Budget::explicit(4), 1).is_serial());
    }

    #[test]
    fn chunks_amortize_claims_for_cheap_items_and_shrink_for_expensive_ones() {
        let cheap = plan_weighted(100_000, Budget::explicit(4), 1);
        let dear = plan_weighted(100_000, Budget::explicit(4), COARSE_ITEM_COST);
        assert!(cheap.chunk >= 256, "{cheap:?}");
        assert!(dear.chunk < cheap.chunk, "{dear:?} vs {cheap:?}");
        assert_eq!(dear.helpers, 3);
    }

    #[test]
    fn helpers_never_exceed_the_chunk_count() {
        let p = plan_weighted(5000, Budget::explicit(64), DEFAULT_ITEM_COST);
        assert!(p.helpers < 5000usize.div_ceil(p.chunk), "{p:?}");
        // One-chunk calls are serial: a lone helper would leave the caller
        // idle-waiting on it. Sweep sizes around the cutover at every cost
        // weight; each plan that fits in one chunk must have no helpers.
        let mut one_chunk_plans = 0;
        for cost in [1, DEFAULT_ITEM_COST, COARSE_ITEM_COST] {
            for budget in [2, 8, 64] {
                for n in (0..=SERIAL_CUTOVER_WORK as usize * 2).step_by(7) {
                    let p = plan_weighted(n, Budget::explicit(budget), cost);
                    let chunks = n.div_ceil(p.chunk).max(1);
                    assert!(p.helpers < chunks, "n={n} cost={cost} plan={p:?}");
                    if chunks == 1 {
                        assert!(p.is_serial(), "n={n} cost={cost} plan={p:?}");
                        one_chunk_plans += 1;
                    }
                }
            }
        }
        assert!(one_chunk_plans > 0);
    }

    #[test]
    fn explicit_budgets_are_never_capped_to_hardware() {
        // The ambient-cap half lives next to the resolution test in lib.rs
        // (both mutate the process-global override and must not race).
        let hw = crate::hardware_threads();
        assert_eq!(Budget::explicit(hw + 7).effective_threads(), hw + 7);
    }
}
