//! Activation-arena planning: the buffer-liveness pass output.
//!
//! The pre-pass executor allocated a fresh buffer for every op output and
//! (conceptually) kept all of them alive — per-op allocation. The
//! buffer-liveness pass computes each output's **live range** (from the op
//! that produces it to the last op that reads it, through either the
//! running-activation chain or an explicit `OpSource`) and assigns outputs
//! to reusable **slots** of a planned arena by a greedy linear scan:
//! whenever an output dies, its slot is returned to the free list and the
//! next output reuses it (growing the slot to the larger footprint if
//! needed).
//!
//! The result is a [`BufferPlan`]: deterministic slot assignments, the
//! planned arena footprint (`peak_elems`, the sum of slot capacities) and
//! the naive per-op-allocation footprint it replaces (`naive_elems`).
//! Both executors report the two footprints in their `ExecutionReport`
//! (`peak_arena_bytes` vs `naive_arena_bytes`); the arena executor
//! ([`super::arena`]) runs on exactly these slots.

/// A planned activation arena: one slot per concurrently-live output.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BufferPlan {
    /// Arena slot holding each op's output.
    pub slot_of_op: Vec<usize>,
    /// Capacity of each slot, elements per sample (the max footprint of
    /// any output ever assigned to it).
    pub slot_elems: Vec<usize>,
    /// Planned arena footprint: sum of slot capacities, elements/sample.
    pub peak_elems: usize,
    /// Naive per-op-allocation footprint: sum of every op output,
    /// elements per sample.
    pub naive_elems: usize,
}

impl BufferPlan {
    /// Plans the arena for outputs of the given per-sample element counts
    /// and live ranges (`last_use[i]` = index of the last op reading op
    /// `i`'s output; `i` itself when unread).
    ///
    /// Deterministic greedy linear scan in op order; among free slots the
    /// largest is reused first, so small outputs soak into existing
    /// capacity before any slot grows.
    pub fn plan(out_elems: &[usize], last_use: &[usize]) -> Self {
        assert_eq!(out_elems.len(), last_use.len());
        let n = out_elems.len();
        let mut slot_of_op = vec![0usize; n];
        let mut slot_elems: Vec<usize> = Vec::new();
        // (last_use, slot) of currently-live tenants.
        let mut live: Vec<(usize, usize)> = Vec::new();
        for i in 0..n {
            // Release slots whose tenant's last reader has executed.
            let mut free: Vec<usize> = Vec::new();
            live.retain(|&(lu, slot)| {
                if lu < i {
                    free.push(slot);
                    false
                } else {
                    true
                }
            });
            // Reuse the largest free slot, else open a new one.
            free.sort_by_key(|&s| slot_elems[s]);
            let slot = match free.pop() {
                Some(s) => {
                    slot_elems[s] = slot_elems[s].max(out_elems[i]);
                    s
                }
                None => {
                    slot_elems.push(out_elems[i]);
                    slot_elems.len() - 1
                }
            };
            // Slots released in the same step but not reused stay free for
            // later ops: re-add them as already-dead tenants.
            for s in free {
                live.push((0, s));
            }
            slot_of_op[i] = slot;
            live.push((last_use[i].max(i), slot));
        }
        BufferPlan {
            slot_of_op,
            peak_elems: slot_elems.iter().sum(),
            naive_elems: out_elems.iter().sum(),
            slot_elems,
        }
    }

    /// Number of arena slots.
    pub fn slots(&self) -> usize {
        self.slot_elems.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_reuses_two_slots() {
        // A pure feed-forward chain only ever has the producing and the
        // consuming output live: two slots, ping-ponged.
        let out_elems = vec![100, 80, 60, 40, 20];
        let last_use = vec![1, 2, 3, 4, 5];
        let bp = BufferPlan::plan(&out_elems, &last_use);
        assert_eq!(bp.slots(), 2);
        assert_eq!(bp.peak_elems, 100 + 80);
        assert_eq!(bp.naive_elems, 300);
        assert!(bp.peak_elems < bp.naive_elems);
    }

    #[test]
    fn long_lived_skip_holds_a_slot() {
        // Op 0's output feeds a residual at op 3: it must keep its slot
        // across ops 1 and 2.
        let out_elems = vec![50, 50, 50, 50];
        let last_use = vec![3, 2, 3, 4];
        let bp = BufferPlan::plan(&out_elems, &last_use);
        assert_eq!(bp.slot_of_op[0], bp.slot_of_op[0]);
        // Op 0 and ops 1..3 overlap: at least 2 concurrent tenants, and
        // op 0's slot is not reused before op 3.
        assert_ne!(bp.slot_of_op[0], bp.slot_of_op[1]);
        assert_ne!(bp.slot_of_op[0], bp.slot_of_op[2]);
        assert!(bp.peak_elems < bp.naive_elems);
    }

    #[test]
    fn slot_grows_to_largest_tenant() {
        let out_elems = vec![10, 200, 10];
        let last_use = vec![1, 2, 3];
        let bp = BufferPlan::plan(&out_elems, &last_use);
        assert_eq!(bp.slot_elems.iter().sum::<usize>(), bp.peak_elems);
        assert!(bp.slot_elems.iter().all(|&e| e >= 10));
        assert!(bp.slot_elems.contains(&200));
    }

    #[test]
    fn ping_pong_grows_slots_to_their_largest_tenant() {
        // A chain ping-pongs two slots; each grows to its largest tenant
        // (op 0 and op 2 share a slot here).
        let out_elems = vec![30, 70, 40];
        let last_use = vec![1, 2, 3];
        let bp = BufferPlan::plan(&out_elems, &last_use);
        assert_eq!(bp.slots(), 2);
        assert_eq!(bp.slot_of_op[0], bp.slot_of_op[2]);
        assert_eq!(bp.peak_elems, 70 + 40);
    }

    #[test]
    fn empty_plan() {
        let bp = BufferPlan::plan(&[], &[]);
        assert_eq!(bp.slots(), 0);
        assert_eq!(bp.peak_elems, 0);
        assert_eq!(bp.naive_elems, 0);
    }
}
