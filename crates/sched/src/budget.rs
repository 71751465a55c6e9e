//! Reservation-style KV budgeting over the allocators: the one KV
//! ledger of both runtimes.
//!
//! The simulator's lazy FIFO path can afford vLLM-style over-commit
//! because it can preempt a sequence and recompute it for free; the live
//! engine cannot evict a sequence out of a running batch without
//! replaying it, so reserved admission ([`crate::Admission`]) admits
//! conservatively instead: a sequence is admitted only if its *maximum*
//! context (rounded up to whole blocks for the paged allocator) fits in
//! the unreserved remainder of the pool. Under that discipline
//! mid-decode appends can never fail, which is exactly the invariant the
//! live scheduler needs. The underlying [`KvAllocator`] still does the
//! token-level bookkeeping so utilization stats stay honest; the lazy
//! path reaches it through [`KvBudget::allocator`] and reserves nothing.

use crate::allocator::{KvAllocator, MonolithicAllocator, PagedAllocator};
use std::collections::HashMap;
use std::fmt;

/// The KV reservation invariant was violated: an append failed for a
/// sequence whose maximum context was reserved at admission. This is an
/// accounting bug, but it must fail only the offending request (typed,
/// counted in the report) — never abort the process mid-serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetError {
    /// The sequence whose append failed.
    pub id: u64,
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KV reservation invariant violated: append failed for admitted sequence {}",
            self.id
        )
    }
}

impl std::error::Error for BudgetError {}

/// A KV pool plus the reservations admitted sequences hold against it.
pub struct KvBudget {
    alloc: Box<dyn KvAllocator + Send>,
    capacity_tokens: u64,
    block_tokens: u64,
    reserved_tokens: u64,
    /// Fraction of the pool usable for *new* admissions (1.0 = healthy).
    /// Lowered under injected or real memory pressure; existing
    /// reservations are never revoked.
    pressure_factor: f64,
    costs: HashMap<u64, u64>,
}

impl KvBudget {
    /// A pool of `capacity_tokens`: paged with `kv_block_tokens`-token
    /// blocks when `Some`, monolithic otherwise.
    pub fn new(capacity_tokens: u64, kv_block_tokens: Option<u32>) -> Self {
        let (alloc, block_tokens): (Box<dyn KvAllocator + Send>, u64) = match kv_block_tokens {
            Some(b) => (
                Box::new(PagedAllocator::new(capacity_tokens, b)),
                u64::from(b),
            ),
            None => (Box::new(MonolithicAllocator::new(capacity_tokens)), 1),
        };
        Self {
            alloc,
            capacity_tokens,
            block_tokens,
            reserved_tokens: 0,
            pressure_factor: 1.0,
            costs: HashMap::new(),
        }
    }

    /// Set the fraction of the pool available to new admissions
    /// (clamped to (0, 1]). Under pressure, admission throttles;
    /// sequences already holding reservations are unaffected.
    pub fn set_pressure_factor(&mut self, factor: f64) {
        self.pressure_factor = factor.clamp(f64::MIN_POSITIVE, 1.0);
    }

    /// The fraction of the pool available to new admissions.
    pub fn pressure_factor(&self) -> f64 {
        self.pressure_factor
    }

    /// Whether admissions are currently throttled by memory pressure.
    pub fn under_pressure(&self) -> bool {
        self.pressure_factor < 1.0
    }

    /// Capacity usable for new admissions right now.
    fn effective_capacity(&self) -> u64 {
        (self.capacity_tokens as f64 * self.pressure_factor).floor() as u64
    }

    /// Reservation cost of a sequence: max context rounded up to blocks.
    fn cost(&self, max_context: u32) -> u64 {
        u64::from(max_context).div_ceil(self.block_tokens) * self.block_tokens
    }

    /// Whether a sequence of this size could ever be admitted, even into
    /// an empty pool.
    pub fn fits_ever(&self, max_context: u32) -> bool {
        self.cost(max_context) <= self.capacity_tokens
    }

    /// Try to admit a sequence and account its prompt. Returns `false`
    /// (pool unchanged) if the reservation does not fit right now.
    pub fn try_admit(&mut self, id: u64, max_context: u32, prompt_tokens: u32) -> bool {
        let cost = self.cost(max_context);
        if self.reserved_tokens + cost > self.effective_capacity() {
            return false;
        }
        if !self.alloc.can_admit(max_context) || self.alloc.admit(id, max_context).is_err() {
            // Monolithic pools can refuse a fitting reservation under
            // external fragmentation (§IV-B2) — the caller keeps the
            // request queued until extents coalesce.
            return false;
        }
        if self.alloc.append(id, prompt_tokens).is_err() {
            self.alloc.release(id);
            return false;
        }
        self.reserved_tokens += cost;
        self.costs.insert(id, cost);
        true
    }

    /// Account one decoded token. Infallible under the reservation
    /// discipline; a failure indicates an accounting bug and is returned
    /// as a typed [`BudgetError`] so the scheduler can fail the one
    /// offending request instead of aborting the whole process.
    pub fn append_one(&mut self, id: u64) -> Result<(), BudgetError> {
        self.alloc.append(id, 1).map_err(|_| BudgetError { id })
    }

    /// Release a finished sequence's reservation.
    pub fn release(&mut self, id: u64) {
        self.alloc.release(id);
        if let Some(cost) = self.costs.remove(&id) {
            self.reserved_tokens -= cost;
        }
    }

    /// Tokens currently reserved by live sequences — the load signal
    /// the pool router's least-loaded policy balances on.
    pub fn reserved_tokens(&self) -> u64 {
        self.reserved_tokens
    }

    /// Fraction of the pool holding live tokens right now.
    pub fn utilization(&self) -> f64 {
        self.alloc.stats().utilization()
    }

    /// The allocator behind the ledger, for admission paths that append
    /// lazily instead of reserving.
    pub fn allocator(&mut self) -> &mut dyn KvAllocator {
        self.alloc.as_mut()
    }

    /// Whether no sequence currently holds a reservation.
    pub fn is_idle(&self) -> bool {
        self.reserved_tokens == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservation_caps_admission() {
        // 100-token pool, block 10: two 48-token sequences round to 50
        // each and fill it; a third is refused until one releases.
        let mut b = KvBudget::new(100, Some(10));
        assert!(b.try_admit(1, 48, 8));
        assert!(b.try_admit(2, 48, 8));
        assert!(!b.try_admit(3, 48, 8));
        b.release(1);
        assert!(b.try_admit(3, 48, 8));
    }

    #[test]
    fn appends_never_fail_within_reservation() {
        let mut b = KvBudget::new(64, Some(16));
        assert!(b.try_admit(1, 64, 32));
        for _ in 0..32 {
            b.append_one(1).expect("within reservation");
        }
        b.release(1);
        assert!(b.is_idle());
    }

    #[test]
    fn accounting_violation_is_a_typed_error_not_an_abort() {
        let mut b = KvBudget::new(32, Some(16));
        // Appending for a sequence that was never admitted is exactly the
        // accounting bug the typed error exists for.
        let err = b.append_one(99).expect_err("unknown sequence");
        assert_eq!(err.id, 99);
        assert!(err.to_string().contains("99"));
    }

    #[test]
    fn memory_pressure_throttles_new_admissions_only() {
        let mut b = KvBudget::new(100, Some(10));
        assert!(b.try_admit(1, 40, 10));
        // Pool shrinks to half: 40 reserved + 40 new > 50 effective.
        b.set_pressure_factor(0.5);
        assert!(b.under_pressure());
        assert!(!b.try_admit(2, 40, 10));
        // The existing reservation keeps appending fine.
        b.append_one(1).expect("existing reservation unaffected");
        // Pressure lifts: the admission fits again.
        b.set_pressure_factor(1.0);
        assert!(!b.under_pressure());
        assert!(b.try_admit(2, 40, 10));
    }

    #[test]
    fn fits_ever_is_a_capacity_check() {
        let b = KvBudget::new(100, Some(16));
        assert!(b.fits_ever(96)); // rounds to 96
        assert!(!b.fits_ever(97)); // rounds to 112 > 100
        let m = KvBudget::new(100, None);
        assert!(m.fits_ever(100));
        assert!(!m.fits_ever(101));
    }

    #[test]
    fn monolithic_budget_also_enforced() {
        let mut b = KvBudget::new(100, None);
        assert!(b.try_admit(1, 60, 10));
        assert!(!b.try_admit(2, 60, 10));
        assert!(b.try_admit(2, 40, 10));
        assert!(b.utilization() > 0.0);
    }
}
