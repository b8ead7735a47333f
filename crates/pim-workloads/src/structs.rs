//! STM-backed service structures: a transactional open-addressed hashmap
//! ([`TxHashMap`]) and a bounded MPMC ring queue ([`TxQueue`]).
//!
//! These are the data structures the `pim-service` traffic generator serves
//! get/put/transfer request mixes against. Both are *handles* — plain `Copy`
//! structs holding [`TVar`]/[`TArray`] addresses into DPU memory — so the
//! same instance is shared by every tasklet and both executors, exactly like
//! the typed variables they are built from. All operations go through
//! [`TxOps`], so isolation, rollback and conflict detection come from
//! whatever STM design the engine is composed with; nothing here knows which.
//!
//! Design notes:
//!
//! * The hashmap is open-addressed with linear probing over a power-of-two
//!   table. A slot's *tag* word stores `key + 1` (0 = empty), so key 0 is a
//!   valid key and emptiness needs no separate bitmap. There is **no
//!   remove**: service mixes are get/put/transfer, and tombstone-free tables
//!   keep probe chains stable under concurrency. Occupancy is tracked in a
//!   [`TVar`] so `len` is transactional and insert-full detection is exact.
//! * The queue is a classic head/tail ring. Under STM the head and tail
//!   counters are ordinary transactional words: push/push contention on
//!   `tail` (and pop/pop on `head`) serialises through conflicts rather than
//!   CAS loops, and a composed design's contention-management policy applies
//!   unchanged.
//!
//! Capacity-exceeded outcomes are *values*, not aborts: a full map returns
//! [`MapFull`], a full/empty queue returns `false`/`None`. Retrying a full
//! structure cannot succeed, so turning it into an [`Abort`] would spin the
//! retry loop forever.

use pim_sim::{AllocError, Tier};
use pim_stm::shared::MetadataAllocator;
use pim_stm::var::{alloc_array, alloc_var, peek_var, poke_var, TArray, TVar, WordAccess};
use pim_stm::{Abort, TxOps};

/// Returned by [`TxHashMap::put`]/[`TxHashMap::transfer`] when the table has
/// no free slot for a new key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapFull;

impl std::fmt::Display for MapFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transactional hashmap is full")
    }
}

/// A transactional open-addressed hashmap from `u64` keys to `u64` values.
///
/// See the [module documentation](self) for the slot layout and the
/// no-remove rationale.
#[derive(Debug, Clone, Copy)]
pub struct TxHashMap {
    /// Per-slot tag words: `key + 1`, or 0 for an empty slot.
    tags: TArray<u64>,
    /// Per-slot value words, parallel to `tags`.
    values: TArray<u64>,
    /// Number of occupied slots.
    occupancy: TVar<u64>,
    /// Table capacity; always a power of two.
    capacity: u32,
}

impl TxHashMap {
    /// Allocates an empty table for at least `capacity` keys in `tier`
    /// (rounded up to a power of two, minimum 2).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the tier cannot hold the table.
    pub fn allocate<A: MetadataAllocator + ?Sized>(
        alloc: &mut A,
        tier: Tier,
        capacity: u32,
    ) -> Result<Self, AllocError> {
        let capacity = capacity.max(2).next_power_of_two();
        Ok(TxHashMap {
            tags: alloc_array(alloc, tier, capacity)?,
            values: alloc_array(alloc, tier, capacity)?,
            occupancy: alloc_var(alloc, tier)?,
            capacity,
        })
    }

    /// The table's slot count (≥ the requested capacity).
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Home slot of `key` (SplitMix-style mix, masked to the table size).
    fn home_slot(&self, key: u64) -> u32 {
        let mut h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        (h as u32) & (self.capacity - 1)
    }

    /// Probe sequence starting at `key`'s home slot, wrapping once around.
    fn probes(&self, key: u64) -> impl Iterator<Item = u32> {
        let home = self.home_slot(key);
        let cap = self.capacity;
        (0..cap).map(move |i| (home + i) & (cap - 1))
    }

    /// Transactional lookup.
    ///
    /// # Errors
    ///
    /// Propagates [`Abort`] from the underlying STM; bubble it up with `?`.
    pub fn get<O: TxOps>(&self, tx: &mut O, key: u64) -> Result<Option<u64>, Abort> {
        for slot in self.probes(key) {
            let tag = tx.get(self.tags.at(slot))?;
            if tag == 0 {
                return Ok(None);
            }
            if tag == key.wrapping_add(1) {
                return Ok(Some(tx.get(self.values.at(slot))?));
            }
        }
        Ok(None)
    }

    /// Transactional insert-or-update. Returns the previous value for an
    /// update, `None` for a fresh insert, or [`MapFull`] when no slot is
    /// free.
    ///
    /// # Errors
    ///
    /// Propagates [`Abort`] from the underlying STM; bubble it up with `?`.
    pub fn put<O: TxOps>(
        &self,
        tx: &mut O,
        key: u64,
        value: u64,
    ) -> Result<Result<Option<u64>, MapFull>, Abort> {
        for slot in self.probes(key) {
            let tag = tx.get(self.tags.at(slot))?;
            if tag == 0 {
                tx.set(self.tags.at(slot), key.wrapping_add(1))?;
                tx.set(self.values.at(slot), value)?;
                let n = tx.get(self.occupancy)?;
                tx.set(self.occupancy, n + 1)?;
                return Ok(Ok(None));
            }
            if tag == key.wrapping_add(1) {
                let previous = tx.get(self.values.at(slot))?;
                tx.set(self.values.at(slot), value)?;
                return Ok(Ok(Some(previous)));
            }
        }
        Ok(Err(MapFull))
    }

    /// Transactionally moves `amount` from `from`'s value to `to`'s value,
    /// treating a missing key as balance 0 (created on demand). Returns
    /// `Ok(false)` — without touching anything — when `from`'s balance is
    /// insufficient, and [`MapFull`] when `to` needs a slot the table cannot
    /// provide.
    ///
    /// # Errors
    ///
    /// Propagates [`Abort`] from the underlying STM; bubble it up with `?`.
    pub fn transfer<O: TxOps>(
        &self,
        tx: &mut O,
        from: u64,
        to: u64,
        amount: u64,
    ) -> Result<Result<bool, MapFull>, Abort> {
        if from == to {
            // A self-transfer only has to validate the balance.
            let balance = self.get(tx, from)?.unwrap_or(0);
            return Ok(Ok(balance >= amount));
        }
        let balance = self.get(tx, from)?.unwrap_or(0);
        if balance < amount {
            return Ok(Ok(false));
        }
        let credit = self.get(tx, to)?.unwrap_or(0);
        // Credit first: if `to` needs a fresh slot and the table is full the
        // transaction leaves no debit behind (and on abort the STM rolls
        // everything back anyway).
        if self.put(tx, to, credit + amount)?.is_err() {
            return Ok(Err(MapFull));
        }
        match self.put(tx, from, balance - amount)? {
            Ok(_) => Ok(Ok(true)),
            Err(full) => Ok(Err(full)),
        }
    }

    /// Transactional count of occupied slots.
    ///
    /// # Errors
    ///
    /// Propagates [`Abort`] from the underlying STM; bubble it up with `?`.
    pub fn len<O: TxOps>(&self, tx: &mut O) -> Result<u64, Abort> {
        tx.get(self.occupancy)
    }

    /// Host-side (non-transactional) lookup through direct word access —
    /// for orchestration code inspecting a quiesced DPU between rounds
    /// (e.g. shard migration in `pim-service`). Never call this while
    /// tasklets are running transactions against the table.
    pub fn host_get<M: WordAccess + ?Sized>(&self, mem: &M, key: u64) -> Option<u64> {
        for slot in self.probes(key) {
            let tag = peek_var(mem, self.tags.at(slot));
            if tag == 0 {
                return None;
            }
            if tag == key.wrapping_add(1) {
                return Some(peek_var(mem, self.values.at(slot)));
            }
        }
        None
    }

    /// Host-side (non-transactional) insert-or-update, mirroring
    /// [`TxHashMap::put`]. Same quiescence caveat as [`TxHashMap::host_get`].
    pub fn host_put<M: WordAccess + ?Sized>(
        &self,
        mem: &mut M,
        key: u64,
        value: u64,
    ) -> Result<Option<u64>, MapFull> {
        for slot in self.probes(key) {
            let tag = peek_var(mem, self.tags.at(slot));
            if tag == 0 {
                poke_var(mem, self.tags.at(slot), key.wrapping_add(1));
                poke_var(mem, self.values.at(slot), value);
                let n = peek_var(mem, self.occupancy);
                poke_var(mem, self.occupancy, n + 1);
                return Ok(None);
            }
            if tag == key.wrapping_add(1) {
                let previous = peek_var(mem, self.values.at(slot));
                poke_var(mem, self.values.at(slot), value);
                return Ok(Some(previous));
            }
        }
        Err(MapFull)
    }
}

/// A transactional bounded MPMC FIFO queue of `u64` values.
#[derive(Debug, Clone, Copy)]
pub struct TxQueue {
    /// Pop cursor (monotonically increasing; slot = `head % capacity`).
    head: TVar<u64>,
    /// Push cursor (monotonically increasing).
    tail: TVar<u64>,
    /// Ring storage.
    slots: TArray<u64>,
    /// Ring capacity.
    capacity: u32,
}

impl TxQueue {
    /// Allocates an empty queue of `capacity` slots (minimum 1) in `tier`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the tier cannot hold the ring.
    pub fn allocate<A: MetadataAllocator + ?Sized>(
        alloc: &mut A,
        tier: Tier,
        capacity: u32,
    ) -> Result<Self, AllocError> {
        let capacity = capacity.max(1);
        Ok(TxQueue {
            head: alloc_var(alloc, tier)?,
            tail: alloc_var(alloc, tier)?,
            slots: alloc_array(alloc, tier, capacity)?,
            capacity,
        })
    }

    /// The ring's slot count.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Transactional push; returns `false` (changing nothing) when full.
    ///
    /// # Errors
    ///
    /// Propagates [`Abort`] from the underlying STM; bubble it up with `?`.
    pub fn push<O: TxOps>(&self, tx: &mut O, value: u64) -> Result<bool, Abort> {
        let head = tx.get(self.head)?;
        let tail = tx.get(self.tail)?;
        if tail - head >= u64::from(self.capacity) {
            return Ok(false);
        }
        tx.set(self.slots.at((tail % u64::from(self.capacity)) as u32), value)?;
        tx.set(self.tail, tail + 1)?;
        Ok(true)
    }

    /// Transactional pop; returns `None` when empty.
    ///
    /// # Errors
    ///
    /// Propagates [`Abort`] from the underlying STM; bubble it up with `?`.
    pub fn pop<O: TxOps>(&self, tx: &mut O) -> Result<Option<u64>, Abort> {
        let head = tx.get(self.head)?;
        let tail = tx.get(self.tail)?;
        if head == tail {
            return Ok(None);
        }
        let value = tx.get(self.slots.at((head % u64::from(self.capacity)) as u32))?;
        tx.set(self.head, head + 1)?;
        Ok(Some(value))
    }

    /// Transactional element count.
    ///
    /// # Errors
    ///
    /// Propagates [`Abort`] from the underlying STM; bubble it up with `?`.
    pub fn len<O: TxOps>(&self, tx: &mut O) -> Result<u64, Abort> {
        let head = tx.get(self.head)?;
        let tail = tx.get(self.tail)?;
        Ok(tail - head)
    }

    /// Host-side (non-transactional) snapshot of the queued values, oldest
    /// first. Same quiescence caveat as [`TxHashMap::host_get`].
    pub fn host_items<M: WordAccess + ?Sized>(&self, mem: &M) -> Vec<u64> {
        let head = peek_var(mem, self.head);
        let tail = peek_var(mem, self.tail);
        (head..tail)
            .map(|i| peek_var(mem, self.slots.at((i % u64::from(self.capacity)) as u32)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_stm::threaded::ThreadedDpu;
    use pim_stm::{MetadataPlacement, StmConfig, StmKind};

    fn dpu() -> ThreadedDpu {
        let cfg = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram)
            .with_lock_table_entries(256)
            .with_read_set_capacity(256)
            .with_write_set_capacity(128);
        ThreadedDpu::new(cfg).unwrap()
    }

    #[test]
    fn hashmap_put_get_roundtrip_including_key_zero() {
        let mut dpu = dpu();
        let map = TxHashMap::allocate(&mut dpu, Tier::Mram, 16).unwrap();
        dpu.run(1, |mut tx| {
            tx.transaction(|v| {
                assert_eq!(map.get(v, 0)?, None);
                assert_eq!(map.put(v, 0, 77)?, Ok(None));
                assert_eq!(map.put(v, 5, 55)?, Ok(None));
                assert_eq!(map.get(v, 0)?, Some(77));
                assert_eq!(map.put(v, 0, 78)?, Ok(Some(77)));
                assert_eq!(map.get(v, 0)?, Some(78));
                assert_eq!(map.len(v)?, 2);
                Ok(())
            });
        })
        .unwrap();
    }

    #[test]
    fn hashmap_full_is_a_value_not_an_abort() {
        let mut dpu = dpu();
        let map = TxHashMap::allocate(&mut dpu, Tier::Mram, 2).unwrap();
        assert_eq!(map.capacity(), 2);
        dpu.run(1, |mut tx| {
            tx.transaction(|v| {
                assert_eq!(map.put(v, 1, 1)?, Ok(None));
                assert_eq!(map.put(v, 2, 2)?, Ok(None));
                assert_eq!(map.put(v, 3, 3)?, Err(MapFull));
                // Updates of resident keys still succeed when full.
                assert_eq!(map.put(v, 1, 10)?, Ok(Some(1)));
                Ok(())
            });
        })
        .unwrap();
    }

    #[test]
    fn transfer_moves_balance_and_respects_funds() {
        let mut dpu = dpu();
        let map = TxHashMap::allocate(&mut dpu, Tier::Mram, 16).unwrap();
        dpu.run(1, |mut tx| {
            tx.transaction(|v| {
                map.put(v, 1, 100)?.unwrap();
                assert_eq!(map.transfer(v, 1, 2, 30)?, Ok(true));
                assert_eq!(map.get(v, 1)?, Some(70));
                assert_eq!(map.get(v, 2)?, Some(30));
                // Insufficient funds: nothing moves.
                assert_eq!(map.transfer(v, 2, 1, 31)?, Ok(false));
                assert_eq!(map.get(v, 2)?, Some(30));
                // Missing source key = balance 0.
                assert_eq!(map.transfer(v, 9, 1, 1)?, Ok(false));
                // Self-transfer is a funds check.
                assert_eq!(map.transfer(v, 1, 1, 70)?, Ok(true));
                assert_eq!(map.transfer(v, 1, 1, 71)?, Ok(false));
                Ok(())
            });
        })
        .unwrap();
    }

    #[test]
    fn queue_is_fifo_and_bounded() {
        let mut dpu = dpu();
        let queue = TxQueue::allocate(&mut dpu, Tier::Mram, 3).unwrap();
        dpu.run(1, |mut tx| {
            tx.transaction(|v| {
                assert_eq!(queue.pop(v)?, None);
                assert!(queue.push(v, 10)?);
                assert!(queue.push(v, 20)?);
                assert!(queue.push(v, 30)?);
                assert!(!queue.push(v, 40)?, "4th push into a 3-slot ring must report full");
                assert_eq!(queue.len(v)?, 3);
                assert_eq!(queue.pop(v)?, Some(10));
                assert!(queue.push(v, 40)?, "a freed slot is reusable");
                assert_eq!(queue.pop(v)?, Some(20));
                assert_eq!(queue.pop(v)?, Some(30));
                assert_eq!(queue.pop(v)?, Some(40));
                assert_eq!(queue.pop(v)?, None);
                Ok(())
            });
        })
        .unwrap();
    }
}
