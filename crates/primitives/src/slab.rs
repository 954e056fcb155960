//! Flat slab storage: the dense, index-addressed building blocks behind the
//! hot-path state tables.
//!
//! The theoretically-efficient parallel graph systems this repo follows
//! (CSR/dense-array state, not pointer/hash structures) get their constant
//! factors from index-addressed storage: an id *is* a slot, a lookup is one
//! array access, iteration is a linear scan of live slots. This module
//! provides the generic pieces:
//!
//! * [`Slab`] — a `Vec`-backed id allocator with a LIFO free list: `O(1)`
//!   insert (reusing freed ids) and remove, and **swap-free stable ids**
//!   (an id never changes while it is live, unlike a swap-remove vector).
//!   Freed-id reuse is deterministic (LIFO in free order), so structures
//!   that allocate ids from a slab replay identically.
//! * [`EpochSet`] — a dense membership set over small integer keys with
//!   `O(1)` insert/contains and `O(1)` *clear* (bump the epoch stamp instead
//!   of touching the array). The batch logic reuses one set across millions
//!   of settlement rounds without ever re-zeroing memory.
//! * [`EpochMap`] — the keyed variant: an epoch-stamped dense `key → value`
//!   map, used e.g. to compact sparse vertex ids into a dense range once per
//!   greedy call without hashing.

/// A `Vec`-backed id allocator with free-list reuse.
///
/// Ids handed out by [`Slab::insert`] are stable until removed (no
/// swapping), and freed ids are reused LIFO — deterministic, so id
/// assignment driven by a slab is reproducible in apply order.
///
/// # Examples
/// ```
/// use pbdmm_primitives::slab::Slab;
///
/// let mut s = Slab::new();
/// let a = s.insert();
/// let b = s.insert();
/// assert!(s.remove(a));
/// // The freed id is reused (LIFO), so ids stay dense.
/// let c = s.insert();
/// assert_eq!(c, a);
/// assert_ne!(c, b);
/// assert_eq!(s.high_water(), 2); // never grew past two slots
/// ```
#[derive(Debug, Clone, Default)]
pub struct Slab {
    /// `live[i]`: is id `i` currently handed out?
    live: Vec<bool>,
    free: Vec<u32>,
}

impl Slab {
    /// Create an empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate an id: the most recently freed one if any (LIFO), else a
    /// fresh one past the high-water mark.
    pub fn insert(&mut self) -> usize {
        match self.free.pop() {
            Some(i) => {
                debug_assert!(!self.live[i as usize]);
                self.live[i as usize] = true;
                i as usize
            }
            None => {
                self.live.push(true);
                self.live.len() - 1
            }
        }
    }

    /// Free `key` for reuse. Returns `false` (and does nothing) if `key`
    /// is not currently handed out.
    pub fn remove(&mut self, key: usize) -> bool {
        match self.live.get_mut(key) {
            Some(live) if *live => {
                *live = false;
                self.free.push(key as u32);
                true
            }
            _ => false,
        }
    }

    /// High-water mark: total ids ever allocated (live + free). The
    /// occupancy ratio against it is the storage-efficiency telemetry the
    /// benches record.
    #[inline]
    pub fn high_water(&self) -> usize {
        self.live.len()
    }

    /// Number of freed ids currently awaiting reuse.
    #[inline]
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// The free list in reuse order: the *last* entry is the next id
    /// [`Self::insert`] hands out (LIFO). Serialized verbatim by
    /// checkpoints so a restored slab allocates identically.
    #[inline]
    pub fn free_list(&self) -> &[u32] {
        &self.free
    }

    /// Rebuild a slab from its high-water mark and free list (the
    /// checkpoint-restore hook for id allocators): every id below
    /// `high_water` that is not on the free list is live, and the free
    /// list's LIFO order is preserved verbatim so the restored slab hands
    /// out ids identically. Rejects out-of-range or duplicate free ids.
    pub fn from_occupancy(high_water: usize, free: Vec<u32>) -> Result<Self, String> {
        let mut live = vec![true; high_water];
        for &i in &free {
            let slot = live
                .get_mut(i as usize)
                .ok_or_else(|| format!("free index {i} beyond high water {high_water}"))?;
            if !std::mem::replace(slot, false) {
                return Err(format!("free index {i} repeated"));
            }
        }
        Ok(Slab { live, free })
    }
}

/// A dense membership set over `usize` keys with `O(1)` clear.
///
/// Each key has a stamp; a key is a member iff its stamp equals the current
/// epoch, so [`EpochSet::clear`] is a single counter bump — no memory
/// traffic proportional to capacity. Grows on demand; keys should be dense
/// (memory is proportional to the largest key seen).
///
/// # Examples
/// ```
/// use pbdmm_primitives::slab::EpochSet;
///
/// let mut s = EpochSet::default();
/// assert!(s.insert(3));
/// assert!(!s.insert(3)); // already present
/// assert!(s.contains(3));
/// s.clear(); // O(1)
/// assert!(!s.contains(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct EpochSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl EpochSet {
    /// Create an empty set pre-sized for keys `< n`.
    pub fn with_capacity(n: usize) -> Self {
        EpochSet {
            stamp: vec![0; n],
            epoch: 0,
        }
    }

    /// Remove every member in `O(1)`.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            // Stamp wrap-around: pay one real reset every 2^32 - 1 clears.
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Insert `key`; returns `true` if it was not already a member.
    pub fn insert(&mut self, key: usize) -> bool {
        if self.epoch == 0 {
            self.epoch = 1;
        }
        if key >= self.stamp.len() {
            self.stamp.resize(key + 1, 0);
        }
        if self.stamp[key] == self.epoch {
            false
        } else {
            self.stamp[key] = self.epoch;
            true
        }
    }

    /// Is `key` a member?
    #[inline]
    pub fn contains(&self, key: usize) -> bool {
        self.epoch != 0 && self.stamp.get(key) == Some(&self.epoch)
    }
}

/// An epoch-stamped dense `key → value` map over `usize` keys: `O(1)`
/// insert/get/clear, memory proportional to the largest key. The greedy
/// matcher uses one to compact sparse global vertex ids into a dense range
/// per call without a hash table.
///
/// # Examples
/// ```
/// use pbdmm_primitives::slab::EpochMap;
///
/// let mut m: EpochMap<u32> = EpochMap::default();
/// assert_eq!(m.get(5), None);
/// m.insert(5, 42);
/// assert_eq!(m.get(5), Some(42));
/// m.clear(); // O(1)
/// assert_eq!(m.get(5), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EpochMap<V: Copy> {
    stamp: Vec<u32>,
    value: Vec<V>,
    epoch: u32,
}

impl<V: Copy + Default> EpochMap<V> {
    /// Remove every entry in `O(1)`.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Map `key` to `value` (overwrites).
    pub fn insert(&mut self, key: usize, value: V) {
        if self.epoch == 0 {
            self.epoch = 1;
        }
        if key >= self.stamp.len() {
            self.stamp.resize(key + 1, 0);
            self.value.resize(key + 1, V::default());
        }
        self.stamp[key] = self.epoch;
        self.value[key] = value;
    }

    /// The value mapped to `key`, if present.
    #[inline]
    pub fn get(&self, key: usize) -> Option<V> {
        if self.epoch != 0 && self.stamp.get(key) == Some(&self.epoch) {
            Some(self.value[key])
        } else {
            None
        }
    }

    /// Slots ever allocated (one per distinct key seen): the map's memory
    /// high-water mark, which `clear` does not shrink.
    pub fn high_water(&self) -> usize {
        self.stamp.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_insert_get_remove() {
        let mut s = Slab::new();
        let a = s.insert();
        let b = s.insert();
        assert_eq!((a, b), (0, 1));
        assert!(s.remove(a));
        assert!(!s.remove(a), "double remove is a no-op");
        assert!(!s.remove(7), "removing an id never handed out is a no-op");
        assert_eq!(s.free_list(), &[a as u32]);
        assert_eq!(s.high_water(), 2);
    }

    #[test]
    fn slab_reuses_freed_slots_lifo() {
        let mut s = Slab::new();
        let ids: Vec<usize> = (0..4).map(|_| s.insert()).collect();
        s.remove(ids[1]);
        s.remove(ids[3]);
        // LIFO: most recently freed first.
        assert_eq!(s.insert(), ids[3]);
        assert_eq!(s.insert(), ids[1]);
        // Exhausted free list appends a fresh slot.
        assert_eq!(s.insert(), 4);
        assert_eq!(s.high_water(), 5);
        assert_eq!(s.free_slots(), 0);
    }

    #[test]
    fn slab_ids_are_stable_across_unrelated_removals() {
        let mut s = Slab::new();
        let keep = s.insert();
        let gone = s.insert();
        s.insert();
        s.remove(gone);
        // Unlike swap-remove vectors, removing `gone` leaves `keep` live
        // under its own id.
        assert!(!s.remove(gone), "gone is dead");
        assert!(s.remove(keep), "keep is still live");
    }

    #[test]
    fn slab_high_water_tracks_total_slots() {
        let mut s = Slab::new();
        for _ in 0..100 {
            s.insert();
        }
        for i in 0..100 {
            s.remove(i);
        }
        for _ in 0..100 {
            s.insert(); // all reused
        }
        assert_eq!(s.high_water(), 100);
        assert_eq!(s.free_slots(), 0);
    }

    #[test]
    fn slab_from_occupancy_allocates_like_the_original() {
        let mut s = Slab::new();
        for _ in 0..6 {
            s.insert();
        }
        s.remove(4);
        s.remove(1);
        let mut restored = Slab::from_occupancy(s.high_water(), s.free_list().to_vec()).unwrap();
        for _ in 0..4 {
            assert_eq!(restored.insert(), s.insert());
        }
        assert!(
            Slab::from_occupancy(2, vec![2]).is_err(),
            "beyond high water"
        );
        assert!(Slab::from_occupancy(3, vec![1, 1]).is_err(), "repeated");
    }

    #[test]
    fn epoch_set_clear_is_logical() {
        let mut s = EpochSet::with_capacity(8);
        assert!(s.insert(1));
        assert!(s.insert(100)); // grows past the pre-size
        assert!(!s.insert(100));
        assert!(s.contains(1) && s.contains(100));
        assert!(!s.contains(2));
        s.clear();
        assert!(!s.contains(1) && !s.contains(100));
        assert!(s.insert(1));
    }

    #[test]
    fn epoch_set_fresh_contains_nothing() {
        let s = EpochSet::default();
        assert!(!s.contains(0));
    }

    #[test]
    fn epoch_map_insert_get_clear() {
        let mut m: EpochMap<u32> = EpochMap::default();
        m.insert(3, 30);
        m.insert(3, 31); // overwrite
        assert_eq!(m.get(3), Some(31));
        assert_eq!(m.get(4), None);
        m.clear();
        assert_eq!(m.get(3), None);
        m.insert(3, 99);
        assert_eq!(m.get(3), Some(99));
    }

    #[test]
    fn epoch_set_survives_many_clears() {
        let mut s = EpochSet::with_capacity(2);
        for round in 0..10_000usize {
            s.clear();
            assert!(s.insert(round % 2));
            assert!(s.contains(round % 2));
            assert!(!s.contains(1 - round % 2));
        }
    }
}
