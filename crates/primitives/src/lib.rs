//! # pbdmm-primitives
//!
//! Parallel primitives for the binary-forking model, as assumed by §2
//! ("Standard Algorithms") of *Blelloch & Brady, Parallel Batch-Dynamic
//! Maximal Matching with Constant Work per Update, SPAA 2025*.
//!
//! Everything the paper treats as a black box is implemented here:
//!
//! * [`scan`] — prefix sums and filtering, `O(n)` work / `O(log n)` depth;
//! * [`semisort`] — semisort-backed `groupBy`, `sumBy`, `removeDuplicates`;
//! * [`sort`] — expected-linear bucket sort for uniformly random keys;
//! * [`permutation`] — random permutations / random priorities;
//! * [`dict`] — batch-parallel growable dictionaries;
//! * [`mod@find_next`] — the doubling + binary search pointer-slide primitive;
//! * [`hash`] — fast hashing for identifier keys;
//! * [`rng`] — seedable splittable PRNGs (the algorithm's coins);
//! * [`cost`] — work/depth metering so experiments can check the *model*
//!   bounds rather than wall-clock proxies;
//! * [`obs`] — phase-scoped observability: wall-clock timers, counters,
//!   and log₂ latency histograms for the batch pipeline (the wall-clock
//!   complement to [`cost`]'s model metering);
//! * [`pool`] — the persistent work-stealing thread pool (per-worker
//!   deques, global injector, lazy binary task splitting);
//! * [`par`] — fork-join helpers on the pool, with adaptive grain control;
//! * [`slab`] — flat slab storage: `Vec`-backed free-list slabs and
//!   epoch-stamped dense sets/maps, the index-addressed state tables the
//!   hot path uses instead of hash structures.

#![warn(missing_docs)]

pub mod cost;
pub mod dict;
pub mod find_next;
pub mod hash;
pub mod obs;
pub mod par;
pub mod permutation;
pub mod pool;
pub mod rng;
pub mod scan;
pub mod semisort;
pub mod slab;
pub mod sort;

pub use cost::{CostHint, CostMeter, CostSnapshot};
pub use dict::ConcurrentU64Set;
pub use find_next::{find_next, find_next_in};
pub use hash::{fx_hash, mix64, FxHashMap, FxHashSet};
pub use obs::{Counter, Phase, ProfileReport, Recorder};
pub use permutation::{random_permutation, random_priorities, Priority};
pub use pool::ParPool;
pub use rng::SplitMix64;
pub use scan::{exclusive_scan, filter, inclusive_scan};
pub use semisort::{count_by, group_by, remove_duplicates, sum_by};
pub use slab::{EpochMap, EpochSet, Slab};
pub use sort::{bucket_sort_by_key, bucket_sort_indices};
