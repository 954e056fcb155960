//! # pbdmm-primitives
//!
//! Parallel primitives for the binary-forking model, as assumed by §2
//! ("Standard Algorithms") of *Blelloch & Brady, Parallel Batch-Dynamic
//! Maximal Matching with Constant Work per Update, SPAA 2025*.
//!
//! The black boxes the paper's algorithm actually runs are implemented
//! here, and nothing more:
//!
//! * [`semisort`] — semisort-backed `groupBy` and `sumBy`;
//! * [`sort`] — expected-linear bucket sort for uniformly random keys;
//! * [`permutation`] — random priorities (a uniformly random edge order);
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
//! * [`par`] — the data-parallel loops the matcher calls (`par_map`,
//!   `par_filter_map`, `par_apply_disjoint`, ...) on the pool, with one
//!   adaptive sequential-cutoff rule;
//! * [`slab`] — flat slab storage: `Vec`-backed free-list slabs and
//!   epoch-stamped dense sets/maps, the index-addressed state tables the
//!   hot path uses instead of hash structures.

#![warn(missing_docs)]

pub mod cost;
pub mod find_next;
pub mod hash;
pub mod obs;
pub mod par;
pub mod permutation;
pub mod pool;
pub mod rng;
pub mod semisort;
pub mod slab;
pub mod sort;

pub use cost::{CostHint, CostMeter, CostSnapshot};
pub use find_next::{find_next, find_next_in};
pub use hash::{fx_hash, mix64, FxHashMap, FxHashSet};
pub use obs::{Counter, Phase, ProfileReport, Recorder};
pub use permutation::{random_priorities, Priority};
pub use pool::ParPool;
pub use rng::SplitMix64;
pub use semisort::{group_by, sum_by};
pub use slab::{EpochMap, EpochSet, Slab};
