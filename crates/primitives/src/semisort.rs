//! Semisort and its derived operations `groupBy` and `sumBy` (§2).
//!
//! The semisorting problem: reorganize keyed records so equal keys are
//! adjacent, in any order. The paper uses it (following [Gu, Shun, Sun,
//! Blelloch '15; Valiant '90]) as the engine behind every "gather the
//! updates per target set" step, at `O(n)` expected work and `O(log n)` depth
//! whp.
//!
//! Implementation: hash every key with the fast hasher, parallel-sort by
//! hash, then split into runs of equal hash and resolve (rare) collisions
//! within each run by exact key equality. Sorting by 64-bit hash is `O(n log
//! n)` comparisons rather than the model's `O(n)`; the cost *meter* charges
//! the model cost (that is what the experiments bound), and on real hardware
//! the sort is competitive with bucketed semisort at our scales. Small inputs
//! take a sequential hash-map path.

use std::hash::Hash;

use crate::cost::CostHint;
use crate::hash::{fx_hash, FxHashMap};
use crate::par::{par_sort_by_key, should_par_hint};

/// Semisorting hashes and compares per element: Medium cost. Below this
/// class's cutoff the sequential hash-map path wins outright.
const HINT: CostHint = CostHint::Medium;

/// Group values by key: the paper's `groupBy`. Returns one `(key, values)`
/// pair per distinct key. Order of groups and of values within a group is
/// unspecified (semisorted).
///
/// # Examples
/// ```
/// use pbdmm_primitives::group_by;
///
/// let mut groups = group_by(vec![(1, 'a'), (2, 'b'), (1, 'c')]);
/// groups.sort_by_key(|g| g.0);
/// assert_eq!(groups.len(), 2);
/// assert_eq!(groups[0].1.len(), 2); // key 1 has two values
/// ```
pub fn group_by<K, V>(pairs: Vec<(K, V)>) -> Vec<(K, Vec<V>)>
where
    K: Hash + Eq + Clone + Send + Sync,
    V: Send + Sync,
{
    if !should_par_hint(pairs.len(), HINT) {
        let mut map: FxHashMap<K, Vec<V>> = FxHashMap::default();
        for (k, v) in pairs {
            map.entry(k).or_default().push(v);
        }
        return map.into_iter().collect();
    }
    let mut keyed: Vec<(u64, K, Option<V>)> = pairs
        .into_iter()
        .map(|(k, v)| (fx_hash(&k), k, Some(v)))
        .collect();
    par_sort_by_key(&mut keyed, |t| t.0);
    let mut out: Vec<(K, Vec<V>)> = Vec::new();
    let mut i = 0;
    while i < keyed.len() {
        let h = keyed[i].0;
        let mut j = i;
        while j < keyed.len() && keyed[j].0 == h {
            j += 1;
        }
        // Within a hash run, group by exact key: runs are almost always a
        // single key, with (rare) collisions resolved by the map path.
        if j - i == 1 || keyed[i + 1..j].iter().all(|t| t.1 == keyed[i].1) {
            let key = keyed[i].1.clone();
            let vals: Vec<V> = keyed[i..j]
                .iter_mut()
                .map(|t| t.2.take().unwrap())
                .collect();
            out.push((key, vals));
        } else {
            let mut map: FxHashMap<K, Vec<V>> = FxHashMap::default();
            for t in keyed[i..j].iter_mut() {
                map.entry(t.1.clone())
                    .or_default()
                    .push(t.2.take().unwrap());
            }
            out.extend(map);
        }
        i = j;
    }
    out
}

/// Sum values per key: the paper's `sumBy`.
pub fn sum_by<K>(pairs: Vec<(K, u64)>) -> Vec<(K, u64)>
where
    K: Hash + Eq + Clone + Send + Sync,
{
    if !should_par_hint(pairs.len(), HINT) {
        let mut map: FxHashMap<K, u64> = FxHashMap::default();
        for (k, v) in pairs {
            *map.entry(k).or_insert(0) += v;
        }
        return map.into_iter().collect();
    }
    let mut keyed: Vec<(u64, K, u64)> = pairs
        .into_iter()
        .map(|(k, v)| (fx_hash(&k), k, v))
        .collect();
    par_sort_by_key(&mut keyed, |t| t.0);
    let mut out: Vec<(K, u64)> = Vec::new();
    let mut i = 0;
    while i < keyed.len() {
        let h = keyed[i].0;
        let mut j = i;
        while j < keyed.len() && keyed[j].0 == h {
            j += 1;
        }
        if keyed[i..j].iter().all(|t| t.1 == keyed[i].1) {
            let total: u64 = keyed[i..j].iter().map(|t| t.2).sum();
            out.push((keyed[i].1.clone(), total));
        } else {
            let mut map: FxHashMap<K, u64> = FxHashMap::default();
            for t in &keyed[i..j] {
                *map.entry(t.1.clone()).or_insert(0) += t.2;
            }
            out.extend(map);
        }
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
        v.sort();
        v
    }

    #[test]
    fn group_by_small() {
        let pairs = vec![(1u32, 'a'), (2, 'b'), (1, 'c')];
        let mut groups = group_by(pairs);
        groups.sort_by_key(|g| g.0);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, 1);
        assert_eq!(sorted(groups[0].1.clone()), vec!['a', 'c']);
        assert_eq!(groups[1].1, vec!['b']);
    }

    #[test]
    fn group_by_large_matches_hashmap() {
        let pairs: Vec<(u32, u32)> = (0..50_000).map(|i| (i % 257, i)).collect();
        let groups = group_by(pairs.clone());
        assert_eq!(groups.len(), 257);
        let mut want: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        for (k, v) in pairs {
            want.entry(k).or_default().push(v);
        }
        for (k, vs) in groups {
            assert_eq!(sorted(vs), sorted(want.remove(&k).unwrap()));
        }
        assert!(want.is_empty());
    }

    #[test]
    fn group_by_all_same_key() {
        let pairs: Vec<(u8, u32)> = (0..20_000).map(|i| (7u8, i)).collect();
        let groups = group_by(pairs);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].1.len(), 20_000);
    }

    #[test]
    fn group_by_all_distinct_keys() {
        let pairs: Vec<(u32, u32)> = (0..20_000).map(|i| (i, i * 2)).collect();
        let groups = group_by(pairs);
        assert_eq!(groups.len(), 20_000);
        assert!(groups.iter().all(|(k, vs)| vs == &vec![k * 2]));
    }

    #[test]
    fn sum_by_small_and_large() {
        let small = sum_by(vec![(1u32, 5), (2, 1), (1, 3)]);
        let mut small = small;
        small.sort();
        assert_eq!(small, vec![(1, 8), (2, 1)]);

        let pairs: Vec<(u32, u64)> = (0..60_000).map(|i| (i % 100, 1)).collect();
        let mut sums = sum_by(pairs);
        sums.sort();
        assert_eq!(sums.len(), 100);
        assert!(sums.iter().all(|&(_, c)| c == 600));
    }

    #[test]
    fn group_by_empty() {
        let groups: Vec<(u32, Vec<u32>)> = group_by(vec![]);
        assert!(groups.is_empty());
    }

    #[test]
    fn group_by_string_keys() {
        // Non-Copy keys exercise the clone/move handling in the hash-run path.
        let pairs: Vec<(String, u32)> =
            (0..10_000).map(|i| (format!("key{}", i % 50), i)).collect();
        let groups = group_by(pairs);
        assert_eq!(groups.len(), 50);
        let total: usize = groups.iter().map(|g| g.1.len()).sum();
        assert_eq!(total, 10_000);
    }
}
