//! Substrate bench: the §2 parallel primitives the matcher runs —
//! semisort/groupBy, random priorities, and bucket sort of random keys.

use pbdmm_bench::BenchGroup;
use pbdmm_primitives::permutation::random_priorities;
use pbdmm_primitives::rng::SplitMix64;
use pbdmm_primitives::semisort::group_by;
use pbdmm_primitives::sort::bucket_sort_ord;

fn main() {
    let mut group = BenchGroup::new("primitives").sample_size(10);
    let n = 1 << 18;

    let pairs: Vec<(u32, u32)> = (0..n as u32).map(|i| (i % 4096, i)).collect();
    group.bench(&format!("group_by/{n}"), Some(n as u64), || {
        group_by(pairs.clone())
    });

    let mut rng = SplitMix64::new(5);
    group.bench(&format!("random_priorities/{n}"), Some(n as u64), || {
        random_priorities(n, &mut rng)
    });

    // Bucket sort vs comparison sort on random priorities (§3's expected-
    // linear claim).
    let mut rng2 = SplitMix64::new(9);
    let random_keys: Vec<u64> = (0..n).map(|_| rng2.next_u64()).collect();
    group.bench(&format!("bucket_sort/{n}"), Some(n as u64), || {
        bucket_sort_ord(random_keys.clone(), |&x| x)
    });
    group.bench(&format!("comparison_sort/{n}"), Some(n as u64), || {
        let mut v = random_keys.clone();
        v.sort_unstable();
        v
    });
    group.finish();
}
