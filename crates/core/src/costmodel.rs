//! Runtime calibration of the §5.4 cost model.
//!
//! The leaf-capacity rule `N⊥/log₂N⊥ ≤ icost/mcost` needs the relative
//! cost of a Bloom filter intersection (`icost`, proportional to `m/64`
//! word ANDs) versus a membership query (`mcost`, `k` hash evaluations +
//! probes). Both depend on the machine and the hash family, so we measure
//! them on the spot.

use std::sync::Arc;
use std::time::Instant;

use bst_bloom::filter::BloomFilter;
use bst_bloom::hash::BloomHasher;

/// Measured per-operation costs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Nanoseconds per membership query.
    pub membership_ns: f64,
    /// Nanoseconds per filter intersection (AND + popcount over `m` bits).
    pub intersection_ns: f64,
}

impl CostModel {
    /// The `icost/mcost` ratio feeding the leaf-capacity rule.
    pub fn ratio(&self) -> f64 {
        (self.intersection_ns / self.membership_ns).max(f64::MIN_POSITIVE)
    }

    /// Measures both costs for filters built on `hasher`.
    ///
    /// Builds two half-full filters of the hasher's `m` and times
    /// `and_count` and `contains` over pseudo-random keys. Short and
    /// repeatable rather than statistically rigorous — the rule only needs
    /// the right order of magnitude.
    pub fn measure(hasher: &Arc<BloomHasher>) -> CostModel {
        let m = hasher.m();
        let mut a = BloomFilter::new(Arc::clone(hasher));
        let mut b = BloomFilter::new(Arc::clone(hasher));
        // Fill to a realistic density.
        let inserts = (m / (3 * hasher.k())).max(16) as u64;
        for x in 0..inserts {
            a.insert(x.wrapping_mul(0x9E3779B97F4A7C15) >> 8);
            b.insert(x.wrapping_mul(0xBF58476D1CE4E5B9) >> 8);
        }

        // Membership cost.
        let mem_reps: u64 = 20_000;
        let start = Instant::now();
        let mut acc = 0u64;
        for x in 0..mem_reps {
            acc += a.contains(x.wrapping_mul(0x94D049BB133111EB) >> 9) as u64;
        }
        let membership_ns = start.elapsed().as_nanos() as f64 / mem_reps as f64;
        std::hint::black_box(acc);

        // Intersection cost.
        let int_reps: u64 = (2_000_000_000 / m as u64).clamp(64, 20_000);
        let start = Instant::now();
        let mut acc2 = 0usize;
        for _ in 0..int_reps {
            acc2 = acc2.wrapping_add(a.and_count(&b));
        }
        let intersection_ns = start.elapsed().as_nanos() as f64 / int_reps as f64;
        std::hint::black_box(acc2);

        CostModel {
            membership_ns: membership_ns.max(0.1),
            intersection_ns: intersection_ns.max(0.1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bst_bloom::hash::HashKind;

    #[test]
    fn measurement_is_sane() {
        let hasher = Arc::new(BloomHasher::new(HashKind::Murmur3, 3, 60_000, 1 << 20, 1));
        let cm = CostModel::measure(&hasher);
        assert!(cm.membership_ns > 0.0);
        assert!(cm.intersection_ns > 0.0);
        // A 60k-bit intersection walks ~940 words; it must cost more than
        // a 3-hash membership probe.
        assert!(
            cm.ratio() > 1.0,
            "intersection should out-cost membership: {cm:?}"
        );
    }

    #[test]
    fn md5_membership_is_slower_than_murmur() {
        let mm = CostModel::measure(&Arc::new(BloomHasher::new(
            HashKind::Murmur3,
            3,
            60_000,
            1 << 20,
            1,
        )));
        let md5 = CostModel::measure(&Arc::new(BloomHasher::new(
            HashKind::Md5,
            3,
            60_000,
            1 << 20,
            1,
        )));
        assert!(
            md5.membership_ns > mm.membership_ns,
            "MD5 {} ns vs Murmur3 {} ns",
            md5.membership_ns,
            mm.membership_ns
        );
    }
}
