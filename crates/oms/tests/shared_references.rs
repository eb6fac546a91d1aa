//! The flat reference table as a value: whatever goes in — arbitrary
//! dimensions (tail words included), absent slots, appends that grow in
//! place and appends that must repack — comes back out of `hv(id)` bit
//! for bit, and handles taken earlier never see a later append.

use hdoms_hdc::BinaryHypervector;
use hdoms_oms::search::SharedReferences;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `slots` hypervectors of dimension `dim` from `seed`, every
/// `absent_every`-th slot absent.
fn random_slots(
    seed: u64,
    dim: usize,
    slots: usize,
    absent_every: usize,
) -> Vec<Option<BinaryHypervector>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..slots)
        .map(|i| (i % absent_every != 0).then(|| BinaryHypervector::random(&mut rng, dim)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packing into the flat table and reading back through `hv(id)`
    /// returns the input bits — arbitrary dimensions (tail words
    /// included), absent slots, then an append that grows in place
    /// and one that must repack because another handle shares the
    /// buffer.
    #[test]
    fn flat_table_roundtrips_its_input(
        seed in any::<u64>(),
        dim in 1usize..300,
        slots in 0usize..24,
        more in 0usize..24,
        absent_every in 2usize..6,
    ) {
        let first = random_slots(seed, dim, slots, absent_every);
        let second = random_slots(seed ^ 1, dim, more, absent_every);
        let third = random_slots(seed ^ 2, dim, more, absent_every);

        let mut table = SharedReferences::from(first.clone());
        prop_assert_eq!(table.len(), slots);
        table.append(second.clone());
        let shared = table.clone();
        table.append(third.clone());

        let expected: Vec<_> = first.iter().chain(&second).chain(&third).collect();
        prop_assert_eq!(table.len(), expected.len());
        for (id, slot) in expected.iter().enumerate() {
            let stored = table.hv(id).map(|hv| hv.to_hypervector());
            prop_assert_eq!(stored.as_ref(), slot.as_ref());
        }
        // The handle taken before the second append still sees
        // exactly what it saw: copy-on-write, not mutation under it.
        prop_assert_eq!(shared.len(), slots + more);
        prop_assert!(shared.iter().eq(table.iter().take(slots + more)));
        prop_assert!(!SharedReferences::ptr_eq(&shared, &table));
        let present = expected.iter().any(|slot| slot.is_some());
        prop_assert_eq!(table.dim(), present.then_some(dim));
    }
}

#[test]
#[should_panic(expected = "share a dimension")]
fn mixed_dimension_tables_are_rejected() {
    let mut rng = StdRng::seed_from_u64(9);
    let _ = SharedReferences::from(vec![
        Some(BinaryHypervector::random(&mut rng, 128)),
        None,
        Some(BinaryHypervector::random(&mut rng, 192)),
    ]);
}
