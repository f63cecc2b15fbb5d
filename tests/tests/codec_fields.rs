//! Hostile-input totality of the three field primitives every decoder
//! in the workspace is built from — `Dec::f64`, `Dec::opt`, `Dec::seq`
//! (`gisolap_store::codec`): arbitrary bytes, lying counts, bad flag
//! bytes and every truncation point yield `Err`, never a panic, and
//! never an allocation ahead of the bytes actually present.

use gisolap_store::codec::{Dec, Enc};
use proptest::collection::vec;
use proptest::prelude::*;

type Item = Option<f64>;

fn read_items(bytes: &[u8], min_item_bytes: usize) -> gisolap_store::Result<Vec<Item>> {
    Dec::new(bytes, "fuzz").seq("items", min_item_bytes, |d| d.opt("value", Dec::f64))
}

fn encode(items: &[Item]) -> Vec<u8> {
    let mut e = Enc::new();
    e.seq(items, |e, item| e.opt(*item, Enc::f64));
    e.into_bytes()
}

fn bits(items: &[Item]) -> Vec<Option<u64>> {
    items.iter().map(|v| v.map(f64::to_bits)).collect()
}

fn items() -> impl Strategy<Value = Vec<Item>> {
    vec(
        prop_oneof![
            Just(None),
            (0u64..=u64::MAX).prop_map(|b| Some(f64::from_bits(b))),
        ],
        0..6,
    )
}

/// Declared counts from honest to absurd.
fn declared() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..12,
        Just(u64::MAX),
        Just(u64::MAX / 32),
        Just(1u64 << 32),
        (1u64 << 20)..(1u64 << 40),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_or_over_allocate(
        bytes in vec(0u8..=255, 0..96),
        min in 1usize..48,
    ) {
        let room = bytes.len().saturating_sub(8); // what follows the count
        if let Ok(items) = read_items(&bytes, min) {
            prop_assert!(
                items.capacity() <= room / min,
                "capacity {} for {} bytes at ≥{} each", items.capacity(), room, min
            );
        }
        let mut d = Dec::new(&bytes, "fuzz");
        let _ = d.f64();
        let _ = d.opt("value", Dec::f64);
    }

    #[test]
    fn lying_counts_are_rejected(
        declared in declared(),
        real in items(),
        min in 1usize..=9,
    ) {
        let mut bytes = declared.to_le_bytes().to_vec();
        bytes.extend_from_slice(&encode(&real)[8..]);
        let room = bytes.len() - 8;
        match read_items(&bytes, min) {
            Ok(got) => {
                // Only a count the bytes can back decodes, to exactly
                // that many items, never reserving past the input.
                prop_assert!(declared <= real.len() as u64);
                prop_assert_eq!(bits(&got), bits(&real[..declared as usize]));
                prop_assert!(got.capacity() <= room / min);
            }
            Err(_) => prop_assert!(
                declared > (room / min) as u64 || declared > real.len() as u64,
                "honest count {} over {} items rejected", declared, real.len()
            ),
        }
    }

    #[test]
    fn truncations_and_bad_flags_are_errors(
        real in items(),
        flag in 2u8..=255,
        at in 0usize..64,
    ) {
        let bytes = encode(&real);
        prop_assert_eq!(bits(&read_items(&bytes, 1).unwrap()), bits(&real));
        for cut in 0..bytes.len() {
            prop_assert!(read_items(&bytes[..cut], 1).is_err(), "cut {} decoded", cut);
        }
        if !real.is_empty() {
            // Flag bytes sit at 8, then after each item (1 or 9 bytes).
            let mut offsets = vec![8usize];
            for item in &real[..real.len() - 1] {
                let last = offsets[offsets.len() - 1];
                offsets.push(last + if item.is_some() { 9 } else { 1 });
            }
            let mut bad = bytes.clone();
            bad[offsets[at % offsets.len()]] = flag;
            let err = read_items(&bad, 1).unwrap_err().to_string();
            prop_assert!(err.contains("flag"), "{}", err);
        }
    }
}
