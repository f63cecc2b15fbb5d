//! Wire forms for subscriptions and notifications, declared once with
//! `gisolap_store::messages!` for the types `registry` and `standing`
//! define. Every field format and code table (level/aggregate/measure,
//! region box, rows, optional values) is `gisolap_store::codec`'s; the
//! serve protocol nests both inside its `Subscribe` request and
//! `Notifications` reply.

use crate::registry::{SubId, Subscription, Threshold};
use crate::standing::{Crossing, Notification};
use gisolap_store::codec::{
    dec_agg, dec_bbox, dec_level, dec_measure, decode_rows, enc_agg, enc_bbox, enc_level,
    enc_measure, encode_rows, Dec, Enc,
};
use gisolap_store::{messages, Result};

messages! {
    impl struct Threshold {
        rise: f64 = f64,
        fall: f64 = f64,
    }
}

messages! {
    // Shape only: registration validates, so the server refuses an
    // unanswerable subscription with its own error.
    impl struct Subscription {
        region: Option<BBox> = (opt "region" [enc_bbox, dec_bbox]),
        level: TimeLevel = [enc_level, dec_level],
        measure: Measure = [enc_measure, dec_measure],
        agg: AggFn = [enc_agg, dec_agg],
        window_hours: Option<u32> = (opt "window" u32),
        threshold: Option<Threshold> = (opt "threshold" (msg Threshold)),
    }
}

messages! {
    // Values travel as IEEE-754 bit patterns, so even a NaN roundtrips
    // exactly.
    impl struct Notification {
        sub: SubId = (wrap SubId, u64),
        seq: u64 = u64,
        partition: i64 = i64,
        rows: Vec<RollupRow> = [encode_rows, decode_rows],
        value: Option<f64> = (opt "value" f64),
        prev: Option<f64> = (opt "previous-value" f64),
        crossing: Option<Crossing> = [enc_crossing, dec_crossing],
    }
}

/// A crossing as one code byte: 0 none, 1 up, 2 down.
fn enc_crossing(e: &mut Enc, c: &Option<Crossing>) {
    e.u8(match c {
        None => 0,
        Some(Crossing::Up) => 1,
        Some(Crossing::Down) => 2,
    });
}

fn dec_crossing(d: &mut Dec<'_>) -> Result<Option<Crossing>> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(Crossing::Up)),
        2 => Ok(Some(Crossing::Down)),
        c => Err(d.corrupt(format!("unknown crossing code {c}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_geom::BBox;
    use gisolap_olap::agg::AggFn;
    use gisolap_olap::time::TimeLevel;
    use gisolap_store::codec::read_single_frame;
    use gisolap_stream::{Measure, RollupRow};
    use proptest::prelude::*;

    const WIRE: &str = "sub-wire";

    /// Decodes one framed message with `decode`, strictly.
    fn unframe<T>(bytes: &[u8], decode: fn(&[u8], &str) -> Result<T>) -> Result<T> {
        decode(read_single_frame(bytes, WIRE)?, WIRE)
    }

    fn subscriptions() -> Vec<Subscription> {
        vec![
            Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Count),
            Subscription::new(TimeLevel::Day, Measure::Y, AggFn::Avg)
                .in_region(BBox::new(-1.5, 0.0, 2.5, 8.0))
                .over_hours(24)
                .with_threshold(10.0, 2.0),
            Subscription::new(TimeLevel::All, Measure::Y, AggFn::Min).over_hours(1),
        ]
    }

    fn sample_notification() -> Notification {
        Notification {
            sub: SubId(42),
            seq: 7,
            partition: 3600,
            rows: vec![
                RollupRow {
                    granule: 0,
                    geo: None,
                    value: 1.25,
                },
                RollupRow {
                    granule: 3600,
                    geo: Some(9),
                    value: f64::NAN,
                },
            ],
            value: Some(f64::NEG_INFINITY),
            prev: None,
            crossing: Some(Crossing::Down),
        }
    }

    #[test]
    fn subscriptions_roundtrip() {
        for sub in subscriptions() {
            assert_eq!(unframe(&sub.encode(), Subscription::decode).unwrap(), sub);
        }
    }

    #[test]
    fn decode_is_shape_only() {
        // Encodes and decodes fine (the wire is shape-only) but is
        // unanswerable: minute level. Registration refuses it.
        let fine = Subscription::new(TimeLevel::Minute, Measure::X, AggFn::Count);
        let back = unframe(&fine.encode(), Subscription::decode).unwrap();
        let err = back.validate().unwrap_err();
        assert!(err.to_string().contains("finer"), "{err}");
    }

    #[test]
    fn notifications_roundtrip_bit_exactly() {
        let n = sample_notification();
        let got = unframe(&n.encode(), Notification::decode).unwrap();
        assert_eq!(
            (got.sub, got.seq, got.partition),
            (n.sub, n.seq, n.partition)
        );
        assert_eq!(got.prev, n.prev);
        assert_eq!(got.crossing, n.crossing);
        assert_eq!(got.value.map(f64::to_bits), n.value.map(f64::to_bits));
        assert_eq!(got.rows.len(), n.rows.len());
        for (g, w) in got.rows.iter().zip(&n.rows) {
            assert_eq!((g.granule, g.geo), (w.granule, w.geo));
            assert_eq!(g.value.to_bits(), w.value.to_bits());
        }
    }

    #[test]
    fn implausible_row_count_fails_fast() {
        let mut e = Enc::framed();
        e.u64(1); // sub
        e.u64(2); // seq
        e.i64(0); // partition
        e.u64(u64::MAX / 32); // declared rows
        let err = unframe(&e.into_framed(), Notification::decode).unwrap_err();
        assert!(err.to_string().contains("declares"), "{err}");
    }

    #[test]
    fn unknown_crossing_codes_are_refused() {
        let mut n = sample_notification();
        n.crossing = None;
        let mut framed = n.encode();
        // The crossing byte is the payload's last, before the checksum.
        let at = framed.len() - 5;
        framed[at] = 3;
        let payload = &framed[4..framed.len() - 4];
        let err = Notification::decode(payload, WIRE).unwrap_err();
        assert!(err.to_string().contains("unknown crossing code 3"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn flipped_subscription_bytes_never_roundtrip_wrong(idx in 0usize..200, bit in 0u8..8) {
            let sub = subscriptions().remove(1);
            let mut bytes = sub.encode();
            let idx = idx % bytes.len();
            bytes[idx] ^= 1 << bit;
            // The CRC envelope rejects the flip; decode never panics and
            // never silently yields a different subscription.
            if let Ok(got) = unframe(&bytes, Subscription::decode) {
                prop_assert_eq!(got, sub);
            }
        }

        #[test]
        fn truncated_notifications_never_panic(cut in 0usize..100) {
            let framed = sample_notification().encode();
            let cut = cut % framed.len();
            prop_assert!(unframe(&framed[..cut], Notification::decode).is_err());
        }
    }
}
