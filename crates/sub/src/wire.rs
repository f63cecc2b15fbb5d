//! Wire forms for subscriptions and notifications: single CRC frames
//! over the store codec, like every other protocol in the workspace.
//! Every field format and code table (level/aggregate/measure, region
//! box, rows, optional values) is `gisolap_store::codec`'s; this module
//! owns only the two message layouts.

use crate::registry::{SubId, Subscription, Threshold};
use crate::standing::{Crossing, Notification};
use gisolap_store::codec::{
    agg_code, dec_agg, dec_bbox, dec_level, dec_measure, decode_rows, enc_bbox, encode_rows, frame,
    level_code, measure_code, Dec, Enc,
};
use gisolap_store::framing::decode_single_frame;
use gisolap_store::Result;

/// The label corrupt frames are attributed to.
const WIRE: &str = "sub-wire";

/// Appends a subscription's raw encoding to `e` (no frame) — for
/// embedding in a larger message (the serve request body).
pub fn enc_subscription(e: &mut Enc, sub: &Subscription) {
    e.opt(sub.region.as_ref(), enc_bbox);
    e.u8(level_code(sub.level));
    e.u8(measure_code(sub.measure));
    e.u8(agg_code(sub.agg));
    e.opt(sub.window_hours, |e, w| e.u32(w));
    e.opt(sub.threshold, |e, t| {
        e.f64(t.rise);
        e.f64(t.fall);
    });
}

/// Decodes [`enc_subscription`]'s form. Does **not** re-validate — the
/// caller does ([`decode_subscription`], or registration itself).
pub fn dec_subscription(d: &mut Dec<'_>) -> Result<Subscription> {
    Ok(Subscription {
        region: d.opt("region", dec_bbox)?,
        level: dec_level(d)?,
        measure: dec_measure(d)?,
        agg: dec_agg(d)?,
        window_hours: d.opt("window", |d| d.u32())?,
        threshold: d.opt("threshold", |d| {
            Ok(Threshold {
                rise: d.f64()?,
                fall: d.f64()?,
            })
        })?,
    })
}

/// One CRC frame holding a subscription (the store codec's framing, the
/// envelope every wire in the workspace uses).
pub fn encode_subscription(sub: &Subscription) -> Vec<u8> {
    let mut e = Enc::new();
    enc_subscription(&mut e, sub);
    frame(&e.into_bytes())
}

/// Decodes [`encode_subscription`]'s frame, re-validating the result so
/// a frame that decodes but describes an unanswerable subscription is
/// rejected here, not at fold time.
pub fn decode_subscription(bytes: &[u8]) -> Result<Subscription> {
    let payload = decode_single_frame(bytes, WIRE, "subscription")?;
    let mut d = Dec::new(payload, WIRE);
    let sub = dec_subscription(&mut d)?;
    d.finish()?;
    sub.validate()?;
    Ok(sub)
}

/// Appends a notification's raw encoding to `e` (no frame) — for
/// embedding in the serve reply body. Values travel as IEEE-754 bit
/// patterns, so even a NaN roundtrips exactly.
pub fn enc_notification(e: &mut Enc, n: &Notification) {
    e.u64(n.sub.0);
    e.u64(n.seq);
    e.i64(n.partition);
    encode_rows(e, &n.rows);
    e.opt(n.value, Enc::f64);
    e.opt(n.prev, Enc::f64);
    e.u8(match n.crossing {
        None => 0,
        Some(Crossing::Up) => 1,
        Some(Crossing::Down) => 2,
    });
}

/// Decodes [`enc_notification`]'s form.
pub fn dec_notification(d: &mut Dec<'_>) -> Result<Notification> {
    Ok(Notification {
        sub: SubId(d.u64()?),
        seq: d.u64()?,
        partition: d.i64()?,
        rows: decode_rows(d)?,
        value: d.opt("value", Dec::f64)?,
        prev: d.opt("previous-value", Dec::f64)?,
        crossing: match d.u8()? {
            0 => None,
            1 => Some(Crossing::Up),
            2 => Some(Crossing::Down),
            c => {
                return Err(gisolap_store::framing::wire_corrupt(
                    WIRE,
                    format!("unknown crossing code {c}"),
                ))
            }
        },
    })
}

/// One CRC frame holding a notification.
pub fn encode_notification(n: &Notification) -> Vec<u8> {
    let mut e = Enc::new();
    enc_notification(&mut e, n);
    frame(&e.into_bytes())
}

/// Decodes [`encode_notification`]'s frame.
pub fn decode_notification(bytes: &[u8]) -> Result<Notification> {
    let payload = decode_single_frame(bytes, WIRE, "notification")?;
    let mut d = Dec::new(payload, WIRE);
    let n = dec_notification(&mut d)?;
    d.finish()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_geom::BBox;
    use gisolap_olap::agg::AggFn;
    use gisolap_olap::time::TimeLevel;
    use gisolap_stream::{Measure, RollupRow};
    use proptest::prelude::*;

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
            let bytes = encode_subscription(&sub);
            assert_eq!(decode_subscription(&bytes).unwrap(), sub);
        }
    }

    #[test]
    fn decode_revalidates() {
        // Encodes fine (the wire is shape-only) but is unanswerable:
        // minute level. Decode must reject it.
        let fine = Subscription::new(TimeLevel::Minute, Measure::X, AggFn::Count);
        let err = decode_subscription(&encode_subscription(&fine)).unwrap_err();
        assert!(err.to_string().contains("finer"), "{err}");
    }

    #[test]
    fn notifications_roundtrip_bit_exactly() {
        let n = sample_notification();
        let got = decode_notification(&encode_notification(&n)).unwrap();
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
        let mut e = Enc::new();
        e.u64(1); // sub
        e.u64(2); // seq
        e.i64(0); // partition
        e.u64(u64::MAX / 32); // declared rows
        let framed = frame(&e.into_bytes());
        let err = decode_notification(&framed).unwrap_err();
        assert!(err.to_string().contains("declares"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn flipped_subscription_bytes_never_roundtrip_wrong(idx in 0usize..200, bit in 0u8..8) {
            let sub = subscriptions().remove(1);
            let mut bytes = encode_subscription(&sub);
            let idx = idx % bytes.len();
            bytes[idx] ^= 1 << bit;
            // The CRC envelope rejects the flip; decode never panics and
            // never silently yields a different subscription.
            if let Ok(got) = decode_subscription(&bytes) {
                prop_assert_eq!(got, sub);
            }
        }

        #[test]
        fn truncated_notifications_never_panic(cut in 0usize..100) {
            let framed = encode_notification(&sample_notification());
            let cut = cut % framed.len();
            prop_assert!(decode_notification(&framed[..cut]).is_err());
        }
    }
}
