//! Ingestion configuration.

use std::sync::Arc;

use gisolap_geom::Point;

use crate::{Result, StreamError};

/// Appends to `out` the ids of the layer geometries covering an observed
/// position (the stream-side view of the paper's `r^{Pt,G}` rollup
/// relation). `out` is a buffer the caller owns and reuses from record to
/// record: it arrives empty and the resolver only pushes onto it, in any
/// order and with repeats (the caller sorts and dedups). Implementations
/// must be deterministic. An `Arc`, so every pipeline a replica re-creates
/// shares one resolver; `gisolap-core` provides one over a GIS layer.
pub type GeoResolver = Arc<dyn Fn(Point, &mut Vec<u32>) + Send + Sync>;

/// Tuning knobs for [`crate::StreamIngest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Allowed out-of-orderness in seconds: the watermark trails the
    /// maximum event time seen by this much. Must be ≥ 0.
    pub lateness_seconds: i64,
    /// Width of a time partition (and thus of a sealed segment) in
    /// seconds. Must be a positive multiple of 3600: hour alignment is
    /// what guarantees each hour granule lives wholly inside one segment
    /// or the live tail, which the bit-identity argument relies on.
    pub segment_seconds: i64,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            lateness_seconds: 300,
            segment_seconds: 3600,
        }
    }
}

impl StreamConfig {
    /// Builds and validates a configuration.
    pub fn new(lateness_seconds: i64, segment_seconds: i64) -> Result<StreamConfig> {
        let cfg = StreamConfig {
            lateness_seconds,
            segment_seconds,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks the invariants documented on the fields.
    pub fn validate(&self) -> Result<()> {
        if self.lateness_seconds < 0 {
            return Err(StreamError::BadConfig(format!(
                "lateness_seconds must be ≥ 0, got {}",
                self.lateness_seconds
            )));
        }
        if self.segment_seconds <= 0 || self.segment_seconds % 3600 != 0 {
            return Err(StreamError::BadConfig(format!(
                "segment_seconds must be a positive multiple of 3600, got {}",
                self.segment_seconds
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        StreamConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_bad_values() {
        assert!(StreamConfig::new(-1, 3600).is_err());
        assert!(StreamConfig::new(0, 0).is_err());
        assert!(StreamConfig::new(0, 1800).is_err());
        assert!(StreamConfig::new(0, 7200).is_ok());
    }
}
