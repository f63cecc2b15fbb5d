//! Notification delivery: pluggable sinks the evaluator pushes into.

use crate::standing::Notification;
use gisolap_obs::MetricsRegistry;
use std::io::Write;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};

/// Receives every notification the evaluator emits, in emission order.
/// Sinks must not block: the evaluator calls them inside the fold, on
/// the ingest path.
pub trait Sink: Send {
    /// One notification. Delivery is best-effort — a sink that cannot
    /// accept (disconnected channel, closed writer) drops silently
    /// rather than failing the fold.
    fn notify(&mut self, n: &Notification);
}

/// Pushes notifications into an in-memory mpsc channel — the
/// programmatic consumer.
pub struct ChannelSink {
    tx: Sender<Notification>,
}

impl ChannelSink {
    /// A sink feeding `tx`; pair with the channel's receiver.
    pub fn new(tx: Sender<Notification>) -> ChannelSink {
        ChannelSink { tx }
    }
}

impl Sink for ChannelSink {
    fn notify(&mut self, n: &Notification) {
        // A dropped receiver just means nobody is listening anymore.
        let _ = self.tx.send(n.clone());
    }
}

/// Renders the one-line log form of a notification that [`LogSink`]
/// writes.
pub(crate) fn format_line(n: &Notification) -> String {
    let fmt_opt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v}"));
    let crossing = match n.crossing {
        Some(crate::standing::Crossing::Up) => " crossing=up",
        Some(crate::standing::Crossing::Down) => " crossing=down",
        None => "",
    };
    format!(
        "sub={} seq={} partition={} value={} prev={} rows={}{}",
        n.sub,
        n.seq,
        n.partition,
        fmt_opt(n.value),
        fmt_opt(n.prev),
        n.rows.len(),
        crossing
    )
}

/// Writes one `sub=… seq=… partition=… value=…` line per notification
/// to a writer (stderr by default) — the operator's tail-able feed, in the slow-query log's
/// one-line-per-event style.
pub struct LogSink {
    out: Box<dyn Write + Send>,
}

impl LogSink {
    /// A sink writing to `out`.
    pub fn new(out: Box<dyn Write + Send>) -> LogSink {
        LogSink { out }
    }

    /// A sink writing to standard error.
    pub fn stderr() -> LogSink {
        LogSink::new(Box::new(std::io::stderr()))
    }
}

impl Sink for LogSink {
    fn notify(&mut self, n: &Notification) {
        let _ = writeln!(self.out, "{}", format_line(n));
    }
}

/// Mirrors each subscription's latest scalar value into a shared
/// [`MetricsRegistry`] as the `gisolap_sub_value{sub="<id>"}` gauge, so
/// a Prometheus scrape sees standing-query values without touching the
/// evaluator.
pub struct GaugeSink {
    registry: Arc<Mutex<MetricsRegistry>>,
}

impl GaugeSink {
    /// A sink updating `registry` on every notification.
    pub fn new(registry: Arc<Mutex<MetricsRegistry>>) -> GaugeSink {
        GaugeSink { registry }
    }
}

impl Sink for GaugeSink {
    fn notify(&mut self, n: &Notification) {
        let Some(value) = n.value else { return };
        let mut registry = self.registry.lock().expect("metrics registry poisoned");
        registry.set_gauge(
            "gisolap_sub_value",
            "Current scalar window value per standing subscription.",
            &[("sub", &n.sub.to_string())],
            value,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SubId;
    use crate::standing::Crossing;

    fn notification() -> Notification {
        Notification {
            sub: SubId(3),
            seq: 7,
            partition: 0,
            rows: Vec::new(),
            value: Some(2.5),
            prev: None,
            crossing: Some(Crossing::Up),
        }
    }

    #[test]
    fn channel_sink_delivers_and_survives_disconnect() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut sink = ChannelSink::new(tx);
        let n = notification();
        sink.notify(&n);
        assert_eq!(rx.recv().unwrap(), n);
        drop(rx);
        sink.notify(&n); // must not panic
    }

    #[test]
    fn log_sink_writes_one_line_per_notification() {
        let line = format_line(&notification());
        assert_eq!(
            line,
            "sub=3 seq=7 partition=0 value=2.5 prev=- rows=0 crossing=up"
        );

        struct Capture(Arc<Mutex<Vec<u8>>>);
        impl Write for Capture {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut sink = LogSink::new(Box::new(Capture(buf.clone())));
        sink.notify(&notification());
        let written = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(written, format!("{line}\n"));
    }

    #[test]
    fn gauge_sink_exports_per_subscription_gauges() {
        let registry = Arc::new(Mutex::new(MetricsRegistry::new()));
        let mut sink = GaugeSink::new(registry.clone());
        sink.notify(&notification());
        let rendered = registry.lock().unwrap().render_prometheus();
        assert!(
            rendered.contains("gisolap_sub_value{sub=\"3\"} 2.5"),
            "{rendered}"
        );
        // A valueless notification (empty window) leaves the gauge alone.
        let mut empty = notification();
        empty.value = None;
        empty.sub = SubId(9);
        sink.notify(&empty);
        assert!(!registry
            .lock()
            .unwrap()
            .render_prometheus()
            .contains("sub=\"9\""));
    }
}
