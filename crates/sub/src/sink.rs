//! Notification delivery: pluggable sinks the evaluator pushes into.

use crate::standing::Notification;
use std::sync::mpsc::Sender;

/// Receives every notification the evaluator emits, in emission order.
/// Sinks must not block: the evaluator calls them inside
/// [`StandingEvaluator::sync_pipeline`](crate::StandingEvaluator::sync_pipeline).
pub trait Sink: Send {
    /// One notification. Delivery is best-effort — a sink that cannot
    /// accept (a disconnected channel) drops silently rather than
    /// failing the sync.
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
}
