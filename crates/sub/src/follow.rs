//! Standing queries on read replicas: an evaluator riding a follower's
//! own apply path, under replication's staleness contract.

use crate::registry::{SubId, Subscription};
use crate::standing::{Notification, StandingEvaluator, SubStats};
use gisolap_repl::{Follower, LagBounded, PollOutcome, Transport};
use gisolap_shard::GridSpec;
use gisolap_store::Result;

/// A replication [`Follower`] paired with a [`StandingEvaluator`] that
/// syncs off the follower's pipeline after every poll — so a read
/// replica serves standing queries from its *own* apply path, never a
/// round-trip to the leader.
///
/// Reads are **lag-bounded**, reusing the follower's freshness gate: a
/// replica too far behind answers [`LagBounded::Stale`] with its lag
/// rather than a value that is silently out of date. Every value served
/// reads the replica's own cube at a seal it applied, and the
/// equivalence property test drives a lagging follower to prove it
/// (stale surfaced, never wrong values).
pub struct StandingFollower<T: Transport> {
    follower: Follower<T>,
    evaluator: StandingEvaluator,
}

impl<T: Transport> StandingFollower<T> {
    /// Pairs a follower with a fresh env-capped evaluator. `grid` must
    /// be the overlay grid the replicated pipeline's resolver uses (or
    /// `None` for grid-less feeds — region subscriptions are then
    /// rejected at registration).
    pub fn new(follower: Follower<T>, grid: Option<GridSpec>) -> StandingFollower<T> {
        StandingFollower::with_evaluator(follower, StandingEvaluator::new(grid))
    }

    /// Pairs a follower with a pre-configured evaluator (custom caps,
    /// pre-registered subscriptions).
    pub(crate) fn with_evaluator(
        follower: Follower<T>,
        evaluator: StandingEvaluator,
    ) -> StandingFollower<T> {
        StandingFollower {
            follower,
            evaluator,
        }
    }

    /// Registers a subscription on this replica.
    pub fn register(&mut self, sub: Subscription) -> Result<SubId> {
        self.evaluator.register(sub)
    }

    /// One replication poll, then notifies whatever the apply path
    /// sealed. A snapshot install (the follower fell off the leader's
    /// log and re-bootstrapped) rewrites history: seals the evaluator
    /// already notified are not notified again, and later values read
    /// the installed cube.
    pub fn poll(&mut self) -> Result<PollOutcome> {
        let outcome = self.follower.poll()?;
        if let Some(pipeline) = self.follower.pipeline() {
            self.evaluator.sync_pipeline(pipeline);
        }
        Ok(outcome)
    }

    /// Polls until caught up (at most `max_polls`), syncing after each
    /// apply; returns how many polls made progress.
    pub fn sync(&mut self, max_polls: u64) -> Result<u64> {
        let mut progressed = 0;
        for _ in 0..max_polls {
            if self.follower.caught_up() {
                break;
            }
            match self.poll()? {
                PollOutcome::Applied(_) | PollOutcome::Snapshot => progressed += 1,
                PollOutcome::Retry => {}
            }
        }
        Ok(progressed)
    }

    /// Buffered notifications with `seq >= since` plus the next cursor,
    /// gated by the follower's lag bound: a replica too far behind
    /// answers `Stale { lag }` instead of data that misrepresents the
    /// present.
    pub fn notifications_bounded(&self, since: u64) -> LagBounded<(Vec<Notification>, u64)> {
        self.follower
            .bounded(self.evaluator.notifications_since(since))
    }

    /// A subscription's current scalar window value, lag-gated like
    /// [`StandingFollower::notifications_bounded`].
    pub fn value_bounded(&self, id: SubId) -> LagBounded<Option<f64>> {
        self.follower.bounded(self.evaluator.value(id))
    }

    /// The underlying follower (lag, cursor, stats).
    pub fn follower(&self) -> &Follower<T> {
        &self.follower
    }

    /// The replica's evaluator (registry, values, notifications, stats).
    pub fn evaluator(&self) -> &StandingEvaluator {
        &self.evaluator
    }

    /// Standing-query counters for this replica's evaluator.
    pub fn stats(&self) -> SubStats {
        self.evaluator.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_olap::agg::AggFn;
    use gisolap_olap::time::{TimeId, TimeLevel};
    use gisolap_repl::{DirectTransport, FollowerConfig, Leader};
    use gisolap_store::{DurableIngest, RealFs, ScratchDir, StoreConfig, SyncPolicy};
    use gisolap_stream::{Measure, StreamConfig};
    use gisolap_traj::{ObjectId, Record};
    use std::sync::{Arc, Mutex};

    fn rec(oid: u64, t: i64, x: f64) -> Record {
        Record {
            oid: ObjectId(oid),
            t: TimeId(t),
            x,
            y: 0.0,
        }
    }

    fn config() -> FollowerConfig {
        FollowerConfig {
            backoff_base_ms: 0,
            ..FollowerConfig::default()
        }
    }

    fn leader_fixture(dir: &ScratchDir) -> (Arc<Mutex<Leader>>, DirectTransport) {
        let durable = DurableIngest::create(
            Arc::new(RealFs),
            dir.path(),
            StreamConfig::new(0, 3600).unwrap(),
            StoreConfig {
                sync: SyncPolicy::Never,
                ..StoreConfig::default()
            },
            None,
        )
        .unwrap();
        let leader = Arc::new(Mutex::new(Leader::new(durable)));
        let transport = DirectTransport::new(leader.clone());
        (leader, transport)
    }

    #[test]
    fn follower_serves_standing_queries_off_its_apply_path() {
        let scratch = ScratchDir::new("sub-follow");
        let (leader, transport) = leader_fixture(&scratch);
        let follower = Follower::memory(transport, None, config());
        let mut standing = StandingFollower::new(follower, None);
        let id = standing
            .register(Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Sum))
            .unwrap();

        leader
            .lock()
            .unwrap()
            .ingest(&[rec(1, 100, 3.0), rec(2, 200, 4.0)])
            .unwrap();
        leader.lock().unwrap().ingest(&[rec(1, 3700, 5.0)]).unwrap();
        standing.sync(16).unwrap();
        assert!(standing.follower().caught_up());

        // The evaluator read the replica's own cube: its value is the
        // batch answer over the cells the replica applied.
        let cube: std::collections::BTreeMap<_, _> = standing
            .follower()
            .pipeline()
            .unwrap()
            .cube()
            .cells()
            .map(|(k, c)| (*k, *c))
            .collect();
        let sub = standing.evaluator().registry().get(id).unwrap();
        assert_eq!(crate::window_value(sub, &cube).1, Some(7.0));

        match standing.value_bounded(id) {
            LagBounded::Fresh { value, .. } => assert_eq!(value, Some(7.0)),
            LagBounded::Stale { lag } => panic!("caught-up replica reported stale: {lag:?}"),
        }
        let (items, next) = match standing.notifications_bounded(0) {
            LagBounded::Fresh { value, .. } => value,
            LagBounded::Stale { lag } => panic!("caught-up replica reported stale: {lag:?}"),
        };
        assert_eq!(next, items.last().map_or(0, |n| n.seq + 1));
        assert!(!items.is_empty());
    }

    #[test]
    fn lagging_replica_reports_stale_never_wrong() {
        let scratch = ScratchDir::new("sub-follow-stale");
        let (leader, transport) = leader_fixture(&scratch);
        let follower = Follower::memory(
            transport,
            None,
            FollowerConfig {
                backoff_base_ms: 0,
                max_lag_seqs: Some(0),
                max_batch: 1, // one WAL entry per poll: lag is observable
                ..FollowerConfig::default()
            },
        );
        let mut standing = StandingFollower::new(follower, None);
        let id = standing
            .register(Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Sum))
            .unwrap();

        // Never synced: always stale, with unknown lag.
        assert!(matches!(
            standing.value_bounded(id),
            LagBounded::Stale { .. }
        ));

        leader.lock().unwrap().ingest(&[rec(1, 100, 3.0)]).unwrap();
        standing.sync(16).unwrap();
        match standing.value_bounded(id) {
            LagBounded::Fresh { .. } => {}
            LagBounded::Stale { lag } => panic!("caught-up replica reported stale: {lag:?}"),
        }

        // Three more leader writes; a single one-entry poll leaves the
        // replica knowingly behind. Bounded reads must refuse rather
        // than serve yesterday's value as today's.
        for t in [200, 300, 400] {
            leader.lock().unwrap().ingest(&[rec(2, t, 1.0)]).unwrap();
        }
        standing.poll().unwrap();
        let lag = standing.follower().lag();
        assert!(
            lag.seqs.unwrap_or(0) > 0,
            "expected observable lag: {lag:?}"
        );
        assert!(matches!(
            standing.value_bounded(id),
            LagBounded::Stale { .. }
        ));
        assert!(matches!(
            standing.notifications_bounded(0),
            LagBounded::Stale { .. }
        ));

        // Catching up restores freshness.
        standing.sync(16).unwrap();
        match standing.value_bounded(id) {
            LagBounded::Fresh { .. } => {}
            LagBounded::Stale { lag } => panic!("caught-up replica reported stale: {lag:?}"),
        }
    }
}
