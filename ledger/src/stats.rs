//! Statistics, the span recorder and the metric tables of the ledger.

use std::collections::BTreeMap;
use std::time::Instant;

/// `(name, unit, better, bound)` of every end-to-end metric, in output
/// order. `BENCHMARK.json` carries the same table (checked by a test).
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("latency_p50_us", "us", "lower", 0.25),
    ("rss_peak_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)` of every per-layer metric. A metric reads 0 on
/// a workload whose path bypasses the layer.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // shard
    ("shard.route_ns_per_record", "ns", "lower"),
    ("shard.coordinator_eval_us", "us", "lower"),
    ("shard.fetch_us", "us", "lower"),
    ("shard.fetch_max_us", "us", "lower"),
    ("shard.filter_us", "us", "lower"),
    ("shard.lock_wait_us", "us", "lower"),
    ("shard.open_ms", "ms", "lower"),
    ("shard.shards_pruned_share", "share", "higher"),
    ("shard.cells_gathered", "count", "lower"),
    // stream
    ("stream.ingest_ns_per_record", "ns", "lower"),
    ("stream.extract_partials_us", "us", "lower"),
    ("stream.cube_absorb_us", "us", "lower"),
    ("stream.cube_rollup_us", "us", "lower"),
    ("stream.segment_merged_ms", "ms", "lower"),
    ("stream.segments_sealed", "count", "lower"),
    ("stream.late_dropped", "count", "lower"),
    ("stream.tail_records", "count", "lower"),
    // store
    ("store.wal_encode_ns_per_record", "ns", "lower"),
    ("store.crc32_mb_s", "MB/s", "higher"),
    ("store.durable_ingest_ns_per_record", "ns", "lower"),
    ("store.flush_ms", "ms", "lower"),
    ("store.compact_ms", "ms", "lower"),
    ("store.segment_encode_mb_s", "MB/s", "higher"),
    ("store.segment_decode_mb_s", "MB/s", "higher"),
    ("store.wal_scan_ms", "ms", "lower"),
    ("store.tail_decode_ms", "ms", "lower"),
    ("store.recover_ms", "ms", "lower"),
    ("store.wal_bytes", "bytes", "lower"),
    ("store.segment_bytes", "bytes", "lower"),
    ("store.checkpoint_bytes", "bytes", "lower"),
    ("store.flushes", "count", "lower"),
    ("store.write_amplification", "ratio", "lower"),
    ("store.disk_bytes_per_record", "ratio", "lower"),
    // serve
    ("serve.ping_rtt_us", "us", "lower"),
    ("serve.connect_us", "us", "lower"),
    ("serve.encode_request_ns", "ns", "lower"),
    ("serve.decode_request_ns", "ns", "lower"),
    ("serve.encode_reply_us", "us", "lower"),
    ("serve.decode_reply_us", "us", "lower"),
    ("serve.reply_bytes", "bytes", "lower"),
    ("serve.busy_share", "share", "lower"),
    // core
    ("core.recover_snapshot_ms", "ms", "lower"),
    ("core.engine_build_ms", "ms", "lower"),
    ("core.resolve_filter_us", "us", "lower"),
    ("core.time_filtered_us", "us", "lower"),
    ("core.eval_us", "us", "lower"),
    ("core.aggregate_us", "us", "lower"),
    ("core.sample_scan_p50_us", "us", "lower"),
    ("core.lit_scan_p50_us", "us", "lower"),
    ("core.region_scan_p50_us", "us", "lower"),
    ("core.records_scanned", "count", "lower"),
    ("core.index_records_pruned", "count", "higher"),
    ("core.index_interval_probes", "count", "lower"),
    ("core.tuples_out", "count", "lower"),
    ("core.rows_examined_per_tuple", "ratio", "lower"),
    // index, geom, traj, olap
    ("index.build_ms", "ms", "lower"),
    ("index.interval_query_ns", "ns", "lower"),
    ("index.bvh_query_ns", "ns", "lower"),
    ("index.rtree_candidates_ns", "ns", "lower"),
    ("index.zone_prune_share", "share", "higher"),
    ("geom.point_in_polygon_ns", "ns", "lower"),
    ("geom.leg_polygon_ns", "ns", "lower"),
    ("traj.moft_build_ns_per_record", "ns", "lower"),
    ("olap.time_rollup_ns", "ns", "lower"),
    // harness
    ("harness.trace_coverage", "share", "higher"),
    ("harness.trace_overhead_share", "share", "lower"),
    ("harness.verify_s", "s", "lower"),
    ("harness.writer_late_share", "share", "lower"),
    ("harness.default_threads_p50_us", "us", "lower"),
    ("harness.latency_p99_us", "us", "lower"),
    ("harness.records_per_s", "1/s", "higher"),
    ("harness.error_share", "share", "lower"),
    ("harness.samples_per_pass", "count", "higher"),
];

/// The seven workloads, with the reason each exists. CPU-only ones come
/// first: a driver that runs them in order right after a build should
/// not start on the workload most sensitive to the build's writeback.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "eval_selective",
        "region x tiny time window on IndexedEngine: interval tree and R-tree decide the time, record re-check is nearly bypassed",
    ),
    (
        "eval_scan",
        "three broad queries (sample, interpolated, time-free): record re-check, geometry tests and aggregation dominate, the index prunes little",
    ),
    (
        "serve_selective",
        "socket rollup over a cold-corner region pruning 3 of 4 shards: serve framing and shard prune dominate, cube merge is tiny",
    ),
    (
        "serve_whole",
        "same call with no region over Hour/Day x Count/Sum/Avg: all shards fetched, cube merge and reply codec dominate, pruning bypassed",
    ),
    (
        "mixed_rw",
        "one paced open-loop writer beside one reader on the same cluster mutex and an unsealed tail every fetch re-buckets",
    ),
    (
        "cold_open",
        "the store layer read instead of written: segment decode, CRC, checkpoint and WAL replay, then the first whole-area eval",
    ),
    (
        "ingest_flush",
        "write path: stream seal/partials, store WAL+segment encode and shard routing do all the work; serve, core and index do none",
    ),
];

/// Nearest-rank percentile of an ascending slice (`None` when empty).
pub fn percentile(sorted: &[u64], pct: u32) -> Option<u64> {
    let rank = rank_of(sorted.len(), pct)?;
    Some(sorted[rank - 1])
}

/// The 1-based nearest rank of `pct` among `n` samples.
fn rank_of(n: usize, pct: u32) -> Option<usize> {
    if n == 0 {
        return None;
    }
    Some(((n as u64 * pct as u64).div_ceil(100) as usize).clamp(1, n))
}

/// `pct` as a tail statistic: only when at least ten samples lie beyond
/// its rank, so the value is not one outlier's.
pub fn tail_percentile(sorted: &[u64], pct: u32) -> Option<u64> {
    let rank = rank_of(sorted.len(), pct)?;
    (sorted.len() - rank >= 10).then(|| sorted[rank - 1])
}

/// Median of unordered values (mean of the middle two when even; 0 for
/// none).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One timed pass of a workload.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Correct ops completed.
    pub ops: u64,
    /// Ops that failed, were refused or answered wrongly.
    pub failed: u64,
    /// Wall seconds of the pass.
    pub wall_s: f64,
    /// Seconds throughput is counted over: the wall, unless a workload
    /// excludes stages it reports apart (`ingest_flush`).
    pub busy_s: f64,
    /// Latency median in µs: the mean of the per-kind medians, because a
    /// pooled median of a multi-modal mix flips between modes.
    pub p50_us: f64,
    /// p99 in µs when the pass supports it (pooled).
    pub p99_us: Option<f64>,
    /// User records made durable in the pass (write workloads).
    pub records: u64,
}

impl Pass {
    /// Summarizes per-kind latency samples (ns) of one pass.
    pub fn from_kinds(kinds: &mut [Vec<u64>], failed: u64, wall_s: f64, records: u64) -> Pass {
        let mut medians = Vec::new();
        let mut pooled = Vec::new();
        for k in kinds.iter_mut() {
            k.sort_unstable();
            if let Some(m) = percentile(k, 50) {
                medians.push(m as f64 / 1e3);
            }
            pooled.extend_from_slice(k);
        }
        pooled.sort_unstable();
        Pass {
            ops: pooled.len() as u64,
            failed,
            wall_s,
            busy_s: wall_s,
            p50_us: mean(&medians),
            p99_us: tail_percentile(&pooled, 99).map(|v| v as f64 / 1e3),
            records,
        }
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median over passes of a per-pass statistic.
pub fn median_of_passes(passes: &[Pass], stat: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(stat).collect::<Vec<_>>())
}

/// One recorded boundary crossing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one op share this.
    pub op_id: u32,
}

/// In-memory span recorder; written out as JSON lines at exit.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    op_id: u32,
}

/// Spans kept per run; later ops are still timed but not recorded.
const MAX_SPANS: usize = 400_000;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a new op.
    pub fn begin_op(&mut self) -> u32 {
        self.op_id += 1;
        self.stack.clear();
        self.open("op")
    }

    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as a child span of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    pub fn full(&self) -> bool {
        self.spans.len() >= MAX_SPANS
    }
}

/// Self time of every span: its duration minus the part of it its
/// children cover (overlapping children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut edge = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(edge);
                if hi > lo {
                    covered += hi - lo;
                    edge = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Medians over ops of one span name's per-op figures (ns).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStat {
    /// Summed self time of the name's spans in an op.
    pub self_ns: f64,
    /// Mean duration of one such span in an op.
    pub mean_ns: f64,
    /// Longest such span in an op (a gather waits for the slowest).
    pub max_ns: f64,
}

/// Per-op summary of a traced run.
#[derive(Debug, Default)]
pub struct TraceSummary {
    pub names: BTreeMap<&'static str, NameStat>,
    /// Median over ops of Σ self time of all non-root spans.
    pub staged_ns: f64,
    /// Median root span duration.
    pub op_ns: f64,
}

impl TraceSummary {
    pub fn get(&self, name: &str) -> NameStat {
        self.names.get(name).copied().unwrap_or_default()
    }
}

pub fn summarize(spans: &[Span]) -> TraceSummary {
    let selfs = self_times(spans);
    /// One name's spans within one op.
    #[derive(Default)]
    struct InOp {
        own: u64,
        dur: u64,
        max: u64,
        spans: u64,
    }
    let mut per_op: BTreeMap<u32, BTreeMap<&'static str, InOp>> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let dur = s.end_ns - s.start_ns;
        let e = per_op
            .entry(s.op_id)
            .or_default()
            .entry(s.name)
            .or_default();
        e.own += own;
        e.dur += dur;
        e.max = e.max.max(dur);
        e.spans += 1;
    }
    let mut by_name: BTreeMap<&'static str, [Vec<f64>; 3]> = BTreeMap::new();
    let mut staged = Vec::new();
    let mut roots = Vec::new();
    for names in per_op.values() {
        let mut sum = 0u64;
        for (&name, in_op) in names {
            if name == "op" {
                roots.push(in_op.dur as f64);
                continue;
            }
            sum += in_op.own;
            let e = by_name.entry(name).or_default();
            e[0].push(in_op.own as f64);
            e[1].push(in_op.dur as f64 / in_op.spans as f64);
            e[2].push(in_op.max as f64);
        }
        staged.push(sum as f64);
    }
    TraceSummary {
        names: by_name
            .iter()
            .map(|(&k, v)| {
                let stat = NameStat {
                    self_ns: median(&v[0]),
                    mean_ns: median(&v[1]),
                    max_ns: median(&v[2]),
                };
                (k, stat)
            })
            .collect(),
        staged_ns: median(&staged),
        op_ns: median(&roots),
    }
}

/// Median per-iteration nanoseconds of `f`: five chunks filling about
/// `budget_ms` in total; the closure's result is kept alive.
pub fn bench_ns<T>(budget_ms: u64, mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once = t0.elapsed().as_nanos().max(1) as u64;
    let iters = (budget_ms * 1_000_000 / 5 / once).clamp(1, 1_000_000);
    let chunks: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&chunks)
}

/// A JSON number: finite values print with all their digits, the rest
/// (never expected) print as 0 so the line always parses.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in the given order.
pub fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the driver reads.
pub fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(metrics)
    )
}

pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}\n",
            json_str(s.name),
            s.start_ns,
            s.end_ns,
            s.op_id
        ));
    }
    out
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A minimal JSON value and parser, enough to check what the
    /// emitter writes and to read `BENCHMARK.json`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(kv) => &kv.iter().find(|(k, _)| k == key).expect(key).1,
                other => panic!("not an object: {other:?}"),
            }
        }
        pub fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(v) => v,
                other => panic!("not an array: {other:?}"),
            }
        }
        pub fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("not a string: {other:?}"),
            }
        }
        pub fn num(&self) -> f64 {
            match self {
                Json::Num(n) => *n,
                other => panic!("not a number: {other:?}"),
            }
        }
    }

    pub fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = value(bytes, &mut pos);
        ws(bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing bytes after JSON value");
        v
    }

    fn ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, lit: &str) {
        assert!(b[*pos..].starts_with(lit.as_bytes()), "expected {lit}");
        *pos += lit.len();
    }

    fn value(b: &[u8], pos: &mut usize) -> Json {
        ws(b, pos);
        match b[*pos] {
            b'{' => {
                *pos += 1;
                let mut kv = Vec::new();
                loop {
                    ws(b, pos);
                    if b[*pos] == b'}' {
                        *pos += 1;
                        return Json::Obj(kv);
                    }
                    if !kv.is_empty() {
                        expect(b, pos, ",");
                        ws(b, pos);
                    }
                    let key = string(b, pos);
                    ws(b, pos);
                    expect(b, pos, ":");
                    kv.push((key, value(b, pos)));
                }
            }
            b'[' => {
                *pos += 1;
                let mut items = Vec::new();
                loop {
                    ws(b, pos);
                    if b[*pos] == b']' {
                        *pos += 1;
                        return Json::Arr(items);
                    }
                    if !items.is_empty() {
                        expect(b, pos, ",");
                    }
                    items.push(value(b, pos));
                }
            }
            b'"' => Json::Str(string(b, pos)),
            b't' => {
                expect(b, pos, "true");
                Json::Bool(true)
            }
            b'f' => {
                expect(b, pos, "false");
                Json::Bool(false)
            }
            b'n' => {
                expect(b, pos, "null");
                Json::Null
            }
            _ => {
                let start = *pos;
                while *pos < b.len()
                    && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *pos += 1;
                }
                let text = std::str::from_utf8(&b[start..*pos]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> String {
        expect(b, pos, "\"");
        let mut out = Vec::new();
        loop {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return String::from_utf8(out).unwrap();
                }
                b'\\' => {
                    *pos += 1;
                    match b[*pos] {
                        b'n' => out.push(b'\n'),
                        b'u' => {
                            let hex = std::str::from_utf8(&b[*pos + 1..*pos + 5]).unwrap();
                            out.push(u8::from_str_radix(hex, 16).unwrap());
                            *pos += 4;
                        }
                        c => out.push(c),
                    }
                    *pos += 1;
                }
                c => {
                    out.push(c);
                    *pos += 1;
                }
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&[7], 50), Some(7));
        assert_eq!(percentile(&[7], 99), Some(7));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), Some(50));
        assert_eq!(percentile(&v, 99), Some(99));
        assert_eq!(percentile(&v, 100), Some(100));
        assert_eq!(percentile(&[1, 2, 3, 4], 50), Some(2));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v999: Vec<u64> = (1..=999).collect();
        let v1000: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&v999, 99), None);
        assert_eq!(tail_percentile(&v1000, 99), Some(990));
        assert_eq!(tail_percentile(&[], 99), None);
        assert_eq!(tail_percentile(&[5], 99), None);
        // p50 of 20 samples has exactly ten beyond it.
        let v20: Vec<u64> = (1..=20).collect();
        assert_eq!(tail_percentile(&v20, 50), Some(10));
        assert_eq!(tail_percentile(&v20[..19], 50), None);
    }

    #[test]
    fn median_of_passes_takes_the_middle_pass() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let passes: Vec<Pass> = [10.0, 1000.0, 12.0, 11.0, 9.0]
            .iter()
            .map(|&p| Pass {
                p50_us: p,
                ..Pass::default()
            })
            .collect();
        assert_eq!(median_of_passes(&passes, |p| p.p50_us), 11.0);
    }

    #[test]
    fn pass_p50_is_the_mean_of_kind_medians() {
        let mut kinds = vec![vec![1000, 3000, 2000], vec![], vec![10_000]];
        let p = Pass::from_kinds(&mut kinds, 1, 2.0, 0);
        assert_eq!(p.ops, 4);
        assert_eq!(p.failed, 1);
        assert_eq!(p.p50_us, 6.0);
        assert_eq!(p.p99_us, None);
    }

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            sp("op", 0, 100, None),
            sp("a", 10, 40, Some(0)),  // nested
            sp("b", 30, 60, Some(0)),  // overlaps a
            sp("c", 70, 70, Some(0)),  // zero length
            sp("d", 15, 20, Some(1)),  // grandchild
            sp("e", 90, 130, Some(0)), // runs past the parent: clipped
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 50 - 10);
        assert_eq!(own[1], 30 - 5);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 0);
        assert_eq!(own[4], 5);
        assert_eq!(own[5], 40);
    }

    #[test]
    fn tracer_nests_and_summarizes() {
        let mut tr = Tracer::new();
        for _ in 0..3 {
            let root = tr.begin_op();
            let outer = tr.open("outer");
            tr.span("inner", || std::hint::black_box(1 + 1));
            tr.close(outer);
            tr.close(root);
        }
        assert_eq!(tr.spans.len(), 9);
        assert_eq!(tr.spans[2].parent, Some(1));
        assert_eq!(tr.spans[4].parent, Some(3));
        assert_eq!(tr.spans[3].parent, None);
        let sum = summarize(&tr.spans);
        assert!(sum.names.contains_key("outer") && sum.names.contains_key("inner"));
        assert!(sum.get("outer").max_ns >= sum.get("inner").mean_ns);
        assert!(sum.op_ns >= sum.staged_ns);
        assert_eq!(sum.get("absent"), NameStat::default());
    }

    #[test]
    fn emitted_json_parses_and_names_are_plain() {
        let line = json_result(
            true,
            12,
            0,
            &[
                ("latency_p50_us", 1.2034, "us"),
                ("odd\"name", f64::NAN, "1/s"),
            ],
        );
        let v = parse(&line);
        assert_eq!(v.get("correct"), &Json::Bool(true));
        assert_eq!(v.get("attempted").num(), 12.0);
        assert_eq!(
            v.get("metrics").get("latency_p50_us").get("value").num(),
            1.2034
        );
        assert_eq!(v.get("metrics").get("odd\"name").get("value").num(), 0.0);
        for line in spans_jsonl(&[sp("a.b", 1, 2, None), sp("c", 2, 3, Some(0))]).lines() {
            parse(line);
        }
        let plain = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(WORKLOADS.iter().map(|w| w.0))
        {
            assert!(plain(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
    }

    #[test]
    fn benchmark_json_matches_the_binary() {
        let file = parse(include_str!("../../BENCHMARK.json"));
        let names = |key: &str| -> Vec<String> {
            file.get(key)
                .arr()
                .iter()
                .map(|m| m.get("name").str().to_string())
                .collect()
        };
        let mut ours: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(names("workloads"), ours);
        for (w, (_, why)) in file.get("workloads").arr().iter().zip(WORKLOADS) {
            assert_eq!(w.get("why").str(), *why);
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        ours = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names("per_layer"), ours);
        assert!(PER_LAYER.len() <= 128);
        for (m, (_, unit, better)) in file.get("per_layer").arr().iter().zip(PER_LAYER) {
            assert_eq!(
                (m.get("unit").str(), m.get("better").str()),
                (*unit, *better)
            );
        }
        // The file lists setup_s and the rest in the binary's order.
        ours = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names("end_to_end"), ours);
        for (m, (_, unit, better, bound)) in file.get("end_to_end").arr().iter().zip(END_TO_END) {
            assert_eq!(
                (m.get("unit").str(), m.get("better").str()),
                (*unit, *better)
            );
            assert_eq!(m.get("bound").num(), *bound);
            assert!(*bound <= 0.25);
        }
    }
}
