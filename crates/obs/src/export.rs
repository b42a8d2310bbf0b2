//! Machine-readable exporters: the versioned `qmc-metrics/v1` artifact and
//! Chrome trace-event JSON.
//!
//! Both go through [`JsonWriter`]; the in-repo [`crate::json`] parser
//! reads the artifacts back in the schema round-trip tests.

use crate::analysis::match_flows;
use crate::json::JsonWriter;
use crate::record::RankObs;
use qmc_comm::CommStats;

/// Schema identifier written into every metrics artifact.
pub const METRICS_SCHEMA: &str = "qmc-metrics/v1";

/// Identity of a run, embedded in the metrics artifact header.
#[derive(Debug, Clone, Default)]
pub struct RunMeta {
    /// Run name (e.g. the CLI experiment or subcommand).
    pub name: String,
    /// Engine that produced the numbers (`tfim`, `worldline`, `sse`, …).
    pub engine: String,
    /// Communicator back-end (`serial`, `threads`, `mesh1993`, …).
    pub backend: String,
    /// Number of ranks in the run.
    pub ranks: u64,
    /// Free-form `(key, value)` run parameters (sizes, β, sweep counts).
    pub params: Vec<(String, String)>,
}

impl RunMeta {
    /// Describe a run.
    pub fn new(name: &str, engine: &str, backend: &str, ranks: usize) -> Self {
        Self {
            name: name.to_string(),
            engine: engine.to_string(),
            backend: backend.to_string(),
            ranks: ranks as u64,
            params: Vec::new(),
        }
    }

    /// Attach one run parameter (builder style).
    pub fn param(mut self, key: &str, value: impl ToString) -> Self {
        self.params.push((key.to_string(), value.to_string()));
        self
    }
}

fn comm_json(w: &mut JsonWriter, c: Option<&CommStats>) {
    let Some(c) = c else {
        w.null();
        return;
    };
    w.begin_object();
    w.key("messages_sent").u64(c.messages_sent);
    w.key("bytes_sent").u64(c.bytes_sent);
    w.key("messages_recv").u64(c.messages_recv);
    w.key("bytes_recv").u64(c.bytes_recv);
    w.key("max_message_bytes").u64(c.max_message_bytes);
    w.key("comm_seconds").f64(c.comm_seconds);
    w.key("compute_seconds").f64(c.compute_seconds);
    w.key("recv_wait_seconds").f64(c.recv_wait_seconds);
    w.end_object();
}

fn counters_json(w: &mut JsonWriter, counters: &[(String, u64)]) {
    w.begin_object();
    for (k, v) in counters {
        w.key(k).u64(*v);
    }
    w.end_object();
}

/// The members of `run` that the metrics and analysis artifacts share.
pub(crate) fn run_fields(w: &mut JsonWriter, meta: &RunMeta) {
    w.key("name").str(&meta.name);
    w.key("engine").str(&meta.engine);
    w.key("backend").str(&meta.backend);
    w.key("ranks").u64(meta.ranks);
}

/// Render the `qmc-metrics/v1` artifact for a set of per-rank records
/// (typically the output of [`crate::gather_ranks`] on rank 0).
pub fn metrics_json(meta: &RunMeta, ranks: &[RankObs]) -> String {
    let mut w = JsonWriter::artifact(METRICS_SCHEMA);

    w.key("run").begin_object();
    run_fields(&mut w, meta);
    w.key("params").begin_object();
    for (k, v) in &meta.params {
        w.key(k).str(v);
    }
    w.end_object().end_object();

    // Cross-rank totals: summed counters, merged comm stats.
    let mut totals = RankObs::default();
    for (name, v) in ranks.iter().flat_map(|r| &r.counters) {
        totals.counter_add(name, *v);
    }
    totals.comm = ranks
        .iter()
        .filter_map(|r| r.comm)
        .reduce(|a, c| a.merged(&c));
    w.key("totals").begin_object();
    w.key("counters");
    counters_json(&mut w, &totals.counters);
    w.key("comm");
    comm_json(&mut w, totals.comm.as_ref());
    w.end_object();

    // Per-rank detail.
    w.key("ranks").begin_array();
    for r in ranks {
        w.begin_object();
        w.key("rank").u64(r.rank);
        w.key("spans").u64(r.spans.len() as u64);
        w.key("dropped_spans").u64(r.dropped_spans);
        w.key("counters");
        counters_json(&mut w, &r.counters);
        w.key("histograms").begin_object();
        for h in &r.hists {
            w.key(&h.name).begin_object();
            w.key("count").u64(h.count);
            w.key("sum").u64(h.sum);
            w.key("min").u64(h.min);
            w.key("max").u64(h.max);
            w.key("buckets").begin_array();
            for &(lo, c) in &h.buckets {
                w.begin_array().u64(lo).u64(c).end_array();
            }
            w.end_array().end_object();
        }
        w.end_object();
        w.key("health").begin_array();
        for h in &r.health {
            w.begin_object();
            w.key("name").str(&h.name);
            w.key("count").u64(h.count);
            w.key("mean").f64(h.mean);
            w.key("std_dev").f64(h.std_dev);
            w.key("error").f64(h.error);
            w.key("tau_int").f64(h.tau_int);
            w.key("drift_z").f64(h.drift_z);
            w.end_object();
        }
        w.end_array();
        w.key("comm");
        comm_json(&mut w, r.comm.as_ref());
        w.end_object();
    }
    w.end_array();
    w.finish()
}

/// Render per-rank spans as Chrome trace-event JSON (the "JSON Array
/// Format" with a `traceEvents` wrapper): one track (`tid`) per rank under
/// a single `pid`, `ts` in microseconds from the run's shared epoch. Load
/// the file in [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`.
///
/// Within each rank the B/E events are emitted in valid stack order
/// (non-decreasing `ts`, every `E` matching the most recent open `B`),
/// reconstructed from the completed-span list. Each `B` carries its
/// per-rank span id in `args.span`, matched send/receive pairs from the
/// comm-event rings are drawn as flow arrows (`ph: "s"`/`ph: "f"`)
/// between the rank tracks, and a rank that overflowed a ring gets an
/// instant `dropped_spans` marker (plus a stderr warning) so a
/// truncated trace is never mistaken for a complete one.
pub fn chrome_trace_json(ranks: &[RankObs]) -> String {
    /// The `pid`/`tid`/`ts` tail every timed event carries.
    fn track(w: &mut JsonWriter, tid: u64, ts_us: f64) {
        w.key("pid").u64(0);
        w.key("tid").u64(tid);
        w.key("ts").f64_fixed(ts_us, 3);
    }
    fn close_ev(w: &mut JsonWriter, tid: u64, s: &crate::record::OwnedSpan) {
        w.begin_object();
        w.key("name").str(&s.name);
        w.key("ph").str("E");
        track(w, tid, s.t1_us);
        w.end_object();
    }

    let mut w = JsonWriter::object();
    w.key("traceEvents").begin_array();
    for r in ranks {
        let tid = r.rank;
        w.begin_object();
        w.key("name").str("thread_name");
        w.key("ph").str("M");
        w.key("pid").u64(0);
        w.key("tid").u64(tid);
        w.key("args").begin_object();
        w.key("name").str(&format!("rank {tid}"));
        w.end_object().end_object();

        // Completed spans → a properly nested event stream: visit spans by
        // start time (outermost first on ties), closing every open span
        // that ends before the next one starts.
        let mut idx: Vec<usize> = (0..r.spans.len()).collect();
        idx.sort_by(|&a, &b| {
            let (sa, sb) = (&r.spans[a], &r.spans[b]);
            sa.t0_us
                .partial_cmp(&sb.t0_us)
                .expect("span timestamps are finite")
                .then(
                    sb.t1_us
                        .partial_cmp(&sa.t1_us)
                        .expect("span timestamps are finite"),
                )
                .then(sa.depth.cmp(&sb.depth))
        });
        let mut stack: Vec<usize> = Vec::new();
        for &i in &idx {
            let s = &r.spans[i];
            while let Some(&top) = stack.last() {
                if r.spans[top].t1_us <= s.t0_us {
                    close_ev(&mut w, tid, &r.spans[top]);
                    stack.pop();
                } else {
                    break;
                }
            }
            w.begin_object();
            w.key("name").str(&s.name);
            w.key("ph").str("B");
            track(&mut w, tid, s.t0_us);
            w.key("args").begin_object();
            w.key("span").u64(s.id);
            w.end_object().end_object();
            stack.push(i);
        }
        while let Some(top) = stack.pop() {
            close_ev(&mut w, tid, &r.spans[top]);
        }

        // Ring overflow is data loss: mark it in-band so the truncated
        // timeline can't silently pass for the whole run.
        if r.dropped_spans > 0 || r.dropped_comm_events > 0 {
            eprintln!(
                "warning: rank {tid} trace is incomplete ({} spans, {} comm events \
                 overwritten by ring overflow) — raise ObsConfig::span_capacity / comm_capacity",
                r.dropped_spans, r.dropped_comm_events
            );
            let ts = r.spans.first().map(|s| s.t0_us).unwrap_or(0.0);
            w.begin_object();
            w.key("name").str("dropped_spans");
            w.key("ph").str("i");
            w.key("s").str("t");
            track(&mut w, tid, ts);
            w.key("args").begin_object();
            w.key("dropped_spans").u64(r.dropped_spans);
            w.key("dropped_comm_events").u64(r.dropped_comm_events);
            w.end_object().end_object();
        }
    }

    // Matched messages become flow arrows between the rank tracks: the
    // "s" end sits at send completion on the sender's track, the "f"
    // (binding-point "e") end at receive completion on the receiver's.
    for (i, f) in match_flows(ranks).flows.iter().enumerate() {
        let name = format!("msg tag {}", f.tag);
        for (ph, tid, ts) in [("s", f.src, f.send.t1_us), ("f", f.dst, f.recv.t1_us)] {
            w.begin_object();
            w.key("name").str(&name);
            w.key("cat").str("comm");
            w.key("ph").str(ph);
            if ph == "f" {
                w.key("bp").str("e");
            }
            w.key("id").u64(i as u64);
            track(&mut w, tid, ts);
            w.end_object();
        }
    }

    w.end_array();
    w.key("displayTimeUnit").str("ms");
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::record::OwnedSpan;

    fn two_ranks() -> Vec<RankObs> {
        let mk = |rank: u64, off: f64| RankObs {
            rank,
            spans: vec![
                OwnedSpan {
                    name: "inner".into(),
                    id: 2,
                    t0_us: off + 2.0,
                    t1_us: off + 5.0,
                    depth: 1,
                },
                OwnedSpan {
                    name: "outer".into(),
                    id: 1,
                    t0_us: off,
                    t1_us: off + 10.0,
                    depth: 0,
                },
            ],
            counters: vec![("proposed".to_string(), 100 * (rank + 1))],
            ..Default::default()
        };
        vec![mk(0, 0.0), mk(1, 1.0)]
    }

    #[test]
    fn metrics_json_parses_and_totals_sum() {
        let meta = RunMeta::new("demo", "tfim", "threads", 2).param("l", 16);
        let doc = Json::parse(&metrics_json(&meta, &two_ranks())).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str().unwrap(), METRICS_SCHEMA);
        let run = doc.get("run").unwrap();
        assert_eq!(run.get("engine").unwrap().as_str().unwrap(), "tfim");
        assert_eq!(
            run.get("params").unwrap().get("l").unwrap().as_str(),
            Some("16")
        );
        let totals = doc.get("totals").unwrap().get("counters").unwrap();
        assert_eq!(totals.get("proposed").unwrap().as_f64(), Some(300.0));
        let ranks = doc.get("ranks").unwrap().as_arr().unwrap();
        assert_eq!(ranks.len(), 2);
        assert_eq!(ranks[1].get("rank").unwrap().as_f64(), Some(1.0));
        assert!(ranks[0].get("comm").unwrap().is_null());
    }

    #[test]
    fn trace_events_keep_stack_discipline() {
        let doc = Json::parse(&chrome_trace_json(&two_ranks())).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 metadata + 2×(2 B + 2 E)
        assert_eq!(events.len(), 10);
        for tid in 0..2 {
            let mut stack = Vec::new();
            let mut last_ts = f64::NEG_INFINITY;
            for e in events {
                if e.get("tid").unwrap().as_f64() != Some(tid as f64) {
                    continue;
                }
                match e.get("ph").unwrap().as_str().unwrap() {
                    "M" => {}
                    "B" => {
                        let ts = e.get("ts").unwrap().as_f64().unwrap();
                        assert!(ts >= last_ts, "unsorted ts in tid {tid}");
                        last_ts = ts;
                        stack.push(e.get("name").unwrap().as_str().unwrap().to_string());
                    }
                    "E" => {
                        let ts = e.get("ts").unwrap().as_f64().unwrap();
                        assert!(ts >= last_ts);
                        last_ts = ts;
                        let open = stack.pop().expect("E without open B");
                        assert_eq!(open, e.get("name").unwrap().as_str().unwrap());
                    }
                    ph => panic!("unexpected phase {ph}"),
                }
            }
            assert!(stack.is_empty(), "unclosed spans in tid {tid}");
        }
    }

    #[test]
    fn b_events_carry_span_ids() {
        let doc = Json::parse(&chrome_trace_json(&two_ranks())).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let mut b_ids = Vec::new();
        for e in events {
            if e.get("ph").unwrap().as_str() == Some("B") {
                b_ids.push(
                    e.get("args")
                        .unwrap()
                        .get("span")
                        .unwrap()
                        .as_f64()
                        .unwrap(),
                );
            }
        }
        // Two ranks × (outer id 1, inner id 2), emitted outer-first.
        assert_eq!(b_ids, vec![1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn matched_comm_events_become_flow_pairs() {
        use crate::record::{CommDir, CommEvent};
        let mut ranks = two_ranks();
        let msg = |dir, peer, t0: f64, t1: f64| CommEvent {
            dir,
            peer,
            tag: 7,
            seq: 0,
            bytes: 16,
            t0_us: t0,
            t1_us: t1,
            span_id: 1,
        };
        ranks[0].comm_events.push(msg(CommDir::Send, 1, 3.0, 3.5));
        ranks[1].comm_events.push(msg(CommDir::Recv, 0, 4.0, 6.0));
        let doc = Json::parse(&chrome_trace_json(&ranks)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let flows: Vec<&Json> = events
            .iter()
            .filter(|e| matches!(e.get("ph").unwrap().as_str(), Some("s") | Some("f")))
            .collect();
        assert_eq!(flows.len(), 2);
        let s = flows
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("s"))
            .unwrap();
        let f = flows
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("f"))
            .unwrap();
        // Arrow from sender's track at send end to receiver's at recv end.
        assert_eq!(s.get("tid").unwrap().as_f64(), Some(0.0));
        assert_eq!(s.get("ts").unwrap().as_f64(), Some(3.5));
        assert_eq!(f.get("tid").unwrap().as_f64(), Some(1.0));
        assert_eq!(f.get("ts").unwrap().as_f64(), Some(6.0));
        assert_eq!(f.get("bp").unwrap().as_str(), Some("e"));
        // Shared flow id stitches the pair.
        assert_eq!(s.get("id").unwrap().as_f64(), f.get("id").unwrap().as_f64());
    }

    #[test]
    fn dropped_spans_leave_an_in_band_marker() {
        let mut ranks = two_ranks();
        ranks[1].dropped_spans = 6;
        let doc = Json::parse(&chrome_trace_json(&ranks)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let markers: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .collect();
        assert_eq!(markers.len(), 1);
        let m = markers[0];
        assert_eq!(m.get("name").unwrap().as_str(), Some("dropped_spans"));
        assert_eq!(m.get("tid").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            m.get("args")
                .unwrap()
                .get("dropped_spans")
                .unwrap()
                .as_f64(),
            Some(6.0)
        );
        // A clean trace has no marker.
        let clean = Json::parse(&chrome_trace_json(&two_ranks())).unwrap();
        assert!(clean
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .all(|e| e.get("ph").unwrap().as_str() != Some("i")));
    }

    #[test]
    fn metrics_json_includes_health_snapshots() {
        use crate::record::HealthSnapshot;
        let mut ranks = two_ranks();
        ranks[0].health.push(HealthSnapshot {
            name: "energy".into(),
            count: 128,
            mean: -1.0,
            std_dev: 0.25,
            error: 0.03,
            tau_int: 1.5,
            drift_z: 0.2,
        });
        let meta = RunMeta::new("demo", "tfim", "threads", 2);
        let doc = Json::parse(&metrics_json(&meta, &ranks)).unwrap();
        let r0 = &doc.get("ranks").unwrap().as_arr().unwrap()[0];
        let health = r0.get("health").unwrap().as_arr().unwrap();
        assert_eq!(health.len(), 1);
        assert_eq!(health[0].get("name").unwrap().as_str(), Some("energy"));
        assert_eq!(health[0].get("tau_int").unwrap().as_f64(), Some(1.5));
        let r1 = &doc.get("ranks").unwrap().as_arr().unwrap()[1];
        assert!(r1.get("health").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn strings_are_escaped() {
        let meta = RunMeta::new("a\"b\\c\nd", "e", "f", 1);
        let doc = Json::parse(&metrics_json(&meta, &[])).unwrap();
        assert_eq!(
            doc.get("run").unwrap().get("name").unwrap().as_str(),
            Some("a\"b\\c\nd")
        );
    }
}
