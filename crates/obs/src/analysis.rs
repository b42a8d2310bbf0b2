//! Cross-rank trace analysis: happens-before merging of traced comm
//! events, critical-path extraction, and per-rank time attribution.
//!
//! Input is the per-rank [`RankObs`] records gathered at rank 0 from a
//! run whose communicators were wrapped in
//! [`TracingComm`](crate::TracingComm). Each traced send and receive
//! carries the channel key `(src, dst, tag, seq)`; a send and the
//! receive it satisfied agree on that key, so joining the per-rank
//! streams on it yields the cross-rank happens-before DAG without any
//! global clock: within a rank, events are ordered by program order, and
//! across ranks each matched pair contributes a send → receive edge.
//!
//! The join is sound only under the send/recv matching discipline the
//! `qmc-verify` trace checker enforces. That crate sits above this one,
//! so the check runs in the caller: `qmc_bench::analyze::checked_analyze`
//! replays the same events through it before calling [`analyze`].
//!
//! The **critical path** is extracted by walking the DAG backward from
//! the last event of the last-finishing rank. At a receive, the binding
//! constraint is whichever finished later: the matched send on the peer
//! (→ a *message* segment, and the walk jumps ranks) or the previous
//! local event (→ a *compute* segment). The resulting alternation of
//! compute and message segments is the longest dependency chain through
//! the run — the thing that must shrink for the run to get faster.

use std::collections::HashMap;

use crate::export::run_fields;
use crate::json::JsonWriter;
use crate::record::{CommDir, CommEvent, RankObs};
use crate::RunMeta;

/// A matched message: a send on `src` paired with its receive on `dst`.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    /// Sending rank.
    pub src: u64,
    /// Receiving rank.
    pub dst: u64,
    /// Message tag.
    pub tag: u32,
    /// Channel sequence number.
    pub seq: u64,
    /// The send call (as recorded on `src`).
    pub send: CommEvent,
    /// The receive call (as recorded on `dst`).
    pub recv: CommEvent,
}

/// Result of joining all ranks' comm events on the channel key.
#[derive(Debug, Clone, Default)]
pub struct FlowMatch {
    /// Matched send/receive pairs.
    pub flows: Vec<Flow>,
    /// Sends whose receive never appeared (ring overflow, or in-flight
    /// at finish).
    pub unmatched_sends: u64,
    /// Receives whose send never appeared.
    pub unmatched_recvs: u64,
}

/// Join the ranks' traced comm events into matched message flows.
pub fn match_flows(ranks: &[RankObs]) -> FlowMatch {
    // Key: (src, dst, tag, seq) — both endpoints computed it locally.
    let mut sends: HashMap<(u64, u64, u32, u64), CommEvent> = HashMap::new();
    let mut out = FlowMatch::default();
    for r in ranks {
        for e in &r.comm_events {
            if e.dir == CommDir::Send {
                sends.insert((r.rank, e.peer, e.tag, e.seq), *e);
            }
        }
    }
    for r in ranks {
        for e in &r.comm_events {
            if e.dir == CommDir::Recv {
                match sends.remove(&(e.peer, r.rank, e.tag, e.seq)) {
                    Some(send) => out.flows.push(Flow {
                        src: e.peer,
                        dst: r.rank,
                        tag: e.tag,
                        seq: e.seq,
                        send,
                        recv: *e,
                    }),
                    None => out.unmatched_recvs += 1,
                }
            }
        }
    }
    out.unmatched_sends = sends.len() as u64;
    out
}

/// What a critical-path segment spends its time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Local work on `rank` (everything between two comm events).
    Compute,
    /// A message in flight from `from_rank` to `rank` (send completion
    /// to receive completion, including the receiver's wait).
    Message,
}

/// One segment of the critical path, in run order after
/// [`Analysis::critical_path`] is assembled.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Kind of segment.
    pub kind: SegmentKind,
    /// Rank the segment ends on (receiver for messages).
    pub rank: u64,
    /// Rank the segment starts on (sender for messages; `rank` itself
    /// for compute).
    pub from_rank: u64,
    /// Human label: the innermost span active at the segment's terminal
    /// event (or `tag N` for an unlabelled message).
    pub label: String,
    /// Span id of that span in the same rank's trace (0 = none).
    pub span_id: u64,
    /// Segment start, microseconds since the shared epoch.
    pub t0_us: f64,
    /// Segment end.
    pub t1_us: f64,
}

impl Segment {
    /// Segment duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        (self.t1_us - self.t0_us).max(0.0)
    }
}

/// Per-rank wall-time attribution over the traced window.
#[derive(Debug, Clone, Copy)]
pub struct RankAttribution {
    /// Rank.
    pub rank: u64,
    /// Traced window: first event start to last event end, µs.
    pub wall_us: f64,
    /// Time inside top-level spans not spent in traced comm calls.
    pub compute_us: f64,
    /// Time inside traced receive calls (blocked or copying).
    pub wait_us: f64,
    /// Time inside traced send calls.
    pub send_us: f64,
    /// Traced messages this rank received.
    pub messages_in: u64,
    /// Traced messages this rank sent.
    pub messages_out: u64,
}

impl RankAttribution {
    /// Fraction of the traced window the attribution accounts for.
    pub fn coverage(&self) -> f64 {
        if self.wall_us > 0.0 {
            (self.compute_us + self.wait_us + self.send_us) / self.wall_us
        } else {
            1.0
        }
    }
}

/// Full analysis result for one traced run.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Global traced window (max rank end − min rank start), µs.
    pub wall_us: f64,
    /// Per-rank attribution, rank order.
    pub ranks: Vec<RankAttribution>,
    /// Critical path, run order.
    pub critical_path: Vec<Segment>,
    /// Sum of critical-path segment durations, µs.
    pub critical_path_us: f64,
    /// Rank with the most attributed compute time.
    pub straggler: u64,
    /// Load imbalance: max over ranks of compute time ÷ mean.
    pub imbalance: f64,
    /// Matched message pairs.
    pub matched_messages: u64,
    /// Sends with no matching traced receive.
    pub unmatched_sends: u64,
    /// Receives with no matching traced send.
    pub unmatched_recvs: u64,
}

impl Analysis {
    /// Total critical-path time attributed to each rank's compute
    /// segments, µs, indexed by rank.
    pub fn path_compute_by_rank(&self) -> Vec<f64> {
        let n = self.ranks.len();
        let mut out = vec![0.0; n];
        for s in &self.critical_path {
            if s.kind == SegmentKind::Compute && (s.rank as usize) < n {
                out[s.rank as usize] += s.dur_us();
            }
        }
        out
    }

    /// Rank owning the largest share of critical-path compute time.
    pub fn path_dominant_rank(&self) -> u64 {
        let by_rank = self.path_compute_by_rank();
        by_rank
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite path times"))
            .map(|(r, _)| r as u64)
            .unwrap_or(0)
    }
}

/// Traced window of one rank: `(start, end)` over spans and comm events.
fn rank_window(r: &RankObs) -> Option<(f64, f64)> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for s in &r.spans {
        lo = lo.min(s.t0_us);
        hi = hi.max(s.t1_us);
    }
    for e in &r.comm_events {
        lo = lo.min(e.t0_us);
        hi = hi.max(e.t1_us);
    }
    (lo <= hi).then_some((lo, hi))
}

fn span_label(r: &RankObs, span_id: u64) -> Option<&str> {
    if span_id == 0 {
        return None;
    }
    r.spans
        .iter()
        .find(|s| s.id == span_id)
        .map(|s| s.name.as_str())
}

/// Analyze a gathered set of per-rank records from a traced run.
///
/// The events are taken as recorded: a trace that breaks the matching
/// discipline yields unmatched counts, not an error (see the module
/// docs for where the protocol check lives).
pub fn analyze(ranks: &[RankObs]) -> Result<Analysis, String> {
    if ranks.is_empty() {
        return Err("no rank records to analyze".to_string());
    }
    let fm = match_flows(ranks);
    // recv lookup: (dst, src, tag, seq) → flow. seq numbers count per
    // directed (src, dst, tag) channel, so the sender must be part of
    // the key — the same (tag, seq) received from two different peers
    // is two distinct messages, not one.
    let mut recv_flow: HashMap<(u64, u64, u32, u64), &Flow> = HashMap::new();
    for f in &fm.flows {
        recv_flow.insert((f.dst, f.src, f.tag, f.seq), f);
    }
    let by_rank: HashMap<u64, &RankObs> = ranks.iter().map(|r| (r.rank, r)).collect();

    // ---- per-rank attribution ----------------------------------------
    let mut attrs = Vec::with_capacity(ranks.len());
    let mut global_lo = f64::INFINITY;
    let mut global_hi = f64::NEG_INFINITY;
    for r in ranks {
        let (lo, hi) = rank_window(r).unwrap_or((0.0, 0.0));
        global_lo = global_lo.min(lo);
        global_hi = global_hi.max(hi);
        let mut wait = 0.0;
        let mut send = 0.0;
        let mut in_span_comm = 0.0;
        let mut m_in = 0;
        let mut m_out = 0;
        for e in &r.comm_events {
            let d = (e.t1_us - e.t0_us).max(0.0);
            match e.dir {
                CommDir::Recv => {
                    wait += d;
                    m_in += 1;
                }
                CommDir::Send => {
                    send += d;
                    m_out += 1;
                }
            }
            if e.span_id != 0 {
                in_span_comm += d;
            }
        }
        let top: f64 = r
            .spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| (s.t1_us - s.t0_us).max(0.0))
            .sum();
        attrs.push(RankAttribution {
            rank: r.rank,
            wall_us: hi - lo,
            compute_us: (top - in_span_comm).max(0.0),
            wait_us: wait,
            send_us: send,
            messages_in: m_in,
            messages_out: m_out,
        });
    }

    // ---- critical path (backward walk) -------------------------------
    let mut segments: Vec<Segment> = Vec::new();
    // End on the last-finishing rank.
    let end_rank = ranks
        .iter()
        .max_by(|a, b| {
            let ea = rank_window(a).map_or(f64::NEG_INFINITY, |w| w.1);
            let eb = rank_window(b).map_or(f64::NEG_INFINITY, |w| w.1);
            ea.partial_cmp(&eb).expect("finite windows")
        })
        .expect("ranks nonempty");
    let (_, end_time) = rank_window(end_rank).unwrap_or((0.0, 0.0));
    let mut cur_rank = end_rank;
    let mut cur_idx = end_rank.comm_events.len();
    // Tail: compute from the last comm event (or window start) to the end.
    {
        let t0 = end_rank
            .comm_events
            .last()
            .map(|e| e.t1_us)
            .unwrap_or_else(|| rank_window(end_rank).map_or(0.0, |w| w.0));
        if end_time > t0 {
            segments.push(Segment {
                kind: SegmentKind::Compute,
                rank: end_rank.rank,
                from_rank: end_rank.rank,
                label: "run-tail".to_string(),
                span_id: 0,
                t0_us: t0,
                t1_us: end_time,
            });
        }
    }
    // Walk backward; each step consumes one event (program-order hop) or
    // jumps along a matched message edge. The happens-before order of a
    // real execution is acyclic, but the "was the message binding?"
    // test below compares *timestamps*, and preemption can skew those
    // (a sender parked inside `send_bytes` after depositing stamps its
    // completion long after the receiver consumed the message). A
    // skew-misled hop can then land *above* territory this walk already
    // covered on the sender's rank and loop through the same exchange
    // forever. `lowest` records the lowest event index examined per
    // rank; clamping every hop target to it makes each iteration
    // examine a fresh (rank, index) pair, so the walk provably
    // terminates and no segment is emitted twice. The step cap stays as
    // a backstop against a corrupted trace.
    let total_events: usize = ranks.iter().map(|r| r.comm_events.len()).sum();
    let mut lowest: HashMap<u64, usize> = HashMap::new();
    let mut steps = 0usize;
    while cur_idx > 0 && steps <= 2 * total_events + 2 {
        steps += 1;
        lowest.insert(cur_rank.rank, cur_idx - 1);
        let e = &cur_rank.comm_events[cur_idx - 1];
        let prev_t1 = if cur_idx >= 2 {
            cur_rank.comm_events[cur_idx - 2].t1_us
        } else {
            rank_window(cur_rank).map_or(e.t0_us, |w| w.0)
        };
        let flow = (e.dir == CommDir::Recv)
            .then(|| recv_flow.get(&(cur_rank.rank, e.peer, e.tag, e.seq)))
            .flatten();
        if let Some(f) = flow {
            if f.send.t1_us > prev_t1 {
                // The message (and the wait for it) was the binding
                // constraint: jump to the sender.
                segments.push(Segment {
                    kind: SegmentKind::Message,
                    rank: cur_rank.rank,
                    from_rank: f.src,
                    label: format!("tag {}", e.tag),
                    span_id: e.span_id,
                    t0_us: f.send.t1_us,
                    t1_us: e.t1_us,
                });
                let Some(sender) = by_rank.get(&f.src) else {
                    break;
                };
                let mut sidx = sender
                    .comm_events
                    .iter()
                    .position(|s| {
                        s.dir == CommDir::Send
                            && s.peer == f.dst
                            && s.tag == f.tag
                            && s.seq == f.seq
                    })
                    .map(|i| i + 1)
                    .unwrap_or(0);
                if let Some(&lo) = lowest.get(&f.src) {
                    // Never re-enter already-walked territory (see the
                    // loop comment): resume below the sender's floor.
                    sidx = sidx.min(lo);
                }
                cur_rank = sender;
                cur_idx = sidx;
                continue;
            }
        }
        // Local work (or the local program order) was binding.
        segments.push(Segment {
            kind: SegmentKind::Compute,
            rank: cur_rank.rank,
            from_rank: cur_rank.rank,
            label: span_label(cur_rank, e.span_id)
                .unwrap_or("untracked")
                .to_string(),
            span_id: e.span_id,
            t0_us: prev_t1,
            t1_us: e.t1_us,
        });
        cur_idx -= 1;
    }
    segments.reverse();
    let critical_path_us = segments.iter().map(Segment::dur_us).sum();

    // ---- straggler / imbalance ---------------------------------------
    let straggler = attrs
        .iter()
        .max_by(|a, b| {
            a.compute_us
                .partial_cmp(&b.compute_us)
                .expect("finite compute")
        })
        .map(|a| a.rank)
        .unwrap_or(0);
    let mean_compute: f64 =
        attrs.iter().map(|a| a.compute_us).sum::<f64>() / attrs.len().max(1) as f64;
    let max_compute = attrs.iter().map(|a| a.compute_us).fold(0.0, f64::max);
    let imbalance = if mean_compute > 0.0 {
        max_compute / mean_compute
    } else {
        1.0
    };

    Ok(Analysis {
        wall_us: (global_hi - global_lo).max(0.0),
        ranks: attrs,
        critical_path: segments,
        critical_path_us,
        straggler,
        imbalance,
        matched_messages: fm.flows.len() as u64,
        unmatched_sends: fm.unmatched_sends,
        unmatched_recvs: fm.unmatched_recvs,
    })
}

/// Schema identifier written into every analysis artifact.
pub const ANALYSIS_SCHEMA: &str = "qmc-analysis/v1";

/// Render the `qmc-analysis/v1` artifact.
pub fn analysis_json(meta: &RunMeta, a: &Analysis) -> String {
    let mut w = JsonWriter::artifact(ANALYSIS_SCHEMA);
    w.key("run").begin_object();
    run_fields(&mut w, meta);
    w.end_object();
    w.key("wall_us").f64(a.wall_us);
    w.key("imbalance").f64(a.imbalance);
    w.key("straggler").u64(a.straggler);
    w.key("messages").begin_object();
    w.key("matched").u64(a.matched_messages);
    w.key("unmatched_sends").u64(a.unmatched_sends);
    w.key("unmatched_recvs").u64(a.unmatched_recvs);
    w.end_object();
    w.key("ranks").begin_array();
    for r in &a.ranks {
        w.begin_object();
        w.key("rank").u64(r.rank);
        w.key("wall_us").f64(r.wall_us);
        w.key("compute_us").f64(r.compute_us);
        w.key("wait_us").f64(r.wait_us);
        w.key("send_us").f64(r.send_us);
        w.key("coverage").f64(r.coverage());
        w.key("messages_in").u64(r.messages_in);
        w.key("messages_out").u64(r.messages_out);
        w.end_object();
    }
    w.end_array();
    w.key("critical_path").begin_object();
    w.key("total_us").f64(a.critical_path_us);
    w.key("segments").begin_array();
    for s in &a.critical_path {
        w.begin_object();
        w.key("kind").str(match s.kind {
            SegmentKind::Compute => "compute",
            SegmentKind::Message => "message",
        });
        w.key("rank").u64(s.rank);
        w.key("from_rank").u64(s.from_rank);
        w.key("label").str(&s.label);
        w.key("span_id").u64(s.span_id);
        w.key("t0_us").f64(s.t0_us);
        w.key("t1_us").f64(s.t1_us);
        w.end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// Human-readable report for `repro analyze`.
pub fn render_report(a: &Analysis) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "wall {:.1} ms · critical path {:.1} ms ({:.0}% of wall) · {} messages matched\n",
        a.wall_us / 1e3,
        a.critical_path_us / 1e3,
        100.0 * a.critical_path_us / a.wall_us.max(1e-9),
        a.matched_messages
    ));
    out.push_str(&format!(
        "straggler rank {} · load imbalance {:.2}x\n",
        a.straggler, a.imbalance
    ));
    out.push_str("per-rank attribution (compute / wait / send, % of rank wall):\n");
    for r in &a.ranks {
        let w = r.wall_us.max(1e-9);
        out.push_str(&format!(
            "  rank {}: {:6.1} ms  {:5.1}% / {:5.1}% / {:5.1}%  (coverage {:5.1}%)\n",
            r.rank,
            r.wall_us / 1e3,
            100.0 * r.compute_us / w,
            100.0 * r.wait_us / w,
            100.0 * r.send_us / w,
            100.0 * r.coverage()
        ));
    }
    out.push_str("critical path (oldest first):\n");
    let shown = a.critical_path.len().min(40);
    for s in a.critical_path.iter().rev().take(shown).rev() {
        match s.kind {
            SegmentKind::Compute => out.push_str(&format!(
                "  rank {} compute {:8.1} µs  {} (span {})\n",
                s.rank,
                s.dur_us(),
                s.label,
                s.span_id
            )),
            SegmentKind::Message => out.push_str(&format!(
                "  rank {} → {} message {:6.1} µs  {}\n",
                s.from_rank,
                s.rank,
                s.dur_us(),
                s.label
            )),
        }
    }
    if a.critical_path.len() > shown {
        out.push_str(&format!(
            "  … {} earlier segments elided\n",
            a.critical_path.len() - shown
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::OwnedSpan;

    fn ev(dir: CommDir, peer: u64, tag: u32, seq: u64, t0: f64, t1: f64, span: u64) -> CommEvent {
        CommEvent {
            dir,
            peer,
            tag,
            seq,
            bytes: 8,
            t0_us: t0,
            t1_us: t1,
            span_id: span,
        }
    }

    fn span(name: &str, id: u64, t0: f64, t1: f64) -> OwnedSpan {
        OwnedSpan {
            name: name.into(),
            id,
            t0_us: t0,
            t1_us: t1,
            depth: 0,
        }
    }

    /// Rank 0 computes 100 µs then sends to rank 1, which was waiting.
    fn pipeline_ranks() -> Vec<RankObs> {
        let r0 = RankObs {
            rank: 0,
            spans: vec![span("work0", 1, 0.0, 101.0)],
            comm_events: vec![ev(CommDir::Send, 1, 5, 0, 100.0, 101.0, 1)],
            ..Default::default()
        };
        let r1 = RankObs {
            rank: 1,
            spans: vec![span("work1", 1, 0.0, 160.0)],
            comm_events: vec![ev(CommDir::Recv, 0, 5, 0, 1.0, 105.0, 1)],
            ..Default::default()
        };
        vec![r0, r1]
    }

    #[test]
    fn flows_match_on_channel_key() {
        let fm = match_flows(&pipeline_ranks());
        assert_eq!(fm.flows.len(), 1);
        assert_eq!(fm.unmatched_sends, 0);
        assert_eq!(fm.unmatched_recvs, 0);
        let f = &fm.flows[0];
        assert_eq!((f.src, f.dst, f.tag, f.seq), (0, 1, 5, 0));
    }

    #[test]
    fn unmatched_events_are_counted() {
        let mut ranks = pipeline_ranks();
        ranks[0]
            .comm_events
            .push(ev(CommDir::Send, 1, 5, 1, 110.0, 111.0, 0));
        ranks[1]
            .comm_events
            .push(ev(CommDir::Recv, 0, 9, 0, 120.0, 130.0, 0));
        let fm = match_flows(&ranks);
        assert_eq!(fm.flows.len(), 1);
        assert_eq!(fm.unmatched_sends, 1);
        assert_eq!(fm.unmatched_recvs, 1);
    }

    #[test]
    fn critical_path_crosses_the_binding_message() {
        let ranks = pipeline_ranks();
        // Rank 1's recv returned at 105 but the send only completed at
        // 101 while rank 1 had nothing local since 0 → the path runs
        // rank 0 compute → message → rank 1 tail.
        let a = analyze(&ranks).unwrap();
        assert_eq!(a.matched_messages, 1);
        let kinds: Vec<SegmentKind> = a.critical_path.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SegmentKind::Message));
        let msg = a
            .critical_path
            .iter()
            .find(|s| s.kind == SegmentKind::Message)
            .unwrap();
        assert_eq!((msg.from_rank, msg.rank), (0, 1));
        assert_eq!(msg.t0_us, 101.0);
        assert_eq!(msg.t1_us, 105.0);
        // The compute segment before the message lives on rank 0 and is
        // labelled by its span.
        let first = &a.critical_path[0];
        assert_eq!(first.kind, SegmentKind::Compute);
        assert_eq!(first.rank, 0);
        assert_eq!(first.label, "work0");
        assert_eq!(first.span_id, 1);
        // Tail compute on rank 1 closes the path at the global end.
        let last = a.critical_path.last().unwrap();
        assert_eq!(last.rank, 1);
        assert_eq!(last.t1_us, 160.0);
    }

    #[test]
    fn local_work_binds_when_message_arrived_early() {
        // Rank 1 received at 10 a message sent at 2–3, then computed to
        // 200: the send completed long before rank 1's local timeline
        // reached the recv, so the path stays on rank 1.
        let r0 = RankObs {
            rank: 0,
            spans: vec![span("w0", 1, 0.0, 3.0)],
            comm_events: vec![ev(CommDir::Send, 1, 5, 0, 2.0, 3.0, 1)],
            ..Default::default()
        };
        let r1 = RankObs {
            rank: 1,
            spans: vec![span("w1", 1, 0.0, 200.0)],
            comm_events: vec![
                ev(CommDir::Send, 0, 6, 0, 5.0, 6.0, 1),
                ev(CommDir::Recv, 0, 5, 0, 9.0, 10.0, 1),
            ],
            ..Default::default()
        };
        // Rank 0's matching recv keeps the trace protocol-consistent.
        let mut r0 = r0;
        r0.comm_events.push(ev(CommDir::Recv, 1, 6, 0, 4.0, 7.0, 1));
        let a = analyze(&[r0, r1]).unwrap();
        assert!(
            a.critical_path
                .iter()
                .all(|s| s.kind != SegmentKind::Message || s.rank != 1),
            "early message must not bind rank 1's path"
        );
    }

    #[test]
    fn same_tag_seq_from_different_peers_bind_to_their_own_sender() {
        // Channel seq numbers count per (src, dst, tag), so rank 1 can
        // receive tag 7 seq 0 from rank 0 AND from rank 2 — exactly what
        // the 4-rank PT demo does. The recv→flow lookup must key on the
        // peer too; collapsing the key to (dst, tag, seq) lets one
        // sender's flow shadow the other's, and the walk then binds the
        // recv-from-2 below to rank 0's early send (t1=2), reporting a
        // message from the wrong rank with the wrong times.
        let r0 = RankObs {
            rank: 0,
            spans: vec![span("w0", 1, 0.0, 2.0)],
            comm_events: vec![ev(CommDir::Send, 1, 7, 0, 0.0, 2.0, 1)],
            ..Default::default()
        };
        let r1 = RankObs {
            rank: 1,
            spans: vec![span("w1", 1, 0.0, 50.0)],
            comm_events: vec![
                ev(CommDir::Recv, 2, 7, 0, 5.0, 45.0, 1),
                ev(CommDir::Recv, 0, 7, 0, 46.0, 48.0, 1),
            ],
            ..Default::default()
        };
        let r2 = RankObs {
            rank: 2,
            spans: vec![span("w2", 1, 0.0, 40.0)],
            comm_events: vec![ev(CommDir::Send, 1, 7, 0, 30.0, 40.0, 1)],
            ..Default::default()
        };
        let a = analyze(&[r0, r1, r2]).unwrap();
        assert_eq!(a.matched_messages, 2);
        // Rank 1 waited on rank 2's late send: the binding message comes
        // from rank 2 and spans send-completion (40) to recv-return (45).
        let msgs: Vec<&Segment> = a
            .critical_path
            .iter()
            .filter(|s| s.kind == SegmentKind::Message)
            .collect();
        assert_eq!(msgs.len(), 1, "path {:?}", a.critical_path);
        assert_eq!((msgs[0].from_rank, msgs[0].rank), (2, 1));
        assert_eq!(msgs[0].t0_us, 40.0);
        assert_eq!(msgs[0].t1_us, 45.0);
    }

    #[test]
    fn skewed_send_stamps_do_not_cycle_the_walk() {
        // Preemption can stamp a send's completion long after the
        // receiver consumed the message, so the walk's timestamp-based
        // binding test points it back above territory it already
        // covered. Here each rank's recv binds to a send *above* the
        // other rank's floor: without the low-water clamp the walk
        // ping-pongs between the two exchanges until the step cap,
        // emitting the same segments over and over and inflating the
        // path far past the wall window. Rank 0 dropped events, as a
        // real overflowed trace would.
        let r0 = RankObs {
            rank: 0,
            dropped_comm_events: 1,
            comm_events: vec![
                ev(CommDir::Recv, 1, 7, 0, 10.0, 90.0, 1),
                // Skew: deposited before the recv at t1=20 below, but
                // stamped at 100 after the scheduler parked the sender.
                ev(CommDir::Send, 1, 8, 0, 95.0, 100.0, 1),
            ],
            ..Default::default()
        };
        let r1 = RankObs {
            rank: 1,
            comm_events: vec![
                ev(CommDir::Recv, 0, 8, 0, 0.0, 20.0, 1),
                ev(CommDir::Send, 0, 7, 0, 30.0, 40.0, 1),
            ],
            ..Default::default()
        };
        let a = analyze(&[r0, r1]).unwrap();
        let wall = 100.0;
        assert!(
            a.critical_path_us <= wall + 1e-9,
            "path {} must not exceed the {} wall window",
            a.critical_path_us,
            wall
        );
        let mut seen = std::collections::HashSet::new();
        for s in &a.critical_path {
            let key = (
                s.rank,
                s.kind == SegmentKind::Message,
                s.t0_us.to_bits(),
                s.t1_us.to_bits(),
            );
            assert!(seen.insert(key), "segment revisited: {s:?}");
        }
    }

    #[test]
    fn attribution_covers_the_window() {
        let a = analyze(&pipeline_ranks()).unwrap();
        assert_eq!(a.ranks.len(), 2);
        let r1 = &a.ranks[1];
        // Rank 1: span [0,160], recv [1,105] inside it.
        assert!((r1.wall_us - 160.0).abs() < 1e-9);
        assert!((r1.wait_us - 104.0).abs() < 1e-9);
        assert!((r1.compute_us - 56.0).abs() < 1e-9);
        assert!(r1.coverage() > 0.99);
        assert_eq!(r1.messages_in, 1);
        let r0 = &a.ranks[0];
        assert!((r0.send_us - 1.0).abs() < 1e-9);
        assert_eq!(r0.messages_out, 1);
    }

    #[test]
    fn analysis_json_round_trips() {
        let a = analyze(&pipeline_ranks()).unwrap();
        let meta = RunMeta::new("demo", "pt", "threads", 2);
        let doc = crate::json::Json::parse(&analysis_json(&meta, &a)).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(ANALYSIS_SCHEMA));
        assert_eq!(
            doc.get("run").unwrap().get("ranks").unwrap().as_f64(),
            Some(2.0)
        );
        let ranks = doc.get("ranks").unwrap().as_arr().unwrap();
        assert_eq!(ranks.len(), 2);
        assert!(ranks[1].get("coverage").unwrap().as_f64().unwrap() > 0.99);
        let cp = doc.get("critical_path").unwrap();
        let segs = cp.get("segments").unwrap().as_arr().unwrap();
        assert!(!segs.is_empty());
        for s in segs {
            let kind = s.get("kind").unwrap().as_str().unwrap();
            assert!(kind == "compute" || kind == "message");
        }
        // Report renders without panicking and names the straggler.
        let report = render_report(&a);
        assert!(report.contains("straggler rank"));
    }
}
