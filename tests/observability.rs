//! Observability integration tests.
//!
//! The contract of `qmc-obs` is that instrumentation never perturbs
//! physics: with a fixed seed, every engine must produce bit-identical
//! observable series and draw exactly as many random numbers with
//! observability fully on as with it off. The exported artifacts must
//! also obey their contracts: `METRICS_run.json` round-trips through the
//! bundled JSON parser with summed totals, and the Chrome trace keeps
//! per-rank timestamps sorted and `B`/`E` events balanced.

use qmc_comm::{run_threads, Communicator};
use qmc_lattice::{Chain, Square};
use qmc_obs::json::Json;
use qmc_obs::{
    analyze, chrome_trace_json, gather_ranks, metrics_json, ObsConfig, OnlineBinning, RunMeta,
    SegmentKind,
};
use qmc_rng::{CountingRng, Rng64, StreamFactory, Xoshiro256StarStar};
use qmc_sse::Sse;
use qmc_tfim::parallel::DistTfim;
use qmc_tfim::serial::SerialTfim;
use qmc_tfim::TfimModel;
use qmc_worldline::{GenericParams, GenericWorldline, Worldline, WorldlineParams};

/// Exact bit patterns of a float series (equality must be bitwise, not
/// approximate — instrumentation may not change even the last ulp).
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Run `f` with a fully-enabled recorder installed on this thread, then
/// tear the recorder down again.
fn with_obs<T>(f: impl FnOnce() -> T) -> T {
    qmc_obs::init(0, &ObsConfig::new());
    let out = f();
    let _ = qmc_obs::finish();
    out
}

#[test]
fn serial_tfim_bit_identical_with_obs_on() {
    let run = || {
        let model = TfimModel {
            lx: 8,
            ly: 8,
            j: 1.0,
            h: 2.0,
            beta: 1.0,
            m: 4,
        };
        let mut eng = SerialTfim::new(model);
        let mut rng = CountingRng::new(Xoshiro256StarStar::new(7));
        let series = eng.run(&mut rng, 50, 200, 1);
        let mut b = bits(&series.energy);
        b.extend(bits(&series.abs_m));
        b.extend(bits(&series.sigma_x));
        (b, rng.draws, eng.accepted(), eng.proposed())
    };
    let off = run();
    let on = with_obs(run);
    assert_eq!(off.0, on.0, "observable series changed");
    assert_eq!(off.1, on.1, "RNG draw count changed");
    assert_eq!((off.2, off.3), (on.2, on.3), "acceptance counters changed");
    assert!(off.3 > 0, "sanity: proposals were made");
}

#[test]
fn worldline_bit_identical_with_obs_on() {
    let run = || {
        let mut wl = Worldline::new(WorldlineParams {
            l: 8,
            jx: 1.0,
            jz: 1.0,
            beta: 1.0,
            m: 8,
        });
        let mut rng = CountingRng::new(Xoshiro256StarStar::new(11));
        let series = wl.run(&mut rng, 100, 400);
        let mut b = bits(&series.energy);
        b.extend(bits(&series.magnetization));
        (b, rng.draws, wl.local_accepted, wl.straight_accepted)
    };
    let off = run();
    let on = with_obs(run);
    assert_eq!(off, on);
}

#[test]
fn generic_worldline_bit_identical_with_obs_on() {
    let run = || {
        let params = GenericParams {
            jx: 1.0,
            jz: 1.0,
            beta: 1.0,
            m: 8,
        };
        let mut wl = GenericWorldline::new(Square::new(4, 4), params);
        let mut rng = CountingRng::new(Xoshiro256StarStar::new(13));
        let series = wl.run(&mut rng, 100, 300);
        let mut b = bits(&series.energy);
        b.extend(bits(&series.magnetization));
        (b, rng.draws)
    };
    let off = run();
    let on = with_obs(run);
    assert_eq!(off, on);
}

#[test]
fn sse_bit_identical_with_obs_on() {
    let run = || {
        let lat = Chain::new(8);
        let mut rng = CountingRng::new(Xoshiro256StarStar::new(17));
        let mut sse = Sse::new(&lat, 1.0, 2.0, &mut rng);
        let series = sse.run(&mut rng, 200, 500);
        let mut b = bits(&series.n_ops);
        b.extend(bits(&series.magnetization));
        (b, rng.draws)
    };
    let off = run();
    let on = with_obs(run);
    assert_eq!(off, on);
}

#[test]
fn dist_tfim_bit_identical_with_obs_on_every_rank() {
    let run = |obs: bool| {
        let model = TfimModel {
            lx: 16,
            ly: 16,
            j: 1.0,
            h: 2.0,
            beta: 1.0,
            m: 4,
        };
        run_threads(4, move |comm| {
            if obs {
                qmc_obs::init(comm.rank(), &ObsConfig::new());
            }
            let mut eng = DistTfim::new(model, comm);
            let mut rng = CountingRng::new(StreamFactory::new(5).stream(comm.rank()));
            let series = eng.run(comm, &mut rng, 20, 60);
            if obs {
                let _ = qmc_obs::finish();
            }
            let mut b = bits(&series.energy);
            b.extend(bits(&series.abs_m));
            (b, rng.draws, eng.accepted(), eng.proposed())
        })
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off, on, "some rank's trajectory changed under obs");
}

#[test]
fn metrics_json_round_trips_through_parser() {
    qmc_obs::init(0, &ObsConfig::new());
    {
        let _s = qmc_obs::span("work");
        qmc_obs::counter_add("things", 3);
        qmc_obs::hist_record("sizes", 17);
    }
    let rank = qmc_obs::finish().expect("recorder installed");
    let meta = RunMeta::new("round-trip", "none", "serial", 1).param("l", 8);
    let text = metrics_json(&meta, std::slice::from_ref(&rank));

    let doc = Json::parse(&text).expect("exporter must emit valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("qmc-metrics/v1")
    );
    let run = doc.get("run").expect("run block");
    assert_eq!(run.get("name").and_then(Json::as_str), Some("round-trip"));
    assert_eq!(run.get("ranks").and_then(Json::as_f64), Some(1.0));
    assert_eq!(
        doc.get("totals")
            .and_then(|t| t.get("counters"))
            .and_then(|c| c.get("things"))
            .and_then(Json::as_f64),
        Some(3.0)
    );
    let ranks = doc
        .get("ranks")
        .and_then(Json::as_arr)
        .expect("ranks array");
    assert_eq!(ranks.len(), 1);
    let r0 = &ranks[0];
    assert_eq!(
        r0.get("counters")
            .and_then(|c| c.get("things"))
            .and_then(Json::as_f64),
        Some(3.0)
    );
    let sizes = r0
        .get("histograms")
        .and_then(|h| h.get("sizes"))
        .expect("sizes histogram");
    assert_eq!(sizes.get("count").and_then(Json::as_f64), Some(1.0));
    assert_eq!(sizes.get("min").and_then(Json::as_f64), Some(17.0));
    assert_eq!(sizes.get("max").and_then(Json::as_f64), Some(17.0));
}

#[test]
fn chrome_trace_is_sorted_and_balanced_per_rank() {
    let cfg = ObsConfig::new();
    let mut results = run_threads(3, move |comm| {
        qmc_obs::init(comm.rank(), &cfg);
        for _ in 0..5 {
            let _outer = qmc_obs::span("outer");
            let _inner = qmc_obs::span("inner");
        }
        let mine = qmc_obs::finish().expect("recorder installed");
        gather_ranks(comm, &mine)
    });
    let ranks = results.swap_remove(0).expect("rank 0 gathers");
    assert_eq!(ranks.len(), 3);
    let trace = chrome_trace_json(&ranks);

    let doc = Json::parse(&trace).expect("trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    // Group B/E events per tid; timestamps must be non-decreasing and
    // begin/end must pair up like a stack.
    let mut seen_tids = Vec::new();
    for tid in 0..3u64 {
        let evs: Vec<&Json> = events
            .iter()
            .filter(|e| {
                e.get("tid").and_then(Json::as_f64) == Some(tid as f64)
                    && matches!(e.get("ph").and_then(Json::as_str), Some("B") | Some("E"))
            })
            .collect();
        assert_eq!(evs.len(), 20, "rank {tid}: 10 spans -> 20 events");
        let mut last_ts = f64::NEG_INFINITY;
        let mut depth: i64 = 0;
        for e in &evs {
            let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
            assert!(ts >= last_ts, "rank {tid}: timestamps out of order");
            last_ts = ts;
            match e.get("ph").and_then(Json::as_str) {
                Some("B") => depth += 1,
                Some("E") => depth -= 1,
                _ => unreachable!(),
            }
            assert!(depth >= 0, "rank {tid}: E before matching B");
        }
        assert_eq!(depth, 0, "rank {tid}: unbalanced B/E");
        seen_tids.push(tid);
    }
    assert_eq!(seen_tids, vec![0, 1, 2]);
}

// ---- causal tracing & critical-path analysis ---------------------------

#[test]
fn pt_bit_identical_traced_vs_bare() {
    // The analyze demo runs parallel tempering through TracingComm with
    // spans, comm tracing and per-rank recorders all live. Replaying the
    // exact configuration bare must land on the same trajectory to the
    // last bit: tracing is observation-only.
    let cfg = qmc_bench::analyze::demo_cfg();
    let mut bare = run_threads(4, move |comm| {
        let mut rng = StreamFactory::new(qmc_bench::analyze::STREAM_SEED).stream(comm.rank());
        let (energies, _rates) =
            qmc_core::pt::run_pt_parallel_ckpt(comm, &cfg, &mut rng, None, |_c, _s| {});
        energies
    });
    let bare_energies = bare.swap_remove(0);
    let (_, traced_energies) = qmc_bench::analyze::run_traced(None);
    assert!(!bare_energies.is_empty());
    assert_eq!(
        bits(&bare_energies),
        bits(&traced_energies),
        "TracingComm perturbed the PT trajectory"
    );
}

#[test]
fn serial_tfim_bit_identical_with_health_on() {
    // Same contract as `serial_tfim_bit_identical_with_obs_on`, but with
    // the online convergence-health layer enabled (silently: every=0
    // suppresses the periodic stderr reports while the monitors stream).
    let run = || {
        let model = TfimModel {
            lx: 8,
            ly: 8,
            j: 1.0,
            h: 2.0,
            beta: 1.0,
            m: 4,
        };
        let mut eng = SerialTfim::new(model);
        let mut rng = CountingRng::new(Xoshiro256StarStar::new(23));
        let series = eng.run(&mut rng, 50, 200, 1);
        (bits(&series.energy), rng.draws)
    };
    let off = run();
    qmc_obs::init(0, &ObsConfig::new().with_health_every(0));
    let on = run();
    let rank = qmc_obs::finish().expect("recorder installed");
    assert_eq!(off, on, "health monitoring changed the trajectory");
    // The engine actually fed the monitor: one snapshot per observable.
    assert!(
        rank.health.iter().any(|h| h.name == "energy"),
        "no energy health snapshot was recorded"
    );
}

#[test]
fn online_binning_matches_offline_within_one_percent() {
    // The streaming level-doubling analysis behind the health monitor
    // must agree with the offline `qmc_stats::BinningAnalysis` it
    // mirrors: same plateau rule, same min-bins cutoff, same series.
    let mut rng = Xoshiro256StarStar::new(29);
    let mut series = Vec::with_capacity(1 << 14);
    let mut x = 0.0f64;
    for _ in 0..1 << 14 {
        // AR(1) with φ = 0.8: τ_int well above the uncorrelated 0.5, so
        // the comparison exercises the plateau search, not just σ/√N.
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        x = 0.8 * x + (u - 0.5);
        series.push(x);
    }
    let mut online = OnlineBinning::new(16);
    for &v in &series {
        online.push(v);
    }
    let offline = qmc_stats::BinningAnalysis::new(&series, 16);
    assert!(offline.tau_int() > 1.0, "series not correlated enough");
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs();
    assert!(
        rel(online.error(), offline.error()) < 0.01,
        "error: online {} vs offline {}",
        online.error(),
        offline.error()
    );
    assert!(
        rel(online.tau_int(), offline.tau_int()) < 0.01,
        "tau_int: online {} vs offline {}",
        online.tau_int(),
        offline.tau_int()
    );
}

#[test]
fn analyze_trace_is_perfetto_valid_with_matched_flows() {
    // The 4-rank traced PT demo is the trace `repro analyze` ships to
    // Perfetto: per-track timestamps sorted, B/E balanced, and every
    // flow id appearing exactly once as a start ("s") and once as a
    // finish ("f") on different tracks.
    let (ranks, _) = qmc_bench::analyze::run_traced(None);
    let trace = chrome_trace_json(&ranks);
    let doc = Json::parse(&trace).expect("trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    for tid in 0..4u64 {
        let mut last_ts = f64::NEG_INFINITY;
        let mut depth: i64 = 0;
        for e in events.iter().filter(|e| {
            e.get("tid").and_then(Json::as_f64) == Some(tid as f64)
                && matches!(e.get("ph").and_then(Json::as_str), Some("B") | Some("E"))
        }) {
            let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
            assert!(ts >= last_ts, "rank {tid}: timestamps out of order");
            last_ts = ts;
            depth += match e.get("ph").and_then(Json::as_str) {
                Some("B") => 1,
                _ => -1,
            };
            assert!(depth >= 0, "rank {tid}: E before matching B");
        }
        assert_eq!(depth, 0, "rank {tid}: unbalanced B/E");
    }
    // Flow arrows: collect (id -> [s-tid, f-tid]) and demand clean pairs.
    let mut starts = std::collections::BTreeMap::new();
    let mut finishes = std::collections::BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str);
        if !matches!(ph, Some("s") | Some("f")) {
            continue;
        }
        let id = e.get("id").and_then(Json::as_f64).expect("flow id") as u64;
        let tid = e.get("tid").and_then(Json::as_f64).expect("flow tid") as u64;
        let table = if ph == Some("s") {
            &mut starts
        } else {
            &mut finishes
        };
        assert!(
            table.insert(id, tid).is_none(),
            "flow id {id} duplicated for phase {ph:?}"
        );
    }
    assert!(!starts.is_empty(), "traced PT run produced no flow arrows");
    assert_eq!(
        starts.keys().collect::<Vec<_>>(),
        finishes.keys().collect::<Vec<_>>(),
        "unpaired flow ids"
    );
    for (id, s_tid) in &starts {
        assert_ne!(
            s_tid, &finishes[id],
            "flow {id}: message arrow starts and ends on the same rank"
        );
    }
}

#[test]
fn critical_path_span_ids_exist_in_recorded_spans() {
    // Every compute segment the critical path names must point at a span
    // that is actually in the trace (span id 0 = outside any span).
    let (ranks, _) = qmc_bench::analyze::run_traced(None);
    let a = analyze(&ranks).expect("clean analysis");
    let mut checked = 0;
    for seg in &a.critical_path {
        if seg.kind != SegmentKind::Compute || seg.span_id == 0 {
            continue;
        }
        let rank = ranks
            .iter()
            .find(|r| r.rank == seg.rank)
            .expect("segment names a traced rank");
        assert!(
            rank.spans.iter().any(|s| s.id == seg.span_id),
            "critical-path span {} missing from rank {}'s spans",
            seg.span_id,
            seg.rank
        );
        checked += 1;
    }
    assert!(checked > 0, "critical path named no spans at all");
}

#[test]
fn slow_rank_is_dragged_onto_critical_path() {
    // A 2 ms per-sweep stall on rank 3 dwarfs the real work (the whole
    // unstalled run is under a millisecond), so the analysis must name
    // rank 3 both as the straggler and as the rank dominating the
    // critical path's compute time.
    let (ranks, _) = qmc_bench::analyze::run_traced(Some(3));
    let a = analyze(&ranks).expect("clean analysis");
    assert_eq!(a.straggler, 3, "stalled rank not flagged as straggler");
    assert_eq!(
        a.path_dominant_rank(),
        3,
        "critical path did not move onto the stalled rank"
    );
    assert!(
        a.imbalance > 1.5,
        "stall should show as load imbalance, got {:.2}x",
        a.imbalance
    );
}
