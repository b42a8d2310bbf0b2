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
    chrome_trace_json, gather_ranks, metrics_json, ObsConfig, OnlineBinning, RunMeta, SegmentKind,
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
    let a = qmc_bench::analyze::checked_analyze(&ranks).expect("clean analysis");
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
    let a = qmc_bench::analyze::checked_analyze(&ranks).expect("clean analysis");
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

/// Key paths of a document in first-seen order: object members as
/// `a.b`, array elements collapsed to `a[]`. Members of the maps whose
/// keys are data (run parameters, counter and histogram names) collapse
/// to `*`, so the list is the artifact's shape, not the run's content.
fn key_paths(doc: &Json) -> Vec<String> {
    fn walk(v: &Json, path: &str, names_are_data: bool, out: &mut Vec<String>) {
        match v {
            Json::Obj(members) => {
                for (k, child) in members {
                    let k = if names_are_data { "*" } else { k.as_str() };
                    let p = if path.is_empty() {
                        k.to_string()
                    } else {
                        format!("{path}.{k}")
                    };
                    if !out.contains(&p) {
                        out.push(p.clone());
                    }
                    let data_map = matches!(k, "params" | "counters" | "histograms");
                    walk(child, &p, data_map, out);
                }
            }
            Json::Arr(items) => {
                for item in items {
                    walk(item, &format!("{path}[]"), false, out);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(doc, "", false, &mut out);
    out
}

/// Every JSON artifact, rendered by the producer its `repro` command
/// writes to disk: it parses, it carries its schema string, and its key
/// paths are — name for name, in order — those of the files committed
/// before the emitters were merged into `qmc_obs::json::JsonWriter` (the
/// two `VERIFY_*` had no reader at all until now). Changing an
/// artifact's shape means changing its row.
#[test]
fn every_artifact_keeps_its_schema_and_key_paths() {
    const COMM: &str = "messages_sent bytes_sent messages_recv bytes_recv max_message_bytes \
                        comm_seconds compute_seconds recv_wait_seconds";
    let prefixed = |prefix: &str, keys: &str| -> String {
        let keys: Vec<String> = keys
            .split_whitespace()
            .map(|k| format!("{prefix}.{k}"))
            .collect();
        format!("{prefix} {}", keys.join(" "))
    };
    let metrics = format!(
        "schema run run.name run.engine run.backend run.ranks run.params run.params.* \
         totals totals.counters totals.counters.* {} \
         ranks ranks[].rank ranks[].spans ranks[].dropped_spans \
         ranks[].counters ranks[].counters.* ranks[].histograms ranks[].histograms.* \
         ranks[].histograms.*.count ranks[].histograms.*.sum ranks[].histograms.*.min \
         ranks[].histograms.*.max ranks[].histograms.*.buckets \
         ranks[].health ranks[].health[].name ranks[].health[].count ranks[].health[].mean \
         ranks[].health[].std_dev ranks[].health[].error ranks[].health[].tau_int \
         ranks[].health[].drift_z {}",
        prefixed("totals.comm", COMM),
        prefixed("ranks[].comm", COMM)
    );
    let trace = "traceEvents traceEvents[].name traceEvents[].ph traceEvents[].pid \
                 traceEvents[].tid traceEvents[].args traceEvents[].args.name traceEvents[].ts \
                 traceEvents[].args.span";
    let trace_obs = format!("{trace} displayTimeUnit");
    let trace_flows =
        format!("{trace} traceEvents[].cat traceEvents[].id traceEvents[].bp displayTimeUnit");

    fn obs_ranks() -> Vec<qmc_obs::RankObs> {
        let config = ObsConfig::new().with_metrics(true).with_health_every(0);
        qmc_bench::obs::run_instrumented(30, &config)
    }
    fn analyze_ranks() -> Vec<qmc_obs::RankObs> {
        qmc_bench::analyze::run_traced(None).0
    }
    type Row<'a> = (&'a str, fn() -> String, Option<&'a str>, &'a str);
    let table: [Row; 6] = [
        (
            "METRICS_run.json",
            || metrics_json(&qmc_bench::obs::demo_meta(30), &obs_ranks()),
            Some("qmc-metrics/v1"),
            &metrics,
        ),
        (
            "trace.json (obs)",
            || chrome_trace_json(&obs_ranks()),
            None,
            &trace_obs,
        ),
        (
            "ANALYSIS_run.json",
            || {
                let a = qmc_bench::analyze::checked_analyze(&analyze_ranks()).expect("clean");
                qmc_obs::analysis_json(&qmc_bench::analyze::demo_meta(), &a)
            },
            Some("qmc-analysis/v1"),
            "schema run run.name run.engine run.backend run.ranks wall_us imbalance straggler \
             messages messages.matched messages.unmatched_sends messages.unmatched_recvs \
             ranks ranks[].rank ranks[].wall_us ranks[].compute_us ranks[].wait_us \
             ranks[].send_us ranks[].coverage ranks[].messages_in ranks[].messages_out \
             critical_path critical_path.total_us critical_path.segments \
             critical_path.segments[].kind critical_path.segments[].rank \
             critical_path.segments[].from_rank critical_path.segments[].label \
             critical_path.segments[].span_id critical_path.segments[].t0_us \
             critical_path.segments[].t1_us",
        ),
        (
            "trace.json (analyze)",
            || chrome_trace_json(&analyze_ranks()),
            None,
            &trace_flows,
        ),
        (
            "VERIFY_explore.json",
            || qmc_bench::verify::explore_act(&mut String::new()).1,
            Some("qmc-verify-explore/v1"),
            "schema models models[].model models[].clean models[].transitions \
             models[].unique_states models[].executions models[].ceiling \
             reduction reduction[].instance reduction[].dpor reduction[].naive reduction[].ratio \
             mutants mutants[].model mutants[].schedule_len \
             guards guards.all_clean_within_ceiling guards.min_reduction_ratio",
        ),
        (
            "VERIFY_elastic.json",
            || qmc_bench::elastic::elastic_acts(true).2,
            Some("qmc-elastic/v1"),
            "schema respawns resizes verdicts verdicts.respawn_bit_identical \
             verdicts.shrink_deterministic verdicts.shrink_full_history",
        ),
    ];
    for (file, produce, schema, want) in table {
        let doc = Json::parse(&produce()).unwrap_or_else(|e| panic!("{file} does not parse: {e}"));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            schema,
            "{file} schema"
        );
        let want: Vec<&str> = want.split_whitespace().collect();
        assert_eq!(key_paths(&doc), want, "{file} key paths");
    }
}
