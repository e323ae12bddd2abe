//! End-to-end benchmark of the paper's pipeline: instance generation, the
//! Õ(m) CDS packing (Theorem 1.2), dominating-tree extraction, and
//! Appendix-A gossip along the trees.
//!
//! ```text
//! cargo run --release --offline --manifest-path pipebench/Cargo.toml -- \
//!     --workload <protocol_rr|fragmented_harary|churn_rr> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run is a batch job in a closed loop with one client: it repeats the
//! workload's job (set-up, then one dissemination call) on the instance
//! generated from `--seed` for about `--seconds`, single-threaded
//! (`EngineKind::Sequential`, `CdsPackingConfig::workers = 1`). Every job's
//! outputs are checked, and every job of one seed must reproduce the same
//! simulated statistics. Timings are medians over the run's jobs and cover
//! only calls into the layers' public functions. On a shared 2-vCPU VM
//! (Xeon, 105 MiB L3) the host's speed drifts by ±25 % over tens of
//! seconds, so a run's steadiness comes from its length, not from any
//! one job.
//!
//! The last line of standard output is one JSON object. With `--trace 0`
//! it carries the end-to-end metrics. With `--trace 1` the run adds one
//! traced job (plus, on `protocol_rr`, the engine-vs-handler split) and
//! reports per-layer metrics instead; its spans are written as JSON lines
//! to `.bench_build/pipebench-trace/<workload>-seed<seed>.jsonl`.

use decomp_broadcast::churn::gossip_under_churn;
use decomp_broadcast::gossip::{gossip_via_trees_with, GossipConfig};
use decomp_broadcast::gossip_distributed::gossip_protocol_on;
use decomp_congest::bfs::distributed_bfs;
use decomp_congest::broadcast::pipelined_broadcast;
use decomp_congest::{EngineKind, Fault, FaultPlan, Model, RunStats, ScheduledFault, Simulator};
use decomp_core::cds::centralized::{cds_packing_with_state, CdsPacking, CdsPackingConfig};
use decomp_core::cds::tree_extract::to_dom_tree_packing_with_state;
use decomp_graph::{generators, Graph, NodeId};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

/// Load tolerance for [`decomp_core::DomTreePacking::validate`].
const PACKING_TOL: f64 = 1e-9;
/// Fewest jobs a run times, however long they take.
const MIN_JOBS: usize = 3;
/// Fault waves of `churn_rr`, each one kill and one arrival.
const CHURN_WAVES: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// `random_regular(20 000, 8)`, t = 2, 64 messages through the
    /// message-passing protocol on a sequential simulator.
    ProtocolRr,
    /// `harary(6, 50 000)` with t = 24 classes, 64 messages through the
    /// weighted (fractional) schedule.
    FragmentedHarary,
    /// `random_regular(14 000, 8)`, t = 2, 16 waves of one kill and one
    /// arrival, 200 messages through the churn wave loop.
    ChurnRr,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "protocol_rr" => Some(Workload::ProtocolRr),
            "fragmented_harary" => Some(Workload::FragmentedHarary),
            "churn_rr" => Some(Workload::ChurnRr),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ProtocolRr => "protocol_rr",
            Workload::FragmentedHarary => "fragmented_harary",
            Workload::ChurnRr => "churn_rr",
        }
    }

    fn graph(self, seed: u64) -> Graph {
        match self {
            Workload::ProtocolRr => generators::random_regular(20_000, 8, seed),
            Workload::FragmentedHarary => generators::harary(6, 50_000),
            Workload::ChurnRr => generators::random_regular(14_000, 8, seed),
        }
    }

    /// Single-threaded packing: t = 24 on the Harary graph (t ≫ k/4, so
    /// deactivation and matching run in every layer), t = k/4 = 2 on the
    /// random-regular graphs.
    fn cds_config(self, seed: u64) -> CdsPackingConfig {
        match self {
            Workload::FragmentedHarary => CdsPackingConfig::with_classes(24, seed),
            _ => CdsPackingConfig::with_known_k(8, seed),
        }
        .with_workers(1)
    }

    fn messages(self) -> usize {
        match self {
            Workload::ProtocolRr | Workload::FragmentedHarary => 64,
            Workload::ChurnRr => 200,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = val.parse().map_err(|e| format!("--seed {val}: {e}"))?,
            "--seconds" => seconds = val.parse().map_err(|e| format!("--seconds {val}: {e}"))?,
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One timed call into a layer.
struct Span {
    run: usize,
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
}

/// Times calls into the layers; records them as spans only when on.
struct Tracer {
    on: bool,
    run: usize,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            run: 0,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str) {
        if self.on {
            let id = self.spans.len();
            self.spans.push(Span {
                run: self.run,
                id,
                parent: self.open.last().copied(),
                name,
                start_ns: self.epoch.elapsed().as_nanos(),
                end_ns: 0,
            });
            self.open.push(id);
        }
    }

    fn end(&mut self) {
        if self.on {
            let id = self.open.pop().expect("end() matches a begin()");
            self.spans[id].end_ns = self.epoch.elapsed().as_nanos();
        }
    }

    /// Runs `f` as one call into layer `name`; returns its result and
    /// its wall time in seconds.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.begin(name);
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.end();
        (out, secs)
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover.
    fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u128; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"run\": {}, \"span\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.run, s.id, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// FNV-1a over 64-bit words: the digest of a job's instance, CDS
/// classes, extracted trees and simulated statistics.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn mix_all(&mut self, xs: impl IntoIterator<Item = usize>) {
        for x in xs {
            self.mix(x as u64);
        }
    }
}

fn mix_cds(d: &mut Digest, cds: &CdsPacking) {
    d.mix(cds.num_classes as u64);
    for class in &cds.classes {
        d.mix(class.len() as u64);
        d.mix_all(class.iter().copied());
    }
}

/// The locality-blind counters of a simulator run, in a fixed order.
fn mix_stats(d: &mut Digest, s: RunStats) {
    let s = s.locality_blind();
    d.mix_all([
        s.rounds,
        s.messages,
        s.words,
        s.peak_queued_messages,
        s.peak_arena_words,
        s.wasted_bandwidth,
        s.repair_events,
        s.flood_rounds,
        s.admitted_via_packing,
        s.flood_served,
    ]);
}

/// `count` origins spread evenly over `0..n`, skipping vertices in `avoid`.
fn spread_origins(n: usize, count: usize, avoid: &[bool]) -> Vec<NodeId> {
    let stride = n / count;
    (0..count)
        .map(|i| {
            let mut v = i * stride;
            while avoid.get(v).copied().unwrap_or(false) {
                v += 1;
            }
            v
        })
        .collect()
}

/// The churn plan: 16 random kills and 16 random arrivals, kill i and
/// arrival i both at round 2 + 2i. The seed picks the vertices; the rounds
/// are fixed so that every seed has 16 fault waves. With rounds drawn at
/// random the wave count ran from 20 to 23, and dissemination time moved
/// with it by up to 1.5x from seed to seed.
fn churn_plan(g: &Graph, seed: u64) -> FaultPlan {
    let kills = FaultPlan::random_vertices(g, CHURN_WAVES, (0, 0), seed);
    let arrivals = FaultPlan::random_arrivals(g, CHURN_WAVES, (0, 0), seed.wrapping_add(1));
    FaultPlan::new([kills, arrivals].iter().flat_map(|p| {
        p.events().iter().enumerate().map(|(i, e)| ScheduledFault {
            round: 2 + 2 * i,
            fault: e.fault,
        })
    }))
}

/// What one job measured and produced.
struct Job {
    setup_s: f64,
    disseminate_s: f64,
    total_s: f64,
    sim_rounds: usize,
    digest: u64,
    /// The protocol's simulator counters (`protocol_rr` only).
    protocol_stats: Option<RunStats>,
    /// Per-layer counts, keyed by metric name.
    counts: BTreeMap<&'static str, f64>,
    /// The first failed output check, if any.
    check: Result<(), String>,
}

fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// Set-up (instance, origins, fault plan, CDS packing, tree extraction)
/// followed by the one dissemination call. Checks run after the clock
/// stops.
fn run_job(w: Workload, seed: u64, tr: &mut Tracer) -> Job {
    let nmsg = w.messages();
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut d = Digest::new();
    let start = Instant::now();
    tr.begin("job");

    let (g, _) = tr.time("graph", || w.graph(seed));
    let plan = match w {
        Workload::ChurnRr => tr.time("congest.fault", || churn_plan(&g, seed)).0,
        _ => FaultPlan::none(),
    };
    let mut touched = vec![false; g.n()];
    for e in plan.events() {
        match e.fault {
            Fault::Vertex(v) | Fault::AddVertex(v) => touched[v] = true,
            Fault::Edge(u, v) | Fault::AddEdge(u, v) => {
                touched[u] = true;
                touched[v] = true;
            }
        }
    }
    let origins = spread_origins(g.n(), nmsg, &touched);
    let cfg = w.cds_config(seed);
    let ((cds, mut state), _) = tr.time("core.cds", || cds_packing_with_state(&g, &cfg));
    let extracted = match w {
        Workload::ChurnRr => None,
        _ => Some(
            tr.time("core.tree_extract", || {
                to_dom_tree_packing_with_state(&g, &cds, &state)
            })
            .0,
        ),
    };
    let mut sim = match w {
        Workload::ProtocolRr => Some(
            tr.time("congest", || {
                Simulator::with_seed(&g, Model::VCongest, seed).with_engine(EngineKind::Sequential)
            })
            .0,
        ),
        _ => None,
    };
    let setup_s = start.elapsed().as_secs_f64();

    let mut checks = Vec::new();
    let mut protocol_stats = None;
    let (sim_rounds, disseminate_s);
    match w {
        Workload::ProtocolRr => {
            let trees = &extracted.as_ref().expect("extracted above").packing;
            let sim = sim.as_mut().expect("built above");
            let (r, secs) = tr.time("broadcast.protocol", || {
                gossip_protocol_on(sim, trees, &origins, seed, GossipConfig::default())
            });
            disseminate_s = secs;
            match r {
                Ok(r) => {
                    sim_rounds = r.stats.rounds;
                    checks.push(check(r.complete, "protocol left a message incomplete"));
                    mix_stats(&mut d, r.stats);
                    d.mix_all(r.per_tree_load.iter().copied());
                    protocol_stats = Some(r.stats);
                    let s = r.stats;
                    counts.insert("congest.deliveries", s.messages as f64);
                    counts.insert("congest.words", s.words as f64);
                    counts.insert(
                        "congest.peak_queued_messages",
                        s.peak_queued_messages as f64,
                    );
                    counts.insert("congest.peak_arena_words", s.peak_arena_words as f64);
                    // Every non-origin vertex learns every message exactly once.
                    let useful = (nmsg * (g.n() - 1)) as f64;
                    counts.insert("broadcast.useful_frac", useful / s.messages.max(1) as f64);
                }
                Err(e) => {
                    sim_rounds = 0;
                    checks.push(Err(format!("protocol failed: {e:?}")));
                }
            }
        }
        Workload::FragmentedHarary => {
            let trees = &extracted.as_ref().expect("extracted above").packing;
            let (r, secs) = tr.time("broadcast.schedule", || {
                gossip_via_trees_with(&g, trees, &origins, seed, GossipConfig::weighted())
            });
            disseminate_s = secs;
            sim_rounds = r.rounds;
            checks.push(check(
                r.num_messages == nmsg && r.lost_messages == 0,
                "schedule lost a message",
            ));
            d.mix_all([
                r.rounds,
                r.num_messages,
                r.max_tree_diameter,
                r.peak_state_words,
                r.lost_messages,
                r.wasted_bandwidth,
                r.repair_events,
                r.flood_rounds,
            ]);
            d.mix(r.schedule_digest);
            d.mix_all(r.per_tree_load.iter().copied());
            counts.insert("broadcast.peak_state_words", r.peak_state_words as f64);
            counts.insert("broadcast.max_tree_diameter", r.max_tree_diameter as f64);
            counts.insert("broadcast.wasted_deliveries", r.wasted_bandwidth as f64);
        }
        Workload::ChurnRr => {
            let (r, secs) = tr.time("broadcast.churn", || {
                gossip_under_churn(&g, &cds, &mut state, &origins, seed, &plan)
            });
            disseminate_s = secs;
            match r {
                Ok(r) => {
                    sim_rounds = r.rounds;
                    checks.push(check(
                        r.complete && r.lost_messages == 0 && r.num_messages == nmsg,
                        "churn run lost a message",
                    ));
                    d.mix_all([
                        r.rounds,
                        r.num_messages,
                        r.lost_messages,
                        r.wasted_bandwidth,
                        r.repair_events,
                        r.flood_rounds,
                        r.reextractions,
                        r.waves.len(),
                        r.admitted_via_packing,
                        r.flood_served,
                    ]);
                    d.mix(r.schedule_digest);
                    counts.insert("broadcast.waves", r.waves.len() as f64);
                    counts.insert("broadcast.reextractions", r.reextractions as f64);
                    counts.insert("broadcast.repair_events", r.repair_events as f64);
                    counts.insert("broadcast.flood_rounds", r.flood_rounds as f64);
                    counts.insert("broadcast.lost_messages", r.lost_messages as f64);
                }
                Err(e) => {
                    sim_rounds = 0;
                    checks.push(Err(format!("churn run failed: {e:?}")));
                }
            }
        }
    }
    let total_s = start.elapsed().as_secs_f64();
    tr.end();

    // Output checks and the digest, off the clock.
    for &(u, v) in g.edges() {
        d.mix_all([u, v]);
    }
    mix_cds(&mut d, &cds);
    d.mix(sim_rounds as u64);
    if let Some(ex) = &extracted {
        for t in &ex.packing.trees {
            d.mix_all([t.id, t.edges.len()]);
            d.mix(t.weight.to_bits());
            d.mix_all(t.edges.iter().flat_map(|&(u, v)| [u, v]));
        }
        checks.push(ex.packing.validate(&g, PACKING_TOL));
        checks.push(check(ex.packing.num_trees() > 0, "no tree extracted"));
        counts.insert("core.trees", ex.packing.num_trees() as f64);
        counts.insert("core.invalid_classes", ex.invalid_classes.len() as f64);
        counts.insert(
            "core.max_multiplicity",
            ex.packing.max_vertex_multiplicity(g.n()) as f64,
        );
    }
    counts.insert("graph.edges", g.m() as f64);
    counts.insert("core.cds_layers", cds.trace.len() as f64);
    counts.insert(
        "core.cds_excess0",
        cds.trace.first().map_or(0, |l| l.excess_before) as f64,
    );
    counts.insert(
        "core.cds_matched",
        cds.trace.iter().map(|l| l.matched).sum::<usize>() as f64,
    );
    counts.insert(
        "core.cds_deactivated",
        cds.trace.iter().map(|l| l.deactivated).sum::<usize>() as f64,
    );
    Job {
        setup_s,
        disseminate_s,
        total_s,
        sim_rounds,
        digest: d.0,
        protocol_stats,
        counts,
        check: checks.into_iter().collect(),
    }
}

/// A job that panicked: every message failed and nothing was measured.
fn panicked_job() -> Job {
    Job {
        setup_s: 0.0,
        disseminate_s: 0.0,
        total_s: 0.0,
        sim_rounds: 0,
        digest: 0,
        protocol_stats: None,
        counts: BTreeMap::new(),
        check: Err("job panicked".into()),
    }
}

fn guarded_job(w: Workload, seed: u64, tr: &mut Tracer) -> Job {
    catch_unwind(AssertUnwindSafe(|| run_job(w, seed, tr))).unwrap_or_else(|_| panicked_job())
}

/// The engine-vs-handler split on `protocol_rr`'s graph: the same
/// payloads pipelined down one BFS tree (the engine without the gossip
/// handlers), and the protocol on the two-shard engine, whose
/// locality-blind counters must equal `sequential`'s.
fn engine_split(
    seed: u64,
    sequential: Option<RunStats>,
    tr: &mut Tracer,
    counts: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let sequential = sequential.ok_or("the sequential protocol run failed")?;
    let w = Workload::ProtocolRr;
    let g = w.graph(seed);
    let origins = spread_origins(g.n(), w.messages(), &[]);
    let (cds, state) = cds_packing_with_state(&g, &w.cds_config(seed));
    let trees = to_dom_tree_packing_with_state(&g, &cds, &state).packing;

    let mut sim =
        Simulator::with_seed(&g, Model::VCongest, seed).with_engine(EngineKind::sharded(2));
    let (sharded, secs) = tr.time("congest.sharded2", || {
        gossip_protocol_on(&mut sim, &trees, &origins, seed, GossipConfig::default())
    });
    let sharded = sharded.map_err(|e| format!("sharded protocol failed: {e:?}"))?;
    check(
        sharded.stats.locality_blind() == sequential.locality_blind(),
        "sharded:2 counters differ from sequential",
    )?;
    counts.insert("congest.sharded2_s", secs);

    let mut sim =
        Simulator::with_seed(&g, Model::VCongest, seed).with_engine(EngineKind::Sequential);
    let (tree, _) = tr.time("congest.bfs", || distributed_bfs(&mut sim, origins[0]));
    let tree = tree.map_err(|e| format!("distributed_bfs failed: {e:?}"))?;
    let payloads: Vec<u64> = (0..origins.len() as u64).collect();
    let before = sim.stats().messages;
    let (r, secs) = tr.time("congest.baseline", || {
        pipelined_broadcast(&mut sim, &tree, &payloads)
    });
    let r = r.map_err(|e| format!("pipelined_broadcast failed: {e:?}"))?;
    check(
        r.received.iter().all(|got| got.len() == payloads.len()),
        "pipelined broadcast missed a vertex",
    )?;
    let deliveries = sim.stats().messages - before;
    println!(
        "engine split: pipelined broadcast {deliveries} deliveries in {secs:.4}s, \
         protocol on sharded:2 in {:.4}s",
        counts["congest.sharded2_s"]
    );
    counts.insert("congest.baseline_s", secs);
    counts.insert(
        "congest.baseline_ns_per_delivery",
        secs * 1e9 / deliveries.max(1) as f64,
    );
    Ok(())
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.is_empty() {
        0.0
    } else if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer metrics, in output order, with their units.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_s", "s"),
    ("graph.edges", "count"),
    ("core.cds_s", "s"),
    ("core.cds_layers", "count"),
    ("core.cds_excess0", "count"),
    ("core.cds_matched", "count"),
    ("core.cds_deactivated", "count"),
    ("core.extract_s", "s"),
    ("core.trees", "count"),
    ("core.invalid_classes", "count"),
    ("core.max_multiplicity", "count"),
    ("congest.deliveries", "count"),
    ("congest.words", "words"),
    ("congest.peak_queued_messages", "count"),
    ("congest.peak_arena_words", "words"),
    ("congest.baseline_s", "s"),
    ("congest.baseline_ns_per_delivery", "ns"),
    ("congest.sharded2_s", "s"),
    ("broadcast.protocol_s", "s"),
    ("broadcast.protocol_ns_per_delivery", "ns"),
    ("broadcast.useful_frac", "ratio"),
    ("broadcast.schedule_s", "s"),
    ("broadcast.us_per_round", "us"),
    ("broadcast.peak_state_words", "words"),
    ("broadcast.max_tree_diameter", "rounds"),
    ("broadcast.wasted_deliveries", "count"),
    ("broadcast.churn_s", "s"),
    ("broadcast.waves", "count"),
    ("broadcast.ms_per_wave", "ms"),
    ("broadcast.reextractions", "count"),
    ("broadcast.repair_events", "count"),
    ("broadcast.flood_rounds", "count"),
    ("broadcast.lost_messages", "count"),
    ("trace.overhead_frac", "ratio"),
];

fn metric_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            eprintln!(
                "usage: pipebench --workload <protocol_rr|fragmented_harary|churn_rr> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let mut tr = Tracer::new(false);

    // Closed loop, one job at a time. A job starts only if a typical job
    // still fits in the time left, so a run lasts about `--seconds`.
    let run_start = Instant::now();
    let mut jobs: Vec<Job> = Vec::new();
    let mut peak_rss = 0.0;
    while jobs.len() < MIN_JOBS || {
        let typical = median(&jobs.iter().map(|j| j.total_s).collect::<Vec<_>>());
        run_start.elapsed().as_secs_f64() + typical <= args.seconds
    } {
        let job = guarded_job(w, args.seed, &mut tr);
        println!(
            "job {}: setup {:.4}s disseminate {:.4}s total {:.4}s rounds {} digest {:#018x}{}",
            jobs.len(),
            job.setup_s,
            job.disseminate_s,
            job.total_s,
            job.sim_rounds,
            job.digest,
            job.check
                .as_ref()
                .err()
                .map_or(String::new(), |e| format!(" FAILED: {e}")),
        );
        jobs.push(job);
        if jobs.len() == 1 {
            // One job's footprint: later jobs reuse freed memory, and how
            // much the allocator keeps between them varies from run to run.
            peak_rss = peak_rss_mib();
        }
    }

    let nmsg = w.messages();
    let first = (jobs[0].digest, jobs[0].sim_rounds);
    let job_failed = |j: &Job| j.check.is_err() || (j.digest, j.sim_rounds) != first;
    let mut attempted = nmsg * jobs.len();
    let mut failed = nmsg * jobs.iter().filter(|j| job_failed(j)).count();
    let med = |f: fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    let total_median = med(|j| j.total_s);
    println!(
        "digest {} seed {}: {:#018x} sim_rounds {} over {} jobs",
        w.name(),
        args.seed,
        first.0,
        first.1,
        jobs.len()
    );

    // Failures outside a job's messages: the engine split, the trace file.
    let mut extra_ok = true;
    let mut metrics: Vec<(&str, f64, &str)> = if !args.trace {
        vec![
            ("setup_s", med(|j| j.setup_s), "s"),
            ("disseminate_s", med(|j| j.disseminate_s), "s"),
            ("total_s", total_median, "s"),
            ("peak_rss_mb", peak_rss, "MiB"),
            ("sim_rounds", first.1 as f64, "rounds"),
        ]
    } else {
        // One traced job, keyed as its own run, then the engine split.
        let mut tr = Tracer::new(true);
        tr.run = jobs.len();
        let traced = guarded_job(w, args.seed, &mut tr);
        attempted += nmsg;
        if job_failed(&traced) {
            failed += nmsg;
        }
        let mut layer = traced.counts.clone();
        if w == Workload::ProtocolRr {
            tr.run += 1;
            if let Err(e) = engine_split(args.seed, traced.protocol_stats, &mut tr, &mut layer) {
                println!("engine split FAILED: {e}");
                extra_ok = false;
            }
        }
        let own = tr.self_seconds();
        let span = |name: &str| own.get(name).copied().unwrap_or(0.0);
        layer.insert("graph.gen_s", span("graph"));
        layer.insert("core.cds_s", span("core.cds"));
        layer.insert("core.extract_s", span("core.tree_extract"));
        let protocol_s = span("broadcast.protocol");
        layer.insert("broadcast.protocol_s", protocol_s);
        if let Some(&deliveries) = layer.get("congest.deliveries") {
            layer.insert(
                "broadcast.protocol_ns_per_delivery",
                protocol_s * 1e9 / deliveries,
            );
        }
        let schedule_s = span("broadcast.schedule");
        layer.insert("broadcast.schedule_s", schedule_s);
        if schedule_s > 0.0 {
            layer.insert(
                "broadcast.us_per_round",
                schedule_s * 1e6 / traced.sim_rounds.max(1) as f64,
            );
        }
        let churn_s = span("broadcast.churn");
        layer.insert("broadcast.churn_s", churn_s);
        if let Some(&waves) = layer.get("broadcast.waves") {
            layer.insert("broadcast.ms_per_wave", churn_s * 1e3 / waves.max(1.0));
        }
        if total_median > 0.0 {
            layer.insert("trace.overhead_frac", traced.total_s / total_median);
        }
        let path = std::path::PathBuf::from(format!(
            ".bench_build/pipebench-trace/{}-seed{}.jsonl",
            w.name(),
            args.seed
        ));
        if let Err(e) = tr.write_jsonl(&path) {
            println!("could not write {}: {e}", path.display());
            extra_ok = false;
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layer.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    };
    let correct = failed == 0 && extra_ok;
    if !correct {
        // A run that fails a check reports no time.
        metrics.retain(|&(_, _, unit)| !["s", "ms", "us", "ns"].contains(&unit));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metric_json(&metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::PER_LAYER;

    /// The per-layer metrics this program prints are the ones
    /// BENCHMARK.json declares, in the same order and units.
    #[test]
    fn per_layer_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = &json[json.find("\"per_layer\"").expect("a per_layer list")..];
        let mut rest = declared;
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let at = rest
                .find(&entry)
                .unwrap_or_else(|| panic!("{name} ({unit}) not declared in order"));
            rest = &rest[at + entry.len()..];
        }
        assert_eq!(declared.matches("{\"name\"").count(), PER_LAYER.len());
    }
}
