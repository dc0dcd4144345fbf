//! One benchmark run of one workload.
//!
//! Every workload runs the same session through `osd`'s public API, the
//! way a user would: read the generated CSV and build the index (set-up),
//! then a closed-loop stage (one client: `PreparedQuery::new` then
//! `QueryEngine::run`), a batch stage (`QueryEngine::run_batch` on every
//! CPU) and a churn stage (one writer publishing the seeded script and
//! refreshing the standing queries, beside one reader thread querying
//! pinned snapshots). The workloads differ in data, operator and layout.
//!
//! Every answer is checked against an untimed reference from an
//! independent path: a cold engine on the other layout for reads, a full
//! `nn_candidates` on the same snapshot for refreshed standing queries,
//! liveness in the pinned snapshot for the reader, and
//! `nn_candidates_bruteforce` for a seeded sample.

use crate::gen::{self, Clouds, Inputs, Mutation, Rng};
use crate::stats::{host_cpus, median, peak_rss_mib, quantile};
use crate::trace::{self, Span, SpanId, Tracer, NONE};
use crate::workload::{Layout, Workload};
use osd_core::{
    nn_candidates, nn_candidates_bruteforce, Candidate, CheckCtx, ContinuousNnc, Database, DbError,
    FilterConfig, NncResult, PreparedQuery, PublishedIndex, QueryEngine, Repair, ShardedDatabase,
    SpatialIndex, Stats, WarmPool,
};
use osd_geom::Point;
use osd_obs::Phase;
use osd_uncertain::UncertainObject;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds after which a further, throwaway set-up is timed; with the
/// set-up that builds the served index, `setup_s` is the median of five.
const SETUP_ROUNDS: [usize; 4] = [1, 3, 5, 7];
/// Closed-loop requests run untimed before the stage is timed.
const WARMUP_REQUESTS: usize = 8;
/// Publishes at the start of the churn stage whose latency is not
/// sampled (first-touch allocation of the snapshot clones).
const WARMUP_PUBLISHES: usize = 2;
/// Rounds per run: each runs the closed-loop, batch and churn stages.
const ROUNDS: usize = 10;
/// Shares of `--seconds` given to the closed-loop, batch and churn
/// stages. The closed loop, which the gated latencies come from, gets
/// most of the run.
pub const SHARES: [f64; 3] = [0.7, 0.1, 0.2];
/// End-to-end metrics printed with every result but left out of the
/// result line: between runs on the development host their spread
/// reached 0.22 to 1.1 of their median, against a largest allowed bound
/// of 0.25 (see `perfbench/README.md`). The traced run reports all but
/// the p95 again, as `engine.batch_qps`, `publish.total_ms`,
/// `repair.refresh_ms` and `reader.qps`.
const PRINTED_ONLY: &[&str] = &[
    "batch_qps",
    "publish_p50_ms",
    "publish_p95_ms",
    "repair_p50_ms",
    "reader_qps",
];
/// Request id of spans that belong to no request.
const NONE_REQUEST: u64 = u64::MAX;
/// Failure messages kept for the report.
const MAX_NOTES: usize = 20;

/// How to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds, split across the stages.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Drop a candidate from the first checked answer (tests use this to
    /// prove that a wrong answer is caught).
    pub corrupt: bool,
    /// Scratch directory for the CSV and the trace file.
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample counts and caveats.
    pub note: String,
    /// Whether the metric is in the result line (and so in
    /// `BENCHMARK.json`); the others are printed only.
    pub gated: bool,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted (requests, batch answers, publishes, repairs,
    /// reader calls, brute-force checks).
    pub attempted: u64,
    /// Operations that returned `Err`, panicked or gave a wrong answer.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Per-span-name `(calls, self ms)` of the traced run.
    pub self_times: Vec<(&'static str, u64, f64)>,
    /// Where the traced run wrote its Chrome trace.
    pub trace_file: Option<PathBuf>,
}

#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Ledger {
    fn op(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(e);
            }
        }
    }

    fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < MAX_NOTES {
                self.notes.push(n);
            }
        }
    }
}

/// Runs `w` once.
///
/// # Errors
/// A set-up failure (the CSV cannot be written or read, the index cannot
/// be built): no operation can run, so there is nothing to report.
pub fn run(w: &Workload, opts: &RunOptions) -> Result<Outcome, String> {
    match w.layout {
        Layout::Flat => run_with(w, opts, Database::try_new, |o| {
            ShardedDatabase::try_new(o, 8).map(|d| Box::new(d) as Box<dyn SpatialIndex>)
        }),
        Layout::Sharded(k) => run_with(
            w,
            opts,
            move |o| ShardedDatabase::try_new(o, k),
            |o| Database::try_new(o).map(|d| Box::new(d) as Box<dyn SpatialIndex>),
        ),
    }
}

type Built<D> = (PublishedIndex<D>, Vec<ContinuousNnc>, Vec<PreparedQuery>);

/// What a publish returned: the inserted id, if any, unless it failed or
/// panicked.
type Published = std::thread::Result<Result<Option<usize>, DbError>>;

/// Per-request measurements of the closed-loop stage.
#[derive(Debug, Clone, Default)]
struct Request {
    wall_ms: f64,
    prepare_us: f64,
    run_ms: f64,
    ctx_us: f64,
    stats: Stats,
    objects_checked: usize,
    candidates: usize,
    phase_ns: [u64; Phase::COUNT],
}

#[derive(Debug, Default)]
struct Samples {
    setup_s: Vec<f64>,
    read_csv_s: Vec<f64>,
    build_s: Vec<f64>,
    setup_rest_s: Vec<f64>,
    requests: Vec<Request>,
    /// `(untraced, traced)` wall of the same request in paired passes.
    paired_ms: Vec<(f64, f64)>,
    warm_hits: u64,
    warm_misses: u64,
    warm_resident: u64,
    batch_qps: Vec<f64>,
    batch1_s: Vec<f64>,
    scaling: Vec<f64>,
    publish_ms: Vec<f64>,
    splice_ms: Vec<f64>,
    publish_by_kind: [Vec<f64>; 3],
    refresh_ms: Vec<f64>,
    requery_ms: Vec<f64>,
    release_ms: Vec<f64>,
    incremental: u64,
    full: u64,
    warm_evictions: u64,
    reader_calls: u64,
    churn_s: f64,
}

/// What a run reads: the workload, the inputs and the served index.
struct Fixed<'w, D> {
    w: &'w Workload,
    opts: &'w RunOptions,
    cfg: FilterConfig,
    inputs: Inputs,
    reference: Box<dyn SpatialIndex>,
    published: PublishedIndex<D>,
    /// The snapshot the read stages query: the index as set up, before
    /// any churn, so the reference answers stay valid in every round.
    initial: Arc<D>,
    prepared: Vec<PreparedQuery>,
}

impl<D> Fixed<'_, D> {
    /// Pass `p` of the stream (wrapping around at its end).
    fn pass(&self, p: usize) -> &[usize] {
        let len = self.w.pass_len();
        let passes = self.inputs.stream.len().div_ceil(len);
        let start = (p % passes) * len;
        &self.inputs.stream[start..(start + len).min(self.inputs.stream.len())]
    }
}

/// What a run writes: spans, the failure ledger, samples, the memoised
/// reference answers, the standing queries and the stage cursors.
struct State {
    tracer: Tracer,
    reader_lanes: Vec<Vec<Span>>,
    ledger: Ledger,
    samples: Samples,
    refs: Vec<Option<Vec<Candidate>>>,
    handles: Vec<ContinuousNnc>,
    next_request: u64,
    corrupt_pending: bool,
    read_pass: usize,
    batch_pass: usize,
    script_pos: usize,
    live: Vec<usize>,
    /// Time granted to and spent by the closed-loop, batch and churn
    /// stages so far. A stage that overran its slice in one round runs
    /// that much less in the next, so each stage's total stays at its
    /// share of the run.
    granted: [Duration; 3],
    spent: [Duration; 3],
}

/// One mutation, ready to publish.
enum Step {
    Insert(UncertainObject),
    Delete(usize),
    Update(usize, UncertainObject),
}

fn run_with<D: SpatialIndex + Clone>(
    w: &Workload,
    opts: &RunOptions,
    build: impl Fn(Vec<UncertainObject>) -> Result<D, DbError>,
    build_reference: impl Fn(Vec<UncertainObject>) -> Result<Box<dyn SpatialIndex>, DbError>,
) -> Result<Outcome, String> {
    let inputs = w.inputs(opts.seed);
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.work_dir.display()))?;
    let csv = opts.work_dir.join(format!(
        "{}-{}-{}.csv",
        w.name,
        opts.seed,
        std::process::id()
    ));
    std::fs::write(&csv, gen::csv(&inputs.objects))
        .map_err(|e| format!("cannot write {}: {e}", csv.display()))?;
    let out = run_on(w, opts, inputs, &csv, build, build_reference);
    let _ = std::fs::remove_file(&csv);
    out
}

fn run_on<D: SpatialIndex + Clone>(
    w: &Workload,
    opts: &RunOptions,
    inputs: Inputs,
    csv: &Path,
    build: impl Fn(Vec<UncertainObject>) -> Result<D, DbError>,
    build_reference: impl Fn(Vec<UncertainObject>) -> Result<Box<dyn SpatialIndex>, DbError>,
) -> Result<Outcome, String> {
    let cfg = FilterConfig::all();
    let mut tracer = Tracer::new(opts.trace, Instant::now(), 0);
    let mut samples = Samples::default();

    let (published, handles, prepared) =
        setup(w, cfg, &inputs, csv, &build, &mut tracer, &mut samples, 0)?;
    let objects = osd_datagen::read_objects_csv(csv)
        .map_err(|e| format!("reading {}: {e}", csv.display()))?;
    let reference = build_reference(objects).map_err(|e| format!("reference build: {e}"))?;

    let fx = Fixed {
        w,
        opts,
        cfg,
        reference,
        initial: published.pin(),
        published,
        prepared,
        inputs,
    };
    let mut st = State {
        tracer,
        reader_lanes: Vec::new(),
        ledger: Ledger::default(),
        samples,
        refs: vec![None; fx.inputs.queries.len()],
        handles,
        next_request: SETUP_ROUNDS.len() as u64 + 1,
        corrupt_pending: opts.corrupt,
        read_pass: 0,
        batch_pass: 0,
        script_pos: 0,
        live: (0..w.shape.n).collect(),
        granted: [Duration::ZERO; 3],
        spent: [Duration::ZERO; 3],
    };
    // Every reference answer is computed before timing starts, so that
    // no stage spends its share of the run on them.
    for q in 0..fx.inputs.queries.len() {
        let _ = st.reference_for(&fx, q);
    }
    // The stages take turns, round after round, so that every metric
    // samples the whole run rather than one stretch of it: on a shared
    // host, speed drifts from second to second.
    for round in 0..ROUNDS {
        for (granted, share) in st.granted.iter_mut().zip(SHARES) {
            *granted += Duration::from_secs_f64(opts.seconds * share / ROUNDS as f64);
        }
        st.closed_loop(&fx, round == 0);
        st.batches(&fx, round == 0);
        st.churn(&fx, round);
        if let Some(k) = SETUP_ROUNDS.iter().position(|&r| r == round) {
            let rid = k + 1;
            drop(setup(
                w,
                cfg,
                &fx.inputs,
                csv,
                &build,
                &mut st.tracer,
                &mut st.samples,
                rid,
            )?);
        }
    }
    st.brute_sample(&fx);
    st.brute_standing(&fx);
    st.samples.warm_evictions = fx.published.warm_pool().stats().evictions;

    let mut outcome = Outcome {
        attempted: st.ledger.attempted,
        failed: st.ledger.failed,
        failures: st.ledger.notes,
        metrics: Vec::new(),
        self_times: Vec::new(),
        trace_file: None,
    };
    if opts.trace {
        let mut lanes = vec![st.tracer.into_spans()];
        lanes.append(&mut st.reader_lanes);
        outcome.metrics = per_layer(&st.samples, &*fx.published.pin());
        outcome.self_times = trace::self_times(&lanes);
        let path = opts
            .work_dir
            .join(format!("trace-{}-{}.json", w.name, opts.seed));
        std::fs::write(&path, trace::chrome_trace(&lanes))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        outcome.trace_file = Some(path);
    } else {
        outcome.metrics = end_to_end(&st.samples);
    }
    Ok(outcome)
}

impl State {
    fn request_id(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// The reference answer for distinct query `q`: a cold engine on the
    /// other layout, computed once.
    fn reference_for<D>(&mut self, fx: &Fixed<'_, D>, q: usize) -> Result<&[Candidate], String> {
        if self.refs[q].is_none() {
            let engine = QueryEngine::with_config(&*fx.reference, fx.w.op, fx.cfg);
            let r = catch_unwind(AssertUnwindSafe(|| engine.run(&fx.prepared[q])))
                .map_err(|_| format!("reference query {q} panicked"))?;
            self.refs[q] = Some(r.candidates);
        }
        Ok(self.refs[q].as_deref().unwrap_or_default())
    }

    /// Checks `got` (an answer to distinct query `q`) against the
    /// reference and books the operation.
    fn check_answer<D>(
        &mut self,
        fx: &Fixed<'_, D>,
        what: &str,
        q: usize,
        got: Result<&[Candidate], String>,
    ) {
        let corrupt = std::mem::take(&mut self.corrupt_pending);
        let error = match (got, self.reference_for(fx, q)) {
            (Err(e), _) | (_, Err(e)) => Some(format!("{what} query {q}: {e}")),
            (Ok(got), Ok(want)) => {
                diff(corrupted(got, corrupt), want).map(|d| format!("{what} query {q}: {d}"))
            }
        };
        self.ledger.op(error);
    }

    /// Closed loop, one client: each request is `PreparedQuery::new` then
    /// `QueryEngine::run`, the next sent when the last returns. Whole
    /// passes run while the stage has time left. The traced run runs each
    /// pass twice, untraced and traced, to measure the tracing overhead on
    /// identical requests.
    fn closed_loop<D: SpatialIndex + Clone>(&mut self, fx: &Fixed<'_, D>, warm_up: bool) {
        if warm_up {
            let first = fx.pass(0);
            self.pass(fx, &first[..WARMUP_REQUESTS.min(first.len())], false);
        }
        while self.spent[0] < self.granted[0] {
            let start = Instant::now();
            let seg = fx.pass(self.read_pass);
            self.read_pass += 1;
            if fx.opts.trace {
                // Alternate which copy runs first, so that neither gains
                // from the caches the other warmed.
                let (untraced, traced) = if self.read_pass.is_multiple_of(2) {
                    let untraced = self.pass(fx, seg, false);
                    (untraced, self.pass(fx, seg, true))
                } else {
                    let traced = self.pass(fx, seg, true);
                    (self.pass(fx, seg, false), traced)
                };
                for (u, t) in untraced.iter().zip(&traced) {
                    self.samples.paired_ms.push((u.wall_ms, t.wall_ms));
                }
                self.samples.requests.extend(traced);
            } else {
                let untraced = self.pass(fx, seg, false);
                self.samples.requests.extend(untraced);
            }
            self.spent[0] += start.elapsed();
        }
    }

    /// Runs the requests of `seg` against the initial snapshot with a
    /// fresh warm pool. In the traced run, spans are recorded only when
    /// `traced` is set.
    fn pass<D: SpatialIndex + Clone>(
        &mut self,
        fx: &Fixed<'_, D>,
        seg: &[usize],
        traced: bool,
    ) -> Vec<Request> {
        let pool = WarmPool::new();
        let snap = &*fx.initial;
        let engine = QueryEngine::with_config(snap, fx.w.op, fx.cfg).with_warm(&pool);
        self.tracer.set_enabled(fx.opts.trace && traced);
        let mut out = Vec::with_capacity(seg.len());
        for &q in seg {
            let rid = self.request_id();
            let obj = object(&fx.inputs.queries, q);
            let mut req = Request::default();
            let span = self.tracer.open("request", NONE, rid);
            let (pq, prep) = self
                .tracer
                .time("query.prepare", span.id, rid, || PreparedQuery::new(obj));
            let (res, run) = self.tracer.time("nnc.run", span.id, rid, || {
                catch_unwind(AssertUnwindSafe(|| engine.run(&pq)))
            });
            req.wall_ms = ms(self.tracer.close(span));
            req.prepare_us = prep.as_secs_f64() * 1e6;
            req.run_ms = ms(run);
            // Both copies of a traced-run pass make this probe, so that
            // what it leaves in the allocator is not counted as tracing
            // overhead.
            if fx.opts.trace {
                let (_, ctx) = self.tracer.time("ctx.new", NONE, rid, || {
                    std::hint::black_box(CheckCtx::new(snap, &pq, fx.cfg));
                });
                req.ctx_us = ctx.as_secs_f64() * 1e6;
            }
            let got = match &res {
                Ok(r) => {
                    record_result(&mut req, r);
                    Ok(r.candidates.as_slice())
                }
                Err(_) => Err("panicked".to_string()),
            };
            self.check_answer(fx, "closed-loop", q, got);
            out.push(req);
        }
        self.tracer.set_enabled(fx.opts.trace);
        if traced {
            let ws = pool.stats();
            self.samples.warm_hits += ws.hits;
            self.samples.warm_misses += ws.misses;
            self.samples.warm_resident = self.samples.warm_resident.max(ws.resident_bytes);
        }
        out
    }

    /// `run_batch` on every CPU, one pass per batch, each with a fresh
    /// warm pool (Morton reorder on, the engine's default), while the
    /// stage has time left. The traced run also times each batch on one
    /// thread first.
    fn batches<D: SpatialIndex + Clone>(&mut self, fx: &Fixed<'_, D>, warm_up: bool) {
        let threads = host_cpus();
        let batch_of = |seg: &[usize]| -> Vec<PreparedQuery> {
            seg.iter().map(|&q| fx.prepared[q].clone()).collect()
        };
        let engine = QueryEngine::with_config(&*fx.initial, fx.w.op, fx.cfg);
        if warm_up {
            let first = fx.pass(0);
            let warm = batch_of(&first[..(2 * threads).min(first.len())]);
            let _ = engine.with_warm(&WarmPool::new()).run_batch(&warm, threads);
        }
        while self.spent[1] < self.granted[1] {
            let start = Instant::now();
            let seg = fx.pass(self.batch_pass);
            self.batch_pass += 1;
            let batch = batch_of(seg);
            let rid = self.request_id();
            let mut one_thread = None;
            if fx.opts.trace {
                let pool = WarmPool::new();
                let (res, one) = self.tracer.time("engine.run_batch1", NONE, rid, || {
                    catch_unwind(AssertUnwindSafe(|| {
                        engine.with_warm(&pool).run_batch(&batch, 1)
                    }))
                });
                one_thread = Some(one.as_secs_f64());
                for (i, &q) in seg.iter().enumerate() {
                    let got = match &res {
                        Ok(results) => Ok(results[i].candidates.as_slice()),
                        Err(_) => Err("one-thread batch panicked".to_string()),
                    };
                    self.check_answer(fx, "one-thread batch", q, got);
                }
            }
            let pool = WarmPool::new();
            let (res, wall) = self.tracer.time("engine.run_batch", NONE, rid, || {
                catch_unwind(AssertUnwindSafe(|| {
                    engine.with_warm(&pool).run_batch(&batch, threads)
                }))
            });
            match res {
                Ok(results) => {
                    let wall = wall.as_secs_f64();
                    self.samples.batch_qps.push(batch.len() as f64 / wall);
                    if let Some(one) = one_thread {
                        self.samples.batch1_s.push(one);
                        self.samples.scaling.push(one / wall);
                    }
                    for (&q, r) in seg.iter().zip(&results) {
                        self.check_answer(fx, "batch", q, Ok(&r.candidates));
                    }
                }
                Err(_) => {
                    for &q in seg {
                        self.check_answer(fx, "batch", q, Err("batch panicked".into()));
                    }
                }
            }
            self.spent[1] += start.elapsed();
        }
    }

    /// A seeded read query must match `nn_candidates_bruteforce` on the
    /// initial snapshot.
    fn brute_sample<D: SpatialIndex + Clone>(&mut self, fx: &Fixed<'_, D>) {
        let q = Rng::new(fx.opts.seed, 4).below(fx.inputs.queries.len());
        let brute = catch_unwind(AssertUnwindSafe(|| {
            nn_candidates_bruteforce(&*fx.initial, &fx.prepared[q], fx.w.op, &fx.cfg).0
        }));
        let error = match (brute, self.reference_for(fx, q)) {
            (Err(_), _) => Some(format!("brute force on query {q} panicked")),
            (_, Err(e)) => Some(e),
            (Ok(brute), Ok(want)) => {
                let mut ids: Vec<usize> = want.iter().map(|c| c.id).collect();
                ids.sort_unstable();
                (ids != brute).then(|| format!("query {q}: ids {ids:?}, brute force {brute:?}"))
            }
        };
        self.ledger.op(error);
    }

    /// The first standing query, on the final snapshot, must match
    /// `nn_candidates_bruteforce`.
    fn brute_standing<D: SpatialIndex + Clone>(&mut self, fx: &Fixed<'_, D>) {
        let Some(h) = self.handles.first() else {
            return;
        };
        let snap = fx.published.pin();
        let brute = catch_unwind(AssertUnwindSafe(|| {
            nn_candidates_bruteforce(&*snap, h.query(), h.op(), &fx.cfg).0
        }));
        let mut ids = h.ids();
        ids.sort_unstable();
        self.ledger.op(match brute {
            Err(_) => Some("brute force on a standing query panicked".into()),
            Ok(b) if b != ids => Some(format!("standing query: ids {ids:?}, brute force {b:?}")),
            Ok(_) => None,
        });
    }

    /// One writer continues the script, publishing each mutation and then
    /// refreshing every standing handle through the published warm pool;
    /// one reader thread runs `nn_candidates` on pinned snapshots in a
    /// closed loop meanwhile.
    fn churn<D: SpatialIndex + Clone>(&mut self, fx: &Fixed<'_, D>, round: usize) {
        if round > 0 && self.spent[2] >= self.granted[2] {
            return;
        }
        let stop = AtomicBool::new(false);
        let reader_tracer = Tracer::new(fx.opts.trace, self.tracer.origin(), 1 + round as u32);
        std::thread::scope(|scope| {
            let stop = &stop;
            let reader = scope.spawn(move || reader_loop(fx, stop, reader_tracer, round));
            self.writer(fx, round == 0);
            stop.store(true, Ordering::Release);
            match reader.join() {
                Ok((calls, wall, ledger, tracer)) => {
                    self.samples.reader_calls += calls;
                    self.samples.churn_s += wall.as_secs_f64();
                    self.ledger.absorb(ledger);
                    self.reader_lanes.push(tracer.into_spans());
                }
                Err(_) => self.ledger.op(Some("reader thread panicked".into())),
            }
        });
    }

    /// The writer refreshes the handles on the snapshot it just published
    /// and holds that pin until its next publish has returned, then
    /// releases it (timed apart): a publish never frees the snapshot it
    /// replaces, whether or not the reader happens to hold it.
    fn writer<D: SpatialIndex + Clone>(&mut self, fx: &Fixed<'_, D>, warm_up: bool) {
        let dim = fx.w.shape.dim;
        let mut held: Option<Arc<D>> = None;
        let mut published_now = 0;
        let min = if warm_up { WARMUP_PUBLISHES + 1 } else { 1 };
        while published_now < min || self.spent[2] < self.granted[2] {
            let start = Instant::now();
            let k = self.script_pos;
            let script = &fx.inputs.script;
            let Some(mutation) = script.get(k % script.len().max(1)) else {
                return;
            };
            self.script_pos += 1;
            published_now += 1;
            let live = &mut self.live;
            let (kind, step) = match mutation {
                Mutation::Insert(coords) => (0, Step::Insert(cloud_object(coords, dim))),
                Mutation::Delete(pick) => (
                    1,
                    Step::Delete(live.swap_remove(*pick as usize % live.len())),
                ),
                Mutation::Update(pick, coords) => (
                    2,
                    Step::Update(live[*pick as usize % live.len()], cloud_object(coords, dim)),
                ),
            };
            let deleted = match step {
                Step::Delete(id) => Some(id),
                _ => None,
            };
            let rid = self.request_id();
            let epoch = self.tracer.open("writer.epoch", NONE, rid);
            let (result, wall, splice) = self.publish(fx, rid, epoch.id, step);
            self.release(held.take(), rid, epoch.id);
            match (&result, deleted) {
                (Ok(Ok(Some(id))), _) => self.live.push(*id),
                (Ok(Ok(_)), _) => {}
                (_, Some(id)) => self.live.push(id),
                _ => {}
            }
            self.ledger.op(match result {
                Err(_) => Some(format!("mutation {k} panicked")),
                Ok(Err(e)) => Some(format!("mutation {k}: {e}")),
                Ok(Ok(_)) => None,
            });
            if !warm_up || published_now > WARMUP_PUBLISHES {
                self.samples.publish_ms.push(ms(wall));
                self.samples.publish_by_kind[kind].push(ms(wall));
                if let Some(sp) = splice {
                    self.samples.splice_ms.push(ms(sp));
                }
            }
            let snap = fx.published.pin();
            self.refresh_handles(fx, &snap, rid, epoch.id);
            held = Some(snap);
            self.tracer.close(epoch);
            self.spent[2] += start.elapsed();
        }
        self.release(held, NONE_REQUEST, NONE);
    }

    /// Drops the writer's pin on a replaced snapshot, timing the release.
    fn release<D>(&mut self, snap: Option<Arc<D>>, rid: u64, parent: SpanId) {
        if let Some(snap) = snap {
            let ((), wall) = self
                .tracer
                .time("snapshot.release", parent, rid, || drop(snap));
            self.samples.release_ms.push(ms(wall));
        }
    }

    /// Publishes one mutation. The untraced run calls
    /// `PublishedIndex::insert/delete/update`; the traced run calls
    /// `PublishedIndex::publish` with the same `try_*` mutation (exactly
    /// what those wrap) and times the splice inside the closure.
    fn publish<D: SpatialIndex + Clone>(
        &mut self,
        fx: &Fixed<'_, D>,
        rid: u64,
        parent: SpanId,
        step: Step,
    ) -> (Published, Duration, Option<Duration>) {
        let p = &fx.published;
        let span = self.tracer.open("publish", parent, rid);
        let mut splice = None;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if fx.opts.trace {
                p.publish(|db| {
                    let t0 = Instant::now();
                    let r = match step {
                        Step::Insert(o) => db.try_insert(o).map(Some),
                        Step::Delete(id) => db.try_delete(id).map(|()| None),
                        Step::Update(id, o) => db.try_update(id, o).map(|()| None),
                    };
                    splice = Some((t0, Instant::now()));
                    r
                })
            } else {
                match step {
                    Step::Insert(o) => p.insert(o).map(Some),
                    Step::Delete(id) => p.delete(id).map(|()| None),
                    Step::Update(id, o) => p.update(id, o).map(|()| None),
                }
            }
        }));
        let wall = self.tracer.close(span);
        let splice = splice.map(|(t0, t1)| {
            self.tracer.record("publish.splice", span.id, rid, t0, t1);
            t1 - t0
        });
        (result, wall, splice)
    }

    fn refresh_handles<D: SpatialIndex + Clone>(
        &mut self,
        fx: &Fixed<'_, D>,
        snap: &D,
        rid: u64,
        parent: SpanId,
    ) {
        let pool = fx.published.warm_pool();
        for i in 0..self.handles.len() {
            let h = &mut self.handles[i];
            let (repair, wall) = self.tracer.time("repair.refresh", parent, rid, || {
                catch_unwind(AssertUnwindSafe(|| h.refresh_with(snap, Some(pool))))
            });
            self.samples.refresh_ms.push(ms(wall));
            match repair {
                Ok(Repair::Incremental { .. }) => self.samples.incremental += 1,
                Ok(Repair::Full) => self.samples.full += 1,
                Ok(Repair::UpToDate) | Err(_) => {}
            }
            let h = &self.handles[i];
            let (want, wall) = self.tracer.time("repair.requery", parent, rid, || {
                catch_unwind(AssertUnwindSafe(|| {
                    nn_candidates(snap, h.query(), fx.w.op, &fx.cfg)
                }))
            });
            self.samples.requery_ms.push(ms(wall));
            let corrupt = std::mem::take(&mut self.corrupt_pending);
            let got = corrupted(self.handles[i].candidates(), corrupt);
            let error = match (repair, want) {
                (Err(_), _) => Some("refresh panicked".into()),
                (_, Err(_)) => Some("reference re-query panicked".into()),
                (Ok(_), Ok(want)) => diff(got, &want.candidates)
                    .map(|d| format!("standing query {i} at epoch {}: {d}", snap.epoch())),
            };
            self.ledger.op(error);
        }
    }
}

/// The reader thread: a closed loop of `nn_candidates` calls on pinned
/// snapshots. Every candidate must be live in the snapshot it pinned.
fn reader_loop<D: SpatialIndex + Clone>(
    fx: &Fixed<'_, D>,
    stop: &AtomicBool,
    mut tracer: Tracer,
    round: usize,
) -> (u64, Duration, Ledger, Tracer) {
    let queries = &fx.inputs.queries;
    let mut ledger = Ledger::default();
    let mut calls = 0u64;
    let start = Instant::now();
    let mut q = queries.len() / 2;
    while !stop.load(Ordering::Acquire) {
        q = (q + 1) % queries.len();
        let obj = object(queries, q);
        let rid = ((round as u64 + 1) << 40) | calls;
        let snap = fx.published.pin();
        let span = tracer.open("reader.request", NONE, rid);
        let (pq, _) = tracer.time("reader.prepare", span.id, rid, || PreparedQuery::new(obj));
        let (res, _) = tracer.time("reader.nn_candidates", span.id, rid, || {
            catch_unwind(AssertUnwindSafe(|| {
                nn_candidates(&*snap, &pq, fx.w.op, &fx.cfg)
            }))
        });
        tracer.close(span);
        ledger.op(match res {
            Err(_) => Some(format!("reader query {q} panicked")),
            Ok(r) => r
                .candidates
                .iter()
                .find(|c| !snap.is_live(c.id))
                .map(|c| format!("reader query {q}: candidate {} is not live", c.id)),
        });
        calls += 1;
    }
    (calls, start.elapsed(), ledger, tracer)
}

/// `got`, minus its last candidate when `corrupt` is set.
fn corrupted(got: &[Candidate], corrupt: bool) -> &[Candidate] {
    match got.split_last() {
        Some((_, rest)) if corrupt => rest,
        _ => got,
    }
}

/// Set-up: CSV on disk → queryable published index with the standing
/// queries built and the request set prepared.
#[allow(clippy::too_many_arguments)]
fn setup<D: SpatialIndex + Clone>(
    w: &Workload,
    cfg: FilterConfig,
    inputs: &Inputs,
    csv: &Path,
    build: &impl Fn(Vec<UncertainObject>) -> Result<D, DbError>,
    tracer: &mut Tracer,
    samples: &mut Samples,
    rid: usize,
) -> Result<Built<D>, String> {
    let rid = rid as u64;
    let root = tracer.open("setup", NONE, rid);
    let (objects, read) = tracer.time("ingest.read_csv", root.id, rid, || {
        osd_datagen::read_objects_csv(csv)
    });
    let objects = objects.map_err(|e| format!("reading {}: {e}", csv.display()))?;
    let (db, build_t) = tracer.time("build.index", root.id, rid, || build(objects));
    let db = db.map_err(|e| format!("index build: {e}"))?;
    let (published, _) = tracer.time("publish.new", root.id, rid, || PublishedIndex::new(db));
    let (handles, _) = tracer.time("continuous.new", root.id, rid, || {
        let snap = published.pin();
        (0..w.handles.min(inputs.queries.len()))
            .map(|q| {
                let pq = PreparedQuery::new(object(&inputs.queries, q));
                ContinuousNnc::new(&*snap, pq, w.op, cfg)
            })
            .collect::<Vec<_>>()
    });
    let (prepared, _) = tracer.time("query.prepare_set", root.id, rid, || {
        (0..inputs.queries.len())
            .map(|q| PreparedQuery::new(object(&inputs.queries, q)))
            .collect::<Vec<_>>()
    });
    let total = tracer.close(root);
    samples.setup_s.push(total.as_secs_f64());
    samples.read_csv_s.push(read.as_secs_f64());
    samples.build_s.push(build_t.as_secs_f64());
    samples
        .setup_rest_s
        .push((total - read - build_t).as_secs_f64());
    Ok((published, handles, prepared))
}

fn record_result(req: &mut Request, r: &NncResult) {
    req.stats = r.stats;
    req.objects_checked = r.objects_checked;
    req.candidates = r.candidates.len();
    for (slot, p) in req.phase_ns.iter_mut().zip(Phase::ALL) {
        *slot = r.metrics.phase_nanos(p);
    }
}

/// The first difference between two answers — ids, `min_dist` bits and
/// emission order — or `None` when they agree.
pub fn diff(got: &[Candidate], want: &[Candidate]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!(
            "{} candidates, reference has {}",
            got.len(),
            want.len()
        ));
    }
    got.iter().zip(want).enumerate().find_map(|(i, (g, w))| {
        (g.id != w.id || g.min_dist.to_bits() != w.min_dist.to_bits()).then(|| {
            format!(
                "position {i}: ({}, {}) vs reference ({}, {})",
                g.id, g.min_dist, w.id, w.min_dist
            )
        })
    })
}

fn object(clouds: &Clouds, i: usize) -> UncertainObject {
    cloud_object(clouds.cloud(i), clouds.dim)
}

fn cloud_object(coords: &[f64], dim: usize) -> UncertainObject {
    UncertainObject::uniform(coords.chunks(dim).map(|p| Point::new(p.to_vec())).collect())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
        gated: !PRINTED_ONLY.contains(&name),
    }
}

/// The sample count behind a p95 and how many samples lie beyond it.
fn tail_note(samples: &[f64]) -> String {
    let (_, beyond) = quantile(samples, 0.95);
    let mut note = format!("{} samples, {beyond} beyond p95", samples.len());
    if beyond < 10 {
        note.push_str(" (fewer than 10: p95 is not well supported)");
    }
    note
}

fn end_to_end(s: &Samples) -> Vec<Metric> {
    let lat: Vec<f64> = s.requests.iter().map(|r| r.wall_ms).collect();
    vec![
        metric(
            "setup_s",
            median(&s.setup_s),
            "s",
            format!("median of {} set-ups", s.setup_s.len()),
        ),
        metric(
            "query_p50_ms",
            median(&lat),
            "ms",
            format!("{} requests", lat.len()),
        ),
        metric(
            "query_p95_ms",
            quantile(&lat, 0.95).0,
            "ms",
            tail_note(&lat),
        ),
        metric(
            "batch_qps",
            median(&s.batch_qps),
            "queries/s",
            format!(
                "median of {} batches on {} threads",
                s.batch_qps.len(),
                host_cpus()
            ),
        ),
        metric(
            "publish_p50_ms",
            median(&s.publish_ms),
            "ms",
            format!("{} publishes", s.publish_ms.len()),
        ),
        metric(
            "publish_p95_ms",
            quantile(&s.publish_ms, 0.95).0,
            "ms",
            tail_note(&s.publish_ms),
        ),
        metric(
            "repair_p50_ms",
            median(&s.refresh_ms),
            "ms",
            format!("{} refreshes", s.refresh_ms.len()),
        ),
        metric(
            "reader_qps",
            s.reader_calls as f64 / s.churn_s,
            "queries/s",
            format!("{} reader calls in {:.3} s", s.reader_calls, s.churn_s),
        ),
        metric("peak_rss_mb", peak_rss_mib(), "MiB", "VmHWM".into()),
    ]
}

fn per_layer(s: &Samples, index: &dyn SpatialIndex) -> Vec<Metric> {
    let reqs = &s.requests;
    let n = reqs.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Request) -> f64| reqs.iter().map(f).sum::<f64>();
    let med = |f: &dyn Fn(&Request) -> f64| median(&reqs.iter().map(f).collect::<Vec<_>>());
    let per_req = |f: &dyn Fn(&Stats) -> u64| sum(&|r| f(&r.stats) as f64) / n;
    let note = format!("{} traced requests", reqs.len());
    let stats = index.index_stats();
    let hits = per_req(&|st| st.cache_hits);
    let misses = per_req(&|st| st.cache_misses);
    let run_ns = sum(&|r| r.run_ms * 1e6);
    let phase_pct = |i: usize| 100.0 * sum(&|r| r.phase_ns[i] as f64) / run_ns;
    let phases: f64 = (0..Phase::COUNT).map(phase_pct).sum();
    let (total, splice) = (&s.publish_ms, &s.splice_ms);
    let clone_swap: Vec<f64> = total.iter().zip(splice).map(|(t, sp)| t - sp).collect();
    let overhead: Vec<f64> = s.paired_ms.iter().map(|(u, t)| t - u).collect();
    let untraced: Vec<f64> = s.paired_ms.iter().map(|(u, _)| *u).collect();
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    let warm_ratio = ratio(s.warm_hits as f64, s.warm_misses as f64);
    let cands = sum(&|r| r.candidates as f64);
    let checked = sum(&|r| r.objects_checked as f64);
    let pubs = format!("{} publishes", total.len());
    let m = |name, value, unit, note: &str| metric(name, value, unit, note.to_string());
    vec![
        m(
            "ingest.read_csv_s",
            median(&s.read_csv_s),
            "s",
            "median of set-ups",
        ),
        m(
            "build.index_s",
            median(&s.build_s),
            "s",
            "median of set-ups",
        ),
        m(
            "build.index_bytes",
            stats.shards.iter().map(|sh| sh.approx_bytes as f64).sum(),
            "bytes",
            "sum of approx_bytes over shards, final snapshot",
        ),
        m(
            "build.tree_nodes",
            stats.shards.iter().map(|sh| sh.tree_nodes as f64).sum(),
            "count",
            "global tree nodes over shards, final snapshot",
        ),
        m("query.prepare_us", med(&|r| r.prepare_us), "us", &note),
        m("ctx.new_us", med(&|r| r.ctx_us), "us", &note),
        m("cache.hit_ratio", ratio(hits, misses), "ratio", &note),
        m("nnc.run_ms", med(&|r| r.run_ms), "ms", &note),
        m(
            "nnc.nodes_visited",
            per_req(&|st| st.rtree_nodes_visited),
            "count/query",
            &note,
        ),
        m(
            "nnc.mbr_checks",
            per_req(&|st| st.mbr_checks),
            "count/query",
            &note,
        ),
        m("nnc.objects_checked", checked / n, "count/query", &note),
        m("nnc.candidates", cands / n, "count/query", &note),
        m(
            "nnc.candidate_ratio",
            if checked > 0.0 { cands / checked } else { 0.0 },
            "ratio",
            &note,
        ),
        m(
            "ops.dominance_checks",
            per_req(&|st| st.dominance_checks),
            "count/query",
            &note,
        ),
        m(
            "ops.instance_comparisons",
            per_req(&|st| st.instance_comparisons),
            "count/query",
            &note,
        ),
        m(
            "ops.flow_runs",
            per_req(&|st| st.flow_runs),
            "count/query",
            &note,
        ),
        m(
            "phase.prepare_pct",
            phase_pct(0),
            "%",
            "share of nnc.run wall",
        ),
        m(
            "phase.rtree-descent_pct",
            phase_pct(1),
            "%",
            "share of nnc.run wall",
        ),
        m(
            "phase.level-prune_pct",
            phase_pct(2),
            "%",
            "share of nnc.run wall",
        ),
        m(
            "phase.validate_pct",
            phase_pct(3),
            "%",
            "share of nnc.run wall",
        ),
        m(
            "phase.refine_pct",
            phase_pct(4),
            "%",
            "share of nnc.run wall",
        ),
        m(
            "phase.unattributed_pct",
            100.0 - phases,
            "%",
            "nnc.run wall minus the phases",
        ),
        m(
            "request.unattributed_us",
            med(&|r| (r.wall_ms - r.run_ms) * 1e3 - r.prepare_us),
            "us",
            "request wall minus query.prepare and nnc.run",
        ),
        m(
            "setup.unattributed_s",
            median(&s.setup_rest_s),
            "s",
            "setup_s minus ingest and build",
        ),
        m("warm.hit_ratio", warm_ratio, "ratio", "closed-loop pools"),
        m(
            "warm.resident_bytes",
            s.warm_resident as f64,
            "bytes",
            "largest closed-loop pool",
        ),
        m(
            "warm.evictions",
            s.warm_evictions as f64,
            "count",
            "published pool after churn",
        ),
        m(
            "engine.batch_qps",
            median(&s.batch_qps),
            "queries/s",
            "run_batch on every CPU",
        ),
        m(
            "engine.batch1_s",
            median(&s.batch1_s),
            "s",
            "run_batch on 1 thread, per batch",
        ),
        m(
            "engine.scaling",
            median(&s.scaling),
            "ratio",
            "1-thread wall / all-CPU wall",
        ),
        m("publish.total_ms", median(total), "ms", &pubs),
        m("publish.splice_ms", median(splice), "ms", &pubs),
        m("publish.clone_swap_ms", median(&clone_swap), "ms", &pubs),
        m(
            "publish.insert_ms",
            median(&s.publish_by_kind[0]),
            "ms",
            &pubs,
        ),
        m(
            "publish.delete_ms",
            median(&s.publish_by_kind[1]),
            "ms",
            &pubs,
        ),
        m(
            "publish.update_ms",
            median(&s.publish_by_kind[2]),
            "ms",
            &pubs,
        ),
        m(
            "publish.release_ms",
            median(&s.release_ms),
            "ms",
            "writer drops its pin on the replaced snapshot",
        ),
        m(
            "repair.refresh_ms",
            median(&s.refresh_ms),
            "ms",
            "per handle per epoch",
        ),
        m(
            "repair.requery_ms",
            median(&s.requery_ms),
            "ms",
            "full nn_candidates, same snapshot",
        ),
        m(
            "repair.incremental",
            s.incremental as f64,
            "count",
            "refreshes",
        ),
        m("repair.full", s.full as f64, "count", "refreshes"),
        m(
            "reader.qps",
            s.reader_calls as f64 / s.churn_s,
            "queries/s",
            "reader calls / reader wall during churn",
        ),
        m(
            "trace.overhead_pct",
            100.0 * median(&overhead) / median(&untraced),
            "%",
            "median paired (traced - untraced) request wall / untraced median",
        ),
    ]
}
