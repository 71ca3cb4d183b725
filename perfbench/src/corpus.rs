//! The two in-process workloads, `corpus-cold` and `store-incremental`,
//! plus the corpus inputs (shared with `serve-open`), the seeded edits and
//! the verdict check.

use crate::util::{self, mean, median, ms, pct, process_cpu, thread_cpu, Deck, Rng, Sheet, Tracer};
use crate::Args;
use padfa_core::{
    analyze_program_session, flight, par_map_jobs, AnalysisResult, AnalysisSession,
    MetricsRegistry, Options, QueryStats, StatsSnapshot, Store, StoreConfig, Variant,
};
use padfa_ir::parse::parse_program;
use padfa_suite::patterns::Gen;
use padfa_suite::{build_corpus, PROGRAM_SPECS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is the median of their calibrated on-CPU
/// times.
const SETUPS: usize = 5;

/// Build identity the benchmark's stores are stamped with.
const STORE_REV: &str = "perfbench";

/// One corpus program as the benchmark feeds it to the system: source
/// text plus the generator's hand-written expectation for every labeled
/// loop (true = the predicated analysis should parallelize it).
pub struct Input {
    pub name: &'static str,
    pub source: String,
    pub expect: Vec<(String, bool)>,
}

pub fn inputs() -> Vec<Input> {
    let corpus = build_corpus();
    assert_eq!(corpus.len(), PROGRAM_SPECS.len());
    corpus
        .into_iter()
        .map(|bp| Input {
            name: bp.name,
            expect: bp
                .hard
                .iter()
                .map(|h| {
                    (
                        h.label.clone(),
                        h.expect.parallelized_by(Variant::Predicated),
                    )
                })
                .collect(),
            source: bp.source,
        })
        .collect()
}

/// Compare every labeled loop's verdict with its expectation; one line
/// per mismatch.
fn check(name: &str, result: &AnalysisResult, expect: &[(String, bool)]) -> Vec<String> {
    let mut bad = Vec::new();
    if result.stats.degraded_procs > 0 {
        bad.push(format!(
            "{name}: {} degraded procedure(s)",
            result.stats.degraded_procs
        ));
    }
    for (label, want) in expect {
        match result.by_label(label) {
            None => bad.push(format!("{name}: loop {label} missing")),
            Some(r) if r.parallelized() != *want => bad.push(format!(
                "{name}: loop {label} expected parallelized={want}, got {}",
                r.outcome
            )),
            Some(_) => {}
        }
    }
    bad
}

/// The labeled patterns an edit may append to `main`.
const EDITS: [&str; 12] = [
    "fig1a",
    "guard_rt",
    "boundary_rt",
    "embed",
    "reshape_rt",
    "multi_guard",
    "nonaffine_par",
    "nonaffine_seq",
    "wrapped_fig1a",
    "wrapped_guard_rt",
    "wrapped_boundary_rt",
    "wrapped_embed",
];

fn emit_edit(g: &mut Gen, which: usize) {
    match EDITS[which] {
        "fig1a" => g.fig1a(),
        "guard_rt" => g.guard_rt(),
        "boundary_rt" => g.boundary_rt(),
        "embed" => g.embed(),
        "reshape_rt" => g.reshape_rt(),
        "multi_guard" => g.multi_guard(),
        "nonaffine_par" => g.nonaffine_par(),
        "nonaffine_seq" => g.nonaffine_seq(),
        "wrapped_fig1a" => g.wrapped(|g| g.fig1a()),
        "wrapped_guard_rt" => g.wrapped(|g| g.guard_rt()),
        "wrapped_boundary_rt" => g.wrapped(|g| g.boundary_rt()),
        _ => g.wrapped(|g| g.embed()),
    }
}

/// Patterns emitted before the edit so its identifiers and labels are
/// numbered past every corpus program's.
const EDIT_NUMBERING_GAP: usize = 5000;

/// `input` with one seeded pattern appended to `main` (and any helper
/// procedure it needs appended to the program), plus the expectations
/// of the new labeled loops.
struct Edit {
    program: usize,
    pattern: &'static str,
    source: String,
    expect: Vec<(String, bool)>,
}

/// Seeded edit choices: programs and patterns drawn in shuffled rounds,
/// so each comes up equally often.
struct Edits {
    programs: Deck,
    patterns: Deck,
}

impl Edits {
    fn new(programs: usize) -> Edits {
        Edits {
            programs: Deck::new(programs),
            patterns: Deck::new(EDITS.len()),
        }
    }
}

fn edit(inputs: &[Input], edits: &mut Edits, rng: &mut Rng) -> Edit {
    let program = edits.programs.draw(rng);
    let which = edits.patterns.draw(rng);
    let seed = rng.next_u64();
    let generate = |with_edit: bool| {
        let mut g = Gen::new("edit", seed);
        for _ in 0..EDIT_NUMBERING_GAP {
            g.simple();
        }
        if with_edit {
            emit_edit(&mut g, which);
        }
        let hard = std::mem::take(&mut g.hard);
        (g.finish(), hard)
    };
    let (base, _) = generate(false);
    let (full, hard) = generate(true);
    // `base` is `main` holding only the numbering patterns; `full`
    // continues the same body with the edit, then closes `main` and
    // appends the edit's helper procedures.
    let tail = &full[base.len() - 2..];
    let end = tail.find("\n}\n").expect("generated main is closed") + 1;
    let (snippet, helpers) = (&tail[..end], &tail[end + 2..]);
    let src = &inputs[program].source;
    let main_end = src.find("\n}\n").expect("corpus main is closed") + 1;
    let source = format!("{}{snippet}{}{helpers}", &src[..main_end], &src[main_end..]);
    let mut expect = inputs[program].expect.clone();
    expect.extend(hard.iter().map(|h| {
        (
            h.label.clone(),
            h.expect.parallelized_by(Variant::Predicated),
        )
    }));
    Edit {
        program,
        pattern: EDITS[which],
        source,
        expect,
    }
}

/// What one program analysis produced.
struct OpOut {
    /// Wall time and the lane thread's on-CPU time of parse + analyze.
    ms: f64,
    cpu_ms: f64,
    stats: Option<StatsSnapshot>,
    failure: Option<String>,
}

/// Parse and analyze one program (predicated, fresh session), timing
/// the pair and recording the calls as spans when tracing.
#[allow(clippy::too_many_arguments)]
fn analyze_one(
    name: &str,
    source: &str,
    expect: &[(String, bool)],
    store: Option<&Arc<Store>>,
    registry: Option<&Arc<MetricsRegistry>>,
    tracer: &Tracer,
    op: u64,
    parent: Option<usize>,
) -> OpOut {
    let t0 = Instant::now();
    let c0 = thread_cpu();
    let span = tracer.start("op", op, parent);
    let run = catch_unwind(AssertUnwindSafe(|| {
        let s = tracer.start("ir.parse", op, span);
        let prog = parse_program(source);
        tracer.end(s);
        let prog = prog.map_err(|e| format!("parse error {}:{}: {}", e.line, e.col, e.msg))?;
        let s = tracer.start("core.analyze", op, span);
        let mut sess = AnalysisSession::new(Options::predicated());
        if let Some(st) = store {
            sess = sess.with_store(Arc::clone(st));
        }
        if let Some(r) = registry {
            sess = sess.with_metrics(Arc::clone(r));
        }
        let out = analyze_program_session(&prog, &sess);
        tracer.end(s);
        out.map(|(result, _)| result)
            .map_err(|e| format!("analysis error: {e}"))
    }));
    tracer.end(span);
    let cpu_ms = util::ms(thread_cpu() - c0);
    let ms = ms(t0.elapsed());
    match run {
        Ok(Ok(result)) => {
            let bad = check(name, &result, expect);
            OpOut {
                ms,
                cpu_ms,
                failure: (!bad.is_empty()).then(|| bad.join("; ")),
                stats: Some(result.stats),
            }
        }
        Ok(Err(e)) => OpOut {
            ms,
            cpu_ms,
            stats: None,
            failure: Some(format!("{name}: {e}")),
        },
        Err(_) => OpOut {
            ms,
            cpu_ms,
            stats: None,
            failure: Some(format!("{name}: panicked")),
        },
    }
}

fn kinds(s: &StatsSnapshot) -> [QueryStats; 7] {
    [
        s.sys_empty,
        s.subset,
        s.subtract,
        s.intersect,
        s.union,
        s.project,
        s.implies,
    ]
}

/// The exact work counters of one pass: session counts summed over its
/// programs, by name.
fn pass_counters(stats: &[&StatsSnapshot]) -> Vec<(String, f64)> {
    let sum = |f: &dyn Fn(&StatsSnapshot) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    let mut out = Vec::new();
    for (i, kind) in KINDS.iter().enumerate() {
        out.push((
            format!("session.{kind}.queries"),
            sum(&|s| kinds(s)[i].total()),
        ));
        out.push((
            format!("session.{kind}.misses"),
            sum(&|s| kinds(s)[i].misses),
        ));
    }
    let queries = sum(&|s| s.total_queries());
    let tiered = sum(&|s| kinds(s).iter().map(|q| q.dense + q.general).sum());
    let rest: [(&str, f64); 9] = [
        ("session.queries", queries),
        (
            "session.memo_hit_rate",
            sum(&|s| s.total_hits()) / queries.max(1.0),
        ),
        (
            "session.dense_rate",
            sum(&|s| s.total_dense()) / tiered.max(1.0),
        ),
        ("session.fm_projections", sum(&|s| s.fm_projections)),
        (
            "session.interned_systems",
            sum(&|s| s.interned_systems as u64),
        ),
        (
            "session.interned_regions",
            sum(&|s| s.interned_regions as u64),
        ),
        ("session.interned_preds", sum(&|s| s.interned_preds as u64)),
        (
            "session.peak_table_entries",
            sum(&|s| s.peak_table_entries as u64),
        ),
        ("omega.limit_overflows", sum(&|s| s.limit_overflows)),
    ];
    out.extend(rest.map(|(n, v)| (n.to_string(), v)));
    out
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_rate") {
        "ratio"
    } else {
        "count"
    }
}

/// Per-op self time of the analysis phases the flight recorder saw in
/// `events`, summed over `ops` ops.
fn flight_phases(sheet: &mut Sheet, events: &[flight::Event], ops: usize, note: &str) {
    let profile = flight::profile(events);
    for (kind, name) in [
        (flight::EventKind::Driver, "flight.driver.self_ms"),
        (flight::EventKind::Summarize, "flight.summarize.self_ms"),
        (flight::EventKind::Loop, "flight.loop.self_ms"),
    ] {
        let self_us = profile
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, st)| st.self_us);
        sheet.layer(
            name,
            self_us as f64 / 1e3 / ops.max(1) as f64,
            "ms",
            note.to_string(),
        );
    }
}

/// Events recorded since `wm` if the ring still holds all of them.
fn events_since(wm: u64) -> (Vec<flight::Event>, bool) {
    let now = flight::watermark();
    let events: Vec<flight::Event> = flight::snapshot()
        .into_iter()
        .filter(|e| e.seq >= wm)
        .collect();
    let complete = events.len() as u64 >= now - wm;
    (events, complete)
}

fn query_ms(sheet: &mut Sheet, registry: &MetricsRegistry, note: &str) {
    let hist = registry.histograms_snapshot();
    for kind in KINDS {
        let ns = hist
            .get(&format!("latency.query.{kind}"))
            .map_or(0, |h| h.sum_ns());
        sheet.layer(
            &format!("session.{kind}.query_ms"),
            ns as f64 / 1e6,
            "ms",
            note,
        );
    }
}

/// The session's lattice query kinds.
pub const KINDS: [&str; 7] = [
    "sys_empty",
    "subset",
    "subtract",
    "intersect",
    "union",
    "project",
    "implies",
];

/// The per-op end-to-end figures from each op's calibrated on-CPU ms,
/// given as (input, ms) pairs: p50, p90 and mean over the mix (see
/// [`util::mix_pct`]). `references` are the calibration kernel's times.
pub fn op_cpu_e2e(sheet: &mut Sheet, op_ms: &[(usize, f64)], references: &[f64], what: &str) {
    let n = op_ms.len();
    for (name, q) in [("op_cpu_ms_p50", 0.5), ("op_cpu_ms_p90", 0.9)] {
        let note = format!("n={n} {what}, calibrated");
        sheet.e2e(name, util::mix_pct(op_ms, q), "ms", note);
    }
    let note = format!("n={n} {what}, calibrated mean");
    sheet.e2e("cpu_ms_per_op", util::mix_mean(op_ms), "ms", note);
    let note = format!("n={n}, reference speed {}", util::REFERENCE_MS);
    sheet.info("calibration_ms", median(references), "ms", note);
}

/// Wall-clock p50 and p90 of `values` into the table.
pub fn wall_pcts(sheet: &mut Sheet, name: &str, values: &[f64], what: &str) {
    let n = values.len();
    for (q, tag) in [(0.5, "p50"), (0.9, "p90")] {
        let note = format!("n={n} {what}");
        sheet.info(&format!("{name}_{tag}"), pct(values, q), "ms", note);
    }
}

/// Run `setup` `SETUPS` times and keep the last result, reporting the
/// median calibrated on-CPU time of a set-up, with the calibration
/// kernel run before and after it (and its wall time in the table).
pub fn timed_setup<T>(sheet: &mut Sheet, mut setup: impl FnMut(&mut Sheet) -> T) -> T {
    let (mut cal, mut wall) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let before = util::calibrate();
        let (t0, c0) = (Instant::now(), process_cpu());
        last = Some(setup(sheet));
        let cpu = (process_cpu() - c0).as_secs_f64();
        wall.push(t0.elapsed().as_secs_f64());
        let reference = (before + util::calibrate()) / 2.0;
        cal.push(util::calibrated(cpu, reference));
    }
    let note = format!("median of {SETUPS} set-ups");
    sheet.e2e(
        "setup_s",
        median(&cal),
        "s",
        format!("{note}, calibrated on-CPU"),
    );
    sheet.info("setup_s", median(&wall), "s", note);
    last.expect("set-up ran")
}

/// One pass over every program in `order`, fanned out over `lanes`:
/// its wall ms, each program's result, and the calibration kernel's ms
/// run on the program's lane just before it.
fn cold_pass(
    inputs: &[Input],
    order: &[usize],
    lanes: usize,
    tracer: &Tracer,
    first_op: u64,
) -> (f64, Vec<OpOut>, Vec<f64>) {
    let t0 = Instant::now();
    let (refs, outs) = par_map_jobs(lanes, order, |i, &p| {
        let inp = &inputs[p];
        let reference = util::calibrate();
        let out = analyze_one(
            inp.name,
            &inp.source,
            &inp.expect,
            None,
            None,
            tracer,
            first_op + i as u64,
            None,
        );
        (reference, out)
    })
    .into_iter()
    .unzip();
    (ms(t0.elapsed()), outs, refs)
}

fn tally(sheet: &mut Sheet, outs: &[OpOut]) {
    for o in outs {
        sheet.attempted += 1;
        if let Some(f) = &o.failure {
            sheet.fail(f.clone());
        }
    }
}

pub fn corpus_cold(args: &Args, sheet: &mut Sheet) {
    let lanes = util::lanes();
    let quiet = Tracer::new(false);
    let inputs = timed_setup(sheet, |sheet| {
        let inputs = inputs();
        let order: Vec<usize> = (0..inputs.len()).collect();
        let (_, outs, _) = cold_pass(&inputs, &order, lanes, &quiet, 0);
        tally(sheet, &outs);
        inputs
    });
    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let n = inputs.len();

    // A traced run starts with two untimed single-lane passes. The first
    // gives the exact counters (the process-wide overflow count is exact
    // in one lane only) and, one program at a time, the flight profile;
    // the second times every lattice query through a metrics registry.
    let mut counters = Vec::new();
    let mut events_per_op = 0.0;
    let registry = MetricsRegistry::new();
    if args.trace {
        let wm = flight::watermark();
        let mut events = Vec::new();
        let mut complete = true;
        let outs: Vec<OpOut> = order
            .iter()
            .map(|&p| {
                let at = flight::watermark();
                let out = analyze_one(
                    inputs[p].name,
                    &inputs[p].source,
                    &inputs[p].expect,
                    None,
                    None,
                    &quiet,
                    0,
                    None,
                );
                let (ev, all) = events_since(at);
                complete &= all;
                events.extend(ev);
                out
            })
            .collect();
        events_per_op = (flight::watermark() - wm) as f64 / n as f64;
        tally(sheet, &outs);
        let stats: Vec<&StatsSnapshot> = outs.iter().filter_map(|o| o.stats.as_ref()).collect();
        counters = pass_counters(&stats);
        let note = if complete {
            "per program, single-lane pass"
        } else {
            "per program, single-lane pass; ring wrapped, partial"
        };
        flight_phases(sheet, &events, n, note);
        let outs: Vec<OpOut> = order
            .iter()
            .map(|&p| {
                analyze_one(
                    inputs[p].name,
                    &inputs[p].source,
                    &inputs[p].expect,
                    None,
                    Some(&registry),
                    &quiet,
                    0,
                    None,
                )
            })
            .collect();
        tally(sheet, &outs);
    }

    let tracer = Tracer::new(args.trace);
    // Per pass: wall ms, and the summed on-CPU ms of its programs.
    let (mut plain_ms, mut plain_cpu, mut traced_cpu) = (Vec::new(), Vec::new(), Vec::new());
    let (mut program_ms, mut program_cal, mut references) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_ops = 0;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(args.seconds);
    let mut pass = 0u64;
    while pass < 2 || Instant::now() < deadline {
        rng.shuffle(&mut order);
        // In a traced run every other pass records spans, so traced and
        // untraced passes see the same host conditions.
        let traced = args.trace && pass % 2 == 1;
        let tr = if traced { &tracer } else { &quiet };
        let (wall, outs, refs) = cold_pass(&inputs, &order, lanes, tr, pass * n as u64);
        let cpu: f64 = outs.iter().map(|o| o.cpu_ms).sum();
        if traced {
            traced_cpu.push(cpu);
            traced_ops += outs.len();
            // Every pass must reproduce the single-lane pass's counters.
            let stats: Vec<&StatsSnapshot> = outs.iter().filter_map(|o| o.stats.as_ref()).collect();
            for ((name, want), (_, got)) in counters.iter().zip(pass_counters(&stats)) {
                if *name != "omega.limit_overflows" && *want != got {
                    eprintln!("counter {name} differs between passes: {want} vs {got}");
                }
            }
        } else {
            plain_ms.push(wall);
            plain_cpu.push(cpu);
            program_ms.extend(outs.iter().map(|o| o.ms));
            let cal = outs
                .iter()
                .zip(&refs)
                .map(|(o, &r)| util::calibrated(o.cpu_ms, r));
            program_cal.extend(order.iter().copied().zip(cal));
            references.extend(refs);
        }
        tally(sheet, &outs);
        pass += 1;
    }
    let elapsed = t0.elapsed();

    let passes = plain_ms.len();
    let what = format!("programs, parse + analyze, {lanes} lanes");
    op_cpu_e2e(sheet, &program_cal, &references, &what);
    let raw: f64 = plain_cpu.iter().sum();
    let note = "on-CPU, uncalibrated";
    sheet.info("cpu_ms_per_op", raw / (passes * n) as f64, "ms", note);
    let total: f64 = plain_ms.iter().sum();
    let note = format!("{} programs, {lanes} lanes", passes * n);
    sheet.info(
        "programs_per_s",
        (passes * n) as f64 / (total / 1e3),
        "1/s",
        note,
    );
    wall_pcts(sheet, "program_ms", &program_ms, "programs");
    wall_pcts(
        sheet,
        "pass_ms",
        &plain_ms,
        &format!("passes, {lanes} lanes"),
    );
    sheet.info("elapsed_s", elapsed.as_secs_f64(), "s", "measured window");

    if args.trace {
        let t = traced_ops.max(1) as f64;
        let note = format!("per program, {traced_ops} traced programs, {lanes} lanes");
        sheet.layer(
            "ir.parse_ms",
            tracer.total_ms("ir.parse") / t,
            "ms",
            note.clone(),
        );
        sheet.layer(
            "core.analyze_ms",
            tracer.total_ms("core.analyze") / t,
            "ms",
            note,
        );
        for (name, v) in &counters {
            sheet.layer(name, *v, unit_of(name), "per pass, single-lane pass");
        }
        query_ms(
            sheet,
            &registry,
            "per pass, single-lane pass with query timers",
        );
        sheet.layer(
            "flight.events_per_op",
            events_per_op,
            "count",
            "single-lane pass",
        );
        overhead(sheet, &plain_cpu, &traced_cpu, "on-CPU ms per pass");
        crate::write_spans(args, &tracer);
    }
}

pub fn overhead(sheet: &mut Sheet, plain: &[f64], traced: &[f64], what: &str) {
    let (a, b) = (median(plain), median(traced));
    sheet.layer(
        "trace_overhead_pct",
        (b / a - 1.0) * 100.0,
        "%",
        format!(
            "{what}: traced {b:.2} vs untraced {a:.2}, n={}/{}",
            traced.len(),
            plain.len()
        ),
    );
}

/// The fixed part of `store-incremental`: the corpus, a store filled by
/// one cold pass, and a snapshot of it.
struct StoreSetup {
    inputs: Vec<Input>,
    store_dir: std::path::PathBuf,
    snapshot: std::path::PathBuf,
}

fn open_store(dir: &Path) -> Arc<Store> {
    Arc::new(Store::open(StoreConfig::new(dir, STORE_REV)))
}

pub fn store_incremental(args: &Args, sheet: &mut Sheet) {
    let lanes = util::lanes();
    let quiet = Tracer::new(false);
    let setup = timed_setup(sheet, |sheet| {
        let inputs = inputs();
        let dir = util::work_dir(&format!("store-incremental-{}", std::process::id()));
        let (store_dir, snapshot) = (dir.join("store"), dir.join("snapshot"));
        let store = open_store(&store_dir);
        let order: Vec<usize> = (0..inputs.len()).collect();
        let outs = par_map_jobs(lanes, &order, |i, &p| {
            let inp = &inputs[p];
            analyze_one(
                inp.name,
                &inp.source,
                &inp.expect,
                Some(&store),
                None,
                &quiet,
                i as u64,
                None,
            )
        });
        tally(sheet, &outs);
        store.flush();
        drop(store);
        util::copy_dir(&store_dir, &snapshot);
        StoreSetup {
            inputs,
            store_dir,
            snapshot,
        }
    });
    let inputs = &setup.inputs;
    let n = inputs.len();
    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..n).collect();
    let tracer = Tracer::new(args.trace);
    let registry = MetricsRegistry::new();

    // Per invocation: wall ms and on-CPU ms; the calibrated figures take
    // the edited program as an invocation's input.
    let (mut plain_ms, mut plain_cpu, mut traced_cpu) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plain_cal, mut references) = (Vec::new(), Vec::new());
    let mut program_ms = Vec::new();
    let mut traced_events = Vec::new();
    let mut complete = true;
    let mut traced_ops = 0;
    // The exact figures of the first op: (name, value, unit).
    let mut first_op: Vec<(String, f64, &str)> = Vec::new();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(args.seconds);
    let mut op = 0u64;
    let mut current = None;
    let mut edits = Edits::new(n);
    // A timed run ends on a whole round of edits (every program and every
    // pattern equally often), so the seed changes only their order.
    let round = (1..=n * EDITS.len())
        .find(|k| k % n == 0 && k % EDITS.len() == 0)
        .expect("a common multiple") as u64;
    let unfinished = |op: u64| {
        if args.trace {
            op.is_multiple_of(2)
        } else {
            !op.is_multiple_of(round)
        }
    };
    while op < 3 || Instant::now() < deadline || unfinished(op) {
        // Untimed: restore the filled store and draw this op's edit.
        util::copy_dir(&setup.snapshot, &setup.store_dir);
        // A traced run repeats each edit, untraced then traced, so the
        // two halves time the same work.
        let traced = args.trace && op > 0 && op.is_multiple_of(2);
        if !traced {
            current = Some(edit(inputs, &mut edits, &mut rng));
            rng.shuffle(&mut order);
        }
        let edit = current.as_ref().expect("an edit was drawn");
        // A traced run's first op is an untimed counting op with query
        // timers attached.
        let counting = args.trace && op == 0;
        let tr = if traced { &tracer } else { &quiet };
        let reg = counting.then_some(&registry);

        let reference = util::calibrate();
        let wm = flight::watermark();
        let c0 = process_cpu();
        let start = Instant::now();
        let span = tr.start("pass", op, None);
        let s = tr.start("store.open", op, span);
        let store = open_store(&setup.store_dir);
        tr.end(s);
        let outs: Vec<OpOut> = order
            .iter()
            .map(|&p| {
                let (name, source, expect) = if p == edit.program {
                    (inputs[p].name, edit.source.as_str(), edit.expect.as_slice())
                } else {
                    (
                        inputs[p].name,
                        inputs[p].source.as_str(),
                        inputs[p].expect.as_slice(),
                    )
                };
                analyze_one(name, source, expect, Some(&store), reg, tr, op, span)
            })
            .collect();
        let s = tr.start("store.flush", op, span);
        store.flush();
        tr.end(s);
        tr.end(span);
        let wall = ms(start.elapsed());
        let cpu = ms(process_cpu() - c0);
        let events = flight::watermark() - wm;

        if outs.iter().any(|o| o.failure.is_some()) {
            eprintln!(
                "failing op {op}: edit {} on {}",
                edit.pattern, inputs[edit.program].name
            );
        }
        tally(sheet, &outs);
        if counting {
            let stats: Vec<&StatsSnapshot> = outs.iter().filter_map(|o| o.stats.as_ref()).collect();
            for (name, v) in pass_counters(&stats) {
                let unit = unit_of(&name);
                first_op.push((name, v, unit));
            }
            let st = store.stats();
            for (name, v) in [
                ("store.loaded", st.loaded),
                ("store.hits", st.hits),
                ("store.misses", st.misses),
                ("store.puts", st.puts),
                ("store.quarantined", st.quarantined),
                ("store.retries", st.retries),
            ] {
                first_op.push((name.to_string(), v as f64, "count"));
            }
            let bytes = util::dir_bytes(&setup.store_dir) as f64;
            first_op.push(("store.journal_bytes".to_string(), bytes, "bytes"));
            let per_op = events as f64 / n as f64;
            first_op.push(("flight.events_per_op".to_string(), per_op, "count"));
        }
        drop(store);
        if counting {
            // Counted, not timed.
        } else if traced {
            traced_cpu.push(cpu);
            traced_ops += outs.len();
            let (ev, all) = events_since(wm);
            complete &= all;
            traced_events.extend(ev);
        } else {
            plain_ms.push(wall);
            plain_cpu.push(cpu);
            plain_cal.push((edit.program, util::calibrated(cpu, reference)));
            references.push(reference);
            program_ms.extend(outs.iter().map(|o| o.ms));
        }
        op += 1;
    }
    let _ = std::fs::remove_dir_all(setup.store_dir.parent().expect("work dir"));

    let passes = plain_ms.len();
    let what = "invocations, open -> 30 programs -> flush";
    op_cpu_e2e(sheet, &plain_cal, &references, what);
    let note = "on-CPU, uncalibrated";
    sheet.info("cpu_ms_per_op", mean(&plain_cpu), "ms", note);
    let total: f64 = plain_ms.iter().sum();
    let note = format!("{} programs, 1 lane", passes * n);
    sheet.info(
        "programs_per_s",
        (passes * n) as f64 / (total / 1e3),
        "1/s",
        note,
    );
    wall_pcts(sheet, "program_ms", &program_ms, "programs");
    wall_pcts(sheet, "pass_ms", &plain_ms, "invocations");

    if args.trace {
        let t = traced_ops.max(1) as f64;
        let note = format!("per program, {traced_ops} traced programs");
        sheet.layer(
            "ir.parse_ms",
            tracer.total_ms("ir.parse") / t,
            "ms",
            note.clone(),
        );
        sheet.layer(
            "core.analyze_ms",
            tracer.total_ms("core.analyze") / t,
            "ms",
            note.clone(),
        );
        let fnote = if complete {
            note.clone()
        } else {
            format!("{note}; ring wrapped, partial")
        };
        flight_phases(sheet, &traced_events, traced_ops, &fnote);
        for (name, v, unit) in &first_op {
            sheet.layer(name, *v, unit, "first op");
        }
        query_ms(sheet, &registry, "per pass, first op with query timers");
        let k = traced_cpu.len();
        for name in ["store.open", "store.flush"] {
            let v = tracer.total_ms(name) / k.max(1) as f64;
            sheet.layer(
                &format!("{name}_ms"),
                v,
                "ms",
                format!("per pass, {k} traced passes"),
            );
        }
        overhead(sheet, &plain_cpu, &traced_cpu, "on-CPU ms per invocation");
        crate::write_spans(args, &tracer);
    }
}
