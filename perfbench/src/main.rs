//! The padfa benchmark: three workloads over the 30-program paper corpus,
//! driven only through the repository's public entry points.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus-cold|store-incremental|serve-open \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. A human-readable table goes to stdout
//! first; the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). See `perfbench/README.md`.

mod corpus;
mod serve;
mod util;

use std::process::exit;
use util::{Sheet, Tracer};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload corpus-cold|store-incremental|serve-open \
         --seed N --seconds S --trace 0|1"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("bad {flag} '{value}'")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number(),
            "--seconds" => args.seconds = number().max(1),
            "--trace" => args.trace = number() != 0,
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    args
}

/// Write the traced run's spans and print each layer's self time.
pub fn write_spans(args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new(".perfbench-work");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    if let Err(e) = tracer.write_json(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("spans: {}", path.display());
    println!(
        "{:<16} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, (count, total, own)) in tracer.self_times() {
        println!("{name:<16} {count:>8} {total:>12.1} {own:>12.1}");
    }
}

/// The `(name, unit)` pairs `BENCHMARK.json` lists under `section`.
/// The file is read from the current directory, the repository root.
fn listed(section: &str) -> Option<Vec<(String, String)>> {
    let doc = std::fs::read_to_string("BENCHMARK.json").ok()?;
    let body = doc.split_once(&format!("\"{section}\""))?.1;
    let body = &body[..body.find(']')?];
    let field = |chunk: &str, key: &str| -> Option<String> {
        let rest = chunk.split_once(&format!("\"{key}\""))?.1;
        let rest = rest
            .trim_start()
            .strip_prefix(':')?
            .trim_start()
            .strip_prefix('"')?;
        Some(rest[..rest.find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|c| Some((field(c, "name")?, field(c, "unit")?)))
        .collect()
}

/// Hold the sheet to `BENCHMARK.json`: a per-layer metric whose layer
/// this workload does not exercise reads 0, and any other difference in
/// names or units is an error in the benchmark.
fn reconcile(sheet: &mut Sheet, trace: bool) -> Result<(), String> {
    let section = if trace { "per_layer" } else { "end_to_end" };
    let want = listed(section).ok_or("cannot read the metric list from BENCHMARK.json")?;
    let have = if trace {
        &mut sheet.per_layer
    } else {
        &mut sheet.end_to_end
    };
    for (name, unit) in &want {
        if trace && !have.contains_key(name) {
            let note = "layer not exercised on this workload".to_string();
            have.insert(name.clone(), (0.0, unit.clone(), note));
        }
        match have.get(name) {
            None => return Err(format!("{section} metric {name} was not measured")),
            Some((_, u, _)) if u != unit => {
                return Err(format!("{name}: unit {u}, BENCHMARK.json says {unit}"))
            }
            Some((v, _, _)) if !v.is_finite() => return Err(format!("{name} reads {v}")),
            Some(_) => {}
        }
    }
    if let Some(extra) = have.keys().find(|k| !want.iter().any(|(n, _)| n == *k)) {
        return Err(format!("{extra} is not listed in BENCHMARK.json"));
    }
    Ok(())
}

fn main() {
    let args = parse_args();
    let mut sheet = Sheet::default();
    match args.workload.as_str() {
        "corpus-cold" => corpus::corpus_cold(&args, &mut sheet),
        "store-incremental" => corpus::store_incremental(&args, &mut sheet),
        "serve-open" => serve::serve_open(&args, &mut sheet),
        other => usage(&format!("unknown workload '{other}'")),
    }
    if args.trace {
        let note = "VmHWM, whole traced run";
        sheet.layer("process.peak_rss_mb", util::peak_rss_mb(), "MB", note);
    }
    if let Err(e) = reconcile(&mut sheet, args.trace) {
        eprintln!("perfbench: {e}");
        exit(1);
    }
    for f in sheet.failures.iter().take(50) {
        eprintln!("FAILED: {f}");
    }
    let metrics = if args.trace {
        &sheet.per_layer
    } else {
        &sheet.end_to_end
    };
    println!(
        "{} seed {} ({} s, trace {}): {} ops, {} failed",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sheet.attempted,
        sheet.failed
    );
    for (name, (value, unit, note)) in metrics {
        println!("  {name:<28} {value:>14.4} {unit:<6} {note}");
    }
    if !args.trace {
        println!("not reported (wall clock and uncalibrated figures move with the host):");
        for (name, (value, unit, note)) in &sheet.info {
            println!("  {name:<28} {value:>14.4} {unit:<6} {note}");
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit, _))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        sheet.failed == 0,
        sheet.attempted.max(1),
        sheet.failed,
        body.join(", ")
    );
}
