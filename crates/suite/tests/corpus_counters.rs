//! Golden work counters for one predicated pass over the corpus: the
//! emptiness checks the analysis makes, how many of them reach the
//! `sys_empty` memo table, and the Fourier–Motzkin work behind them.
//!
//! Each program is analyzed in its own fresh session at `--jobs 1`, so
//! every counter here is deterministic. A change that moves one of these
//! numbers changes how much lattice work the analysis does; the change
//! must say why.

use padfa_core::{analyze_program_session, AnalysisSession, Options, QueryStats};
use padfa_suite::corpus::build_corpus;

/// Emptiness checks that pass the trivial fast paths (contradiction,
/// universe) in one corpus pass.
const SYS_EMPTY_CHECKS: u64 = 1_228_777;

#[test]
fn corpus_sys_empty_counters_are_pinned() {
    let mut q = QueryStats::default();
    let mut fm_projections = 0;
    for bench in build_corpus() {
        let sess = AnalysisSession::new(Options::predicated()).with_jobs(1);
        let (result, _) = analyze_program_session(&bench.program, &sess).unwrap();
        let s = result.stats.sys_empty;
        q.cell_hits += s.cell_hits;
        q.hits += s.hits;
        q.misses += s.misses;
        fm_projections += result.stats.fm_projections;
    }
    // The verdict cells answer exactly the checks the memo table used
    // to answer: every check is still made and counted once.
    assert_eq!(q.cell_hits + q.hits + q.misses, SYS_EMPTY_CHECKS, "{q:?}");
    assert_eq!(q.misses, 24_376, "{q:?}");
    assert_eq!(fm_projections, 17_891);
    // At least 9 in 10 checks never reach the memo table.
    assert!(
        q.total() * 10 <= SYS_EMPTY_CHECKS,
        "{} memo lookups for {SYS_EMPTY_CHECKS} checks",
        q.total()
    );
}
