//! # Experiment harnesses
//!
//! The `paper` binary regenerates the paper's evaluation, one module per
//! table/figure plus extension experiments (`paper <report>|all [--out
//! DIR]`). Each report prints the paper's numbers alongside the measured
//! ones, emits machine-readable CSV blocks (lines prefixed `csv,`) for
//! downstream plotting, and exits nonzero when a shape check fails. The
//! `cds` binary is the operator's planning tool.
//!
//! | report | reproduces |
//! |---|---|
//! | `table1` | Table 1 — data-decomposition latencies (real kernels + cost model) |
//! | `fig3` | Fig. 3 — tuning curve vs the precomputed optimal point |
//! | `fig4` | Fig. 4 — pthread-style vs naive-pipeline schedules (Gantt) |
//! | `fig5` | Fig. 5 — task-parallel and task+data-parallel optimal schedules |
//! | `regime_switch` | §3.4 — regime switching under a dynamic customer process |
//! | `ablation` | extension — enumerator vs list scheduling vs pipeline across states |
//! | `multinode` | §3.3 — whole-cluster optimum vs node-confined pipelining |
//! | `surveillance_sweep` | extension — regime switching on the surveillance graph |
//! | `robustness` | extension — precomputed schedules under task-cost noise |
//! | `scaling` | extension — optimal latency and II as processors grow |

use std::fmt::Display;

/// Print an aligned text table with a title.
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    println!("\n== {title} ==");
    let headers: Vec<String> = headers.iter().map(ToString::to_string).collect();
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(ToString::to_string).collect())
        .collect();
    let n_cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for r in &rows {
        assert_eq!(r.len(), n_cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(r) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (w, cell) in widths.iter().zip(cells) {
            s.push_str(&format!("{cell:>w$}  "));
        }
        println!("{}", s.trim_end());
    };
    line(&headers);
    for r in &rows {
        line(r);
    }
}

/// Emit one machine-readable CSV line, prefixed so it is easy to grep out.
pub fn csv_line<C: Display>(cells: &[C]) {
    let joined: Vec<String> = cells.iter().map(ToString::to_string).collect();
    println!("csv,{}", joined.join(","));
}

/// Print a `[PASS]`/`[FAIL]` line per check; true when every check held.
/// A report with several checklists prints each where it belongs and
/// passes their conjunction to [`exit_unless`] at the end, so a failure in
/// one does not stop the others from running.
pub fn print_checks<S: Display>(checks: &[(S, bool)]) -> bool {
    let mut all_ok = true;
    for (name, ok) in checks {
        all_ok &= ok;
        println!("  [{}] {name}", if *ok { "PASS" } else { "FAIL" });
    }
    all_ok
}

/// **Exit nonzero** unless `all_ok`, so a CI smoke run of the binary gates
/// on correctness instead of only on it not crashing.
pub fn exit_unless(all_ok: bool) {
    if !all_ok {
        eprintln!("FAILED: at least one check above did not hold");
        std::process::exit(1);
    }
}

/// Print a final `[PASS]`/`[FAIL]` checklist and **exit nonzero** when any
/// check failed. Call this last — it does not return on failure.
pub fn run_checks<S: Display>(checks: &[(S, bool)]) {
    exit_unless(print_checks(checks));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_printing_does_not_panic() {
        print_table("t", &["a", "bb"], &[vec!["1".to_string(), "2".to_string()]]);
        csv_line(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        print_table("t", &["a", "b"], &[vec!["1".to_string()]]);
    }
}
