//! `paper <report>|all [--out DIR]` — regenerate the paper's evaluation.
//!
//! One module per report; each prints a self-describing report and exits
//! nonzero when one of its shape checks fails. `--out DIR` also writes each
//! report's stdout to `DIR/<report>.txt`. Every report except `table1`
//! (which times real kernels) prints the same bytes on every run.

#![warn(unreachable_pub)]

mod ablation;
mod fig3;
mod fig4;
mod fig5;
mod multinode;
mod regime_switch;
mod robustness;
mod scaling;
mod surveillance_sweep;
mod table1;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const REPORTS: [(&str, fn()); 10] = [
    ("table1", table1::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("regime_switch", regime_switch::run),
    ("ablation", ablation::run),
    ("multinode", multinode::run),
    ("surveillance_sweep", surveillance_sweep::run),
    ("robustness", robustness::run),
    ("scaling", scaling::run),
];

fn usage() -> ExitCode {
    let names: Vec<&str> = REPORTS.iter().map(|(n, _)| *n).collect();
    eprintln!(
        "usage: paper <report>|all [--out DIR]\nreports: {}",
        names.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (which, out) = match args.as_slice() {
        [r] => (r.as_str(), None),
        [r, flag, dir] if flag == "--out" => (r.as_str(), Some(PathBuf::from(dir))),
        _ => return usage(),
    };
    let selected: Vec<(&str, fn())> = if which == "all" {
        REPORTS.to_vec()
    } else {
        match REPORTS.iter().find(|(n, _)| *n == which) {
            Some(&r) => vec![r],
            None => return usage(),
        }
    };
    if let ([(_, run)], None) = (selected.as_slice(), &out) {
        run();
        return ExitCode::SUCCESS;
    }

    // Reports print to stdout and `run_checks` exits the process on a
    // failed check, so each one runs in a child process of this binary
    // whose stdout is captured.
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("paper: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = &out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("paper: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let mut failed = Vec::new();
    for (name, _) in selected {
        let output = match Command::new(&exe)
            .arg(name)
            .stderr(Stdio::inherit())
            .output()
        {
            Ok(o) => o,
            Err(e) => {
                eprintln!("paper: cannot run {name}: {e}");
                failed.push(name);
                continue;
            }
        };
        let _ = std::io::stdout().write_all(&output.stdout);
        if let Some(dir) = &out {
            let path = dir.join(format!("{name}.txt"));
            if let Err(e) = std::fs::write(&path, &output.stdout) {
                eprintln!("paper: cannot write {}: {e}", path.display());
                failed.push(name);
                continue;
            }
        }
        if !output.status.success() {
            failed.push(name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("paper: failed: {}", failed.join(" "));
        ExitCode::FAILURE
    }
}
