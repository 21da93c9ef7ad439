//! `li-perf`: the repo's one benchmark. See `perf/README.md`.
//!
//! ```text
//! li-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! li-perf --smoke
//! li-perf agree [--seed N] [--seconds S]
//! li-perf manifest
//! ```
//!
//! With `--workload`, the last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`; everything
//! for people goes to standard error. The exit code is 0 only if every
//! checked output was right.

mod inputs;
mod ladder;
mod metrics;
mod stack;
mod stats;
mod trace;
mod wire;
mod workload;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{Def, Row};
use workload::{Ctx, Workload};

struct Output {
    workload: &'static str,
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: Vec<Row>,
}

impl Output {
    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, Row { name, value, unit, .. }) in self.rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }

    fn report(&self) -> String {
        let mut s = format!(
            "{}: {} operations checked, {} failed\n",
            self.workload, self.attempted, self.failed
        );
        for Row { name, value, unit, samples } in &self.rows {
            let _ = write!(s, "  {name:<36}{value:>16.4} {unit:<6}");
            if *samples > 0 {
                let _ = write!(s, " n={samples}");
            }
            s.push('\n');
        }
        s
    }
}

fn build(name: &str, ctx: Ctx) -> Option<(&'static str, Box<dyn Workload>)> {
    use workloads::{store_mixed::StoreMixed, store_read::StoreRead, wire::Wire};
    Some(match name {
        "store_read" => ("store_read", Box::new(StoreRead::new(ctx))),
        "store_mixed" => ("store_mixed", Box::new(StoreMixed::new(ctx))),
        "wire_closed" => ("wire_closed", Box::new(Wire::closed(ctx))),
        "wire_pipelined" => ("wire_pipelined", Box::new(Wire::pipelined(ctx))),
        _ => return None,
    })
}

/// Values for `defs`, in their order, from `(name, value)` pairs; fails if
/// the two name sets differ in either direction.
fn in_registry_order(defs: &[Def], values: &[(String, f64, u64)]) -> Result<Vec<Row>, String> {
    if let Some((extra, ..)) = values.iter().find(|(n, ..)| !defs.iter().any(|d| d.name == *n)) {
        return Err(format!("metric {extra} is measured but not in the registry"));
    }
    defs.iter()
        .map(|d| {
            let (_, v, n) = values.iter().find(|(name, ..)| *name == d.name).ok_or_else(|| {
                format!("metric {} is in the registry but was not measured", d.name)
            })?;
            if !v.is_finite() {
                return Err(format!("metric {} is not a finite number", d.name));
            }
            Ok(Row { name: d.name.clone(), value: *v, unit: d.unit, samples: *n })
        })
        .collect()
}

/// Most that recording spans may cost `store_read`'s `ops_per_s`.
const TRACE_OVERHEAD_LIMIT: f64 = 0.05;

/// One run of one workload. A traced run also walks the ladder (or reuses
/// `ladder`, under `--smoke`) and writes the trace file.
fn run_one(name: &str, ctx: Ctx, ladder: Option<&[(String, f64)]>) -> Result<Output, String> {
    let (name, mut w) = build(name, ctx).ok_or_else(|| format!("unknown workload {name}"))?;
    let epoch = Instant::now();
    let mut report = workload::run(&mut *w, &ctx, epoch)?;
    for note in &report.notes {
        eprintln!("{note}");
    }
    let rows = if ctx.trace {
        let mut values: Vec<(String, f64)> = match ladder {
            Some(cached) => cached.to_vec(),
            None => ladder::run(&ctx, &mut report.tracer),
        };
        let overhead = report.trace_overhead_share.expect("a traced run measures its overhead");
        // store_read has the cheapest operations, so spans cost it most.
        if name == "store_read" && overhead > TRACE_OVERHEAD_LIMIT {
            eprintln!(
                "li-perf: WARNING: spans cost store_read {:.1} % of its ops_per_s, over the {:.0} % \
                 allowed: the per-layer numbers of this run are not to be trusted",
                100.0 * overhead,
                100.0 * TRACE_OVERHEAD_LIMIT
            );
        }
        values.push(("harness.trace_overhead_share".into(), overhead));
        values.push(("workload.get_p99_us".into(), report.e2e.get_p99_us.0));
        values.push(("workload.put_p99_us".into(), report.e2e.put_p99_us.0));
        let values: Vec<_> = values.into_iter().map(|(n, v)| (n, v, 0)).collect();
        let rows = in_registry_order(&metrics::per_layer(), &values)?;
        write_trace(name, &ctx, &report.tracer, &rows)?;
        eprint!("{}", ladder::budget_table(&rows));
        rows
    } else {
        let e = &report.e2e;
        let values: Vec<(String, f64, u64)> = [
            ("setup_s", e.setup_s),
            ("ops_per_s", e.ops_per_s),
            ("get_p50_us", e.get_p50_us),
            ("put_p50_us", e.put_p50_us),
            ("write_amp", e.write_amp),
            ("index_bytes_per_key", e.index_bytes_per_key),
        ]
        .into_iter()
        .map(|(n, (v, samples))| (n.to_string(), v, samples))
        .collect();
        in_registry_order(&metrics::end_to_end(), &values)?
    };
    let c = report.checked;
    Ok(Output {
        workload: name,
        correct: c.failed == 0,
        attempted: c.attempted.max(1),
        failed: c.failed,
        rows,
    })
}

fn write_trace(name: &str, ctx: &Ctx, tracer: &trace::Tracer, rows: &[Row]) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join("trace.jsonl");
    let text = trace::render(name, ctx.seed, tracer.spans(), rows);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "{} spans and the per-layer numbers written to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

/// `--smoke`: every workload, untraced and traced, at tiny sizes. Fails if
/// anything checked fails, or if `BENCHMARK.json` is not what the registry
/// prints: every run already fails if what it measured differs from the
/// registry in either direction, so the names a run emits and the names
/// `BENCHMARK.json` lists cannot differ unnoticed.
fn smoke(seed: u64) -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if text != metrics::manifest() {
        return Err("BENCHMARK.json is not what `li-perf manifest` prints".to_string());
    }

    let ctx = Ctx { seed, seconds: 0.6, trace: false, smoke: true };
    let traced = Ctx { seconds: 2.5, trace: true, ..ctx };
    let t = Instant::now();
    let ladder = ladder::run(&traced, &mut trace::Tracer::new(false, Instant::now()));
    eprintln!("smoke: ladder walked in {:.1} s", t.elapsed().as_secs_f64());
    for (name, _) in metrics::WORKLOADS {
        for ctx in [ctx, traced] {
            let t = Instant::now();
            let out = run_one(name, ctx, Some(&ladder))?;
            eprintln!(
                "smoke: {name} --trace {} ran in {:.1} s",
                u8::from(ctx.trace),
                t.elapsed().as_secs_f64()
            );
            if !out.correct {
                return Err(format!("{name}: {} of {} checks failed", out.failed, out.attempted));
            }
        }
    }
    eprintln!(
        "smoke: 4 workloads x (untraced, traced) ran clean; BENCHMARK.json matches the registry"
    );
    Ok(())
}

/// Runs of each workload in each of `agree`'s two sets.
const AGREE_RUNS: u64 = 3;

/// `agree`: two full untraced sets back to back on this commit. For each
/// workload and end-to-end metric: how much worse the second set's median
/// is than the first's, against the metric's bound. Returns whether every
/// metric stayed within its bound.
fn agree(seed: u64, seconds: f64) -> Result<bool, String> {
    let defs = metrics::end_to_end();
    let mut all_within = true;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (name, _) in metrics::WORKLOADS {
        let mut sets = [vec![Vec::new(); defs.len()], vec![Vec::new(); defs.len()]];
        for set in &mut sets {
            for r in 0..AGREE_RUNS {
                let ctx = Ctx { seed: seed + r, seconds, trace: false, smoke: false };
                let out = run_one(name, ctx, None)?;
                if !out.correct {
                    return Err(format!(
                        "{name}: {} of {} checks failed",
                        out.failed, out.attempted
                    ));
                }
                for (col, row) in set.iter_mut().zip(&out.rows) {
                    col.push(row.value);
                }
            }
        }
        for (i, d) in defs.iter().enumerate() {
            let a = stats::median(&sets[0][i]).expect("AGREE_RUNS > 0");
            let b = stats::median(&sets[1][i]).expect("AGREE_RUNS > 0");
            let worse = if d.better == "lower" { (b - a) / a } else { (a - b) / a };
            let bound = d.bound.expect("end-to-end metrics are bounded");
            all_within &= worse <= bound;
            println!(
                "{name:<14} {:<20} {a:>14.4} {b:>14.4} {:>8.2}% {:>5.0}%  {}",
                d.name,
                100.0 * worse,
                100.0 * bound,
                if worse <= bound { "ok" } else { "BREACH" }
            );
        }
    }
    Ok(all_within)
}

/// Confines this process, and every thread it will start, to one of the
/// CPUs it may run on (the last), and returns which.
///
/// The sandbox has two virtual cores of a shared host. With threads on
/// both, a hand-off wakes the other core, and what that costs is the
/// host's business: in six interleaved pairs of 15 s runs `wire_closed`
/// did 40-49 k requests/s free and 55-62 k on one core, `wire_pipelined`
/// 113-142 k free and 128-141 k on one core. On one core every hand-off is
/// a context switch on a busy core, and a run measures the processor time a
/// request costs, which is what a change to the program can move. Load
/// generators and `li-server` are one process, so they share the core.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is `size` writable bytes, and pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|&w| w != 0)?;
    let bit = 63 - allowed[word].leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is `size` readable bytes, and pid 0 is this thread;
    // threads started later inherit its mask.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(64 * word + bit)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        command: None,
        workload: None,
        seed: 42,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            "agree" | "manifest" if a.command.is_none() => a.command = Some(arg),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("li-perf: {e}");
            return ExitCode::from(2);
        }
    };
    if args.command.as_deref() != Some("manifest") {
        match pin_to_one_cpu() {
            Some(cpu) => eprintln!("li-perf: confined to CPU {cpu}"),
            None => eprintln!(
                "li-perf: WARNING: could not confine the run to one CPU; its timings will spread more"
            ),
        }
    }
    let outcome: Result<bool, String> = match (args.command.as_deref(), args.smoke) {
        (Some("manifest"), _) => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        (Some("agree"), _) => agree(args.seed, args.seconds),
        (_, true) => smoke(args.seed).map(|()| true),
        _ => {
            let ctx =
                Ctx { seed: args.seed, seconds: args.seconds, trace: args.trace, smoke: false };
            let names: Vec<&str> = match &args.workload {
                Some(w) => vec![w.as_str()],
                None => metrics::WORKLOADS.iter().map(|(n, _)| *n).collect(),
            };
            names.iter().try_fold(true, |all_correct, name| {
                let out = run_one(name, ctx, None)?;
                eprint!("{}", out.report());
                println!("{}", out.json());
                Ok(all_correct && out.correct)
            })
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("li-perf: {e}");
            ExitCode::FAILURE
        }
    }
}
