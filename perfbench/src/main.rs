//! `wmx-perfbench`: end-to-end and per-layer benchmark of the `wmx`
//! owner, streaming and suspect-audit paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pub_owner --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Set-up generates the workload's inputs from `--seed` (repeated
//! `SETUP_REPS` times; `setup_s` is the median). The measured loop then
//! runs whole iterations of the workload's ops until `--seconds` have
//! passed, checks every output, and prints one JSON line: end-to-end
//! metrics with `--trace 0`, per-layer metrics from a traced run with
//! `--trace 1`. See `perfbench/NOTES.md`.

mod calib;
mod layers;
mod mem;
mod ops;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use calib::Calibrator;
use ops::{DetectOut, EmbedOut, Params};
use trace::Tracer;
use workload::{digest, query_set_digest, Copy, Prepared};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Dom,
    Stream,
    Par,
}

impl Engine {
    fn label(self) -> &'static str {
        match self {
            Engine::Dom => "dom",
            Engine::Stream => "stream",
            Engine::Par => "par",
        }
    }
}

/// Ops that fail at this commit because of known defects. They count
/// as failed ops (and lower `ops_ok_frac`) but not as wrong output; any
/// other failure makes the run incorrect.
const KNOWN_FAILURES: &[(&str, Engine, &str)] = &[
    (
        "garble_utf8",
        Engine::Dom,
        "DOM detect reads the copy as one string and rejects invalid UTF-8",
    ),
    (
        "truncate60",
        Engine::Dom,
        "DOM detect cannot parse a truncated document and has no salvage",
    ),
    (
        "garble_utf8",
        Engine::Par,
        "par_detect_forensic takes &str, so invalid UTF-8 fails the read",
    ),
];

fn known_failure(copy: &str, engine: Engine) -> bool {
    KNOWN_FAILURES
        .iter()
        .any(|&(c, e, _)| c == copy && e == engine)
}

/// One timed op.
pub struct OpRec {
    pub engine: Engine,
    pub embed: bool,
    pub copy: &'static str,
    pub secs: f64,
    /// Machine slowdown around the op (see `calib`).
    pub slowdown: f64,
    pub mib: f64,
    pub ok: bool,
    pub rss_mb: Option<f64>,
}

impl OpRec {
    /// The end-to-end rate metric this op counts toward.
    pub fn metric(&self) -> &'static str {
        match (self.engine, self.embed) {
            (Engine::Dom, true) => "dom_embed_mb_s",
            (Engine::Dom, false) => "dom_detect_mb_s",
            (Engine::Stream, true) => "stream_embed_mb_s",
            (Engine::Stream, false) => "stream_detect_mb_s",
            (Engine::Par, true) => "par_embed_mb_s",
            (Engine::Par, false) => "par_detect_mb_s",
        }
    }
}

pub const RATE_METRICS: &[&str] = &[
    "dom_embed_mb_s",
    "dom_detect_mb_s",
    "stream_embed_mb_s",
    "stream_detect_mb_s",
    "par_embed_mb_s",
    "par_detect_mb_s",
];

/// One pass over every op of the workload.
pub struct Iteration {
    pub ops: Vec<OpRec>,
    /// Failures that are not known defects, and failed output checks.
    pub problems: Vec<String>,
    /// Counts the per-layer report uses.
    pub counts: BTreeMap<&'static str, f64>,
    /// One line per damaged copy: what each engine made of it.
    pub notes: Vec<String>,
}

impl Iteration {
    /// Summed wall time of the CLI-equivalent ops.
    pub fn op_secs(&self) -> f64 {
        self.ops.iter().map(|o| o.secs).sum()
    }
}

/// How ops are measured.
pub struct Meter {
    pub cal: Calibrator,
    /// Return free heap pages to the OS before each op, so that each
    /// op's peak memory is its own. The op then pays page faults a
    /// long-running process would not, so timed runs leave this off.
    pub trim_heap: bool,
}

/// How long an op took and what it cost.
#[derive(Clone, Copy)]
struct Cost {
    secs: f64,
    slowdown: f64,
    rss_mb: Option<f64>,
}

/// Runs `f` as an op: resets the memory high-water mark, times it
/// between two machine-speed samples, turns a panic into a failure.
fn timed<T>(
    t: &mut Tracer,
    meter: &Meter,
    threads: usize,
    root: &str,
    f: impl FnOnce(&mut Tracer) -> Result<T, String>,
) -> (Result<T, String>, Cost) {
    let before = meter.cal.slowdown(threads);
    if meter.trim_heap {
        mem::release_free_heap();
    }
    mem::reset_peak();
    let depth = t.depth();
    let start = Instant::now();
    t.enter(root);
    let result =
        catch_unwind(AssertUnwindSafe(|| f(t))).unwrap_or_else(|_| Err(format!("{root} panicked")));
    t.close_to(depth);
    let secs = start.elapsed().as_secs_f64();
    let rss_mb = mem::peak_mb();
    let slowdown = (before + meter.cal.slowdown(threads)) / 2.0;
    (
        result,
        Cost {
            secs,
            slowdown,
            rss_mb,
        },
    )
}

struct Runner<'a> {
    prep: &'a Prepared,
    work: &'a Path,
    meter: &'a Meter,
    it: Iteration,
}

pub fn params(prep: &Prepared) -> Params<'_> {
    Params {
        profile: prep.profile,
        key: &prep.key,
        message: &prep.message,
    }
}

impl Runner<'_> {
    /// Records an op's outcome; `checks` lists the output checks that
    /// failed.
    fn record<T>(
        &mut self,
        engine: Engine,
        embed: bool,
        file: &Copy,
        result: &Result<T, String>,
        cost: Cost,
        checks: Vec<String>,
    ) {
        let side = if embed { "embed" } else { "detect" };
        let copy = file.name;
        let mut ok = checks.is_empty();
        match result {
            Err(e) => {
                ok = false;
                if !known_failure(copy, engine) {
                    self.it
                        .problems
                        .push(format!("{} {side} on {copy} failed: {e}", engine.label()));
                }
            }
            Ok(_) => {
                for c in checks {
                    self.it
                        .problems
                        .push(format!("{} {side} on {copy}: {c}", engine.label()));
                }
            }
        }
        self.it.ops.push(OpRec {
            engine,
            embed,
            copy,
            secs: cost.secs,
            slowdown: cost.slowdown,
            mib: file.mib,
            ok,
            rss_mb: cost.rss_mb,
        });
    }

    fn embeds(&mut self, t: &mut Tracer) {
        let prep = self.prep;
        let p = params(prep);
        let dom_out = self.work.join("dom.xml");
        let dom_q = self.work.join("dom.wmxq");
        let (r, cost) = timed(t, self.meter, 1, "op.dom_embed", |t| {
            ops::dom_embed(t, &p, &prep.input.path, &dom_out, &dom_q)
        });
        let mut checks = Vec::new();
        if let Ok(out) = &r {
            let compact = out.marked.as_ref().map(wmx_xml::to_string);
            if compact.map(|c| digest(c.as_bytes())) != Some(prep.marked_digest) {
                checks.push("marked tree differs from the set-up mark".to_string());
            }
            check_file(&mut checks, &dom_q, prep.queries_digest, "query file");
            self.it.counts.insert("xml.nodes", out.nodes as f64);
            self.it
                .counts
                .insert("core.marked_units", out.marked_units as f64);
            self.it.counts.insert(
                "core.marked_frac",
                out.marked_units as f64 / out.total_units.max(1) as f64,
            );
            self.it
                .counts
                .insert("core.usability_templates", out.usability_templates as f64);
        }
        self.record(Engine::Dom, true, &prep.input, &r, cost, checks);
        drop(r);

        let mut seq: Option<EmbedOut> = None;
        for (engine, workers) in [(Engine::Stream, 1), (Engine::Par, 2)] {
            let p = params(prep);
            let out = self.work.join(format!("{}.xml", engine.label()));
            let q = self.work.join(format!("{}.wmxq", engine.label()));
            let root = if workers > 1 {
                "op.par_embed"
            } else {
                "op.stream_embed"
            };
            let (r, cost) = timed(t, self.meter, workers, root, |t| {
                ops::stream_embed(t, &p, &prep.input.path, &out, &q, workers)
            });
            let mut checks = Vec::new();
            if let Ok(rep) = &r {
                check_file(&mut checks, &out, prep.marked_digest, "marked output");
                match fs::read_to_string(&q) {
                    Ok(text) if query_set_digest(&text) == prep.query_set_digest => {}
                    Ok(_) => checks.push("query set differs from the set-up reference".to_string()),
                    Err(e) => checks.push(format!("cannot read back the query file: {e}")),
                }
                if let Some(s) = &seq {
                    if (s.total_units, s.selected_units, s.marked_units)
                        != (rep.total_units, rep.selected_units, rep.marked_units)
                    {
                        checks.push("unit counts differ from the sequential run".to_string());
                    }
                }
                if workers == 1 {
                    self.it
                        .counts
                        .insert("stream.peak_resident_nodes", rep.peak_resident_nodes as f64);
                } else {
                    layers::chunk_counts(&mut self.it.counts, &rep.chunk_timings, cost.secs);
                }
            }
            self.record(engine, true, &prep.input, &r, cost, checks);
            if workers == 1 {
                seq = r.ok();
            }
        }
    }

    fn detects(&mut self, t: &mut Tracer) {
        let prep = self.prep;
        for copy in &prep.copies {
            let p = params(prep);
            let (dom, dom_cost) = timed(t, self.meter, 1, "op.dom_detect", |t| {
                ops::dom_detect(t, &p, &copy.path, &prep.queries, prep.forensic)
            });
            let (seq, seq_cost) = timed(t, self.meter, 1, "op.stream_detect", |t| {
                ops::stream_detect(t, &p, &copy.path, 1, prep.forensic)
            });
            let (par, par_cost) = timed(t, self.meter, 2, "op.par_detect", |t| {
                ops::stream_detect(t, &p, &copy.path, 2, prep.forensic)
            });

            let mut dom_checks = Vec::new();
            let mut seq_checks = Vec::new();
            let mut par_checks = Vec::new();
            if !prep.forensic {
                for (out, checks) in [
                    (&dom, &mut dom_checks),
                    (&seq, &mut seq_checks),
                    (&par, &mut par_checks),
                ] {
                    if matches!(out, Ok(o) if !o.detected) {
                        checks.push("clean copy not detected".to_string());
                    }
                }
            }
            if let (Ok(s), Ok(q)) = (&seq, &par) {
                if let Some(diff) = detect_diff(s, q) {
                    par_checks.push(format!("differs from the sequential run: {diff}"));
                }
            }
            if let (Ok(d), Ok(s)) = (&dom, &seq) {
                if prep.forensic && d.forensics != s.forensics {
                    dom_checks.push("ForensicsReport differs from stream-detect".to_string());
                }
            }
            self.detect_counts(copy, &dom, &seq);
            if prep.forensic {
                let verdict = |r: &Result<DetectOut, String>| match r {
                    Ok(o) => format!(
                        "{} records read, {} suspect",
                        o.records.map_or("all".to_string(), |n| n.to_string()),
                        o.forensics.as_ref().map_or(0, |f| f.suspect_records)
                    ),
                    Err(e) => format!("failed ({e})"),
                };
                self.it.notes.push(format!(
                    "{} ({} records): dom {}; stream {}; par {}",
                    copy.name,
                    copy.records,
                    verdict(&dom),
                    verdict(&seq),
                    verdict(&par)
                ));
            }
            self.record(Engine::Dom, false, copy, &dom, dom_cost, dom_checks);
            self.record(Engine::Stream, false, copy, &seq, seq_cost, seq_checks);
            if let Ok(out) = &par {
                layers::chunk_counts(&mut self.it.counts, &out.chunk_timings, par_cost.secs);
            }
            self.record(Engine::Par, false, copy, &par, par_cost, par_checks);
        }
    }

    fn detect_counts(
        &mut self,
        copy: &Copy,
        dom: &Result<DetectOut, String>,
        seq: &Result<DetectOut, String>,
    ) {
        let c = &mut self.it.counts;
        if let Ok(d) = dom {
            if let Some(f) = &d.forensics {
                *c.entry("core.suspect_records").or_insert(0.0) += f.suspect_records as f64;
            } else {
                c.insert(
                    "core.located_frac",
                    d.located_queries as f64 / d.total_queries.max(1) as f64,
                );
            }
        }
        if let Ok(s) = seq {
            if s.forensics.is_some() {
                *c.entry("stream.salvaged_records").or_insert(0.0) += s.records.unwrap_or(0) as f64;
                *c.entry("stream.copy_records").or_insert(0.0) += copy.records as f64;
            }
        }
    }
}

fn check_file(checks: &mut Vec<String>, path: &Path, want: u64, what: &str) {
    match fs::read(path) {
        Ok(bytes) if digest(&bytes) == want => {}
        Ok(_) => checks.push(format!("{what} differs from the set-up reference")),
        Err(e) => checks.push(format!("cannot read back {what}: {e}")),
    }
}

/// Where a parallel detect result differs from the sequential one.
fn detect_diff(a: &DetectOut, b: &DetectOut) -> Option<&'static str> {
    if a.detected != b.detected {
        Some("verdict")
    } else if a.votes != b.votes {
        Some("vote totals")
    } else if a.records != b.records {
        Some("records")
    } else if a.fault != b.fault {
        Some("stream fault")
    } else if a.forensics != b.forensics {
        Some("ForensicsReport")
    } else {
        None
    }
}

/// One pass over every op of the workload.
pub fn run_iteration(t: &mut Tracer, meter: &Meter, prep: &Prepared, work: &Path) -> Iteration {
    let mut runner = Runner {
        prep,
        work,
        meter,
        it: Iteration {
            ops: Vec::new(),
            problems: Vec::new(),
            counts: BTreeMap::new(),
            notes: Vec::new(),
        },
    };
    for _ in 0..prep.embed_rounds {
        runner.embeds(t);
    }
    runner.detects(t);
    runner.it
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload::spec(&workload).is_none() {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            workload::WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A metric value with its unit, printed in the result line.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

fn end_to_end(iters: &[Iteration], setup_s: f64) -> BTreeMap<String, Metric> {
    let mut m = BTreeMap::new();
    m.insert(
        "setup_s".to_string(),
        Metric {
            value: setup_s,
            unit: "s",
        },
    );
    for &name in RATE_METRICS {
        let rates: Vec<f64> = iters
            .iter()
            .map(|it| {
                let ops = it.ops.iter().filter(|o| o.metric() == name);
                let (ok_mib, secs) = ops.fold((0.0, 0.0), |(mib, secs), o| {
                    (
                        mib + if o.ok { o.mib } else { 0.0 },
                        secs + o.secs / o.slowdown,
                    )
                });
                ok_mib / secs
            })
            .collect();
        m.insert(
            name.to_string(),
            Metric {
                value: median(&rates),
                unit: "MiB/s",
            },
        );
    }
    let peaks: Vec<f64> = iters
        .iter()
        .filter_map(|it| it.ops.iter().filter_map(|o| o.rss_mb).reduce(f64::max))
        .collect();
    if !peaks.is_empty() {
        m.insert(
            "peak_rss_mb".to_string(),
            Metric {
                value: median(&peaks),
                unit: "MiB",
            },
        );
    }
    let attempted = iters.iter().map(|it| it.ops.len()).sum::<usize>();
    let ok = iters
        .iter()
        .map(|it| it.ops.iter().filter(|o| o.ok).count())
        .sum::<usize>();
    m.insert(
        "ops_ok_frac".to_string(),
        Metric {
            value: ok as f64 / attempted.max(1) as f64,
            unit: "fraction",
        },
    );
    m
}

/// Prints each rate's samples, raw and scaled to the reference machine.
fn report_samples(iters: &[Iteration]) {
    for &name in RATE_METRICS {
        let mut raw = Vec::new();
        let mut scaled = Vec::new();
        for it in iters {
            let ops: Vec<&OpRec> = it.ops.iter().filter(|o| o.metric() == name).collect();
            let ok_mib: f64 = ops.iter().filter(|o| o.ok).map(|o| o.mib).sum();
            raw.push(ok_mib / ops.iter().map(|o| o.secs).sum::<f64>());
            scaled.push(ok_mib / ops.iter().map(|o| o.secs / o.slowdown).sum::<f64>());
        }
        let fmt = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.2}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        eprintln!(
            "perfbench: {name}: {} samples; raw MiB/s median {:.3} [{}]; scaled [{}]",
            raw.len(),
            median(&raw),
            fmt(&raw),
            fmt(&scaled)
        );
    }
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    m: &BTreeMap<String, Metric>,
) -> String {
    let metrics: Vec<String> = m
        .iter()
        .map(|(k, v)| {
            // JSON has no NaN or infinity; such a value fails the run.
            let value = if v.value.is_finite() {
                v.value.to_string()
            } else {
                "null".to_string()
            };
            format!("\"{k}\": {{\"value\": {value}, \"unit\": \"{}\"}}", v.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn run(args: &Args, base: &Path) -> Result<String, String> {
    let work = base.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let result = measure(args, base, &work);
    let _ = fs::remove_dir_all(&work);
    result
}

fn measure(args: &Args, base: &Path, work: &Path) -> Result<String, String> {
    let meter = Meter {
        cal: Calibrator::new(),
        trim_heap: false,
    };
    let cal = &meter.cal;
    let mut setup_times = Vec::new();
    let mut prep = None;
    for _ in 0..SETUP_REPS {
        drop(prep.take());
        let before = cal.slowdown(1);
        let start = Instant::now();
        prep = Some(workload::prepare(&args.workload, args.seed, work)?);
        let secs = start.elapsed().as_secs_f64();
        setup_times.push(secs / ((before + cal.slowdown(1)) / 2.0));
    }
    let prep = prep.expect("at least one set-up");
    // What set-up freed must not count toward the ops' peak memory.
    mem::release_free_heap();
    let setup_s = median(&setup_times);
    eprintln!(
        "perfbench: {} seed {}: input {:.2} MiB, {} copies, set-up {:.3} s (median of {SETUP_REPS})",
        args.workload,
        args.seed,
        prep.input.mib,
        prep.copies.len(),
        setup_s
    );

    let start = Instant::now();
    let (iters, metrics, tracer) = if args.trace {
        let (untraced, traced, tracer, metrics) =
            layers::traced_run(&meter, &prep, work, start, args.seconds);
        let mut all = untraced;
        all.extend(traced);
        (all, metrics, Some(tracer))
    } else {
        let mut t = Tracer::new(false);
        let mut iters = Vec::new();
        while iters.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
            iters.push(run_iteration(&mut t, &meter, &prep, work));
        }
        report_samples(&iters);
        let metrics = end_to_end(&iters, setup_s);
        (iters, metrics, None)
    };

    let attempted: usize = iters.iter().map(|it| it.ops.len()).sum();
    let failed: usize = iters
        .iter()
        .map(|it| it.ops.iter().filter(|o| !o.ok).count())
        .sum();
    for note in iters.first().map_or(&[][..], |it| &it.notes[..]) {
        eprintln!("perfbench: {note}");
    }
    let mut problems: Vec<&String> = iters.iter().flat_map(|it| &it.problems).collect();
    problems.dedup();
    for p in &problems {
        eprintln!("perfbench: FAILED CHECK: {p}");
    }
    let known = iters
        .iter()
        .flat_map(|it| &it.ops)
        .filter(|o| !o.ok && known_failure(o.copy, o.engine))
        .count();
    eprintln!(
        "perfbench: {} iteration(s), {attempted} ops, {failed} failed ({known} of them known defects)",
        iters.len(),
    );
    for &(copy, engine, why) in KNOWN_FAILURES {
        if prep.copies.iter().any(|c| c.name == copy) {
            eprintln!(
                "perfbench:   known defect, {} on {copy}: {why}",
                engine.label()
            );
        }
    }
    let mut correct = problems.is_empty();
    for (name, m) in &metrics {
        eprintln!("perfbench:   {name:<28} {:>12.4} {}", m.value, m.unit);
        if !m.value.is_finite() {
            eprintln!("perfbench: FAILED CHECK: {name} is not a finite number");
            correct = false;
        }
    }
    if let Some(t) = tracer {
        let path = base.join(format!("trace-{}-{}.json", args.workload, args.seed));
        fs::write(&path, t.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    Ok(result_line(correct, attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let base = PathBuf::from(".perfbench");
    match run(&args, &base) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
