//! The Megaphone reproduction's benchmark: an open-loop, coordinated-omission-
//! safe end-to-end latency ledger with a per-layer budget beneath it.
//!
//! ```text
//! megaphone-benchmark --workload W --seed N --seconds S --trace 0|1
//! megaphone-benchmark --layers [--seconds S]
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics and the
//! measurement rules. Run it through `run.sh`, which sets the allocator
//! environment the numbers assume.

mod driver;
mod layers;
mod metrics;
mod spec;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::Instant;

use megaphone::prelude::*;
use timelite::communication::free_addresses;
use timelite::Config;

use driver::{peak_rss_kb, run_worker, Measured, Mode, RunConfig, Schedule, WorkerReport};
use metrics::{Analysis, Metric};
use spec::{Kind, Spec};
use verify::Totals;
use workloads::{KeyCount, Nexmark, Workload};

/// Command-line arguments: `--flag value` pairs and bare `--flag`s.
pub(crate) struct Args(Vec<String>);

impl Args {
    pub(crate) fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|arg| arg == flag)?;
        self.0.get(at + 1).map(String::as_str).filter(|value| !value.starts_with("--"))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|arg| arg == flag)
    }

    pub(crate) fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(text) => text.parse().map_err(|_| format!("cannot parse `{flag} {text}`")),
        }
    }

    pub(crate) fn addresses(&self, flag: &str) -> Option<Vec<String>> {
        self.value(flag).map(|list| list.split(',').map(str::to_string).collect())
    }
}

/// Runs `$body` with `$workload` bound to the spec's concrete workload type.
macro_rules! dispatch {
    ($spec:expr, $workload:ident => $body:expr) => {
        match $spec.kind {
            Kind::KeyCountDense | Kind::HashCountDurable => {
                let $workload = KeyCount {
                    dense: $spec.kind == Kind::KeyCountDense,
                    bin_shift: $spec.bin_shift,
                    domain: $spec.domain,
                    per_tick: $spec.per_tick,
                };
                $body
            }
            Kind::Nexmark(query) => {
                let $workload = Nexmark {
                    query,
                    bin_shift: $spec.bin_shift,
                    per_tick: $spec.per_tick,
                    closed_ticks: $spec.closed_ticks,
                    preload_epochs: $spec.preload_epochs,
                };
                $body
            }
        }
    };
}

/// Where this process sits: alone with two worker threads, or one of the two
/// single-worker processes of the cluster workload.
enum Role {
    Solo,
    Cluster { process: usize, addresses: Vec<String> },
}

impl Role {
    fn config(&self) -> Config {
        match self {
            Role::Solo => Config::process(spec::WORKERS),
            Role::Cluster { process, addresses } => Config::cluster(*process, 1, addresses.clone()),
        }
    }
}

/// A spawned copy of this binary; killed if dropped unfinished.
pub(crate) struct Peer(Option<Child>);

impl Peer {
    pub(crate) fn spawn(arguments: &[String]) -> Peer {
        let exe = std::env::current_exe().expect("current_exe unavailable");
        let child = Command::new(exe)
            .args(arguments)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("failed to spawn a copy of the benchmark");
        Peer(Some(child))
    }

    /// Waits for the process and returns what it printed.
    pub(crate) fn finish(mut self) -> Result<String, String> {
        let child = self.0.take().expect("finished once");
        let output = child.wait_with_output().map_err(|error| error.to_string())?;
        if output.status.success() {
            String::from_utf8(output.stdout).map_err(|error| error.to_string())
        } else {
            Err(format!("spawned benchmark process failed: {}", output.status))
        }
    }
}

impl Drop for Peer {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The `key=value` fields of the line of `text` that starts with `tag`.
fn tagged_fields(text: &str, tag: &str) -> Option<Vec<u64>> {
    let line = text.lines().find(|line| line.starts_with(tag))?;
    line.split_whitespace().skip(1).map(|field| field.split('=').nth(1)?.parse().ok()).collect()
}

/// A fresh durable data directory for this process, removed on drop.
struct DataDir(PathBuf);

impl DataDir {
    fn new(out: &std::path::Path, name: &str) -> DataDir {
        let dir = out.join("data").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("cannot create the durable data directory");
        DataDir(dir)
    }

    /// The durable store every run of `hashcount_durable` uses. Compaction is
    /// left to the checkpoint after each migration round trip (rule R9): with
    /// the default of four tables, every round trip's third flush would merge
    /// the checkpoint's full table in the middle of a migration.
    fn storage(&self) -> StorageConfig {
        StorageConfig::Durable(DurableConfig::new(&self.0).with_fsync(false).with_compact_at(8))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What was asked for on the command line.
struct Invocation {
    spec: Spec,
    seed: u64,
    seconds: f64,
    /// Where traces and the durable store's data go.
    out: PathBuf,
}

impl Invocation {
    /// Arguments every spawned copy of this binary needs, plus `extra`.
    fn arguments(&self, extra: &[&str]) -> Vec<String> {
        let mut arguments = vec![
            "--workload".into(),
            self.spec.name.into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--out".into(),
            self.out.display().to_string(),
        ];
        arguments.extend(extra.iter().map(|argument| argument.to_string()));
        arguments
    }

    /// Runs the measured dataflow on this process's workers.
    fn execute<W: Workload>(&self, workload: W, role: &Role, mode: Mode, trace: bool) -> (Schedule, Vec<WorkerReport>) {
        let spec = &self.spec;
        let schedule = Schedule::new(spec, workload.preload_epochs(), self.seconds);
        let data = (spec.kind == Kind::HashCountDurable).then(|| DataDir::new(&self.out, spec.name));
        let storage = data.as_ref().map_or(StorageConfig::InMemory, DataDir::storage);
        let config = RunConfig {
            mode,
            seed: self.seed,
            schedule,
            bins: 1 << spec.bin_shift,
            checkpoints: data.is_some(),
            trace,
            origin: Instant::now(),
        };
        let reports = timelite::execute(role.config(), move |worker| {
            set_worker_storage(storage.clone());
            run_worker(workload, config, worker)
        });
        (schedule, reports)
    }

    /// Runs the verification dataflow on this process's workers.
    fn verify(&self, role: &Role) -> Totals {
        let bins = 1 << self.spec.bin_shift;
        let data = (self.spec.kind == Kind::HashCountDurable)
            .then(|| DataDir::new(&self.out, &format!("{}-verify", self.spec.name)));
        let storage = data.as_ref().map_or(StorageConfig::InMemory, DataDir::storage);
        match self.spec.kind {
            Kind::KeyCountDense | Kind::HashCountDurable => {
                let (workload, prefix) = verify::keycount_case(&self.spec);
                verify::lockstep(workload, role.config(), storage, self.seed, bins, prefix, false)
            }
            Kind::Nexmark(query) => {
                let (workload, prefix) = verify::nexmark_case(&self.spec, query);
                verify::lockstep(workload, role.config(), storage, self.seed, bins, prefix, false)
            }
        }
    }

    /// What `verify` must produce, from a reference computation.
    fn verify_expected(&self) -> Totals {
        match self.spec.kind {
            Kind::KeyCountDense | Kind::HashCountDurable => {
                let (workload, prefix) = verify::keycount_case(&self.spec);
                verify::keycount_expected(workload, self.seed, prefix)
            }
            Kind::Nexmark(query) => {
                let (workload, prefix) = verify::nexmark_case(&self.spec, query);
                verify::nexmark_expected(workload, self.seed, prefix)
            }
        }
    }

    /// Process 1 of the cluster workload: mirrors the lead's run (and, after
    /// a full run, its verification) and prints what the lead needs to know.
    fn peer_main(&self, args: &Args) -> Result<(), String> {
        let addresses = args.addresses("--addresses").ok_or("--addresses missing")?;
        let role = Role::Cluster { process: 1, addresses };
        let mode = if args.value("--peer") == Some("setup") { Mode::SetupOnly } else { Mode::Full };
        let trace = args.value("--trace") == Some("1");
        let (_, reports) = dispatch!(self.spec, workload => self.execute(workload, &role, mode, trace));
        let report = &reports[0];
        let (tracked, steady_hwm_kb) =
            report.measured.as_ref().map_or((0, 0), |measured| (measured.tracked_bytes, measured.steady_hwm_kb));
        println!(
            "PEER-RUN inputs={} outputs={} steady_hwm_kb={steady_hwm_kb} hwm_kb={} tracked={tracked}",
            report.inputs,
            report.outputs,
            peak_rss_kb(),
        );
        if let Some(addresses) = args.addresses("--verify-addresses") {
            let totals = self.verify(&Role::Cluster { process: 1, addresses });
            println!("PEER-VERIFY inputs={} outputs={} digest={}", totals.inputs, totals.outputs, totals.digest);
        }
        Ok(())
    }

    /// One set-up in this (fresh) process; prints the sample for the lead.
    fn setup_only_main(&self) -> Result<(), String> {
        let (role, peer) = if self.spec.cluster {
            let addresses = free_addresses(2);
            let extra = ["--peer", "setup", "--addresses", &addresses.join(",")];
            let peer = Peer::spawn(&self.arguments(&extra));
            (Role::Cluster { process: 0, addresses }, Some(peer))
        } else {
            (Role::Solo, None)
        };
        let (_, reports) = dispatch!(self.spec, workload => self.execute(workload, &role, Mode::SetupOnly, false));
        if let Some(peer) = peer {
            peer.finish()?;
        }
        println!("SETUP nanos={}", reports[0].setup_nanos);
        Ok(())
    }

    /// The full measurement of one workload: set-up samples in fresh
    /// processes, the measured run, then verification.
    fn lead_main(&self, trace: bool) -> Result<Outcome, String> {
        let spec = &self.spec;
        // Set-up samples first, each in a process of its own so that every
        // sample (and the measured run) starts from the same allocator and
        // page state.
        let mut setup_samples = Vec::new();
        for _ in 1..spec::SETUP_SAMPLES {
            let output = Peer::spawn(&self.arguments(&["--setup-only"])).finish()?;
            let fields = tagged_fields(&output, "SETUP").ok_or("set-up process printed no sample")?;
            setup_samples.push(fields[0] as f64 / 1e9);
        }

        let (role, verify_role, peer) = if spec.cluster {
            let (addresses, verify_addresses) = (free_addresses(2), free_addresses(2));
            let extra = [
                "--peer",
                "full",
                "--trace",
                if trace { "1" } else { "0" },
                "--addresses",
                &addresses.join(","),
                "--verify-addresses",
                &verify_addresses.join(","),
            ];
            let peer = Peer::spawn(&self.arguments(&extra));
            (
                Role::Cluster { process: 0, addresses },
                Role::Cluster { process: 0, addresses: verify_addresses },
                Some(peer),
            )
        } else {
            (Role::Solo, Role::Solo, None)
        };

        let (schedule, mut reports) = dispatch!(spec, workload => self.execute(workload, &role, Mode::Full, trace));
        let mut run_rss_kb = peak_rss_kb();
        let mut got = self.verify(&verify_role);

        let mut steady_rss_kb = 0;
        let mut inputs: u64 = reports.iter().map(|report| report.inputs).sum();
        let mut outputs: u64 = reports.iter().map(|report| report.outputs).sum();
        let mut tracked: u64 =
            reports.iter().filter_map(|report| report.measured.as_ref()).map(|measured| measured.tracked_bytes).sum();
        if let Some(peer) = peer {
            let output = peer.finish()?;
            let run = tagged_fields(&output, "PEER-RUN").ok_or("peer printed no run summary")?;
            inputs += run[0];
            outputs += run[1];
            steady_rss_kb += run[2];
            run_rss_kb += run[3];
            tracked += run[4];
            let totals = tagged_fields(&output, "PEER-VERIFY").ok_or("peer printed no verification summary")?;
            got.add(Totals { inputs: totals[0], outputs: totals[1], digest: totals[2], migrated: false });
        }

        let lead = reports.iter().position(|report| report.index == 0).expect("worker 0 is local");
        let lead = reports.swap_remove(lead);
        let measured = lead.measured.as_ref().expect("a full run measures");
        steady_rss_kb += measured.steady_hwm_kb;
        setup_samples.push(lead.setup_nanos as f64 / 1e9);

        let mut problems: Vec<String> = verify::compare(got, self.verify_expected()).err().into_iter().collect();
        if measured.migration_unfinished {
            problems.push("a migration was still in flight when the open loop ended".into());
        }
        // Key-count emits one output per input; a NEXMark query only has to emit.
        let counted = match spec.kind {
            Kind::Nexmark(_) => outputs > 0,
            _ => outputs == inputs,
        };
        if !counted {
            problems.push(format!("measured run: {inputs} records in, {outputs} out"));
        }
        for problem in &problems {
            eprintln!("{}: {problem}", spec.name);
        }

        let analysis = Analysis::new(measured, &schedule);
        analysis.check_health(spec.name)?;
        let attempted = schedule.open_ticks();
        let failed = if problems.is_empty() { analysis.failed } else { attempted };

        let end_to_end = analysis.end_to_end(&setup_samples, steady_rss_kb);
        let per_layer = analysis.per_layer(&lead.tracer, tracked, run_rss_kb, lead.storage);
        if trace {
            let path = self.out.join(format!("trace-{}.json", spec.name));
            lead.tracer
                .write_json(&path, spec.name)
                .map_err(|error| format!("cannot write {}: {error}", path.display()))?;
            eprintln!(
                "{}: {} spans written to {} ({} dropped)",
                spec.name,
                lead.tracer.spans().len(),
                path.display(),
                lead.tracer.dropped()
            );
        }

        println!("== {} (seed {}, {} s, trace {}) ==", spec.name, self.seed, self.seconds, u8::from(trace));
        let shown = per_layer.iter().filter(|metric| trace || !metric.name.starts_with("trace."));
        for metric in end_to_end.iter().chain(shown) {
            println!("{:<34} {:>16.4} {:<6} n={}", metric.name, metric.value, metric.unit, metric.n);
        }
        print_details(measured, &analysis);
        println!("verification: {}", if problems.is_empty() { "ok" } else { "FAILED" });

        Ok(Outcome {
            correct: problems.is_empty(),
            attempted,
            failed,
            metrics: if trace { per_layer } else { end_to_end },
        })
    }
}

/// The raw series behind the medians: capacity slices and per-migration rows.
fn print_details(measured: &Measured, analysis: &Analysis) {
    let row = |values: &mut dyn Iterator<Item = f64>| -> String {
        values.map(|value| format!("{value:.1}")).collect::<Vec<_>>().join(" ")
    };
    println!(
        "capacity slices, thousand records/s: [{}]",
        row(&mut measured.capacity_slices.iter().map(|(_, rate)| rate / 1e3))
    );
    for (name, summary) in [("fluid", &analysis.fluid), ("all-at-once", &analysis.allatonce)] {
        println!("{name}: {} measured migrations", summary.count);
        for (way, direction) in ["out", "back"].into_iter().enumerate() {
            println!("{name} {direction}: duration ms [{}]", row(&mut summary.durations[way].iter().map(|v| v / 1e6)));
            println!("{name} {direction}: p90 ms [{}]", row(&mut summary.p90s[way].iter().map(|v| v / 1e6)));
            println!("{name} {direction}: peak ms [{}]", row(&mut summary.peaks[way].iter().map(|v| v / 1e6)));
        }
    }
}

/// What one measured run of one workload produced.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line the harness reads: one JSON object, last on stdout.
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|metric| {
                let value = if metric.value.is_finite() { metric.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", metric.name, value, metric.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn run(args: &Args) -> Result<(), String> {
    if args.has("--layers-peer") {
        return layers::peer_main(args);
    }
    let out = PathBuf::from(args.value("--out").unwrap_or("benchmark/target"));
    std::fs::create_dir_all(&out).map_err(|error| format!("cannot create {}: {error}", out.display()))?;
    let seconds: f64 = args.parsed("--seconds", 20.0)?;
    // Below 8 s the steady window is shorter than the two seconds the
    // backlog check compares.
    if !(8.0..=60.0).contains(&seconds) {
        return Err("--seconds must be between 8 and 60".into());
    }
    if std::env::var_os("MALLOC_TRIM_THRESHOLD_").is_none() {
        eprintln!("note: run through benchmark/run.sh; it sets the allocator environment the numbers assume");
    }
    if args.has("--layers") {
        return layers::run(seconds, &out);
    }
    let name = args.value("--workload").ok_or("--workload <name> is required")?;
    let spec = spec::find(name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|spec| spec.name).collect();
        format!("unknown workload `{name}`; choose one of {}", names.join(", "))
    })?;
    let invocation = Invocation { spec, seed: args.parsed("--seed", 1)?, seconds, out };
    if args.has("--peer") {
        return invocation.peer_main(args);
    }
    if args.has("--setup-only") {
        return invocation.setup_only_main();
    }
    // `--trace` alone means `--trace 1`.
    let trace = args.has("--trace") && args.value("--trace") != Some("0");
    let outcome = invocation.lead_main(trace)?;
    println!("{}", outcome.result_line());
    Ok(())
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("megaphone-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
