//! Doc-drift guard: README's workspace documentation must stay in sync with
//! the Cargo workspace. Every workspace member needs a section or mention in
//! the README, the bench binaries table must list exactly the binaries that
//! exist, and the megaphone module table must cover the crate's real modules.

use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &str) -> String {
    std::fs::read_to_string(repo_root().join(path))
        .unwrap_or_else(|error| panic!("cannot read {path}: {error}"))
}

/// The member paths of `[workspace] members` in the root Cargo.toml.
fn workspace_members() -> Vec<String> {
    let manifest = read("Cargo.toml");
    // Not `default-members`: the canonical list is the `members` key.
    let start = manifest.find("\nmembers = [").expect("workspace members list");
    let list = &manifest[start..];
    let end = list.find(']').expect("members list closes");
    list[..end]
        .lines()
        .filter_map(|line| {
            let line = line.trim().trim_end_matches(',');
            let path = line.trim_matches('"');
            (line.starts_with('"')).then(|| path.to_string())
        })
        .collect()
}

#[test]
fn every_workspace_member_is_documented_in_the_readme() {
    let readme = read("README.md");
    let members = workspace_members();
    assert!(!members.is_empty(), "no workspace members parsed from Cargo.toml");
    for member in &members {
        assert!(
            readme.contains(member),
            "workspace member `{member}` is missing from README.md — update the crate tables"
        );
    }
}

#[test]
fn readme_crate_sections_only_name_real_members() {
    // Every `crates/...` or `vendor/...` path the README links as a section
    // heading must be an actual workspace member.
    let readme = read("README.md");
    let members = workspace_members();
    for line in readme.lines() {
        if !line.starts_with("### [") {
            continue;
        }
        let Some(start) = line.find("](") else { continue };
        let rest = &line[start + 2..];
        let Some(end) = rest.find(')') else { continue };
        let path = &rest[..end];
        if path.starts_with("crates/") || path.starts_with("vendor/") {
            assert!(
                members.iter().any(|member| member == path),
                "README section links `{path}`, which is not a workspace member"
            );
        }
    }
}

#[test]
fn readme_bench_binary_table_matches_the_sources() {
    let readme = read("README.md");
    let bins = std::fs::read_dir(repo_root().join("crates/bench/src/bin"))
        .expect("bench binaries directory")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".rs").map(str::to_string)
        })
        .collect::<Vec<_>>();
    assert!(!bins.is_empty());
    for bin in &bins {
        assert!(
            readme.contains(&format!("`{bin}`")),
            "experiment binary `{bin}` is missing from README's figure table"
        );
    }
}

#[test]
fn readme_megaphone_module_table_matches_the_sources() {
    let readme = read("README.md");
    let modules = std::fs::read_dir(repo_root().join("crates/megaphone/src"))
        .expect("megaphone sources")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            // Directory modules (`storage/`) count like file modules.
            let name = name.strip_suffix(".rs").unwrap_or(&name).to_string();
            (name != "lib").then_some(name)
        })
        .collect::<Vec<_>>();
    assert!(modules.len() >= 8, "megaphone module list looks truncated: {modules:?}");
    for module in &modules {
        assert!(
            readme.contains(&format!("`{module}`")),
            "megaphone module `{module}` is missing from README's module table"
        );
    }
}

#[test]
fn readme_nexmark_module_table_matches_the_sources() {
    let readme = read("README.md");
    let modules = std::fs::read_dir(repo_root().join("crates/nexmark/src"))
        .expect("nexmark sources")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            let name = name.strip_suffix(".rs").unwrap_or(&name).to_string();
            (name != "lib").then_some(name)
        })
        .collect::<Vec<_>>();
    assert!(modules.len() >= 5, "nexmark module list looks truncated: {modules:?}");
    for module in &modules {
        assert!(
            readme.contains(&format!("`{module}`")),
            "nexmark module `{module}` is missing from README's module table"
        );
    }
}

#[test]
fn readme_workload_mode_table_names_every_mode() {
    // The workload-modes table documents each field of `nexmark::Workload`;
    // the mode types must appear by name so the table cannot silently rot.
    let readme = read("README.md");
    let config = read("crates/nexmark/src/config.rs");
    for mode in ["ZipfSkew", "OutOfOrder", "RateBurst"] {
        assert!(
            config.contains(&format!("pub struct {mode}")),
            "workload mode `{mode}` vanished from nexmark::config — update this test and README"
        );
        assert!(
            readme.contains(mode),
            "workload mode `{mode}` is missing from README's workload-modes table"
        );
    }
    assert!(
        readme.to_lowercase().contains("closed-loop rebalancing"),
        "README must keep the closed-loop rebalancing section"
    );
}

#[test]
fn readme_timelite_module_table_matches_the_sources() {
    let readme = read("README.md");
    let modules = std::fs::read_dir(repo_root().join("crates/timelite/src"))
        .expect("timelite sources")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            let name = name.strip_suffix(".rs").unwrap_or(&name).to_string();
            (name != "lib").then_some(name)
        })
        .collect::<Vec<_>>();
    assert!(modules.len() >= 7, "timelite module list looks truncated: {modules:?}");
    for module in &modules {
        assert!(
            readme.contains(&format!("`{module}`")),
            "timelite module `{module}` is missing from README's module table"
        );
    }
}

#[test]
fn readme_communication_files_are_documented() {
    // The communication row must name each of the fabric's source files, so a
    // new transport file cannot land undocumented.
    let readme = read("README.md");
    let files = std::fs::read_dir(repo_root().join("crates/timelite/src/communication"))
        .expect("communication sources")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".rs").map(str::to_string)
        })
        .filter(|name| name != "mod")
        .collect::<Vec<_>>();
    assert!(files.len() >= 3, "communication file list looks truncated: {files:?}");
    for file in &files {
        assert!(
            readme.contains(&format!("`{file}`")),
            "communication file `{file}` is missing from README's communication row"
        );
    }
}

#[test]
fn readme_harness_module_table_matches_the_sources() {
    let readme = read("README.md");
    let modules = std::fs::read_dir(repo_root().join("crates/harness/src"))
        .expect("harness sources")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            let name = name.strip_suffix(".rs")?;
            (name != "lib").then(|| name.to_string())
        })
        .collect::<Vec<_>>();
    assert!(modules.len() >= 7, "harness module list looks truncated: {modules:?}");
    for module in &modules {
        assert!(
            readme.contains(&format!("`{module}`")),
            "harness module `{module}` is missing from README's module table"
        );
    }
}

#[test]
fn readme_documents_cluster_mode() {
    // The cluster-mode section must describe the Config variants, the
    // bootstrap handshake and the wire framing, and point at the equivalence
    // evidence; the variant must actually exist in the engine.
    let readme = read("README.md");
    assert!(readme.contains("## Cluster mode"), "README must keep the Cluster mode section");
    for needle in [
        "Config::Cluster { process, workers_per_process, addresses }",
        "Config::Thread",
        "Config::Process(n)",
        "barrier",
        "[len u64]",
        "[dataflow u64][channel u64][from u64][to u64][kind u8]",
        "tests/cluster_equivalence.rs",
        "cluster_run",
        "cluster-smoke",
        "The worker owns its sockets",
        "no writer thread, no reader thread",
        "half-closes every link",
    ] {
        assert!(readme.contains(needle), "Cluster mode section lost `{needle}`");
    }
    let net = read("crates/timelite/src/communication/net.rs");
    assert!(
        net.contains("pub struct Mesh") && !net.contains("thread::Builder"),
        "README says the workers drive the links themselves — update this test and README"
    );
    let execute = read("crates/timelite/src/execute.rs");
    assert!(
        execute.contains("Cluster {"),
        "Config::Cluster vanished from timelite::execute — update this test and README"
    );
}

#[test]
fn readme_documents_durability() {
    // The durability section must describe both backends, the data-dir
    // layout, the recovery semantics and the crash/fault evidence; the
    // backend entry points must actually exist in the sources.
    let readme = read("README.md");
    assert!(readme.contains("## Durability"), "README must keep the Durability section");
    for needle in [
        "StorageConfig::InMemory",
        "StorageConfig::Durable(DurableConfig)",
        "BinStore::open_durable",
        "wal-<gen>.log",
        "sst-<seq>.sst",
        "[len u32][crc32 u32][payload]",
        "A commit is sealed in the WAL and nowhere else",
        "spill flushes and checkpoints only",
        "Install-path copy inventory",
        "PCLMULQDQ folding kernel",
        "Platform fast paths",
        "WalEntry::Fragment",
        "StorageError::Corrupt",
        "pending_install_bytes",
        "tests/recovery.rs",
        "recovery-smoke",
        "fault-inject",
        "fault_run",
        "bin_migrate_large_durable",
    ] {
        assert!(readme.contains(needle), "Durability section lost `{needle}`");
    }
    let bins = read("crates/megaphone/src/bins.rs");
    assert!(
        bins.contains("pub fn open_durable"),
        "BinStore::open_durable vanished from megaphone::bins — update this test and README"
    );
    let storage = read("crates/megaphone/src/storage/mod.rs");
    assert!(
        storage.contains("pub struct DurableConfig"),
        "DurableConfig vanished from megaphone::storage — update this test and README"
    );
    let wal = read("crates/megaphone/src/storage/wal.rs");
    assert!(
        wal.contains("pub type WalEntry") && wal.contains("const CRC_SLICES: usize = 16;"),
        "the borrowed WAL writer or its CRC slicing changed — update this test and README"
    );
    assert!(
        wal.contains("mod clmul") && wal.contains("is_x86_feature_detected!(\"pclmulqdq\")"),
        "the WAL's CLMUL checksum kernel changed — update this test and README"
    );
}

#[test]
fn readme_documents_the_data_plane() {
    // The data-plane section must keep the copy inventory, the slab ownership
    // rules and the queue memory-ordering argument, and the types it names
    // must actually exist in the sources.
    let readme = read("README.md");
    assert!(readme.contains("## Data plane"), "README must keep the Data plane section");
    for needle in [
        "Copy inventory",
        "Slab ownership rules",
        "Lock-free mailboxes",
        "timelite::codec::Slab",
        "Arc<Vec<u8>>",
        "WRITE_WINDOW_FRAMES",
        "MAX_READ_REGION_BYTES",
        "broadcast_encodes_each_record_exactly_once",
        "Vyukov",
        "doorbell",
        "queue-stress",
        "QUEUE_STRESS_ITERS",
        "saturation.rs",
    ] {
        assert!(readme.contains(needle), "Data plane section lost `{needle}`");
    }
    let codec = read("crates/timelite/src/codec.rs");
    assert!(
        codec.contains("pub struct Slab"),
        "Slab vanished from timelite::codec — update this test and README"
    );
    let net = read("crates/timelite/src/communication/net.rs");
    assert!(
        net.contains("WRITE_WINDOW_FRAMES") && net.contains("MAX_READ_REGION_BYTES"),
        "the scatter write / slab-region read constants vanished from net.rs"
    );
    let channel = read("vendor/crossbeam-channel/src/lib.rs");
    assert!(
        channel.contains("Vyukov") && channel.contains("QUEUE_STRESS_ITERS"),
        "the lock-free channel's docs/stress knob vanished — update this test and README"
    );
}

#[test]
fn readme_documents_map_shaped_bins() {
    // The flat state layout: the paragraph, the per-migration timeline it is
    // justified by, and the pieces both name.
    let readme = read("README.md");
    for needle in [
        "Map-shaped bins",
        "megaphone::flat::FlatTable",
        "`ChainFragmenter` / `ChainAssembler`",
        "corrupt flat table",
        "bin_migrate_large/q8_shape",
        "what an all-at-once Q8 migration is made of",
        "| F pump CPU |",
        "| first install |",
        "| S install CPU |",
        "| last install |",
        "one expiry sweep per (bin, window)",
    ] {
        assert!(readme.contains(needle), "README's flat-state notes lost `{needle}`");
    }
    let flat = read("crates/megaphone/src/flat.rs");
    for item in ["pub struct FlatTable", "pub fn from_image", "pub fn retain", "corrupt flat table"] {
        assert!(flat.contains(item), "`{item}` vanished from flat.rs — update README");
    }
    let codec = read("crates/megaphone/src/codec.rs");
    for item in ["pub struct ChainFragmenter", "pub struct ChainAssembler"] {
        assert!(codec.contains(item), "`{item}` vanished from codec.rs — update README");
    }
    let q8 = read("crates/nexmark/src/queries/q8.rs");
    for item in ["registered: FlatTable", "fn schedule_sweep"] {
        assert!(q8.contains(item), "`{item}` vanished from q8.rs — update README");
    }
    let bench = read("crates/bench/benches/bin_migrate_large.rs");
    assert!(bench.contains("\"bin_migrate_large/q8_shape\""), "the q8_shape bench group is gone");
    let compare = read("scripts/bench-compare.sh");
    assert!(compare.contains(",bin_migrate_large,"), "q8_shape left bench-compare.sh's tracked set");
}

#[test]
fn readme_documents_the_in_process_record_path() {
    // The F→S copy inventory must name the functions that implement it, and
    // the per-batch grouping it replaced must not have come back.
    let readme = read("README.md");
    for needle in [
        "In-process record path",
        "route_batch",
        "RoutingTable::resolve",
        "take_due",
        "three presized copies",
        "tests/batching.rs",
        "stateful_overhead",
        "Timers cost O(due), not O(pending)",
        "WakeupQueue",
        "one wake-up per (bin, time) run",
        "StatsHandle::pending_wakeups",
        "tests/timers.rs",
        "stateful_unary_timers",
        "Benchmark notes",
        "ledger.q8_cluster2.gap_pct",
    ] {
        assert!(readme.contains(needle), "In-process record path paragraph lost `{needle}`");
    }
    let operator = read("crates/megaphone/src/operator.rs");
    for function in ["fn route_batch", "fn process_bin"] {
        assert!(operator.contains(function), "`{function}` vanished from operator.rs — update README");
    }
    // The timer path: runs in the bin, one wake-up per run in S — and the
    // per-fold scan and per-record wake-up it replaced must not have come back.
    let bins = read("crates/megaphone/src/bins.rs");
    for item in [
        "pub fn take_due",
        "pub fn post_date",
        "pub type Runs<T, D> = Vec<(T, Vec<D>)>",
        "pub pending: Runs<T, D>",
        "pub fn pending_wakeups",
    ] {
        assert!(bins.contains(item), "`{item}` vanished from bins.rs — update README");
    }
    let notificator = read("crates/megaphone/src/notificator.rs");
    assert!(notificator.contains("pub struct WakeupQueue"), "WakeupQueue vanished — update README");
    for gone in ["fn prepend_due", "fn push_at", "push_at_clamped"] {
        assert!(
            !operator.contains(gone) && !notificator.contains(gone),
            "`{gone}` is back: README says timers cost O(due) with one wake-up per run"
        );
    }
    assert!(
        repo_root().join("crates/megaphone/tests/timers.rs").exists(),
        "the timer-path model test README names is gone"
    );
    // Q5 stage 1: counts inline in the map entry, one expiry sweep per
    // (bin, slide) — the per-(auction, slide) expiry must not have come back.
    for needle in ["Q5 under cache pressure", "one expiry sweep", "`Slides`", "`Q5_SWEEPS`"] {
        assert!(readme.contains(needle), "Q5 paragraph lost `{needle}`");
    }
    let q5 = read("crates/nexmark/src/queries/q5.rs");
    for item in ["pub enum Slides", "const Q5_SWEEPS", "pub type SlideCounts = FxHashMap<u64, Slides>"] {
        assert!(q5.contains(item), "`{item}` vanished from q5.rs — update README");
    }
    assert!(
        !q5.contains("(auction, Q5_EXPIRE + slide)"),
        "Q5 schedules one expiry per (auction, slide) again — README says one per (bin, slide)"
    );
    assert!(
        !operator.contains("BTreeMap<BinId"),
        "operator.rs groups records through a BTreeMap again — README's inventory is stale"
    );
    let routing = read("crates/megaphone/src/routing.rs");
    assert!(routing.contains("pub fn resolve"), "RoutingTable::resolve vanished — update README");
    assert!(
        repo_root().join("crates/megaphone/tests/batching.rs").exists(),
        "the once-per-(time, bin) test README names is gone"
    );
    let bench = read("crates/bench/benches/steady_state.rs");
    assert!(bench.contains("\"stateful_overhead\""), "the stateful_overhead bench group is gone");
    assert!(bench.contains("\"stateful_unary_timers\""), "the resident-reminder bench case is gone");
}

#[test]
fn readme_documents_scheduling() {
    // The scheduling section must keep the activation-source inventory, the
    // rule for when progress is shared and the park/wake ordering argument,
    // and the mechanisms it names must actually exist in the sources.
    let readme = read("README.md");
    assert!(readme.contains("## Scheduling"), "README must keep the Scheduling section");
    for needle in [
        "ActivationSet",
        "Activator",
        "Self-reactivation",
        "wake_on_change",
        "topological-rank order",
        "Arc<ProgressUpdates>",
        "local_progress_fanout_shares_one_arc",
        "progress_leaves_with_the_step_that_harvested_it",
        "an_idle_step_after_an_active_one_waits_one_slice_for_a_silent_peer",
        "two_worker_fold_overlap",
        "tests/progress.rs",
        "seeded_park_wake_stress_loses_no_wakeups",
        "multi_tenant_steady",
        "tests/activation.rs",
    ] {
        assert!(readme.contains(needle), "Scheduling section lost `{needle}`");
    }
    let schedule = read("crates/timelite/src/schedule.rs");
    assert!(
        schedule.contains("pub struct ActivationSet") && schedule.contains("pub struct Activator"),
        "the activation types vanished from timelite::schedule — update this test and README"
    );
    let worker = read("crates/timelite/src/worker.rs");
    for test in [
        "fn progress_leaves_with_the_step_that_harvested_it",
        "fn an_idle_step_after_an_active_one_waits_one_slice_for_a_silent_peer",
    ] {
        assert!(worker.contains(test), "`{test}`, named by README, vanished from timelite::worker");
    }
    let allocator = read("crates/timelite/src/communication/allocator.rs");
    assert!(
        allocator.contains("fn seeded_park_wake_stress_loses_no_wakeups"),
        "the park/wake stress test vanished from timelite's allocator"
    );
}

#[test]
fn readme_documents_the_control_surface() {
    // The control-surface section must describe the handshake, the command
    // set, the snapshot stream and the CLI, and the types it names must
    // actually exist in the sources.
    let readme = read("README.md");
    assert!(
        readme.contains("## Control surface"),
        "README must keep the Control surface section"
    );
    for needle in [
        "--ctl",
        "megaphone-ctl",
        "ctl listening on",
        "MEGACTL1",
        "CTL_WIRE_VERSION",
        "CtlCommand",
        "CtlSnapshot",
        "CtlWireError",
        "migrate <bin> <worker>",
        "rebalance",
        "set-workload",
        "pause-controller",
        "tests/ctl_wire.rs",
        "tests/ctl_e2e.rs",
        "ctl-smoke",
        "scripts/ctl-smoke.sh",
    ] {
        assert!(readme.contains(needle), "Control surface section lost `{needle}`");
    }
    let ctl = read("crates/megaphone/src/ctl.rs");
    assert!(
        ctl.contains("pub struct CtlServer") && ctl.contains("pub struct CtlClient"),
        "the ctl endpoint types vanished from megaphone::ctl — update this test and README"
    );
    let control = read("crates/megaphone/src/control.rs");
    assert!(
        control.contains("pub enum CtlCommand") && control.contains("pub struct CtlSnapshot"),
        "the ctl wire types vanished from megaphone::control — update this test and README"
    );
    let main = read("crates/ctl/src/main.rs");
    assert!(
        main.contains("tail") && main.contains("migrate"),
        "megaphone-ctl lost its core subcommands — update this test and README"
    );
}

#[test]
fn readme_criterion_bench_list_matches_the_sources() {
    let readme = read("README.md");
    let benches = std::fs::read_dir(repo_root().join("crates/bench/benches"))
        .expect("bench sources")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".rs").map(str::to_string)
        })
        .collect::<Vec<_>>();
    for bench in &benches {
        assert!(
            readme.contains(&format!("`{bench}`")),
            "criterion bench `{bench}` is missing from README's bench list"
        );
    }
}
