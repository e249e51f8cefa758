//! The fixed constants of every workload: offered rates, state sizes and window
//! lengths. Nothing here is derived from a number measured in the same run.

/// What the workload computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `stateful_unary` over `Vec<u64>` bins, keys binned by their low bits.
    KeyCountDense,
    /// `stateful_unary` over `FxHashMap<u64, u64>` bins on a durable store.
    HashCountDurable,
    /// `nexmark::build_query` for the named query.
    Nexmark(&'static str),
}

/// One workload's constants.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// `true`: 2 OS processes x 1 worker over loopback TCP; `false`: 2 threads.
    pub cluster: bool,
    /// Base-2 logarithm of the bin count.
    pub bin_shift: u32,
    /// Key-count: number of distinct keys. NEXMark: unused (0).
    pub domain: u64,
    /// Records (events) per 1 ms tick across all workers in the open loop:
    /// the offered rate divided by 1000.
    pub per_tick: u64,
    /// Ticks carried by one closed-loop epoch (preload and capacity phases).
    pub closed_ticks: u64,
    /// Closed-loop epochs sent before measurement starts, to build state.
    /// (Key-count workloads preload by key range instead and ignore this.)
    pub preload_epochs: u64,
    /// Records pushed through the capacity phase per second of `--seconds`.
    pub capacity_records_per_second: u64,
    /// Events in the lock-step verification run.
    pub verify_records: u64,
}

/// Workers (threads, or processes for the cluster workload). Never more than
/// the 2 vCPUs of the box this benchmark is tuned for.
pub const WORKERS: usize = 2;

/// Open-loop epoch length.
pub const TICK_NANOS: u64 = 1_000_000;

/// Epochs a closed-loop worker keeps in flight.
pub const CLOSED_IN_FLIGHT: u64 = 4;

/// Slices the capacity phase is cut into (rule R5).
pub const CAPACITY_SLICES: u64 = 32;

/// Shares of `--seconds` given to the open-loop phases; the capacity phase is
/// sized by record count to take roughly the remaining fifth.
pub const STEADY_SHARE: f64 = 0.25;
pub const FLUID_SHARE: f64 = 0.35;
pub const ALLATONCE_SHARE: f64 = 0.22;

/// Start of the steady window discarded as warm-up, in ticks.
pub const STEADY_DISCARD_TICKS: u64 = 500;

/// Quiet time between the system catching up after one migration and the
/// next one starting: 80 ms, and 13 ms more with each migration up to 158 ms,
/// then 80 ms again.
pub const MIGRATION_GAP_MS: u64 = 80;
pub const MIGRATION_GAP_STEP_MS: u64 = 13;

/// The system has caught up with the open loop's schedule when no more ticks
/// than this are in flight; the quiet time before a migration counts from then.
pub const CAUGHT_UP_TICKS: u64 = 2;

/// No migration starts this close to the end of its phase.
pub const MIGRATION_TAIL_MS: u64 = 600;

/// The first fluid migrations (two round trips) are warm-up and not measured:
/// they pay first-touch page faults on fresh bins and, on the durable store,
/// the initial build-up of tables, which later round trips do not.
pub const FLUID_WARMUP_MIGRATIONS: usize = 4;

/// The longest the driver sleeps when `Worker::step` found nothing (rule R1).
pub const IDLE_SLEEP_NANOS: u64 = 50_000;

/// An open-loop epoch slower than this counts as a failed operation.
pub const FAILED_LATENCY_NANOS: u64 = 1_000_000_000;

/// Set-ups per run (fresh processes); `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 5;

/// Key domain of the key-count verification run: small, so every key is hit
/// many times on both sides of the mid-stream migration.
pub const VERIFY_DOMAIN: u64 = 1 << 16;
/// Event rate of the NEXMark verification run: low, so the fixed prefix spans
/// many windows of event time.
pub const VERIFY_NEXMARK_RATE: u64 = 20_000;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "keycount_dense",
        kind: Kind::KeyCountDense,
        cluster: false,
        bin_shift: 8,
        domain: 1 << 26,
        per_tick: 4_000,
        closed_ticks: 4,
        preload_epochs: 0,
        capacity_records_per_second: 2_000_000,
        verify_records: 2_000_000,
    },
    Spec {
        name: "hashcount_durable",
        kind: Kind::HashCountDurable,
        cluster: false,
        bin_shift: 6,
        domain: 1 << 22,
        per_tick: 3_000,
        closed_ticks: 4,
        preload_epochs: 0,
        capacity_records_per_second: 1_200_000,
        verify_records: 2_000_000,
    },
    Spec {
        name: "q5_process2",
        kind: Kind::Nexmark("q5"),
        cluster: false,
        bin_shift: 8,
        domain: 0,
        per_tick: 30,
        closed_ticks: 64,
        preload_epochs: 208,
        capacity_records_per_second: 150_000,
        verify_records: 400_000,
    },
    Spec {
        name: "q8_cluster2",
        kind: Kind::Nexmark("q8"),
        cluster: true,
        bin_shift: 8,
        domain: 0,
        per_tick: 800,
        closed_ticks: 4,
        preload_epochs: 250,
        capacity_records_per_second: 400_000,
        verify_records: 400_000,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|spec| spec.name == name)
}
