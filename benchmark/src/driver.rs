//! The benchmark's own driver loop: set-up, closed-loop capacity, then one
//! continuous open loop through the steady, fluid and all-at-once phases.
//!
//! Every worker runs the same loop and generates its own share of the load (no
//! generator threads: the box has two cores and two workers). Worker 0 also
//! drives migrations and keeps the measurements. The loop never spins: when
//! `Worker::step` reports nothing to do it sleeps (rule R1).

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use megaphone::prelude::*;
use megaphone::{StorageError, StorageStats};
use timelite::prelude::*;

use crate::spec::*;
use crate::trace::{Name, Tracer};
use crate::workloads::{Built, Source, Workload};

/// The tick schedule of one run, fixed by the workload constants and
/// `--seconds` alone.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Ticks per closed-loop epoch.
    pub closed_ticks: u64,
    /// Closed-loop epochs of preload, then of the capacity phase.
    pub preload_epochs: u64,
    pub capacity_epochs: u64,
    /// Records per closed-loop epoch, all workers.
    pub closed_epoch_records: u64,
    /// First open-loop tick, and the ticks of each open-loop phase.
    pub open_start: u64,
    pub steady_ticks: u64,
    pub fluid_ticks: u64,
    pub allatonce_ticks: u64,
}

impl Schedule {
    pub fn new(spec: &Spec, preload_epochs: u64, seconds: f64) -> Self {
        let closed_epoch_records = spec.per_tick * spec.closed_ticks;
        let capacity_records = (spec.capacity_records_per_second as f64 * seconds) as u64;
        // A whole number of epochs per slice.
        let per_slice = (capacity_records / closed_epoch_records / CAPACITY_SLICES).max(2);
        let capacity_epochs = per_slice * CAPACITY_SLICES;
        let ticks = |share: f64| (share * seconds * 1e9 / TICK_NANOS as f64) as u64;
        Schedule {
            closed_ticks: spec.closed_ticks,
            preload_epochs,
            capacity_epochs,
            closed_epoch_records,
            open_start: (preload_epochs + capacity_epochs) * spec.closed_ticks,
            steady_ticks: ticks(STEADY_SHARE),
            fluid_ticks: ticks(FLUID_SHARE),
            allatonce_ticks: ticks(ALLATONCE_SHARE),
        }
    }

    pub fn open_ticks(&self) -> u64 {
        self.steady_ticks + self.fluid_ticks + self.allatonce_ticks
    }
}

/// One migration as worker 0 saw it. Times are nanoseconds since the origin.
#[derive(Clone, Debug)]
pub struct Migration {
    pub strategy: MigrationStrategy,
    /// First `ControllerStatus::Issued`.
    pub start: u64,
    /// `MigrationController::is_complete()`.
    pub end: u64,
    /// From the balanced to the imbalanced assignment (`false`: the way back).
    pub outbound: bool,
    /// Unmeasured warm-up (see `FLUID_WARMUP_MIGRATIONS`).
    pub warmup: bool,
    /// When each step was issued.
    pub issues: Vec<u64>,
    pub bins: usize,
    /// Exact encoded bytes of the moved bins, known only when they landed on
    /// worker 0 (every second migration); zero otherwise.
    pub bytes_landed: u64,
}

/// What worker 0 measured after set-up.
pub struct Measured {
    /// `(traced, records per second)` per capacity slice.
    pub capacity_slices: Vec<(bool, f64)>,
    /// Open loop: when tick `i`'s records were due, relative to the origin, is
    /// `anchor + (i + 1) * TICK_NANOS`.
    pub anchor: u64,
    /// Per open-loop tick: when its records had been handed to the input, and
    /// when the output probe passed it.
    pub sent_at: Vec<u64>,
    pub done_at: Vec<u64>,
    pub migrations: Vec<Migration>,
    /// Whether a migration was still in flight when the open loop ended.
    pub migration_unfinished: bool,
    /// `StatsHandle::tracked_bytes` and this process's `VmHWM` when the steady
    /// window ended.
    pub tracked_bytes: u64,
    pub steady_hwm_kb: u64,
    /// How long each of worker 0's store checkpoints took, in nanoseconds.
    pub checkpoints: Vec<u64>,
}

/// What every worker reports.
pub struct WorkerReport {
    pub index: usize,
    /// Origin (just before `execute`) → preload complete.
    pub setup_nanos: u64,
    pub inputs: u64,
    pub outputs: u64,
    pub storage: Option<StorageStats>,
    /// Worker 0's spans (empty unless tracing).
    pub tracer: Tracer,
    /// Present after a full run.
    pub measured: Option<Measured>,
}

/// How far to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Build and preload only (a `setup_s` sample).
    SetupOnly,
    /// The whole measured run.
    Full,
}

#[derive(Clone, Copy)]
pub struct RunConfig {
    pub mode: Mode,
    pub seed: u64,
    pub schedule: Schedule,
    pub bins: usize,
    /// Checkpoint every worker's store after each migration round trip (rule R9).
    pub checkpoints: bool,
    pub trace: bool,
    /// Time zero of every timestamp; taken just before `execute`.
    pub origin: Instant,
}

/// Makes the calling worker thread's sleeps exact (rule R1) and pins it to the
/// `slot`-th CPU this process may run on (rule R6). Two mostly idle worker
/// threads are otherwise often woken on the same CPU, and a whole run then
/// shows every burst of work serialised. Changes nothing where that is not
/// possible.
fn settle_thread(slot: usize) {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        // Rule R1: the idle sleep is 50 us, and the default timer slack would
        // add up to another 50 us to every one of them.
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: sets the calling thread's timer slack (in nanoseconds); no
        // memory is passed.
        unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
        // A `cpu_set_t`: 1024 bits.
        let mut allowed = [0u64; 16];
        // SAFETY: `allowed` is a writable buffer of the size passed, and pid 0
        // names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
            return;
        }
        let cpus: Vec<usize> = (0..1024).filter(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1).collect();
        if cpus.len() < 2 {
            return;
        }
        let cpu = cpus[slot % cpus.len()];
        let mut only = [0u64; 16];
        only[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `only` is an initialised buffer of the size passed that
        // outlives the call, and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = slot;
}

/// `VmHWM` of this process in KiB.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

fn unix_nanos() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).expect("clock before 1970").as_nanos() as u64
}

fn nanos_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

fn idle(tracer: &mut Tracer, tick: u64, nanos: u64) {
    let span = tracer.begin(Name::Idle, tick);
    std::thread::sleep(Duration::from_nanos(nanos));
    tracer.end(span, 0);
}

/// The per-worker state shared by the closed and open loops.
struct Lane<'a, W: Workload> {
    worker: &'a mut Worker,
    control: InputHandle<u64, ControlInst>,
    input: InputHandle<u64, W::Rec>,
    built: Built,
    source: W::Source,
    batch: Vec<W::Rec>,
    tracer: Tracer,
    origin: Instant,
    inputs: u64,
}

impl<W: Workload> Lane<'_, W> {
    /// Sends the staged batch at the input's current time, then moves the
    /// data input to `next` and the control input one tick further (so
    /// records never wait for their configuration).
    fn emit(&mut self, tick: u64, next: u64) {
        self.inputs += self.batch.len() as u64;
        let span = self.tracer.begin(Name::Send, tick);
        self.input.send_batch(&mut self.batch);
        self.tracer.end(span, 0);
        let span = self.tracer.begin(Name::Control, tick);
        self.control.advance_to(next + 1);
        self.tracer.end(span, 0);
        let span = self.tracer.begin(Name::Advance, tick);
        self.input.advance_to(next);
        self.tracer.end(span, 0);
    }

    fn step(&mut self, tick: u64) -> bool {
        let span = self.tracer.begin(Name::Step, tick);
        let active = self.worker.step();
        self.tracer.end(span, u8::from(active));
        active
    }

    /// Runs closed-loop epochs `[from, to)` with at most `CLOSED_IN_FLIGHT`
    /// outstanding, calling `completed(epoch, now)` as the probe passes each.
    fn closed_loop(
        &mut self,
        from: u64,
        to: u64,
        preload: bool,
        closed_ticks: u64,
        mut before: impl FnMut(&mut Tracer, u64),
        mut completed: impl FnMut(u64, u64),
    ) {
        let (mut sent, mut done) = (from, from);
        while done < to {
            before(&mut self.tracer, done);
            let iteration = self.tracer.begin(Name::Loop, done * closed_ticks);
            while sent < to && sent < done + CLOSED_IN_FLIGHT {
                let tick = sent * closed_ticks;
                let span = self.tracer.begin(Name::Generate, tick);
                if preload {
                    self.source.preload(sent, &mut self.batch);
                } else {
                    for tick in tick..tick + closed_ticks {
                        self.source.tick(tick, &mut self.batch);
                    }
                }
                self.tracer.end(span, 0);
                self.emit(tick, tick + closed_ticks);
                sent += 1;
            }
            let active = self.step(done * closed_ticks);
            let span = self.tracer.begin(Name::Probe, done * closed_ticks);
            let now = nanos_since(self.origin);
            while done < sent && !self.built.probe.less_than(&((done + 1) * closed_ticks)) {
                completed(done, now);
                done += 1;
            }
            self.tracer.end(span, 0);
            if !active && done < to {
                idle(&mut self.tracer, done * closed_ticks, IDLE_SLEEP_NANOS);
            }
            self.tracer.end(iteration, 0);
        }
    }
}

/// How long a [`pump`] runs.
#[derive(Clone, Copy)]
pub enum Limit {
    Time(Duration),
    Epochs(u64),
}

/// Closed-loop epochs a time-limited [`pump`] sends between looks at the clock.
const PUMP_CHUNK: u64 = 128;

/// Pumps `workload`'s records through its dataflow with the capacity phase's
/// own loop (pinned workers, `CLOSED_IN_FLIGHT` epochs in flight, sleep when
/// idle), so that a layer's unit cost and `capacity_eps` come from one driver.
/// Returns records per second over all workers, as worker 0 counted them.
pub fn pump<W: Workload>(workload: W, config: Config, native: bool, closed_ticks: u64, limit: Limit) -> f64 {
    let rates = timelite::execute(config, move |worker| {
        let (index, peers) = (worker.index(), worker.peers());
        settle_thread(index);
        let (control, input, built) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (data_input, data) = scope.new_input::<W::Rec>();
            let built = workload.build(&control, &data, native);
            (control_input, data_input, built)
        });
        let origin = Instant::now();
        let mut lane = Lane::<W> {
            worker,
            control,
            input,
            built,
            source: workload.source(index, peers, 1),
            batch: Vec::new(),
            tracer: Tracer::new(origin, 0),
            origin,
            inputs: 0,
        };
        let mut sent = 0;
        loop {
            let more = match limit {
                Limit::Epochs(epochs) => epochs - sent,
                Limit::Time(budget) if origin.elapsed() < budget => PUMP_CHUNK,
                Limit::Time(_) => 0,
            };
            if more == 0 {
                break;
            }
            lane.closed_loop(sent, sent + more, false, closed_ticks, |_, _| {}, |_, _| {});
            sent += more;
        }
        let elapsed = origin.elapsed().as_secs_f64();
        let Lane { control, input, worker, inputs, .. } = lane;
        drop(control);
        drop(input);
        worker.step_until_complete();
        (index, inputs as f64 * peers as f64 / elapsed)
    });
    rates.into_iter().find(|(index, _)| *index == 0).map_or(0.0, |(_, rate)| rate)
}

/// Rule R9, driver-side agreement between the worker threads of one process:
/// worker 0 asks for a checkpoint of every worker's store after each migration
/// round trip, every worker counts the one it has taken, and the next
/// migration waits until all have. Without it the store's log only ever grows.
static CHECKPOINTS_ASKED: AtomicU64 = AtomicU64::new(0);
static CHECKPOINTS_TAKEN: AtomicU64 = AtomicU64::new(0);

/// Worker 0's migration driver for the open loop.
struct Migrator {
    bins: usize,
    peers: usize,
    /// Whether the live assignment is the imbalanced one.
    imbalanced: bool,
    active: Option<(MigrationController<u64>, Migration)>,
    /// A round trip has completed and its checkpoint has not been asked for yet.
    checkpoint_due: bool,
    /// Ticks below this one were due before the last migration ended.
    settle_tick: u64,
    last_end: u64,
    finished: Vec<Migration>,
}

impl Migrator {
    fn assignment(&self, imbalanced: bool) -> Vec<usize> {
        if imbalanced {
            imbalanced_assignment(self.bins, self.peers)
        } else {
            balanced_assignment(self.bins, self.peers)
        }
    }

    fn start(&mut self, strategy: MigrationStrategy) {
        let plan = plan_migration(strategy, &self.assignment(self.imbalanced), &self.assignment(!self.imbalanced));
        let bins = plan.moved_bins();
        let outbound = !self.imbalanced;
        self.imbalanced = !self.imbalanced;
        let warmup = strategy == MigrationStrategy::Fluid && self.finished.len() < FLUID_WARMUP_MIGRATIONS;
        let migration =
            Migration { strategy, outbound, warmup, start: 0, end: 0, issues: Vec::new(), bins, bytes_landed: 0 };
        self.active = Some((MigrationController::new(plan, false), migration));
    }
}

/// Builds the dataflow on `worker` and runs it as far as `config.mode` says.
pub fn run_worker<W: Workload>(workload: W, config: RunConfig, worker: &mut Worker) -> WorkerReport {
    let index = worker.index();
    let peers = worker.peers();
    let schedule = config.schedule;
    let origin = config.origin;
    settle_thread(index);

    let start_cell = Rc::new(Cell::new(0u64));
    let start_inner = start_cell.clone();
    let (control, input, mut sync, built) = worker.dataflow::<u64, _, _>(|scope| {
        let (control_input, control) = scope.new_input::<ControlInst>();
        let (data_input, data) = scope.new_input::<W::Rec>();
        // Carries the open loop's start time from worker 0 to every worker, so
        // that all of them (threads or processes) follow one schedule.
        let (sync_input, sync) = scope.new_input::<u64>();
        sync.broadcast().inspect(move |_time, start| start_inner.set(*start));
        let built = workload.build(&control, &data, false);
        (control_input, data_input, sync_input, built)
    });

    let spans = if config.trace && index == 0 { 4_000_000 } else { 0 };
    let mut lane = Lane::<W> {
        worker,
        control,
        input,
        built,
        source: workload.source(index, peers, config.seed),
        batch: Vec::new(),
        tracer: Tracer::new(origin, spans),
        origin,
        inputs: 0,
    };
    let k = schedule.closed_ticks;

    // ---- set-up: preload the state, closed loop, until the probe passes ----
    lane.closed_loop(0, schedule.preload_epochs, true, k, |_, _| {}, |_, _| {});
    let setup_nanos = nanos_since(origin);

    let mut measured = None;

    if config.mode == Mode::Full {
        // ---- capacity: closed loop, cut into slices (rule R5) ----
        let first = schedule.preload_epochs;
        let last = first + schedule.capacity_epochs;
        let per_slice = schedule.capacity_epochs / CAPACITY_SLICES;
        let slice_records = (per_slice * schedule.closed_epoch_records) as f64;
        let mut slices = Vec::with_capacity(CAPACITY_SLICES as usize);
        let mut slice_start = setup_nanos;
        let trace = config.trace;
        // A traced run traces every second slice, so that traced and untraced
        // capacity are measured side by side in time.
        let traced = move |epoch: u64| trace && ((epoch - first) / per_slice) % 2 == 1;
        lane.closed_loop(
            first,
            last,
            false,
            k,
            |tracer, epoch| tracer.set_on(traced(epoch)),
            |epoch, now| {
                if (epoch + 1 - first).is_multiple_of(per_slice) {
                    slices.push((traced(epoch), slice_records * 1e9 / (now - slice_start) as f64));
                    slice_start = now;
                }
            },
        );
        lane.tracer.set_on(config.trace);

        // ---- agree on the open loop's start ----
        if index == 0 {
            sync.send(unix_nanos() + 20_000_000);
        }
        sync.close();
        while start_cell.get() == 0 {
            if !lane.worker.step() {
                std::thread::sleep(Duration::from_nanos(IDLE_SLEEP_NANOS));
            }
        }
        let anchor = (nanos_since(origin) + start_cell.get()).saturating_sub(unix_nanos());

        measured = Some(open_loop(&mut lane, &config, anchor, slices));
    } else {
        sync.close();
    }

    let Lane { control, input, built, tracer, inputs, worker, .. } = lane;
    drop(control);
    drop(input);
    worker.step_until_complete();

    WorkerReport {
        index,
        setup_nanos,
        inputs,
        outputs: built.tally.outputs.get(),
        storage: built.storage.last().and_then(|handle| handle.stats()),
        tracer,
        measured,
    }
}

/// The open loop: one tick per millisecond from `anchor`, whatever the system
/// does. Latency is charged from when a tick's records were *due*, so a stall
/// is paid by every tick it delays.
fn open_loop<W: Workload>(
    lane: &mut Lane<W>,
    config: &RunConfig,
    anchor: u64,
    capacity_slices: Vec<(bool, f64)>,
) -> Measured {
    let schedule = &config.schedule;
    let (index, peers) = (lane.worker.index(), lane.worker.peers());
    let (mut tracked_bytes, mut steady_hwm_kb) = (0, 0);
    let first = schedule.open_start;
    let total = schedule.open_ticks();
    let end = first + total;
    let due = |tick: u64| anchor + (tick - first + 1) * TICK_NANOS;
    let fluid_from = first + schedule.steady_ticks;
    let allatonce_from = fluid_from + schedule.fluid_ticks;

    let mut sent_at = vec![0u64; total as usize];
    let mut done_at = vec![0u64; total as usize];
    let mut migrator = Migrator {
        bins: config.bins,
        peers,
        imbalanced: false,
        active: None,
        checkpoint_due: false,
        settle_tick: 0,
        last_end: 0,
        finished: Vec::new(),
    };
    let (mut next, mut done) = (first, first);
    // Checkpoints this worker has taken, and how long each took.
    let mut taken = 0u64;
    let mut checkpoints = Vec::new();

    loop {
        let iteration = lane.tracer.begin(Name::Loop, next);
        let mut now = nanos_since(lane.origin);
        while next < end && now >= due(next) {
            let span = lane.tracer.begin(Name::Generate, next);
            lane.source.tick(next, &mut lane.batch);
            lane.tracer.end(span, 0);
            lane.emit(next, next + 1);
            now = nanos_since(lane.origin);
            sent_at[(next - first) as usize] = now;
            next += 1;
            if next == fluid_from {
                tracked_bytes = lane.built.stats.as_ref().map_or(0, |stats| stats.tracked_bytes());
                steady_hwm_kb = peak_rss_kb();
            }
        }

        if index == 0 && next >= fluid_from {
            let span = lane.tracer.begin(Name::Controller, next);
            if let Some((controller, migration)) = migrator.active.as_mut() {
                if controller.advance(&lane.built.probe, &mut lane.control) == ControllerStatus::Issued {
                    if migration.issues.is_empty() {
                        migration.start = now;
                    }
                    migration.issues.push(now);
                }
                if controller.is_complete() {
                    let (_, mut migration) = migrator.active.take().expect("checked above");
                    migration.end = now;
                    // Bins that just landed here carry their exact encoded size.
                    if !migrator.imbalanced {
                        if let Some(stats) = lane.built.stats.as_ref() {
                            let moved = imbalanced_assignment(migrator.bins, peers);
                            migration.bytes_landed = stats
                                .snapshot()
                                .loads()
                                .iter()
                                .filter(|(bin, _)| moved[*bin] != bin % peers)
                                .map(|(_, load)| load.bytes)
                                .sum();
                        }
                    }
                    migrator.last_end = now;
                    migrator.settle_tick = next;
                    migrator.checkpoint_due = config.checkpoints && !migrator.imbalanced;
                    migrator.finished.push(migration);
                }
            } else if done < migrator.settle_tick
                || next - done > CAUGHT_UP_TICKS
                || CHECKPOINTS_TAKEN.load(Ordering::SeqCst) < CHECKPOINTS_ASKED.load(Ordering::SeqCst) * peers as u64
            {
                // The quiet time before the next migration counts from when
                // every tick the last one delayed is out, the system has caught
                // up with the schedule and the checkpoints asked for are taken.
                migrator.last_end = now;
            } else if migrator.checkpoint_due {
                // Asked for only now, so that the ticks the migration delayed
                // are not charged with the checkpoint as well.
                migrator.checkpoint_due = false;
                CHECKPOINTS_ASKED.fetch_add(1, Ordering::SeqCst);
                migrator.last_end = now;
            } else {
                let (strategy, phase_end) = if next < allatonce_from {
                    (MigrationStrategy::Fluid, allatonce_from)
                } else {
                    (MigrationStrategy::AllAtOnce, end)
                };
                // The quiet time differs from one migration to the next, so
                // that their cadence cannot lock onto anything periodic in the
                // system (Q5 closes a slide once a second).
                let gap_ms = MIGRATION_GAP_MS + MIGRATION_GAP_STEP_MS * (migrator.finished.len() as u64 % 7);
                let rested = now >= migrator.last_end + gap_ms * 1_000_000;
                let fits = now + MIGRATION_TAIL_MS * 1_000_000 <= due(phase_end);
                if rested && fits {
                    migrator.start(strategy);
                }
            }
            lane.tracer.end(span, 0);
        }

        if taken < CHECKPOINTS_ASKED.load(Ordering::SeqCst) {
            let span = lane.tracer.begin(Name::Checkpoint, next);
            let started = nanos_since(lane.origin);
            // Refused while a bin is half installed here: try again next time round.
            match lane.built.storage.iter().try_for_each(|store| store.checkpoint()) {
                Ok(()) => {
                    taken += 1;
                    checkpoints.push(nanos_since(lane.origin) - started);
                    CHECKPOINTS_TAKEN.fetch_add(1, Ordering::SeqCst);
                }
                Err(StorageError::Busy(_)) => {}
                Err(error) => panic!("checkpoint failed: {error}"),
            }
            lane.tracer.end(span, 0);
        }

        let active = lane.step(next);

        let span = lane.tracer.begin(Name::Probe, next);
        now = nanos_since(lane.origin);
        while done < next && !lane.built.probe.less_than(&(done + 1)) {
            done_at[(done - first) as usize] = now;
            done += 1;
        }
        lane.tracer.end(span, 0);

        if done == end {
            lane.tracer.end(iteration, 0);
            break;
        }
        if !active {
            let until_due = if next < end { due(next).saturating_sub(now) } else { IDLE_SLEEP_NANOS };
            if until_due > 0 {
                idle(&mut lane.tracer, next, until_due.min(IDLE_SLEEP_NANOS));
            }
        }
        lane.tracer.end(iteration, 0);
    }
    lane.tracer.set_on(false);

    Measured {
        capacity_slices,
        anchor,
        sent_at,
        done_at,
        migration_unfinished: migrator.active.is_some(),
        migrations: migrator.finished,
        tracked_bytes,
        steady_hwm_kb,
        checkpoints,
    }
}
