//! The F/S operator pair: Megaphone's migration mechanism (Sections 3.4 and 4).
//!
//! A migrateable stateful operator is constructed from two cooperating timely
//! operators:
//!
//! * **F** receives the data stream and the control (configuration update)
//!   stream. It routes `(key, val)` pairs according to the configuration at
//!   their time, buffering records whose configuration is not yet certain, and
//!   initiates migrations: once the downstream output frontier shows that all
//!   records before a configuration time have been absorbed, F extracts the
//!   affected bins from the worker-local store and ships them to their new
//!   owner over a regular dataflow channel. A bin whose new owner runs in this
//!   process moves as the [`Bin`] itself, with its load: nothing is encoded,
//!   copied or decoded. A bin bound for another process, or leaving a durable
//!   store, is serialized and streams out as bounded-size fragments.
//! * **S** hosts the bins. It installs migrated state immediately and applies
//!   data records in timestamp order once their time has been passed by both
//!   its data and its state input frontier, invoking the user's fold logic
//!   once per `(time, bin)` with the bin's state and a [`Notificator`] for
//!   post-dated records. One invocation retires one time: when several are
//!   ready S re-activates itself, so each time's completion is broadcast by
//!   the step that retired it rather than after the last of them.
//!
//! F and S instances on the same worker share the bin store through a shared
//! pointer, exactly as described in Section 4.2 of the paper.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use timelite::communication::Pact;
use timelite::dataflow::{Capability, OperatorBuilder, OutputPort, ProbeHandle, Stream};
use timelite::order::Timestamp;
use timelite::Data;

use crate::bins::{
    shared_bin_store_with_storage, take_due, Bin, BinId, BinLoad, BinStats, BinStore,
    ChunkedExtraction, MegaphoneConfig, StateFragment, StatsHandle,
};
use crate::codec::{ChunkedCodec, Codec};
use crate::control::ControlInst;
use crate::notificator::{Notificator, PendingQueue, WakeupQueue};
use crate::routing::RoutingTable;
use crate::storage::{worker_storage, StorageConfig, StorageHandle};

/// Requirements on records flowing into a migrateable operator.
pub trait MegaphoneData: Data + Codec {}
impl<D: Data + Codec> MegaphoneData for D {}

/// Requirements on per-bin state: incrementally encodable so migrations to
/// another process ship it as bounded-size fragments rather than one
/// monolithic buffer, and `Send` so a migration within the process hands the
/// state itself to the worker thread that adopts it.
pub trait MegaphoneState: Default + ChunkedCodec + Send + 'static {}
impl<S: Default + ChunkedCodec + Send + 'static> MegaphoneState for S {}

/// A record produced by F for S: `(destination worker, key hash, record)`.
type Routed<D> = (u64, u64, D);
/// A migration message produced by F for S: `(destination worker, migration)`.
type Migrated<T, S, D> = (u64, Migration<T, S, D>);

/// How a bin travels from F to the S of its new owner.
enum Migration<T, S, D> {
    /// One encoded fragment of a bin whose new owner runs in another process,
    /// or which leaves a durable store (whose new owner logs the bin's image
    /// before the bin becomes visible).
    Fragment(StateFragment),
    /// A whole bin with its load, handed to a worker of this process.
    Handover {
        /// The bin being moved.
        bin: BinId,
        /// The bin's state and pending records, moved as they are.
        contents: Bin<T, S, D>,
        /// The load the bin had at its previous owner.
        load: BinLoad,
    },
}

// F hands a bin over only to a worker of its own process, over a channel S
// alone consumes: the channel neither encodes nor clones a handover, so both
// arms below are unreachable. A fragment encodes exactly as a bare
// `StateFragment`, so the wire format is that of the fragments alone.
impl<T, S, D> Clone for Migration<T, S, D> {
    fn clone(&self) -> Self {
        match self {
            Migration::Fragment(fragment) => Migration::Fragment(fragment.clone()),
            Migration::Handover { bin, .. } => unreachable!("bin {bin} cloned in a handover"),
        }
    }
}

impl<T, S, D> Codec for Migration<T, S, D> {
    fn encode(&self, bytes: &mut Vec<u8>) {
        match self {
            Migration::Fragment(fragment) => fragment.encode(bytes),
            Migration::Handover { bin, .. } => {
                unreachable!("bin {bin} handed over to another process")
            }
        }
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        Migration::Fragment(StateFragment::decode(bytes))
    }
}

/// The queue of in-progress outgoing migrations held by one F instance: the
/// capability of the migration's control time, the destination worker, and the
/// extraction streaming the bin's fragments.
type Outgoing<T, S, D> = VecDeque<(Capability<T>, u64, ChunkedExtraction<T, S, D>)>;

/// A handle bundling the output stream of a migrateable operator with the probe
/// that observes its output frontier (the same probe F uses internally).
pub struct StatefulOutput<T: Timestamp, O: Data> {
    /// The operator's output stream.
    pub stream: Stream<T, O>,
    /// A probe on the output stream; `!probe.less_than(&t)` indicates every
    /// record with time earlier than `t` has been fully processed.
    pub probe: ProbeHandle<T>,
    /// Snapshots the per-bin load of this worker's store (record counts and
    /// approximate encoded bytes), for load-aware controllers and state-size
    /// probes in the experiment harness.
    pub stats: StatsHandle,
    /// Probes into this worker's durable store (checkpoint, sync, spill,
    /// counters); every call is a cheap no-op when the operator runs with the
    /// default in-memory storage.
    pub storage: StorageHandle,
}

impl<T: Timestamp, O: Data> StatefulOutput<T, O> {
    /// A [`BinStats`] snapshot of this worker's hosted bins.
    pub fn stats(&self) -> BinStats {
        self.stats.snapshot()
    }
}

/// Constructs a migrateable stateful unary operator (Listing 1's `unary`).
///
/// * `T` is any [`Timestamp`]: totally ordered, the epochs of a streaming
///   computation, so F's and S's input frontiers are single times; and
///   serializable, because pending records carry their times through
///   migrations.
/// * `control` carries [`ControlInst`] configuration updates, timestamped with
///   the time at which they take effect.
/// * `key` extracts the 64-bit routing key from each record (as in timely
///   dataflow's exchange functions); keys are assigned to bins by the most
///   significant `config.bin_shift` bits.
/// * `fold` is invoked once per `(time, bin)` with the records of that bin at
///   that time — post-dated records that came due first, in (due time,
///   scheduling) order, then the records that arrived at that time, from
///   however many batches and workers, in arrival order — the bin's state, and
///   a [`Notificator`] for scheduling post-dated records. It returns the
///   outputs to emit at that time; it is never called with no records.
///   (Records `fold` itself post-dates to the time being processed are
///   delivered by one further call.)
///
/// S stashes the routed batches as they arrive and, once a time is closed,
/// groups all of them by bin in one counting pass, folds the bins in ascending
/// order, and emits the outputs of the whole time as one batch: downstream
/// sees one batch per `(time, worker)`. `tests/batching.rs` pins both.
///
/// Timers cost O(due), not O(pending): a bin keeps its post-dated records as
/// time runs ([`Bin`]'s run invariant), so a fold with nothing due pays one
/// comparison, and S keeps one wake-up per `(bin, time)` run — registered when
/// `fold`, an install or recovery creates the run, dropped when the bin is
/// extracted — so its queue is bounded by the runs of the bins it hosts
/// ([`StatsHandle::pending_wakeups`]). `tests/timers.rs` checks the whole path
/// against a flat pending list.
///
/// Migration is transparent to `fold`: the same bin state appears at the new
/// worker, with pending records intact. A bin moving to a worker of this
/// process travels as the [`Bin`] itself, with its [`BinLoad`]: the migration
/// costs a pointer move, whatever the state's size. A bin moving to another
/// process, or out of a durable store, is encoded and streams out in fragments
/// of `config.chunk_bytes`, a bounded number of bytes per scheduling round; a
/// durable store takes this path even within the process, because its new
/// owner must log the bin's image before the bin becomes visible.
pub fn stateful_unary<T, D, S, O, H, F>(
    config: MegaphoneConfig,
    control: &Stream<T, ControlInst>,
    data: &Stream<T, D>,
    name: &str,
    key: H,
    fold: F,
) -> StatefulOutput<T, O>
where
    T: Timestamp,
    D: MegaphoneData,
    S: MegaphoneState,
    O: Data,
    H: Fn(&D) -> u64 + 'static,
    F: FnMut(&T, Vec<D>, &mut S, &mut Notificator<T, D>) -> Vec<O> + 'static,
{
    let scope = data.scope();
    let worker_index = scope.index();
    let peers = scope.peers();

    // The bin store shared by the F and S instances of this worker, created
    // under the calling thread's ambient storage configuration: in-memory by
    // default, or recovered from a durable data directory (see
    // `storage::set_worker_storage`).
    let storage = worker_storage();
    let store = shared_bin_store_with_storage::<T, S, D>(
        &config,
        &storage,
        name,
        worker_index,
        peers,
    )
    .unwrap_or_else(|error| panic!("failed to open the durable store of {name}: {error}"));

    // Durable stores sync their WAL once per scheduling round, after every
    // operator has run and before the round's progress is shared: no peer can
    // observe progress past a write that is not yet durable.
    if matches!(storage, StorageConfig::Durable(_)) {
        let sync_store = store.clone();
        scope.with_builder(|builder| {
            builder.add_sync_hook(Box::new(move || {
                sync_store
                    .borrow_mut()
                    .sync()
                    .unwrap_or_else(|error| panic!("WAL sync failed: {error}"));
            }));
        });
    }

    // The workers F hands bins to as objects: those of this process, unless
    // this store is durable. Every other move ships encoded fragments.
    let durable = store.borrow().has_backend();
    let hand_over: Vec<bool> = scope.with_builder(|builder| {
        builder.senders().iter().map(|sender| !durable && !sender.is_remote()).collect()
    });

    // Probe on the S output frontier, monitored by F to time migrations.
    let mut probe = ProbeHandle::new();

    // Bins F has extracted for migration since S last ran: their runs left
    // with them, so S drops their wake-ups (S's capabilities stay S's to drop).
    let departed: Rc<RefCell<Vec<BinId>>> = Rc::default();
    // S's wake-up count as of its last round, behind `StatsHandle`.
    let wakeup_count: Rc<Cell<usize>> = Rc::default();

    // ------------------------------------------------------------------ F ---
    let mut f_builder = OperatorBuilder::new(&format!("{name}::F"), scope.clone());
    let mut f_data_in = f_builder.new_input(data, Pact::Pipeline);
    let mut f_control_in = f_builder.new_input(control, Pact::Broadcast);
    let (mut f_data_out, routed_stream) = f_builder.new_output::<Routed<D>>();
    let (mut f_state_out, migrated_stream) = f_builder.new_output::<Migrated<T, S, D>>();

    let f_store = store.clone();
    let f_departed = departed.clone();
    let f_probe = probe.clone();
    // Under demand-driven scheduling F must be woken by the downstream S
    // output frontier it watches: that frontier's movement never touches F's
    // own input frontiers (F is upstream), so without this registration a
    // pending migration whose gate opens via the probe would sleep forever.
    let f_activator = f_builder.activator();
    probe.wake_on_change(f_activator.clone());
    f_builder.build(move |_initial_capability| {
        let mut routing = RoutingTable::<T>::new(config.initial_assignment(peers));
        // Data whose time is in advance of the control frontier: configuration
        // not yet certain, so the records cannot be routed.
        let mut data_stash: PendingQueue<T, Vec<D>> = PendingQueue::new();
        // Configuration updates received but not yet acted upon, with the
        // capability of their control record (holding the output frontier at
        // their time until the migration has been performed).
        let mut pending_configs: BTreeMap<T, (Capability<T>, Vec<ControlInst>)> = BTreeMap::new();
        // In-progress outgoing migrations: each entry owns the extracted bin's
        // fragmenter plus the capability of the migration's control time, held
        // until the bin's final fragment has been shipped so downstream
        // frontiers cannot pass the migration while state is still in flight.
        let mut outgoing: Outgoing<T, S, D> = VecDeque::new();

        move |frontiers| {
            let data_frontier = &frontiers[0];
            let control_frontier = &frontiers[1];

            // 1. Receive configuration updates; record them in the routing
            //    table (lookups only consult finalized times) and remember the
            //    capability so the migration can be performed later.
            f_control_in.for_each(|capability, instructions| {
                let time = capability.time().clone();
                for instruction in &instructions {
                    routing.insert(time.clone(), instruction);
                }
                let entry =
                    pending_configs.entry(time).or_insert_with(|| (capability, Vec::new()));
                entry.1.extend(instructions);
            });

            // 2. Receive data records: route those whose configuration is
            //    certain, stash the rest until the control frontier catches up.
            f_data_in.for_each(|capability, records| {
                if control_frontier.less_equal(capability.time()) {
                    data_stash.push(capability, records);
                } else {
                    route_batch(&config, &routing, &key, &mut f_data_out, &capability, records);
                }
            });

            // 3. Route stashed records whose configuration has become certain.
            for (_time, capability, records) in data_stash.drain_ready(control_frontier) {
                route_batch(&config, &routing, &key, &mut f_data_out, &capability, records);
            }

            // 4. Perform migrations in time order. A configuration update at
            //    time `t` is acted upon once (a) the control frontier has
            //    passed `t` (the configuration at `t` is final) and (b) the S
            //    output frontier contains no time earlier than `t` (all earlier
            //    updates have been absorbed into the state).
            let mut executable = Vec::new();
            for time in pending_configs.keys() {
                if control_frontier.less_equal(time) || f_probe.less_than(time) {
                    break;
                }
                executable.push(time.clone());
            }
            for time in executable {
                let (capability, instructions) =
                    pending_configs.remove(&time).expect("executable time must be pending");
                let mut moves: Vec<(BinId, usize)> = Vec::new();
                for instruction in instructions {
                    match instruction {
                        ControlInst::Move(bin, worker) => moves.push((bin, worker)),
                        ControlInst::Map(map) => {
                            moves.extend(map.into_iter().enumerate());
                        }
                        ControlInst::None => {}
                    }
                }
                // A bin moved twice at one time goes where its last move
                // sends it, as in the routing table.
                moves.reverse();
                moves.sort_by_key(|&(bin, _)| bin);
                moves.dedup_by_key(|&mut (bin, _)| bin);
                let mut handed_over = f_state_out.session(&capability);
                for (bin, target) in moves {
                    // Only the worker currently hosting the bin extracts and
                    // ships it; everyone else only updates its routing table
                    // (already done in step 1). A bin that stays where it is
                    // does not move at all.
                    if target == worker_index {
                        continue;
                    }
                    if hand_over[target] {
                        let taken = f_store.borrow_mut().take_with_load(bin);
                        if let Some((contents, load)) = taken {
                            f_departed.borrow_mut().push(bin);
                            handed_over
                                .give((target as u64, Migration::Handover { bin, contents, load }));
                        }
                    } else {
                        let extraction = f_store.borrow_mut().extract_chunked(bin);
                        if let Some(extraction) = extraction {
                            f_departed.borrow_mut().push(bin);
                            outgoing.push_back((capability.clone(), target as u64, extraction));
                        }
                    }
                }
                // Dropping this scope's `capability` clone releases the hold on
                // `time` once every queued extraction of this step has also
                // finished (each extraction retains its own clone).
            }

            // 5. Pump outgoing migrations: ship at most a bounded number of
            //    encoded bytes per scheduling round, so large bins leave as a
            //    stream of fragments interleaved with record processing rather
            //    than one giant encode stalling the worker.
            let mut budget = config.pump_bytes_per_step();
            while budget > 0 {
                let Some((capability, target, extraction)) = outgoing.front_mut() else {
                    break;
                };
                let mut session = f_state_out.session(capability);
                let target = *target;
                loop {
                    let (bytes, last) = extraction.next_fragment(config.chunk_bytes);
                    budget = budget.saturating_sub(bytes.len().max(1));
                    let fragment = StateFragment { bin: extraction.bin() as u64, bytes, last };
                    session.give((target, Migration::Fragment(fragment)));
                    if last || budget == 0 {
                        break;
                    }
                }
                drop(session);
                if outgoing.front().expect("front just used").2.is_finished() {
                    let (_capability, _target, extraction) =
                        outgoing.pop_front().expect("front just used");
                    f_store.borrow_mut().recycle(extraction);
                }
            }

            // 6. Retire configuration updates that can no longer be looked up.
            routing.compact(data_frontier);

            // 7. A migration pump that ran out of budget yields with work
            //    remaining: re-activate for the next round rather than waiting
            //    for an (possibly never-arriving) external event.
            if !outgoing.is_empty() {
                f_activator.activate();
            }
        }
    });

    // ------------------------------------------------------------------ S ---
    let mut s_builder = OperatorBuilder::new(&format!("{name}::S"), scope);
    let mut s_data_in = s_builder.new_input(&routed_stream, Pact::exchange(|r: &Routed<D>| r.0));
    let mut s_state_in = s_builder.new_input(
        &migrated_stream,
        // Fragments are kilobytes of payload behind a thin header: give the
        // channel a real byte estimate so the adaptive flush budget sees them.
        Pact::exchange_sized(
            |m: &Migrated<T, S, D>| m.0,
            |m: &Migrated<T, S, D>| {
                std::mem::size_of::<Migrated<T, S, D>>()
                    + match &m.1 {
                        Migration::Fragment(fragment) => fragment.bytes.len(),
                        Migration::Handover { .. } => 0,
                    }
            },
        ),
    );
    let (mut s_output, output_stream) = s_builder.new_output::<O>();

    let s_store = store.clone();
    let s_wakeup_count = wakeup_count.clone();
    let mut fold = fold;
    let s_activator = s_builder.activator();
    s_builder.build(move |initial_capability| {
        // Received data batches, as they arrived, released in timestamp order
        // once both input frontiers have passed their time.
        let mut data_stash: PendingQueue<T, Vec<Routed<D>>> = PendingQueue::new();
        // One wake-up per (bin, time) run of the hosted bins' post-dated
        // records, registered when the run is created — by `fold` through the
        // notificator, by an install, by recovery — never per record.
        let mut wakeups: WakeupQueue<T> = WakeupQueue::new();
        // Scratch of the per-time grouping, reused across times: the released
        // batches of the time, the per-bin record counts that size `groups`,
        // the bins with work (records or a wake-up), and one record `Vec` per
        // bin, empty between times.
        let mut batches: Vec<Vec<Routed<D>>> = Vec::new();
        let mut counts: Vec<u32> = vec![0; config.bins()];
        let mut touched: Vec<BinId> = Vec::new();
        let mut groups: Vec<Vec<D>> = (0..config.bins()).map(|_| Vec::new()).collect();

        // Bins recovered from a durable store may carry post-dated records
        // whose wake-ups died with the previous process: re-register them
        // under the operator's initial capability (clamped forward — the
        // records' own times may already be closed), then let it drop.
        {
            let store = s_store.borrow();
            if store.has_backend() {
                for (bin, contents) in store.hosted() {
                    wakeups.register_runs(bin, &contents.pending, &initial_capability);
                }
            }
        }

        move |frontiers| {
            // S applies a time once both its data and its state input have
            // passed it.
            let frontier = frontiers[0].meet(&frontiers[1]);

            // Bins that left since the last round (necessarily before any
            // install below) no longer need waking here. A bin that returns
            // gets its wake-ups afresh: round trips never pile them up.
            {
                let mut departed = departed.borrow_mut();
                if !departed.is_empty() {
                    departed.sort_unstable();
                    wakeups.remove_bins(|bin| departed.binary_search(&bin).is_ok());
                    departed.clear();
                }
            }

            // Absorb migrations immediately. A handed-over bin is adopted as
            // it arrives; a fragmented bin is installed once its final
            // fragment arrives. Either way S registers one wake-up per run of
            // pending records the bin carried. Decoding happens fragment by
            // fragment, so a multi-megabyte bin never triggers one monolithic
            // decode stall. A durable store logs a whole batch with one
            // vectored append.
            s_state_in.for_each(|capability, migrations| {
                let mut store = s_store.borrow_mut();
                let mut fragments = Vec::new();
                for (_target, migration) in migrations {
                    match migration {
                        Migration::Fragment(fragment) => fragments.push(fragment),
                        Migration::Handover { bin, contents, load } => {
                            assert!(
                                !store.has_backend(),
                                "bin {bin} handed over to a durable store: the workers of one \
                                 process must share their storage configuration"
                            );
                            wakeups.register_runs(bin, &contents.pending, &capability);
                            store.adopt(bin, contents, load);
                        }
                    }
                }
                let batch: Vec<_> = fragments
                    .iter()
                    .map(|fragment| (fragment.bin, &fragment.bytes[..], fragment.last))
                    .collect();
                let installed = store
                    .try_install_fragments(&batch)
                    .unwrap_or_else(|error| panic!("storage error installing bins: {error}"));
                for bin in installed {
                    let contents = store.try_bin(bin).expect("bin just installed");
                    // Pending times can trail the migration's control time
                    // when out-of-order input post-dated records to
                    // already-closed times: those runs are clamped to the
                    // fragment's capability so they deliver immediately
                    // after installation, exactly once.
                    wakeups.register_runs(bin, &contents.pending, &capability);
                }
            });

            // Stash data until its time can no longer receive state or records.
            s_data_in.for_each(|capability, records| data_stash.push(capability, records));

            // Retire the earliest ready time (data batches and wake-ups), and
            // only that one: a time's outputs and its released capability
            // leave with the step that retired it (see the re-activation
            // below), so no peer waits out this worker's later times to learn
            // that an earlier one is complete.
            let ready = [data_stash.next_time(), wakeups.next_time()]
                .into_iter()
                .flatten()
                .min()
                .filter(|time| !frontier.less_equal(time))
                .cloned();
            if let Some(time) = ready {
                // Merge everything released for `time`: count the records per
                // bin, and add the bins the time's wake-ups name (a bin woken
                // twice, or woken with records, is still one unit of work).
                // Any of the released capabilities serves the whole time.
                let mut capability = None;
                let mut arrived = 0;
                for (held, batch) in data_stash.drain_time(&time) {
                    for (_target, hash, _record) in &batch {
                        let bin = config.key_to_bin(*hash);
                        if counts[bin] == 0 {
                            touched.push(bin);
                        }
                        counts[bin] += 1;
                    }
                    arrived += batch.len();
                    batches.push(batch);
                    capability.get_or_insert(held);
                }
                if let Some((held, bins)) = wakeups.take_time(&time) {
                    touched.extend(bins);
                    capability.get_or_insert(held);
                }
                let capability = capability.expect("released work carries a capability");
                touched.sort_unstable();
                touched.dedup();

                // Group the records by bin, in arrival order, into exactly
                // sized per-bin vectors.
                for &bin in &touched {
                    groups[bin].reserve_exact(counts[bin] as usize);
                    counts[bin] = 0;
                }
                for batch in batches.drain(..) {
                    for (_target, hash, record) in batch {
                        groups[config.key_to_bin(hash)].push(record);
                    }
                }

                // One fold per (time, bin), ascending by bin; the outputs of
                // the whole time leave as one batch.
                let mut outputs: Vec<O> = Vec::new();
                let mut store = s_store.borrow_mut();
                for bin in touched.drain(..) {
                    let mut produced = process_bin(
                        &mut fold,
                        &mut store,
                        &mut wakeups,
                        &time,
                        &capability,
                        bin,
                        std::mem::take(&mut groups[bin]),
                    );
                    if outputs.capacity() == 0 && !produced.is_empty() {
                        // The first outputs of the time size its buffer for
                        // the common one-output-per-record fold.
                        outputs.reserve(arrived.max(produced.len()));
                    }
                    outputs.append(&mut produced);
                }
                drop(store);
                s_output.session(&capability).give_vec(&mut outputs);
            }

            // More times may be ready, and the fold above may have scheduled
            // wake-ups at the very time just retired (a notificator deadline
            // clamped to the current time): those are ready *now*, and no
            // further frontier movement — hence no tracker-driven activation
            // — may ever arrive. Re-activate: the worker's next step takes the
            // next time, after this step's progress has been broadcast.
            if wakeups.has_ready(&frontier) || data_stash.has_ready(&frontier) {
                s_activator.activate();
            }
            s_wakeup_count.set(wakeups.len());
        }
    });

    let stream = output_stream.probe_with(&mut probe);
    let snapshot_store = store.clone();
    let bytes_store = store.clone();
    let stats = StatsHandle::new(
        std::rc::Rc::new(move || snapshot_store.borrow().stats()),
        std::rc::Rc::new(move || bytes_store.borrow().tracked_bytes()),
        std::rc::Rc::new(move || wakeup_count.get()),
    );
    let checkpoint_store = store.clone();
    let sync_store = store.clone();
    let stats_store = store;
    let storage = StorageHandle::new(
        std::rc::Rc::new(move || checkpoint_store.borrow_mut().checkpoint()),
        std::rc::Rc::new(move || sync_store.borrow_mut().sync()),
        std::rc::Rc::new(move || stats_store.borrow().storage_stats()),
    );
    StatefulOutput { stream, probe, stats, storage }
}

/// Routes one batch at F: the configuration at the batch's time is resolved
/// once and indexed per record, and the output batch is sized up front.
fn route_batch<T, D, H>(
    config: &MegaphoneConfig,
    routing: &RoutingTable<T>,
    key: &H,
    output: &mut OutputPort<T, Routed<D>>,
    capability: &Capability<T>,
    records: Vec<D>,
) where
    T: Timestamp,
    D: MegaphoneData,
    H: Fn(&D) -> u64,
{
    let assignment = routing.resolve(capability.time());
    output.session(capability).give_iterator(records.into_iter().map(|record| {
        let hash = key(&record);
        (assignment[config.key_to_bin(hash)] as u64, hash, record)
    }));
}

/// Applies `fold` to one bin at one time — due post-dated records first, then
/// the freshly arrived `fresh` records, in one call — and returns its outputs.
/// `fold` is not called when there is nothing to fold: a wake-up whose records
/// an earlier wake-up already delivered, or whose bin has migrated away.
fn process_bin<T, D, S, O, F>(
    fold: &mut F,
    store: &mut BinStore<T, S, D>,
    wakeups: &mut WakeupQueue<T>,
    time: &T,
    capability: &Capability<T>,
    bin: BinId,
    fresh: Vec<D>,
) -> Vec<O>
where
    T: Timestamp,
    D: MegaphoneData,
    S: MegaphoneState,
    F: FnMut(&T, Vec<D>, &mut S, &mut Notificator<T, D>) -> Vec<O>,
{
    // A hosted-but-spilled bin faults back in from the durable tier on its
    // first record or wake-up.
    store
        .ensure_resident(bin)
        .unwrap_or_else(|error| panic!("failed to fault bin {bin} back in: {error}"));
    let contents = match store.try_bin_mut(bin) {
        Some(contents) => contents,
        None if !fresh.is_empty() => {
            panic!("worker received data for bin {bin} which it does not host: routing error")
        }
        // A stale wake-up for a bin that has since migrated away; the new owner
        // received the pending records with the bin and will process them.
        None => return Vec::new(),
    };

    let records = take_due(&mut contents.pending, time, fresh);
    if records.is_empty() {
        return Vec::new();
    }
    let folded = records.len() as u64;
    let Bin { state, pending } = contents;
    let mut notificator = Notificator::new(time, bin, pending, wakeups, capability);
    let outputs = fold(time, records, state, &mut notificator);
    // Per-bin load accounting behind `BinStats`: every fold application counts
    // as observed load, with the record's in-memory size standing in for its
    // (unknown without encoding) serialized growth.
    store.note_records(bin, folded, folded * std::mem::size_of::<D>() as u64);
    outputs
}
