//! Megaphone: latency-conscious state migration for distributed streaming
//! dataflows (Hoffmann et al., VLDB 2019) — a from-scratch Rust reproduction.
//!
//! Megaphone is a *library* on top of a timely-dataflow-style engine (here,
//! [`timelite`]) that makes stateful, data-parallel operators migrateable: the
//! assignment of keys to workers can be changed while the computation runs,
//! without pausing the dataflow and without latency spikes proportional to the
//! amount of state moved.
//!
//! The key ideas, and where they live in this crate:
//!
//! * **Configuration as data** ([`control`], [`routing`]): updates of the form
//!   `(time, bin, worker)` arrive on an ordinary dataflow stream; the frontier
//!   of that stream tells the routing operator when a configuration can no
//!   longer change.
//! * **Bins** ([`bins`]): keys are grouped into `2^k` bins by the top bits of
//!   their hash; configuration and migration operate on bins.
//! * **The F/S operator pair** ([`operator`]): `F` routes records according to
//!   the configuration at their timestamp and initiates migrations once the
//!   downstream frontier shows all earlier work absorbed; `S` hosts the bins,
//!   installs migrated state and applies records in timestamp order. The two
//!   share the worker-local bin store through a shared pointer.
//! * **State whose memory is its wire image** ([`flat`]): a `u64`-keyed table
//!   of fixed-width slots over a byte arena, for map-shaped bins that should
//!   migrate at the speed of a `Vec`.
//! * **Operator interfaces** ([`interface`]): `state_machine`, `unary` and
//!   `binary` stateful operators with an extra control input, mirroring
//!   Listing 1 of the paper. Post-dated records are managed by a
//!   [`notificator`] and migrate together with the state.
//! * **Migration strategies** ([`strategies`], [`controller`]): all-at-once,
//!   fluid, batched and bipartite-optimized plans, issued step by step by a
//!   controller that observes the operator's output frontier.
//!
//! # Example: a migrateable word count
//!
//! ```
//! use megaphone::prelude::*;
//! use timelite::prelude::*;
//!
//! let counts = timelite::execute(Config::process(2), |worker| {
//!     let (mut control, mut words, output, received) = worker.dataflow::<u64, _, _>(|scope| {
//!         let (control_input, control) = scope.new_input::<ControlInst>();
//!         let (word_input, words) = scope.new_input::<(String, i64)>();
//!         let received = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
//!         let received_inner = received.clone();
//!         let output = state_machine::<_, String, i64, i64, (String, i64), _>(
//!             MegaphoneConfig::new(4),
//!             &control,
//!             &words,
//!             "WordCount",
//!             |word, diff, count| {
//!                 *count += diff;
//!                 (false, vec![(word.clone(), *count)])
//!             },
//!         );
//!         output.stream.inspect(move |_t, r| received_inner.borrow_mut().push(r.clone()));
//!         (control_input, word_input, output, received)
//!     });
//!
//!     // Round 0: some words.
//!     if worker.index() == 0 {
//!         words.send(("megaphone".to_string(), 1));
//!         words.send(("timely".to_string(), 1));
//!     }
//!     control.advance_to(1);
//!     words.advance_to(1);
//!     worker.step_while(|| output.probe.less_than(&1));
//!
//!     // Migrate every bin to worker 1, then keep counting.
//!     if worker.index() == 0 {
//!         control.send(ControlInst::Map(vec![1; 16]));
//!     }
//!     control.advance_to(2);
//!     words.advance_to(2);
//!     worker.step_while(|| output.probe.less_than(&2));
//!
//!     if worker.index() == 0 {
//!         words.send(("megaphone".to_string(), 1));
//!     }
//!     drop(control);
//!     drop(words);
//!     worker.step_until_complete();
//!     let collected = received.borrow().clone();
//!     collected
//! });
//!
//! // After migration, the count for "megaphone" continued from 1 to 2 on the new worker.
//! let all: Vec<_> = counts.into_iter().flatten().collect();
//! assert!(all.contains(&("megaphone".to_string(), 2)));
//! ```

#![warn(missing_docs)]

pub mod bins;
pub mod codec;
pub mod control;
pub mod controller;
pub mod ctl;
pub mod flat;
pub mod interface;
pub mod notificator;
pub mod operator;
pub mod routing;
pub mod storage;
pub mod strategies;

pub use bins::{
    Bin, BinId, BinLoad, BinStats, BinStore, ChunkedExtraction, MegaphoneConfig, SharedBinStore,
    StateFragment, StatsHandle,
};
pub use codec::{Assembler, ChunkedCodec, Codec, Fragmenter};
pub use control::{
    Command, ControlInst, CtlBinLoad, CtlCommand, CtlMigrationStatus, CtlSnapshot, CtlWireError,
    CtlWorkerLoad, CTL_WIRE_VERSION,
};
pub use controller::{ClosedLoopController, ControllerStatus, MigrationController};
pub use ctl::{CtlClient, CtlServer, CTL_MAGIC};
pub use flat::FlatTable;
pub use interface::{state_machine, stateful_binary, Either, MegaphoneStream};
pub use notificator::{Notificator, PendingQueue, WakeupQueue};
pub use operator::{stateful_unary, StatefulOutput};
pub use routing::RoutingTable;
pub use storage::{
    set_worker_storage, worker_storage, DurableBackend, DurableConfig, Recovery,
    StorageBackend, StorageConfig, StorageError, StorageHandle, StorageStats,
};
pub use strategies::{
    balanced_assignment, imbalanced_assignment, load_balanced_assignment, plan_migration,
    plan_rebalance, MigrationPlan, MigrationStrategy,
};

/// A convenient set of imports for building migrateable dataflows.
pub mod prelude {
    pub use crate::bins::{BinId, BinLoad, BinStats, MegaphoneConfig, StatsHandle};
    pub use crate::codec::{ChunkedCodec, Codec};
    pub use crate::control::ControlInst;
    pub use crate::controller::{ClosedLoopController, ControllerStatus, MigrationController};
    pub use crate::flat::FlatTable;
    pub use crate::interface::{state_machine, stateful_binary, Either, MegaphoneStream};
    pub use crate::notificator::Notificator;
    pub use crate::operator::{stateful_unary, StatefulOutput};
    pub use crate::storage::{
        set_worker_storage, worker_storage, DurableConfig, StorageConfig,
        StorageHandle, StorageStats,
    };
    pub use crate::strategies::{
        balanced_assignment, imbalanced_assignment, load_balanced_assignment, plan_migration,
        plan_rebalance, MigrationPlan, MigrationStrategy,
    };
}
