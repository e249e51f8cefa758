//! `timelite` — a compact timely-dataflow-style streaming engine.
//!
//! `timelite` implements the subset of the [Naiad / timely dataflow] model that
//! the Megaphone state-migration library (the primary contribution of this
//! repository) relies on:
//!
//! * **Logical timestamps** ([`order`]), totally ordered and attached to every
//!   data record.
//! * **Frontiers** ([`progress`]): the least timestamp that may still appear
//!   at a given point in the dataflow, or none once nothing more will,
//!   maintained by capability-based progress tracking across workers.
//! * **Data-parallel workers** ([`worker`], [`mod@execute`]): each worker thread owns
//!   a copy of every operator and exchanges data over shared-nothing channels
//!   according to per-channel pacts (pipeline, hash exchange, broadcast). The
//!   workers run as threads of one process ([`Config::process`]) or spread
//!   over several processes that talk over TCP ([`Config::cluster`]).
//! * **Composable operators** ([`dataflow`]): a raw operator builder plus the
//!   usual conveniences (map, filter, exchange, probe, unary/binary with
//!   frontiers) from which higher-level libraries are assembled.
//!
//! The engine intentionally supports acyclic, single-level dataflows over
//! totally ordered times: that is the substrate Megaphone needs, and it keeps
//! the progress tracker small enough to reason about. The repository's
//! `README.md` maps the modules to the paper.
//!
//! # Example
//!
//! ```
//! use timelite::prelude::*;
//!
//! // Count records per worker and collect the totals.
//! let counts = timelite::execute(Config::process(2), |worker| {
//!     let index = worker.index();
//!     let (mut input, probe, received) = worker.dataflow::<u64, _, _>(|scope| {
//!         let (input, stream) = scope.new_input::<u64>();
//!         let received = std::rc::Rc::new(std::cell::RefCell::new(0u64));
//!         let received_in = received.clone();
//!         let probe = stream
//!             .exchange(|x| *x)
//!             .inspect(move |_t, _x| { *received_in.borrow_mut() += 1; })
//!             .probe();
//!         (input, probe, received)
//!     });
//!
//!     for round in 0..10u64 {
//!         input.send(round + index as u64);
//!         input.advance_to(round + 1);
//!         worker.step_while(|| probe.less_than(&(round + 1)));
//!     }
//!     drop(input);
//!     worker.step_until_complete();
//!     let total = *received.borrow();
//!     total
//! });
//! assert_eq!(counts.iter().sum::<u64>(), 20);
//! ```
//!
//! [Naiad / timely dataflow]: https://github.com/TimelyDataflow/timely-dataflow

#![warn(missing_docs)]

pub mod codec;
pub mod communication;
pub mod dataflow;
pub mod execute;
pub mod hashing;
pub mod order;
pub mod progress;
pub mod schedule;
pub mod worker;

pub use crate::codec::Codec;
pub use crate::dataflow::{Capability, InputHandle, InputPort, OperatorBuilder, OutputPort, ProbeHandle, Scope, Stream};
pub use crate::execute::{execute, execute_single, try_execute, Config};
pub use crate::order::Timestamp;
pub use crate::progress::{ChangeBatch, Frontier};
pub use crate::schedule::Activator;
pub use crate::worker::{DataflowSummary, Worker};

/// Types that may be transported on dataflow streams.
///
/// Data must be cloneable (for broadcast and multi-consumer streams), sendable
/// between worker threads, and serializable ([`Codec`]) so that the same
/// dataflow runs unchanged when workers are spread over multiple processes and
/// channels cross a TCP socket.
pub trait Data: Clone + Send + Codec + 'static {}
impl<T: Clone + Send + Codec + 'static> Data for T {}

/// A convenient set of imports for building dataflows.
pub mod prelude {
    pub use crate::communication::Pact;
    pub use crate::dataflow::{
        Capability, InputHandle, InputPort, OperatorBuilder, OutputPort, ProbeHandle, Scope, Stream,
    };
    pub use crate::execute::{execute, execute_single, try_execute, Config};
    pub use crate::hashing::hash_code;
    pub use crate::order::Timestamp;
    pub use crate::progress::Frontier;
    pub use crate::schedule::Activator;
    pub use crate::worker::{DataflowSummary, Worker};
    pub use crate::Data;
}
