//! Progress tracking: change batches, frontiers and the pointstamp tracker.

pub mod change_batch;
pub mod frontier;
pub mod tracker;

pub use change_batch::ChangeBatch;
pub use frontier::Frontier;
pub use tracker::{EdgeDesc, NodeDesc, Port, ProgressUpdates, Tracker};
