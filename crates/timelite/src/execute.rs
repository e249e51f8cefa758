//! Spawning multi-worker computations: threads in this process, or this
//! process's share of a multi-process cluster.

use std::sync::Arc;
use std::thread;

use crate::communication::{allocate, cluster_allocate, Allocator, ClusterGuard, ClusterSpec};
use crate::worker::Worker;

/// Configuration of a `timelite` computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Config {
    /// A single worker thread in this process.
    Thread,
    /// `workers` worker threads in this process.
    Process(usize),
    /// This process's share of a multi-process cluster: `workers_per_process`
    /// worker threads per process, all processes listed (in process-index
    /// order) in `addresses`, this process being `addresses[process]`.
    ///
    /// Worker indices are global: worker `w` of process `p` is worker
    /// `p * workers_per_process + w` of `addresses.len() *
    /// workers_per_process` peers, so dataflows built against
    /// [`Worker::index`]/[`Worker::peers`] are oblivious to process
    /// boundaries. [`execute`] blocks in the bootstrap handshake until every
    /// process of the cluster has connected.
    Cluster {
        /// This process's index in `0..addresses.len()`.
        process: usize,
        /// Worker threads per process (identical across processes).
        workers_per_process: usize,
        /// One listen address per process, identical on every process.
        addresses: Vec<String>,
    },
}

impl Config {
    /// A configuration with `workers` worker threads in this process.
    pub fn process(workers: usize) -> Self {
        assert!(workers > 0, "at least one worker is required");
        Config::Process(workers)
    }

    /// A single-threaded configuration.
    pub fn thread() -> Self {
        Config::Thread
    }

    /// This process's share of a multi-process cluster over TCP.
    pub fn cluster(process: usize, workers_per_process: usize, addresses: Vec<String>) -> Self {
        Config::Cluster { process, workers_per_process, addresses }
    }

    /// The number of worker threads this process will spawn.
    pub fn local_workers(&self) -> usize {
        match self {
            Config::Thread => 1,
            Config::Process(workers) => *workers,
            Config::Cluster { workers_per_process, .. } => *workers_per_process,
        }
    }

    /// The total number of workers across all processes of the computation.
    pub fn total_workers(&self) -> usize {
        match self {
            Config::Thread => 1,
            Config::Process(workers) => *workers,
            Config::Cluster { workers_per_process, addresses, .. } => {
                workers_per_process * addresses.len()
            }
        }
    }

    fn allocators(&self) -> std::io::Result<(Vec<Allocator>, ClusterGuard)> {
        match self {
            Config::Thread => Ok((allocate(1), ClusterGuard::default())),
            Config::Process(workers) => {
                assert!(*workers > 0, "at least one worker is required");
                Ok((allocate(*workers), ClusterGuard::default()))
            }
            Config::Cluster { process, workers_per_process, addresses } => {
                cluster_allocate(&ClusterSpec {
                    process: *process,
                    workers_per_process: *workers_per_process,
                    addresses: addresses.clone(),
                })
            }
        }
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::thread()
    }
}

/// Executes `func` on this process's worker threads and returns their results
/// in worker-index order (the local workers only, under
/// [`Config::Cluster`]).
///
/// Each worker runs `func` to construct (identical) dataflows and drive its
/// inputs; when `func` returns, the worker continues stepping until all of its
/// dataflows have completed (all inputs closed, all messages drained). Under
/// [`Config::Cluster`] the call first blocks in the bootstrap rendezvous until
/// every process of the cluster is connected.
pub fn execute<F, R>(config: Config, func: F) -> Vec<R>
where
    F: Fn(&mut Worker) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    try_execute(config, func)
        .unwrap_or_else(|error| panic!("cluster bootstrap failed: {error}"))
}

/// Like [`execute`], but surfaces a failed cluster bootstrap — an address that
/// cannot be bound, a peer that never connects, a broken handshake — as a
/// clean [`std::io::Error`] instead of panicking, so embedding applications
/// can report startup failures without unwinding.
pub fn try_execute<F, R>(config: Config, func: F) -> std::io::Result<Vec<R>>
where
    F: Fn(&mut Worker) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    let func = Arc::new(func);
    let (allocators, guard) = config.allocators()?;
    let handles: Vec<_> = allocators
        .into_iter()
        .map(|alloc| {
            let func = Arc::clone(&func);
            thread::Builder::new()
                .name(format!("timelite-worker-{}", alloc.index()))
                .spawn(move || {
                    let mut worker = Worker::new(alloc);
                    let result = func(&mut worker);
                    worker.step_until_complete();
                    result
                })
                .expect("failed to spawn worker thread")
        })
        .collect();
    // A worker panic (an application bug, or the step loop surfacing a
    // stranding peer disconnect) is re-raised with its original payload so
    // the message survives the thread boundary.
    let results: Vec<R> = handles
        .into_iter()
        .map(|handle| handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
        .collect();
    // Cluster mode: end the connections in order — a process that exited with
    // a peer's frames unread would reset the connection under its own final
    // progress updates and leave that peer's tracker waiting forever.
    guard.close();
    Ok(results)
}

/// Executes `func` on a single worker thread (useful for examples and tests).
pub fn execute_single<F, R>(func: F) -> R
where
    F: Fn(&mut Worker) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    execute(Config::thread(), func)
        .pop()
        .expect("single worker execution must return one result")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_are_indexed() {
        let mut indices = execute(Config::process(3), |worker| (worker.index(), worker.peers()));
        indices.sort();
        assert_eq!(indices, vec![(0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn single_execution_returns_value() {
        assert_eq!(execute_single(|worker| worker.peers()), 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Config::process(0);
    }

    #[test]
    fn worker_counts_are_derived_from_the_variant() {
        assert_eq!(Config::thread().local_workers(), 1);
        assert_eq!(Config::process(4).total_workers(), 4);
        let cluster = Config::cluster(1, 2, vec!["a:1".to_string(), "b:2".to_string()]);
        assert_eq!(cluster.local_workers(), 2);
        assert_eq!(cluster.total_workers(), 4);
    }
}
