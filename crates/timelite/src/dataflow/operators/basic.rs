//! Record-at-a-time convenience operators: map, filter, exchange, inspect,
//! concatenation and capture.

use crossbeam_channel::Sender;

use crate::communication::Pact;
use crate::dataflow::operator::OperatorBuilder;
use crate::dataflow::stream::Stream;
use crate::order::Timestamp;
use crate::progress::Frontier;
use crate::Data;

impl<T: Timestamp, D: Data> Stream<T, D> {
    /// Applies `logic` to every record.
    pub fn map<D2: Data, L: FnMut(D) -> D2 + 'static>(&self, mut logic: L) -> Stream<T, D2> {
        self.unary(Pact::Pipeline, "Map", move |cap, data, output| {
            output.session(&cap).give_iterator(data.into_iter().map(&mut logic));
        })
    }

    /// Applies `logic` to every record and flattens the results.
    pub fn flat_map<I, L>(&self, mut logic: L) -> Stream<T, I::Item>
    where
        I: IntoIterator,
        I::Item: Data,
        L: FnMut(D) -> I + 'static,
    {
        self.unary(Pact::Pipeline, "FlatMap", move |cap, data, output| {
            output.session(&cap).give_iterator(data.into_iter().flat_map(&mut logic));
        })
    }

    /// Keeps only records satisfying `predicate`.
    pub fn filter<P: FnMut(&D) -> bool + 'static>(&self, mut predicate: P) -> Stream<T, D> {
        self.unary(Pact::Pipeline, "Filter", move |cap, data, output| {
            output.session(&cap).give_iterator(data.into_iter().filter(|d| predicate(d)));
        })
    }

    /// Repartitions records between workers by `route(record) % peers`.
    pub fn exchange<R: Fn(&D) -> u64 + 'static>(&self, route: R) -> Stream<T, D> {
        self.unary(Pact::exchange(route), "Exchange", move |cap, mut data, output| {
            output.session(&cap).give_vec(&mut data);
        })
    }

    /// Replicates every record to every worker.
    pub fn broadcast(&self) -> Stream<T, D> {
        self.unary(Pact::Broadcast, "Broadcast", move |cap, mut data, output| {
            output.session(&cap).give_vec(&mut data);
        })
    }

    /// Invokes `logic` on every `(time, record)` pair, passing records through.
    pub fn inspect<L: FnMut(&T, &D) + 'static>(&self, mut logic: L) -> Stream<T, D> {
        self.unary(Pact::Pipeline, "Inspect", move |cap, mut data, output| {
            for record in &data {
                logic(cap.time(), record);
            }
            output.session(&cap).give_vec(&mut data);
        })
    }

    /// Invokes `logic` on every `(time, batch)` pair, passing records through.
    pub fn inspect_batch<L: FnMut(&T, &[D]) + 'static>(&self, mut logic: L) -> Stream<T, D> {
        self.unary(Pact::Pipeline, "InspectBatch", move |cap, mut data, output| {
            logic(cap.time(), &data);
            output.session(&cap).give_vec(&mut data);
        })
    }

    /// Merges this stream with `other`.
    pub fn concat(&self, other: &Stream<T, D>) -> Stream<T, D> {
        let mut builder = OperatorBuilder::new("Concat", self.scope());
        let mut input1 = builder.new_input(self, Pact::Pipeline);
        let mut input2 = builder.new_input(other, Pact::Pipeline);
        let (mut output, stream) = builder.new_output::<D>();
        builder.build(move |_capability| {
            move |_frontiers: &[Frontier<T>]| {
                input1.for_each(|cap, mut data| output.session(&cap).give_vec(&mut data));
                input2.for_each(|cap, mut data| output.session(&cap).give_vec(&mut data));
            }
        });
        stream
    }

    /// Sends every received `(time, batch)` to `sender`, for extraction outside
    /// the dataflow (primarily used by tests and examples).
    pub fn capture_into(&self, sender: Sender<(T, Vec<D>)>) {
        self.sink(Pact::Pipeline, "Capture", move |time, data| {
            let _ = sender.send((time.clone(), data));
        });
    }

    /// Counts records per timestamp on each worker, emitting `(time, count)`
    /// records when batches arrive.
    pub fn count_batches(&self) -> Stream<T, (T, usize)> {
        self.unary(Pact::Pipeline, "CountBatches", move |cap, data, output| {
            let time = cap.time().clone();
            output.session(&cap).give((time, data.len()));
        })
    }
}
