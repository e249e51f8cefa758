//! Generic unary and binary operators built on [`OperatorBuilder`].

use crate::communication::Pact;
use crate::dataflow::capability::Capability;
use crate::dataflow::operator::{InputPort, OperatorBuilder, OutputPort};
use crate::dataflow::stream::Stream;
use crate::order::Timestamp;
use crate::progress::Frontier;
use crate::Data;

impl<T: Timestamp, D: Data> Stream<T, D> {
    /// A general single-input, single-output operator that observes its input
    /// frontier.
    ///
    /// `constructor` receives the operator's initial capability and returns the
    /// logic invoked every scheduling step with the input handle, the output
    /// handle and the current input frontier.
    pub fn unary_frontier<D2, B, L>(&self, pact: Pact<D>, name: &str, constructor: B) -> Stream<T, D2>
    where
        D2: Data,
        B: FnOnce(Capability<T>) -> L,
        L: FnMut(&mut InputPort<T, D>, &mut OutputPort<T, D2>, &Frontier<T>) + 'static,
    {
        let mut builder = OperatorBuilder::new(name, self.scope());
        let mut input = builder.new_input(self, pact);
        let (mut output, stream) = builder.new_output::<D2>();
        builder.build(move |capability| {
            let mut logic = constructor(capability);
            move |frontiers: &[Frontier<T>]| {
                logic(&mut input, &mut output, &frontiers[0]);
            }
        });
        stream
    }

    /// A single-input, single-output operator that does not need frontier
    /// information: `logic` is invoked with each received bundle's capability
    /// and records, and the output handle.
    pub fn unary<D2, L>(&self, pact: Pact<D>, name: &str, mut logic: L) -> Stream<T, D2>
    where
        D2: Data,
        L: FnMut(Capability<T>, Vec<D>, &mut OutputPort<T, D2>) + 'static,
    {
        self.unary_frontier(pact, name, move |_capability| {
            move |input: &mut InputPort<T, D>, output: &mut OutputPort<T, D2>, _frontier: &Frontier<T>| {
                input.for_each(|capability, data| logic(capability, data, output));
            }
        })
    }

    /// A general two-input, single-output operator that observes both input
    /// frontiers.
    pub fn binary_frontier<D2, D3, B, L>(
        &self,
        other: &Stream<T, D2>,
        pact1: Pact<D>,
        pact2: Pact<D2>,
        name: &str,
        constructor: B,
    ) -> Stream<T, D3>
    where
        D2: Data,
        D3: Data,
        B: FnOnce(Capability<T>) -> L,
        L: FnMut(
                &mut InputPort<T, D>,
                &mut InputPort<T, D2>,
                &mut OutputPort<T, D3>,
                &[Frontier<T>],
            ) + 'static,
    {
        let mut builder = OperatorBuilder::new(name, self.scope());
        let mut input1 = builder.new_input(self, pact1);
        let mut input2 = builder.new_input(other, pact2);
        let (mut output, stream) = builder.new_output::<D3>();
        builder.build(move |capability| {
            let mut logic = constructor(capability);
            move |frontiers: &[Frontier<T>]| {
                logic(&mut input1, &mut input2, &mut output, frontiers);
            }
        });
        stream
    }

    /// A sink operator: `logic` is invoked with each received bundle.
    pub fn sink<L>(&self, pact: Pact<D>, name: &str, mut logic: L)
    where
        L: FnMut(&T, Vec<D>) + 'static,
    {
        let mut builder = OperatorBuilder::new(name, self.scope());
        let mut input = builder.new_input(self, pact);
        builder.build(move |_capability| {
            move |_frontiers: &[Frontier<T>]| {
                input.for_each(|capability, data| logic(capability.time(), data));
            }
        });
    }
}
