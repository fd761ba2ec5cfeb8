//! Contract tests of the simulator's agent-facing API: panics on misuse,
//! timing guarantees, and complete engine counts.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::{
    Agent, Context, DeliveryMeta, NetConfig, Packet, PacketBody, PacketId, SeqNo, SimDuration,
    SimTime, Simulator, TimerToken,
};
use obs::PacketClass;
use topology::{MulticastTree, NodeId, TreeBuilder};

fn tree() -> MulticastTree {
    let mut b = TreeBuilder::new();
    let r = b.add_router(b.root());
    b.add_receiver(r);
    b.add_receiver(r);
    b.build().unwrap()
}

struct SubcastAtStart(NodeId);
impl Agent for SubcastAtStart {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.subcast(
            self.0,
            PacketBody::Data {
                id: PacketId {
                    source: ctx.me(),
                    seq: SeqNo(0),
                },
            },
        );
    }
    fn on_packet(&mut self, _: &mut Context<'_>, _: &Packet, _: &DeliveryMeta) {}
    fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {}
}

#[test]
#[should_panic(expected = "subcast requires router assistance")]
fn subcast_without_router_assist_panics() {
    let mut sim = Simulator::new(tree(), NetConfig::default());
    sim.attach_agent(NodeId::ROOT, Box::new(SubcastAtStart(NodeId(1))));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
}

/// The engine counts every link crossing by class and cast, every send at
/// the node that sent it, and every delivery to an attached agent: one
/// flood over a 4-node tree is one send, three crossings, and one copy
/// per listening node, each from its parent.
#[test]
fn engine_counts_complete_causal_chains() {
    struct Sender;
    impl Agent for Sender {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.multicast(PacketBody::Data {
                id: PacketId {
                    source: ctx.me(),
                    seq: SeqNo(0),
                },
            });
        }
        fn on_packet(&mut self, _: &mut Context<'_>, _: &Packet, _: &DeliveryMeta) {}
        fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {}
    }
    /// Records `(node, previous hop)` of every copy it receives.
    struct Sink(Rc<RefCell<Vec<(NodeId, NodeId)>>>);
    impl Agent for Sink {
        fn on_packet(&mut self, ctx: &mut Context<'_>, _: &Packet, meta: &DeliveryMeta) {
            self.0.borrow_mut().push((ctx.me(), meta.prev_hop));
        }
        fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {}
    }
    let run = |listeners: &[NodeId]| {
        let heard = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(tree(), NetConfig::default());
        sim.attach_agent(NodeId::ROOT, Box::new(Sender));
        for &n in listeners {
            sim.attach_agent(n, Box::new(Sink(Rc::clone(&heard))));
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let mut heard = heard.take();
        heard.sort();
        (sim.telemetry(), sim.sends().clone(), heard)
    };

    let (engine, sends, _) = run(&[NodeId(2), NodeId(3)]);
    let crossed: u64 = engine.crossings.iter().flatten().sum();
    assert_eq!(crossed, engine.transmits, "every transmit is one crossing");
    // A 4-node tree has 3 links; the flood crosses each once.
    assert_eq!(engine.transmits, 3);
    assert_eq!(engine.class_crossings(PacketClass::Data), 3);
    assert_eq!(sends.by(NodeId::ROOT, PacketClass::Data), 1);
    for class in PacketClass::ALL {
        let expected = u64::from(class == PacketClass::Data);
        assert_eq!(sends.total(class), expected, "{class:?} sends");
    }
    assert_eq!(engine.deliveries, 2);

    // With the router listening too, every node hears exactly one copy,
    // from its parent.
    let (engine, _, heard) = run(&[NodeId(1), NodeId(2), NodeId(3)]);
    assert_eq!(
        heard,
        [
            (NodeId(1), NodeId::ROOT),
            (NodeId(2), NodeId(1)),
            (NodeId(3), NodeId(1))
        ]
    );
    assert_eq!(engine.deliveries, 3);
    assert_eq!(engine.transmits, 3);
}

/// Timers always fire at exactly `now + delay`, and the event tracer
/// observes recovery traffic only when filtered.
#[test]
fn timer_precision_contract() {
    struct Timed {
        fired_at: Rc<RefCell<Vec<SimTime>>>,
    }
    impl Agent for Timed {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_micros(1_234_567));
        }
        fn on_packet(&mut self, _: &mut Context<'_>, _: &Packet, _: &DeliveryMeta) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _: TimerToken) {
            self.fired_at.borrow_mut().push(ctx.now());
        }
    }
    let fired = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulator::new(tree(), NetConfig::default());
    sim.attach_agent(
        NodeId(2),
        Box::new(Timed {
            fired_at: Rc::clone(&fired),
        }),
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
    assert_eq!(
        *fired.borrow(),
        vec![SimTime::ZERO + SimDuration::from_micros(1_234_567)]
    );
}
