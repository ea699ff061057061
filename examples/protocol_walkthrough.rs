//! Protocol walkthrough (paper Figures 1 & 2): drive the directory state
//! machine directly and watch a remote read shrink from a 4-message
//! invalidate/writeback transaction to a 2-message Idle fetch once the
//! writer self-invalidates (Figure 1), then time a DSI-style burst of
//! self-invalidations against LTP's spread ones through a network
//! interface and a home protocol engine (Figure 2).
//!
//! ```sh
//! cargo run --release --example protocol_walkthrough
//! ```

use ltp::core::{BlockId, NodeId};
use ltp::dsm::{Directory, Message, MsgKind, NetIface, ProtocolEngine, SystemConfig};
use ltp::sim::Cycle;

fn show(step_name: &str, sends: &[Message]) {
    println!("{step_name}:");
    if sends.is_empty() {
        println!("    (no messages)");
    }
    for m in sends {
        println!("    {} -> {}: {:?}", m.src, m.dst, m.kind);
    }
}

/// Sends one self-invalidation per arrival time through a node's network
/// interface and a home protocol engine; returns the NI's worst backlog and
/// the engine's mean queueing delay.
fn flush(cfg: &SystemConfig, home: NodeId, arrivals: &[Cycle]) -> (Cycle, f64) {
    let mut ni = NetIface::new(cfg.ni_occupancy());
    let mut engine = ProtocolEngine::new(cfg.pipeline_stages());
    for (i, &at) in arrivals.iter().enumerate() {
        ni.depart(at);
        let src = NodeId::new((i % 8) as u16 + 1);
        let msg = Message::new(src, home, BlockId::new(i as u64), MsgKind::SelfInvClean);
        // Arrivals are in time order, so servicing each one as soon as the
        // pipeline frees up is the engine's FIFO schedule.
        engine.enqueue(at, msg);
        let start = engine.next_ready(at);
        engine.dequeue(start);
        engine.begin_service(start, cfg.dir_control());
    }
    (ni.max_backlog(), engine.stats().queueing.mean_or_zero())
}

fn main() {
    let home = NodeId::new(0);
    let writer = NodeId::new(3);
    let reader = NodeId::new(1);
    let block = BlockId::new(42);

    // --- Conventional path (Figure 1, left) --------------------------
    println!("== conventional DSM: read to a dirty remote block ==");
    let mut dir = Directory::new(home);
    let s = dir.process(Message::new(writer, home, block, MsgKind::GetX));
    show("P3 writes (GetX)", &s.sends);
    let s = dir.process(Message::new(reader, home, block, MsgKind::GetS));
    show(
        "P1 reads (GetS) — must invalidate the writer first",
        &s.sends,
    );
    let s = dir.process(Message::new(
        writer,
        home,
        block,
        MsgKind::InvAck {
            had_copy: true,
            dirty_token: Some(1),
        },
    ));
    show(
        "P3's writeback arrives — now the reply can go out",
        &s.sends,
    );
    println!("    => 4 network messages on P1's critical path\n");

    // --- Self-invalidating path (Figure 1, right) --------------------
    println!("== with self-invalidation: the writer relinquished early ==");
    let mut dir = Directory::new(home);
    dir.process(Message::new(writer, home, block, MsgKind::GetX));
    let s = dir.process(Message::new(
        writer,
        home,
        block,
        MsgKind::SelfInvDirty { token: 1 },
    ));
    show("P3 self-invalidates at its predicted last touch", &s.sends);
    assert!(dir.is_idle(block));
    let s = dir.process(Message::new(reader, home, block, MsgKind::GetS));
    show("P1 reads (GetS) — block already Idle at home", &s.sends);
    println!("    => 2 messages; the VerifyCorrect confirms P3's speculation\n");

    // --- Premature speculation (§4 verification) ---------------------
    println!("== premature self-invalidation is caught by the verify mask ==");
    let mut dir = Directory::new(home);
    dir.process(Message::new(writer, home, block, MsgKind::GetX));
    dir.process(Message::new(
        writer,
        home,
        block,
        MsgKind::SelfInvDirty { token: 1 },
    ));
    let s = dir.process(Message::new(writer, home, block, MsgKind::GetX));
    show("P3 comes back before anyone else — premature", &s.sends);
    println!("    => the piggybacked verdict resets the predictor's confidence");

    // --- Burst vs spread self-invalidation (Figure 2) ----------------
    println!("\n== DSI's burst at a sync point vs LTP's spread last touches ==");
    let cfg = SystemConfig::isca00();
    let flushes = 24;
    let burst = vec![Cycle::ZERO; flushes];
    let spread: Vec<Cycle> = (0..flushes as u64).map(|i| Cycle::new(i * 400)).collect();
    for (name, arrivals) in [("DSI burst ", &burst), ("LTP spread", &spread)] {
        let (backlog, queueing) = flush(&cfg, home, arrivals);
        println!(
            "{name}: {flushes} self-invalidations, NI backlog {backlog}, \
             mean directory queueing {queueing:.0} cycles"
        );
    }
    println!("    => spreading keeps self-invalidation off the sync point's critical path");
}
