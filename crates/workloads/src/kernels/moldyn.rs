//! `moldyn` — CHARMM-like molecular dynamics (paper input: 2048 particles,
//! 60 iters).
//!
//! Paper §5.1: *"Moldyn includes a reduction phase in which the same data
//! are read and modified multiple times in a small loop. Multiple references
//! by the same PC in the reduction phase reduce Last-PC's prediction
//! accuracy to less than 3%. Because the reduction phase results in
//! migratory sharing patterns, DSI only predicts 40% of the invalidations
//! correctly."* §5.4 adds that the *"high read sharing degree in moldyn
//! overlaps most of the invalidations"*, so self-invalidation barely moves
//! execution time.
//!
//! Structure: coordinate blocks are written ×2 by their owner and read ×2 by
//! `READ_DEGREE` consumers (high sharing degree, DSI-friendly
//! producer-consumer); force blocks migrate between neighbour pairs with a
//! read-modify ×3 small loop (`{FR,FW} ×3` — the Last-PC killer). Generous
//! think time models the force computation that hides invalidation latency.

use super::{read_n, write_n};
use crate::program::{LoopedScript, Op, Program};

/// PC of the coordinate update store.
pub const PC_COORD_STORE: u32 = 0x4ad3c;
/// PC of the coordinate gather load.
pub const PC_COORD_LOAD: u32 = 0x4bd9c;
/// PC of the reduction load (the small loop's read).
pub const PC_FORCE_LOAD: u32 = 0x4e464;
/// PC of the reduction store (the small loop's write).
///
/// Chosen so `(PC_FORCE_LOAD + PC_FORCE_STORE) * 2` is not ≡ 0 (mod 2^13):
/// the default 13-bit signature must not alias the reduction loop's own
/// prefixes (an instance of the Figure 7 width/aliasing trade-off that the
/// `reports/specs/fig7-signature.json` campaign explores deliberately).
pub const PC_FORCE_STORE: u32 = 0x48ba4;

/// Coordinate blocks owned per node.
const COORD_BLOCKS: u64 = 3;
/// Force blocks migrating between p and p+1.
const FORCE_BLOCKS: u64 = 8;
/// How many nodes read each coordinate block (the "high read sharing
/// degree").
const READ_DEGREE: u64 = 2;
/// Read-modify repetitions in the reduction loop.
const REDUCTION_TRIPS: usize = 3;
const NODE_SPAN: u64 = COORD_BLOCKS + FORCE_BLOCKS;
/// Default iteration count.
pub const DEFAULT_ITERS: u32 = 20;

fn coord_block(node: u64, j: u64) -> u64 {
    node * NODE_SPAN + j
}

fn force_block(node: u64, j: u64) -> u64 {
    node * NODE_SPAN + COORD_BLOCKS + j
}

/// Builds the per-node programs.
pub fn programs(nodes: u16, iterations: u32) -> Vec<Box<dyn Program>> {
    let n = u64::from(nodes);
    (0..nodes)
        .map(|p| {
            let pu = u64::from(p);
            let pred = (pu + n - 1) % n;
            let mut body = Vec::new();

            // Position update (owner writes its coordinates).
            for j in 0..COORD_BLOCKS {
                write_n(&mut body, PC_COORD_STORE, coord_block(pu, j), 2);
            }
            // Long force computation: this think time is what overlaps the
            // coherence activity (paper §5.4) — it must dwarf the total
            // remote-miss stall per iteration for self-invalidation to be
            // execution-time-neutral, as the paper observes.
            body.push(Op::Think(45_000));
            body.push(Op::Barrier(0));

            // Gather neighbour coordinates (high read degree).
            for d in 1..=READ_DEGREE {
                let nb = (pu + d) % n;
                for j in 0..COORD_BLOCKS {
                    read_n(&mut body, PC_COORD_LOAD, coord_block(nb, j), 2);
                    body.push(Op::Think(40));
                }
            }

            // Reduction phase A: accumulate into my force blocks — the
            // small read-modify loop.
            for j in 0..FORCE_BLOCKS {
                for _ in 0..REDUCTION_TRIPS {
                    body.push(super::read(PC_FORCE_LOAD, force_block(pu, j)));
                    body.push(super::write(PC_FORCE_STORE, force_block(pu, j)));
                }
                body.push(Op::Think(25));
            }
            body.push(Op::Barrier(1));

            // Reduction phase B: the predecessor's force blocks migrate to
            // me and get the same treatment.
            for j in 0..FORCE_BLOCKS {
                for _ in 0..REDUCTION_TRIPS {
                    body.push(super::read(PC_FORCE_LOAD, force_block(pred, j)));
                    body.push(super::write(PC_FORCE_STORE, force_block(pred, j)));
                }
                body.push(Op::Think(25));
            }
            body.push(Op::Think(18_000));
            body.push(Op::Barrier(2));

            Box::new(LoopedScript::new(
                vec![Op::Think(u64::from(p) * 13)],
                body,
                iterations,
            )) as Box<dyn Program>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::collect_ops;

    #[test]
    fn reduction_loop_repeats_the_same_pc_pair() {
        let mut progs = programs(2, 1);
        let ops = collect_ops(progs[0].as_mut());
        let fb = force_block(0, 0);
        let touches: Vec<u32> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Read { pc, block } | Op::Write { pc, block } if block.index() == fb => {
                    Some(pc.value())
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            touches,
            vec![
                PC_FORCE_LOAD,
                PC_FORCE_STORE,
                PC_FORCE_LOAD,
                PC_FORCE_STORE,
                PC_FORCE_LOAD,
                PC_FORCE_STORE
            ]
        );
    }

    #[test]
    fn force_blocks_migrate_between_two_nodes() {
        let nodes = 4u16;
        let mut progs = programs(nodes, 1);
        let mut writers: std::collections::HashMap<u64, std::collections::HashSet<usize>> =
            std::collections::HashMap::new();
        for (i, p) in progs.iter_mut().enumerate() {
            for op in collect_ops(p.as_mut()) {
                if let Op::Write { pc, block } = op {
                    if pc.value() == PC_FORCE_STORE {
                        writers.entry(block.index()).or_default().insert(i);
                    }
                }
            }
        }
        for (b, w) in writers {
            assert_eq!(w.len(), 2, "force block {b}");
        }
    }

    #[test]
    fn think_time_dominates_op_stream() {
        // §5.4: computation must overlap invalidations, so think cycles
        // should dwarf the per-iteration memory-op count.
        let mut progs = programs(2, 1);
        let ops = collect_ops(progs[0].as_mut());
        let think: u64 = ops
            .iter()
            .filter_map(|op| match op {
                Op::Think(c) => Some(*c),
                _ => None,
            })
            .sum();
        let mem = ops
            .iter()
            .filter(|op| matches!(op, Op::Read { .. } | Op::Write { .. }))
            .count() as u64;
        assert!(think > mem * 40, "think {think} vs {mem} memory ops");
    }
}
