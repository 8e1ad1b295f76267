//! Synthetic parametric workload — not part of the paper's Table 2
//! suite, but invaluable for probing the machine: a dial-controlled
//! SPMD kernel with a configurable working set, access stride, write
//! fraction and compute density. The `reuse` experiment uses it to
//! measure victim-cache hit rate as a function of how far the working
//! set overflows memory + ring ("only Gauss and MG have working sets
//! that can (almost) fit in the combined memory/NWCache size").

use crate::layout::{block_partition, Allocator, Vec1};
use crate::{next_run, Action, ActionStream, AppBuild};
use nw_sim::Pcg32;

/// Parameters of the synthetic kernel.
#[derive(Debug, Clone, Copy)]
pub struct SynthConfig {
    /// Shared data footprint in bytes (page-rounded).
    pub data_bytes: u64,
    /// Element access stride in cache lines (1 = sequential sweep).
    pub stride_lines: u64,
    /// Fraction of accesses that are writes, in `[0, 1]`.
    pub write_frac: f64,
    /// Fraction of accesses redirected to uniformly random lines
    /// (0 = pure sweep; 1 = pure random).
    pub random_frac: f64,
    /// Full sweeps over the working set.
    pub iters: u32,
    /// Compute cycles charged per accessed line.
    pub compute_per_line: u32,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            data_bytes: 2 * 1024 * 1024,
            stride_lines: 1,
            write_frac: 0.5,
            random_frac: 0.0,
            iters: 4,
            compute_per_line: 40,
        }
    }
}

/// Build the synthetic kernel for `nprocs` processors.
pub fn build(cfg: SynthConfig, nprocs: usize, seed: u64) -> AppBuild {
    assert!(nprocs > 0);
    assert!((0.0..=1.0).contains(&cfg.write_frac));
    assert!((0.0..=1.0).contains(&cfg.random_frac));
    assert!(cfg.stride_lines > 0);
    let mut alloc = Allocator::new();
    let lines_total = cfg.data_bytes.div_ceil(64);
    let arr = Vec1::alloc(&mut alloc, lines_total, 64); // one elem per line
    let data_bytes = alloc.allocated();

    let streams = (0..nprocs)
        .map(|p| {
            let (l0, l1) = block_partition(lines_total, nprocs, p);
            let steps = (l1 - l0).div_ceil(cfg.stride_lines);
            // Each sweep draws from its own stream, split off in order.
            let mut rng = Pcg32::new(seed, 0x517 + p as u64);
            let mut local_rng = rng.split(0);
            let (mut it, mut done) = (0u32, 0u64);
            ActionStream::generate(move |out| {
                if it == cfg.iters {
                    return false;
                }
                for j in next_run(&mut done, steps) {
                    let l = l0 + j * cfg.stride_lines;
                    let target = if local_rng.gen_bool(cfg.random_frac) {
                        local_rng.gen_range(0, lines_total)
                    } else {
                        l
                    };
                    let line = arr.line_of(target);
                    let access = if local_rng.gen_bool(cfg.write_frac) {
                        Action::Write(line)
                    } else {
                        Action::Read(line)
                    };
                    out.extend([access, Action::Compute(cfg.compute_per_line)]);
                }
                if done == steps {
                    out.push(Action::Barrier(it));
                    it += 1;
                    local_rng = rng.split(it as u64);
                    done = 0;
                }
                true
            })
        })
        .collect();

    AppBuild {
        name: "synth",
        data_bytes,
        streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_is_page_rounded() {
        let b = build(
            SynthConfig {
                data_bytes: 5000,
                ..Default::default()
            },
            2,
            0,
        );
        assert_eq!(b.data_bytes, 8192);
    }

    #[test]
    fn pure_sweep_is_sequential() {
        let cfg = SynthConfig {
            data_bytes: 64 * 64, // 64 lines
            write_frac: 0.0,
            random_frac: 0.0,
            iters: 1,
            ..Default::default()
        };
        let b = build(cfg, 1, 0);
        let mut last = None;
        for a in b.streams.into_iter().next().unwrap() {
            if let Action::Read(l) = a {
                if let Some(prev) = last {
                    assert_eq!(l, prev + 1, "sweep must be sequential");
                }
                last = Some(l);
            }
        }
        assert!(last.is_some());
    }

    #[test]
    fn write_fraction_respected() {
        let cfg = SynthConfig {
            data_bytes: 1024 * 1024,
            write_frac: 0.25,
            iters: 2,
            ..Default::default()
        };
        let b = build(cfg, 1, 7);
        let (mut reads, mut writes) = (0u64, 0u64);
        for a in b.streams.into_iter().next().unwrap() {
            match a {
                Action::Read(_) => reads += 1,
                Action::Write(_) => writes += 1,
                _ => {}
            }
        }
        let frac = writes as f64 / (reads + writes) as f64;
        assert!((frac - 0.25).abs() < 0.03, "write fraction {frac}");
    }

    #[test]
    fn random_accesses_scatter() {
        let cfg = SynthConfig {
            data_bytes: 1024 * 1024,
            random_frac: 1.0,
            iters: 1,
            ..Default::default()
        };
        let b = build(cfg, 1, 3);
        let mut sequential_pairs = 0;
        let mut total_pairs = 0;
        let mut last = None;
        for a in b.streams.into_iter().next().unwrap() {
            if let Action::Read(l) | Action::Write(l) = a {
                if let Some(prev) = last {
                    total_pairs += 1;
                    if l == prev + 1 {
                        sequential_pairs += 1;
                    }
                }
                last = Some(l);
            }
        }
        assert!(total_pairs > 100);
        assert!(
            sequential_pairs * 20 < total_pairs,
            "{sequential_pairs}/{total_pairs} pairs sequential under pure-random config"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SynthConfig::default();
        let a: Vec<Action> = build(cfg, 2, 9).streams.remove(0).take(1000).collect();
        let b: Vec<Action> = build(cfg, 2, 9).streams.remove(0).take(1000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn stride_skips_lines() {
        let cfg = SynthConfig {
            data_bytes: 64 * 64,
            stride_lines: 4,
            write_frac: 0.0,
            iters: 1,
            ..Default::default()
        };
        let b = build(cfg, 1, 0);
        let touched: Vec<u64> = b
            .streams
            .into_iter()
            .next()
            .unwrap()
            .filter_map(|a| match a {
                Action::Read(l) => Some(l),
                _ => None,
            })
            .collect();
        assert_eq!(touched.len(), 16);
        assert!(touched.windows(2).all(|w| w[1] == w[0] + 4));
    }
}
