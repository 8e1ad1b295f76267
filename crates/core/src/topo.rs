//! Machine-topology grammar: one-line specs for generated machines.
//!
//! The sibling of the workload spec grammar (`nw_workload::Scenario::
//! parse`): where that one describes *what runs*, this one describes
//! *what it runs on*. A spec is a comma-separated key list,
//!
//! ```text
//! mesh=8x8,io=spread:8,rings=4,dirshards=8
//! ```
//!
//! with keys:
//!
//! * `mesh=WxH` (required) — mesh dimensions; `W*H` is the node count,
//!   at most 1024 nodes.
//! * `io=spread[:COUNT]` (default `spread`) — I/O-node count. The I/O
//!   nodes are always spread evenly, disk `d` on node
//!   `d * (nodes / COUNT)`. The default count is the largest divisor of
//!   the node count that is at most half of it (the paper's 2:1
//!   node:disk ratio when the node count is even).
//! * `rings=K` (default 1) — optical rings in the fabric.
//! * `shard=page` (default) — page `vpn` rides ring `vpn % K`, the
//!   only sharding there is; accepted because [`TopoSpec::to_spec`]
//!   prints it.
//! * `dirshards=N` (default 1) — directory shards, at most one per
//!   node; validated and recorded in checkpoints, but storage is no
//!   longer split (one page-indexed directory makes every lookup a
//!   single probe).
//!
//! [`TopoSpec::parse`] only checks syntax; [`TopoSpec::validate`]
//! (also run by [`TopoSpec::to_config`]) applies the full
//! [`MachineConfig::validate`] rules, so every malformed spec is
//! rejected before a machine is built. `mesh=4x2` with all defaults is
//! exactly the paper machine's shape.

use crate::config::{MachineConfig, MachineKind, PrefetchMode};

/// A parsed machine-topology spec (see the module docs for the
/// grammar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoSpec {
    /// Mesh width in nodes.
    pub width: u32,
    /// Mesh height in nodes.
    pub height: u32,
    /// Number of I/O nodes (each hosting one disk + controller).
    pub io_nodes: u32,
    /// Optical rings in the fabric.
    pub rings: usize,
    /// Directory shards per node.
    pub dir_shards: usize,
}

/// Largest divisor of `n` that is at most `n / 2` (1 for `n <= 1`):
/// the default I/O-node count, honouring the `nodes % io_nodes == 0`
/// config rule for odd meshes too.
fn default_io_nodes(n: u32) -> u32 {
    (1..=n / 2).rev().find(|d| n.is_multiple_of(*d)).unwrap_or(1)
}

impl TopoSpec {
    /// Parse a topology spec string. Syntax errors (unknown keys, bad
    /// numbers, missing `mesh=`, placement or sharding words other than
    /// `spread` and `page`) are reported here; semantic errors (a mesh
    /// over the node cap, ...) by [`TopoSpec::validate`].
    pub fn parse(spec: &str) -> Result<TopoSpec, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err("empty topology spec".into());
        }
        let mut dims: Option<(u32, u32)> = None;
        let mut io: Option<Option<u32>> = None;
        let mut rings: Option<usize> = None;
        let mut shard = false;
        let mut dir_shards: Option<usize> = None;
        for tok in spec.split(',') {
            let tok = tok.trim();
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{tok}'"))?;
            let dup = |k: &str| format!("duplicate key '{k}'");
            match key {
                "mesh" => {
                    if dims.is_some() {
                        return Err(dup("mesh"));
                    }
                    let (w, h) = val
                        .split_once('x')
                        .ok_or_else(|| format!("mesh wants WxH, got '{val}'"))?;
                    let w: u32 = w.parse().map_err(|_| format!("bad mesh width '{w}'"))?;
                    let h: u32 = h.parse().map_err(|_| format!("bad mesh height '{h}'"))?;
                    dims = Some((w, h));
                }
                "io" => {
                    if io.is_some() {
                        return Err(dup("io"));
                    }
                    let (policy, count) = match val.split_once(':') {
                        Some((p, c)) => (p, Some(c)),
                        None => (val, None),
                    };
                    if policy != "spread" {
                        return Err(format!(
                            "unknown io placement '{policy}' (only spread is supported)"
                        ));
                    }
                    let count = count.map(|c| c.parse().map_err(|_| format!("bad io count '{c}'")));
                    io = Some(count.transpose()?);
                }
                "rings" => {
                    if rings.is_some() {
                        return Err(dup("rings"));
                    }
                    rings = Some(val.parse().map_err(|_| format!("bad ring count '{val}'"))?);
                }
                "shard" => {
                    if shard {
                        return Err(dup("shard"));
                    }
                    if val != "page" {
                        return Err(format!(
                            "unknown shard policy '{val}' (only page is supported)"
                        ));
                    }
                    shard = true;
                }
                "dirshards" => {
                    if dir_shards.is_some() {
                        return Err(dup("dirshards"));
                    }
                    dir_shards = Some(
                        val.parse()
                            .map_err(|_| format!("bad dirshards count '{val}'"))?,
                    );
                }
                other => {
                    return Err(format!(
                        "unknown key '{other}' \
                         (want mesh, io, rings, shard, or dirshards)"
                    ))
                }
            }
        }
        let (width, height) = dims.ok_or("topology spec needs mesh=WxH")?;
        let nodes = width.saturating_mul(height);
        Ok(TopoSpec {
            width,
            height,
            io_nodes: io.flatten().unwrap_or_else(|| default_io_nodes(nodes)),
            rings: rings.unwrap_or(1),
            dir_shards: dir_shards.unwrap_or(1),
        })
    }

    /// Total node count.
    pub fn nodes(&self) -> u32 {
        self.width * self.height
    }

    /// Canonical spec string (parses back to `self`).
    pub fn to_spec(&self) -> String {
        format!(
            "mesh={}x{},io=spread:{},rings={},shard=page,dirshards={}",
            self.width, self.height, self.io_nodes, self.rings, self.dir_shards
        )
    }

    /// Semantic validation, by way of the full machine-config rules
    /// (mesh area vs node cap, I/O-node and shard counts).
    pub fn validate(&self) -> Result<(), String> {
        if self.width == 0 || self.height == 0 {
            return Err(format!("mesh {}x{} has no nodes", self.width, self.height));
        }
        if self.width as u64 * self.height as u64 > 1024 {
            return Err(format!(
                "mesh {}x{} exceeds the 1024-node cap",
                self.width, self.height
            ));
        }
        self.to_config(MachineKind::NwCache, PrefetchMode::Naive, 1.0)
            .validate()
    }

    /// Materialize the spec as a [`MachineConfig`]: the scaled paper
    /// machine reshaped to this topology, with one ring channel per
    /// node on each ring. Call [`MachineConfig::validate`] (or
    /// [`TopoSpec::validate`] first) before building a machine.
    pub fn to_config(&self, kind: MachineKind, prefetch: PrefetchMode, scale: f64) -> MachineConfig {
        let mut cfg = MachineConfig::scaled_paper(kind, prefetch, scale);
        cfg.nodes = self.nodes();
        cfg.io_nodes = self.io_nodes;
        cfg.mesh_width = self.width;
        cfg.mesh_height = self.height;
        cfg.ring_count = self.rings;
        cfg.dir_shards = self.dir_shards;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shape_parses_with_defaults() {
        let t = TopoSpec::parse("mesh=4x2").unwrap();
        assert_eq!(t.width, 4);
        assert_eq!(t.height, 2);
        assert_eq!(t.io_nodes, 4);
        assert_eq!(t.rings, 1);
        assert_eq!(t.dir_shards, 1);
        assert!(t.validate().is_ok());
        let cfg = t.to_config(MachineKind::NwCache, PrefetchMode::Naive, 1.0);
        assert_eq!(cfg.nodes, 8);
        assert_eq!(cfg.io_nodes, 4);
        assert_eq!(cfg.mesh_dims(), (4, 2));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn full_spec_round_trips() {
        let t = TopoSpec::parse("mesh=16x16,io=spread:4,rings=4,shard=page,dirshards=8").unwrap();
        assert_eq!(t.nodes(), 256);
        assert_eq!(t.io_nodes, 4);
        assert_eq!(t.to_spec(), "mesh=16x16,io=spread:4,rings=4,shard=page,dirshards=8");
        assert!(t.validate().is_ok());
        let again = TopoSpec::parse(&t.to_spec()).unwrap();
        assert_eq!(t, again);
    }

    #[test]
    fn io_count_override_and_row_placement() {
        let t = TopoSpec::parse("mesh=8x8,io=spread:8").unwrap();
        assert_eq!(t.io_nodes, 8);
        assert!(t.validate().is_ok());
        let cfg = t.to_config(MachineKind::NwCache, PrefetchMode::Naive, 1.0);
        assert_eq!(
            (0..8).map(|d| cfg.try_io_node_of_disk(d).unwrap()).collect::<Vec<_>>(),
            (0..8).map(|d| d * 8).collect::<Vec<_>>()
        );
        // The removed edge-row placement is a parse error naming what
        // remains.
        let err = TopoSpec::parse("mesh=8x8,io=row:8").unwrap_err();
        assert!(err.contains("only spread"), "{err}");
    }

    #[test]
    fn default_io_count_handles_odd_meshes() {
        // 3x3 = 9 nodes: nodes/2 = 4 does not divide 9; the largest
        // divisor <= 4 is 3.
        let t = TopoSpec::parse("mesh=3x3").unwrap();
        assert_eq!(t.io_nodes, 3);
        assert!(t.validate().is_ok());
        // A 1x1 mesh still gets one I/O node.
        let t = TopoSpec::parse("mesh=1x1").unwrap();
        assert_eq!(t.io_nodes, 1);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn syntax_errors_are_reported() {
        for bad in [
            "",
            "mesh",
            "mesh=8",
            "mesh=8x",
            "mesh=axb",
            "io=spread",                    // missing mesh
            "mesh=4x2,mesh=2x4",            // duplicate
            "mesh=4x2,io=ring",             // unknown placement
            "mesh=8x8,io=corners",          // removed placement
            "mesh=8x8,io=row",              // removed placement
            "mesh=8x8,io=corners:4",        // removed placement
            "mesh=8x8,rings=2,shard=region", // removed sharding
            "mesh=4x2,shard=page,shard=page", // duplicate
            "mesh=4x2,io=spread:x",         // bad count
            "mesh=4x2,rings=zero",          // bad number
            "mesh=4x2,shard=hash",          // unknown policy
            "mesh=4x2,dirshards=-1",        // bad number
            "mesh=4x2,banana=3",            // unknown key
            "mesh=4x2;rings=2",             // wrong separator
        ] {
            assert!(TopoSpec::parse(bad).is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn semantic_errors_are_rejected_by_validate() {
        for bad in [
            "mesh=0x4",               // no nodes
            "mesh=64x64",             // 4096 > 1024-node cap
            "mesh=4x2,io=spread:3",   // nodes % io_nodes != 0
            "mesh=4x2,io=spread:16",  // more I/O nodes than nodes
            "mesh=4x2,rings=0",       // zero rings
            "mesh=4x2,dirshards=0",   // zero shards
            "mesh=4x2,dirshards=9",   // more shards than nodes
            "mesh=4x2,dirshards=18446744073709551615",
        ] {
            let t = TopoSpec::parse(bad).expect(bad);
            assert!(t.validate().is_err(), "validated '{bad}'");
        }
    }

    #[test]
    fn big_meshes_validate_up_to_the_cap() {
        for spec in ["mesh=8x8,rings=2,dirshards=2", "mesh=16x16,rings=4", "mesh=32x32,rings=8,dirshards=32"] {
            let t = TopoSpec::parse(spec).unwrap();
            assert!(t.validate().is_ok(), "{spec}");
        }
    }
}
