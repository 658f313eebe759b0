//! Design sources: the one path every surface — the CLI and the server —
//! takes from a design file to its flattened graph, through an optional
//! directory of `seqavf-graph/2` snapshots.

use std::cell::OnceCell;
use std::io;
use std::path::Path;

use seqavf_obs::Collector;

use crate::error::ExlifError;
use crate::graph::Netlist;
use crate::scc::{find_loops_traced, LoopAnalysis};
use crate::{flatten, snapshot, verilog, Fnv1a64};

/// A design file's text and frontend: `.v`/`.sv` files are structural
/// Verilog, anything else EXLIF.
#[derive(Debug, Clone)]
pub struct DesignSource {
    text: String,
    verilog: bool,
    key: OnceCell<u64>,
}

impl DesignSource {
    /// Reads a design file, choosing the frontend by extension.
    pub fn read(path: &str) -> io::Result<DesignSource> {
        Ok(DesignSource {
            text: std::fs::read_to_string(path)?,
            verilog: path.ends_with(".v") || path.ends_with(".sv"),
            key: OnceCell::new(),
        })
    }

    /// FNV-1a over the frontend tag, a zero byte and the source text,
    /// hashed at most once per source. It names the source's snapshot
    /// file and is the server's `design_ref`, so the CLI and the server
    /// address the same snapshot for the same source.
    pub fn key(&self) -> u64 {
        *self.key.get_or_init(|| {
            let mut h = Fnv1a64::new();
            h.update(if self.verilog { b"verilog" } else { b"exlif" });
            h.update(&[0]);
            h.update(self.text.as_bytes());
            h.finish()
        })
    }

    /// Loads the flattened graph.
    ///
    /// With a `snapshot_dir`, an intact `graph-<key>.bin` there is
    /// restored with its loop analysis (`frontend.snapshot.hit`); a
    /// missing, truncated or corrupted one degrades to a parse that also
    /// runs the loop analysis and writes the snapshot back
    /// (`frontend.snapshot.miss`). Without a directory the source is
    /// parsed and no loop analysis runs (`None`): callers that need one
    /// run [`find_loops_traced`] themselves.
    pub fn load(
        &self,
        snapshot_dir: Option<&Path>,
        obs: &Collector,
    ) -> Result<(Netlist, Option<LoopAnalysis>), ExlifError> {
        let snap_path = snapshot_dir.map(|dir| dir.join(format!("graph-{:016x}.bin", self.key())));
        if let Some((nl, loops)) = snap_path
            .as_ref()
            .and_then(|p| snapshot::load(&std::fs::read(p).ok()?).ok())
        {
            obs.count("frontend.snapshot.hit", 1);
            return Ok((nl, Some(loops)));
        }
        let nl = if self.verilog {
            verilog::parse_netlist_traced(&self.text, obs)?
        } else {
            flatten::parse_netlist_traced(&self.text, obs)?
        };
        let Some(p) = snap_path else {
            return Ok((nl, None));
        };
        obs.count("frontend.snapshot.miss", 1);
        let loops = find_loops_traced(&nl, obs);
        // Best-effort store: a failed write only costs the next run a
        // recompute, never the current one its answer.
        let _ = snapshot::write_atomic(&p, &snapshot::save(&nl, &loops));
        Ok((nl, Some(loops)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str =
        ".design d\n.fub f\n.input i\n.flop q i\n.gate not g q\n.output o g\n.endfub\n.end\n";

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("seqavf-source-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write(path: &Path, text: &str) -> String {
        std::fs::write(path, text).unwrap();
        path.to_str().unwrap().to_owned()
    }

    /// Existing `graph-<key>.bin` files and `design_ref` tokens were named
    /// with these values; the key must never change for the same source.
    #[test]
    fn keys_are_pinned_and_follow_the_extension() {
        let dir = scratch("keys");
        let text = ".design d\n.end\n";
        let exlif = DesignSource::read(&write(&dir.join("d.exlif"), text)).unwrap();
        let v = DesignSource::read(&write(&dir.join("d.v"), text)).unwrap();
        let sv = DesignSource::read(&write(&dir.join("d.sv"), text)).unwrap();
        assert_eq!(exlif.key(), 0x6a4f_3fe6_5f6e_af62);
        assert_eq!(v.key(), 0x40e5_63b7_5ad9_9484);
        assert_eq!(sv.key(), v.key());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_misses_then_hits_and_loops_run_only_with_a_directory() {
        let dir = scratch("tier");
        let src = DesignSource::read(&write(&dir.join("d.exlif"), TEXT)).unwrap();
        let obs = Collector::new();
        let (plain, loops) = src.load(None, &obs).unwrap();
        assert!(loops.is_none());
        assert!(obs.report().span("netlist.scc").is_none());
        assert_eq!(obs.report().counter("frontend.snapshot.miss"), None);

        let snaps = dir.join("graphs");
        let (cold, loops) = src.load(Some(&snaps), &obs).unwrap();
        assert!(loops.is_some());
        assert_eq!(obs.report().counter("frontend.snapshot.miss"), Some(1));
        let (warm, loops) = src.load(Some(&snaps), &obs).unwrap();
        assert!(loops.is_some());
        assert_eq!(obs.report().counter("frontend.snapshot.hit"), Some(1));
        assert_eq!(warm.content_digest(), cold.content_digest());
        assert_eq!(warm.content_digest(), plain.content_digest());

        // A damaged snapshot is a miss that parses and rewrites it.
        let snap = snaps.join(format!("graph-{:016x}.bin", src.key()));
        std::fs::write(&snap, b"garbage").unwrap();
        let (again, _) = src.load(Some(&snaps), &obs).unwrap();
        assert_eq!(again.content_digest(), plain.content_digest());
        assert_eq!(obs.report().counter("frontend.snapshot.miss"), Some(2));
        assert!(snapshot::load(&std::fs::read(&snap).unwrap()).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
