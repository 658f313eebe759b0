//! Wire types for the AVF service.
//!
//! The batch endpoint `POST /v1/avf` accepts a design reference plus a
//! batch of per-workload pAVF tables and returns one AVF summary row per
//! table — the same numbers, bit for bit, that the `sweep` CLI writes.
//!
//! Two ways to name a design:
//!
//! * `design_path` — a file on the server's filesystem; the server reads
//!   and (on first sight) parses it. The response echoes a `design_ref`.
//! * `design_ref` — the hex token from an earlier response; the warm path
//!   touches no files at all and goes straight to the resident graph.
//!
//! All numeric config fields are `Option`s: absent fields inherit the
//! server's defaults, and validation (range checks, NaN rejection)
//! happens server-side in `resident::resolve_config` so a bad request is
//! answered with a 400 naming the field instead of a poisoned sweep.

use seqavf_core::mapping::PavfInputs;

/// One workload's pAVF table, as produced by `seqavf ace` /
/// `flow::inputs_from_report`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct NamedTable {
    /// Workload name, echoed into the matching response row.
    pub workload: String,
    /// The measured port-AVF inputs for this workload.
    pub inputs: PavfInputs,
}

/// Result-affecting configuration overrides. Absent fields fall back to
/// [`seqavf_core::engine::SartConfig::default`] (and the server's thread
/// budget for execution).
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct RequestConfig {
    /// Back-edge pAVF for loop bits (default 0.3; must be in `[0, 1]`).
    pub loop_pavf: Option<f64>,
    /// Relaxation iteration cap (default 20).
    pub iterations: Option<u64>,
    /// `true` relaxes the whole design as one partition instead of one
    /// per FUB (`SartConfig::partitioned: false`).
    pub global: Option<bool>,
}

/// The `POST /v1/avf` request body.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AvfRequest {
    /// Server-side path to the design source (EXLIF or structural
    /// Verilog, chosen by extension). Required unless `design_ref` names
    /// an already-resident graph.
    pub design_path: Option<String>,
    /// Residency token from an earlier response: the warm path.
    pub design_ref: Option<String>,
    /// Server-side path to the structure-mapping file. Required on a cold
    /// load; optional afterwards (the resident mapping is reused).
    pub map_path: Option<String>,
    /// Result-affecting configuration overrides.
    pub config: Option<RequestConfig>,
    /// Baseline pAVF table used to seed a fresh relaxation. Defaults to
    /// the first entry of `tables`.
    pub base_inputs: Option<PavfInputs>,
    /// The workload batch: one AVF evaluation per entry.
    pub tables: Vec<NamedTable>,
    /// Include every sequential bit's AVF in each row (`node` name order
    /// matches `nodes` in the response).
    pub include_nodes: Option<bool>,
    /// Include the per-FUB AVF table in the response.
    pub include_fubs: Option<bool>,
}

/// One response row: the AVF summary for one workload table.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RowOut {
    /// Workload name from the request.
    pub workload: String,
    /// Mean AVF over sequential bits.
    pub mean_seq_avf: f64,
    /// Lowest sequential-bit AVF.
    pub min_seq_avf: f64,
    /// Highest sequential-bit AVF.
    pub max_seq_avf: f64,
    /// Per-bit AVFs (present when `include_nodes` was set), aligned with
    /// the response's `nodes` list.
    pub node_avfs: Option<Vec<f64>>,
}

/// Per-FUB mean AVF for one workload.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FubRow {
    /// Workload name.
    pub workload: String,
    /// FUB name.
    pub fub: String,
    /// Sequential bits in this FUB.
    pub seq_bits: u64,
    /// Mean AVF over this FUB's sequential bits.
    pub mean_seq_avf: f64,
}

/// The `POST /v1/avf` response body.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AvfResponse {
    /// Residency token for the design; pass as `design_ref` to skip file
    /// IO on the next request.
    pub design_ref: String,
    /// `"hit"` when the graph was already resident, `"miss"` when it was
    /// loaded (file read + parse or snapshot restore) this request.
    pub graph_cache: String,
    /// `"hit"` when the compiled sweep DAG was already resident, `"miss"`
    /// when this request compiled (or disk-loaded) it.
    pub sweep_cache: String,
    /// One row per request table, in request order.
    pub rows: Vec<RowOut>,
    /// Sequential-bit names (present when `include_nodes` was set),
    /// giving meaning to each row's `node_avfs` indices.
    pub nodes: Option<Vec<String>>,
    /// Per-FUB table (present when `include_fubs` was set).
    pub fubs: Option<Vec<FubRow>>,
}

/// The `POST /v1/design-update` request body: re-resolve an edited design
/// at interactive latency by warm-starting the relaxation from the
/// resident converged fixpoint of the previous revision.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DesignUpdateRequest {
    /// Server-side path to the *edited* design source (EXLIF or
    /// structural Verilog, chosen by extension). Always re-read — the
    /// point of the endpoint is that the file changed.
    pub design_path: String,
    /// Residency token of the revision being superseded. Its graph and
    /// compiled DAG are patched out of residency; its mapping is reused
    /// when `map_path` is absent.
    pub prev_ref: Option<String>,
    /// Structure-mapping file. Optional when `prev_ref` names a resident
    /// design (its mapping carries across by structure name).
    pub map_path: Option<String>,
    /// Result-affecting configuration overrides (same semantics as
    /// `/v1/avf`). Must match the previous solve's config for the warm
    /// path to engage; a mismatch falls back to a cold solve.
    pub config: Option<RequestConfig>,
    /// Baseline pAVF table used to evaluate the fresh relaxation.
    /// Defaults to an empty table — the compiled DAG is symbolic, so the
    /// baseline never affects later `/v1/avf` batches.
    pub base_inputs: Option<PavfInputs>,
}

/// The `POST /v1/design-update` response body.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DesignUpdateResponse {
    /// Residency token for the edited design; pass as `design_ref` on
    /// subsequent `/v1/avf` requests.
    pub design_ref: String,
    /// The superseded token from the request, echoed back. It is no
    /// longer resident after this call.
    pub prev_ref: Option<String>,
    /// `"warm"` (seeded from the resident fixpoint, dirty cone
    /// re-relaxed), `"cold"` (full solve; see `reason`), or `"resident"`
    /// (the edited design's DAG was already resident — nothing to solve).
    pub mode: String,
    /// Why the warm path did not engage, when `mode` is `"cold"`.
    pub reason: Option<String>,
    /// FUBs whose converged annotations were adopted from the stored
    /// fixpoint.
    pub seeded_fubs: u64,
    /// FUBs re-relaxed because their content digest changed (plus any
    /// that failed a per-FUB guard).
    pub dirty_fubs: u64,
    /// Nodes walked by the re-solve — the interactive-latency headline
    /// (compare against `node_count` × iterations for a cold solve).
    pub walked_nodes: u64,
    /// Node count of the edited design.
    pub node_count: u64,
    /// How the compiled sweep DAG was produced: `"patched"` (the
    /// superseded revision's DAG was incrementally patched — only the
    /// dirty cone re-lowered), `"rebuilt"` (a patch was attempted but a
    /// precondition failed; see `dag_reason`), `"compiled"` (no patch
    /// was attemptable — cold solve or no previous DAG), or
    /// `"resident"` (nothing recompiled at all).
    pub dag: String,
    /// Why the patch fell back to a full recompile, when `dag` is
    /// `"rebuilt"`.
    pub dag_reason: Option<String>,
    /// Slots re-lowered plus ops freshly added by the patch — the
    /// dirty-cone share of the DAG (0 unless `dag` is `"patched"`).
    pub ops_patched: u64,
    /// Old DAG ops dropped at compaction because no retained slot
    /// references them (0 unless `dag` is `"patched"`).
    pub ops_orphaned: u64,
}

/// The `GET /healthz` response body.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Health {
    /// Always `"ok"` when the server can answer at all.
    pub status: String,
    /// Resident graph count.
    pub resident_graphs: u64,
    /// Resident compiled-sweep count.
    pub resident_sweeps: u64,
    /// Resident converged-fixpoint count (warm-start seeds).
    pub resident_fixpoints: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_json() {
        let req = AvfRequest {
            design_path: Some("d.exlif".into()),
            design_ref: None,
            map_path: Some("d.map".into()),
            config: Some(RequestConfig {
                loop_pavf: Some(0.25),
                iterations: Some(12),
                global: None,
            }),
            base_inputs: None,
            tables: vec![NamedTable {
                workload: "w0".into(),
                inputs: PavfInputs::default(),
            }],
            include_nodes: Some(true),
            include_fubs: None,
        };
        let text = serde_json::to_string(&req).unwrap();
        let back: AvfRequest = serde_json::from_str(&text).unwrap();
        assert_eq!(back.design_path.as_deref(), Some("d.exlif"));
        assert_eq!(back.design_ref, None);
        assert_eq!(back.config.as_ref().unwrap().loop_pavf, Some(0.25));
        assert_eq!(back.config.as_ref().unwrap().iterations, Some(12));
        assert_eq!(back.config.as_ref().unwrap().global, None);
        assert_eq!(back.tables.len(), 1);
        assert_eq!(back.tables[0].workload, "w0");
        assert_eq!(back.include_nodes, Some(true));
        assert_eq!(back.include_fubs, None);
    }

    #[test]
    fn absent_optional_fields_read_as_none() {
        let text = r#"{"tables": []}"#;
        let req: AvfRequest = serde_json::from_str(text).unwrap();
        assert!(req.design_path.is_none());
        assert!(req.design_ref.is_none());
        assert!(req.map_path.is_none());
        assert!(req.config.is_none());
        assert!(req.base_inputs.is_none());
        assert!(req.tables.is_empty());
    }

    #[test]
    fn design_update_request_roundtrips_and_defaults() {
        let text = r#"{"design_path": "d.exlif", "prev_ref": "00ab"}"#;
        let req: DesignUpdateRequest = serde_json::from_str(text).unwrap();
        assert_eq!(req.design_path, "d.exlif");
        assert_eq!(req.prev_ref.as_deref(), Some("00ab"));
        assert!(req.map_path.is_none());
        assert!(req.config.is_none());
        assert!(req.base_inputs.is_none());
        let back: DesignUpdateRequest =
            serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back.design_path, req.design_path);
        assert_eq!(back.prev_ref, req.prev_ref);
    }

    #[test]
    fn response_f64s_roundtrip_bit_exactly() {
        // The service's bit-identity promise leans on the JSON layer
        // emitting shortest-round-trip floats; check an awkward one.
        let row = RowOut {
            workload: "w".into(),
            mean_seq_avf: 0.1 + 0.2,
            min_seq_avf: f64::MIN_POSITIVE,
            max_seq_avf: 1.0 - f64::EPSILON,
            node_avfs: Some(vec![0.3333333333333333, 1e-300]),
        };
        let text = serde_json::to_string(&row).unwrap();
        let back: RowOut = serde_json::from_str(&text).unwrap();
        assert_eq!(back.mean_seq_avf.to_bits(), row.mean_seq_avf.to_bits());
        assert_eq!(back.min_seq_avf.to_bits(), row.min_seq_avf.to_bits());
        assert_eq!(back.max_seq_avf.to_bits(), row.max_seq_avf.to_bits());
        assert_eq!(back.node_avfs, row.node_avfs);
    }
}
