//! The server workloads, open loop against a server child process:
//! `serve-query` and `serve-mixed`.
//!
//! Load comes from this process: at most two sender threads, one
//! connection per request (the shipped client). Each request is timed
//! from the instant it was due, so a stall also charges the requests
//! queued behind it.

use std::time::{Duration, Instant};

use seqavf_core::compile::CompiledSweep;
use seqavf_core::engine::SartConfig;
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_core::sweep::obtain_compiled_traced;
use seqavf_netlist::flatten::parse_netlist;
use seqavf_obs::Collector;
use seqavf_serve::api::{
    AvfRequest, AvfResponse, DesignUpdateRequest, DesignUpdateResponse, NamedTable,
};
use seqavf_serve::client;
use seqavf_serve::resident::Resident;
use seqavf_serve::server::ServeConfig;

use crate::attrib::{self, Layers};
use crate::inputs::{self, Design, Editor, Size, Table};
use crate::library::{reference, RowBits};
use crate::report::{Measured, Outcome};
use crate::server::{describe_config, ServerChild};
use crate::{stats, Ctx, QUERY_TAIL, SETUP_REPS};

/// pAVF tables in the pool requests draw from.
const POOL: usize = 64;

/// Tables per `serve-query` request.
const TABLES_PER_QUERY: usize = 16;

/// Most requests the traced run replays in process.
const REPLAY_MAX: usize = 200;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The seeded table pool, from the ACE model.
fn table_pool(ctx: &Ctx) -> Vec<Table> {
    inputs::suite_tables(&inputs::suite_config(ctx.seed, POOL, ctx.trace_len()))
}

/// Writes a design and its mapping under the scratch directory; returns
/// both absolute paths.
fn write_design(ctx: &Ctx, design: &Design, name: &str) -> Result<(String, String), String> {
    Ok((
        write_file(ctx, &format!("{name}.exlif"), &design.text)?,
        write_file(ctx, &format!("{name}.map"), &design.mapping_text)?,
    ))
}

/// Writes a file under the scratch directory; returns its absolute path.
fn write_file(ctx: &Ctx, name: &str, text: &str) -> Result<String, String> {
    let path = ctx.workdir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    std::path::absolute(&path)
        .map(|p| p.display().to_string())
        .map_err(|e| format!("resolving {}: {e}", path.display()))
}

/// A `POST /v1/avf` body.
fn avf_request<'a>(
    design_ref: Option<&str>,
    paths: Option<(&str, &str)>,
    tables: impl Iterator<Item = &'a Table>,
) -> AvfRequest {
    AvfRequest {
        design_path: paths.map(|(d, _)| d.to_owned()),
        design_ref: design_ref.map(str::to_owned),
        map_path: paths.map(|(_, m)| m.to_owned()),
        config: None,
        base_inputs: None,
        tables: tables
            .map(|(name, inputs)| NamedTable {
                workload: name.clone(),
                inputs: inputs.clone(),
            })
            .collect(),
        include_nodes: None,
        include_fubs: None,
    }
}

fn to_json(req: &impl serde::Serialize) -> String {
    serde_json::to_string(req).expect("request types always serialize")
}

/// Loads a design into the server from its files; returns its
/// `design_ref`.
fn cold_load(
    server: &ServerChild,
    (design, map): (&str, &str),
    table: &Table,
) -> Result<String, String> {
    let body = to_json(&avf_request(
        None,
        Some((design, map)),
        std::iter::once(table),
    ));
    let (status, text) = client::post_json(server.addr(), "/v1/avf", &body)?;
    if status != 200 {
        return Err(format!("cold load of {design} answered {status}: {text}"));
    }
    serde_json::from_str::<AvfResponse>(&text)
        .map(|r| r.design_ref)
        .map_err(|e| format!("cold load response: {e}"))
}

/// Whether a `/v1/avf` answer is a 200 whose rows equal `expected` bit
/// for bit.
fn answer_matches(answer: &Result<(u16, String), String>, expected: &[&RowBits]) -> bool {
    let Ok((200, text)) = answer else {
        return false;
    };
    let Ok(resp) = serde_json::from_str::<AvfResponse>(text) else {
        return false;
    };
    resp.rows.len() == expected.len()
        && resp.rows.iter().zip(expected).all(|(r, (name, bits))| {
            r.workload == *name
                && [
                    r.mean_seq_avf.to_bits(),
                    r.min_seq_avf.to_bits(),
                    r.max_seq_avf.to_bits(),
                ] == *bits
        })
}

/// One sent request.
struct Sent {
    /// How late the sender sent it, ms.
    late_ms: f64,
    /// Due time to answer, ms.
    latency_ms: f64,
    /// `(status, body)`, or why no answer arrived.
    answer: Result<(u16, String), String>,
    /// When the answer arrived.
    end: Instant,
}

impl Sent {
    /// Send to answer, ms.
    fn rtt_ms(&self) -> f64 {
        self.latency_ms - self.late_ms
    }

    fn refused(&self) -> bool {
        matches!(self.answer, Ok((503, _)))
    }
}

/// Sends request `i` at `start + due[i]` seconds, one after another.
fn send_on_schedule(
    start: Instant,
    due: &[f64],
    mut send: impl FnMut(usize) -> Result<(u16, String), String>,
) -> Vec<Sent> {
    due.iter()
        .enumerate()
        .map(|(i, &d)| {
            let at = start + Duration::from_secs_f64(d);
            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let answer = send(i);
            let end = Instant::now();
            Sent {
                late_ms: ms(sent.saturating_duration_since(at)),
                latency_ms: ms(end.saturating_duration_since(at)),
                answer,
                end,
            }
        })
        .collect()
}

/// Sends `/v1/avf` bodies on schedule from two threads, alternating
/// requests between them; results are in request order.
fn send_queries(server: &ServerChild, start: Instant, due: &[f64], bodies: &[String]) -> Vec<Sent> {
    let addr = server.addr();
    let halves: Vec<Vec<Sent>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|k| {
                s.spawn(move || {
                    let idx: Vec<usize> = (k..due.len()).step_by(2).collect();
                    let mine: Vec<f64> = idx.iter().map(|&i| due[i]).collect();
                    send_on_schedule(start, &mine, |j| {
                        client::post_json(addr, "/v1/avf", &bodies[idx[j]])
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let mut halves: Vec<std::vec::IntoIter<Sent>> =
        halves.into_iter().map(Vec::into_iter).collect();
    (0..due.len())
        .map(|i| halves[i % 2].next().expect("one result per request"))
        .collect()
}

/// Starts a server and loads designs into it, [`SETUP_REPS`] times,
/// keeping the last server; each repetition's wall time goes to `setup_s`.
fn set_up<T>(
    m: &mut Measured,
    mut load: impl FnMut(&ServerChild) -> Result<T, String>,
) -> Result<(ServerChild, T), String> {
    let mut running: Option<(ServerChild, T)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((server, _)) = running.take() {
            server.stop()?;
        }
        let t = Instant::now();
        let server = ServerChild::start()?;
        let loaded = load(&server)?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        running = Some((server, loaded));
    }
    Ok(running.expect("at least one set-up"))
}

/// The open-loop request count: `rate` × `seconds`, but at least enough
/// for the query tail.
fn request_count(ctx: &Ctx, rate: f64) -> usize {
    ((rate * ctx.seconds).round() as usize).max(stats::min_samples(QUERY_TAIL))
}

/// Records the wire-side per-layer numbers of queries.
fn record_wire(layers: &mut Layers, sent: &[Sent], bodies: &[String]) {
    for (s, body) in sent.iter().zip(bodies) {
        layers.add("serve.rtt_ms", s.rtt_ms());
        layers.add("serve.request_bytes", body.len() as f64);
        if let Ok((_, text)) = &s.answer {
            layers.add("serve.response_bytes", text.len() as f64);
        }
    }
    let latencies: Vec<f64> = sent.iter().map(|s| s.latency_ms).collect();
    if let Some(p90) = stats::tail(&latencies, QUERY_TAIL) {
        layers.add("serve.query_p90_ms", p90);
    }
    let late: Vec<f64> = sent.iter().map(|s| s.late_ms).collect();
    if let Some(p99) = stats::tail(&late, 0.99) {
        layers.add("gen.late_p99_ms", p99);
    }
}

/// An in-process copy of the server's resident state, loaded with
/// `designs`, for replaying requests.
fn replay_resident(obs: Collector, designs: &[((&str, &str), &Table)]) -> Result<Resident, String> {
    let resident = Resident::new(ServeConfig::default().resident, obs);
    for &(paths, table) in designs {
        resident
            .handle(&avf_request(None, Some(paths), std::iter::once(table)))
            .map_err(|e| format!("replay load: {}", e.message))?;
    }
    Ok(resident)
}

/// The compiled DAG and sequential-node order the server evaluates for
/// `design`, built through the library.
fn compiled(design: &Design, base: &PavfInputs) -> Result<(CompiledSweep, Vec<usize>), String> {
    let nl = parse_netlist(&design.text).map_err(|e| format!("parsing design: {e}"))?;
    let mapping = StructureMapping::from_text(&nl, &design.mapping_text)?;
    let (dag, _) = obtain_compiled_traced(
        &nl,
        &mapping,
        &SartConfig::default(),
        base,
        None,
        None,
        &Collector::disabled(),
    )?;
    Ok((dag, nl.seq_nodes().map(|id| id.index()).collect()))
}

/// Replays sampled queries in process and records where their time goes:
/// JSON decode, `Resident::handle` (traced on every other replay, so the
/// rest measure what tracing costs), the DAG evaluation alone, JSON
/// encode, and the transport remainder of the measured round trip.
#[allow(clippy::too_many_arguments)]
fn replay_queries(
    ctx: &Ctx,
    workload: &str,
    layers: &mut Layers,
    (traced_res, plain_res): (&Resident, &Resident),
    (dag, seq): (&CompiledSweep, &[usize]),
    bodies: &[String],
    sent: &[Sent],
    record_partition: bool,
) -> Result<(), String> {
    let stats = dag.stats();
    let dag_ops = (stats.sum_ops + stats.min_ops) as f64;
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let step = bodies.len().div_ceil(REPLAY_MAX).max(1);
    for (n, i) in (0..bodies.len()).step_by(step).enumerate() {
        let t = Instant::now();
        let req: AvfRequest =
            serde_json::from_str(&bodies[i]).map_err(|e| format!("replay decode: {e}"))?;
        let decode_ms = ms(t.elapsed());
        if n % 2 == 1 {
            let t = Instant::now();
            plain_res
                .handle(&req)
                .map_err(|e| format!("replay: {}", e.message))?;
            plain_ms.push(ms(t.elapsed()));
            continue;
        }
        let (resp, trace) = attrib::traced(&ctx.obs, "serve.handle", (workload, i), || {
            traced_res.handle(&req)
        });
        let handle_ms = trace.wall_ms();
        let resp = resp.map_err(|e| format!("replay: {}", e.message))?;
        traced_ms.push(handle_ms);

        let tables: Vec<PavfInputs> = req.tables.iter().map(|t| t.inputs.clone()).collect();
        let t = Instant::now();
        std::hint::black_box(dag.evaluate_seq_stats_traced(
            &tables,
            seq,
            1,
            &Collector::disabled(),
        ));
        let eval_ms = ms(t.elapsed());
        let t = Instant::now();
        let encoded = to_json(&resp);
        let encode_ms = ms(t.elapsed());
        std::hint::black_box(encoded);

        layers.add("serve.json_decode_ms", decode_ms);
        layers.add("serve.handle_ms", handle_ms);
        layers.add("serve.eval_ms", eval_ms);
        layers.add("serve.json_encode_ms", encode_ms);
        layers.add(
            "serve.transport_ms",
            sent[i].rtt_ms() - decode_ms - handle_ms - encode_ms,
        );
        if record_partition {
            layers.add_partition(&trace.part);
            layers.add("core.dag_ops", dag_ops);
            let eval = trace.part.get("core.eval_ms").copied().unwrap_or(0.0);
            layers.add(
                "core.eval.ns_per_op_table",
                eval * 1e6 / (dag_ops * tables.len() as f64).max(1.0),
            );
        }
    }
    if let Some(pct) = attrib::overhead_pct(&traced_ms, &plain_ms) {
        layers.add("trace_overhead_pct", pct);
    }
    Ok(())
}

/// Counts failures among sent queries: anything but a 200 whose rows
/// match the reference for the request's picks.
fn failures(sent: &[Sent], picks: &[Vec<usize>], expected: &[RowBits]) -> u64 {
    sent.iter()
        .zip(picks)
        .filter(|(s, p)| {
            let want: Vec<&RowBits> = p.iter().map(|&k| &expected[k]).collect();
            !answer_matches(&s.answer, &want)
        })
        .count() as u64
}

/// `serve-query`: Poisson 40 requests/s of 16 tables each against the
/// resident 102k-node design.
///
/// Each round trip is the warm query path: JSON decode of the 16 tables,
/// then `Resident::handle` (look-up of the resident design and DAG, and
/// batch DAG evaluation). The frontend, relaxation and compilation do
/// nothing.
pub fn serve_query(ctx: &Ctx) -> Result<Outcome, String> {
    let mut m = Measured::default();
    let pool = table_pool(ctx);
    let size = ctx.big();
    let (server, (design, paths, design_ref)) = set_up(&mut m, |server| {
        let design = inputs::build_design(size);
        let paths = write_design(ctx, &design, "serve-query")?;
        let design_ref = cold_load(server, (&paths.0, &paths.1), &pool[0])?;
        Ok((design, paths, design_ref))
    })?;
    let expected = reference(&design.text, &design.mapping_text, &pool)?;

    // 40/s, not 60/s: at 60/s the two-worker server on a two-vCPU host sits
    // near its knee. With one core taken by another process, 60/s backed
    // up (p50 0.13 s and 1.1 s in two runs) while 40/s kept up (p50 37 ms
    // and 41 ms).
    let rate = if ctx.smoke { 150.0 } else { 40.0 };
    let count = request_count(ctx, rate);
    let due = inputs::arrivals(ctx.seed, "query-arrivals", rate, count);
    let picks = inputs::picks(ctx.seed, "query-picks", POOL, TABLES_PER_QUERY, count);
    let bodies: Vec<String> = picks
        .iter()
        .map(|p| {
            to_json(&avf_request(
                Some(&design_ref),
                None,
                p.iter().map(|&k| &pool[k]),
            ))
        })
        .collect();

    let start = Instant::now();
    let sent = send_queries(&server, start, &due, &bodies);
    m.wall_s = sent
        .iter()
        .map(|s| s.end)
        .max()
        .map_or(0.0, |e| (e - start).as_secs_f64());
    m.latencies_ms = sent.iter().map(|s| s.latency_ms).collect();
    m.peak_mem_mb = Some(server.stop()?);
    let failed = failures(&sent, &picks, &expected);

    let metrics = if ctx.traced() {
        let mut layers = Layers::default();
        record_wire(&mut layers, &sent, &bodies);
        for s in &sent {
            layers.add("serve.refused", f64::from(u8::from(s.refused())));
        }
        let load = [((paths.0.as_str(), paths.1.as_str()), &pool[0])];
        let traced_res = replay_resident(ctx.obs.clone(), &load)?;
        let plain_res = replay_resident(Collector::disabled(), &load)?;
        let (dag, seq) = compiled(&design, &pool[0].1)?;
        replay_queries(
            ctx,
            "serve-query",
            &mut layers,
            (&traced_res, &plain_res),
            (&dag, &seq),
            &bodies,
            &sent,
            true,
        )?;
        layers.metrics()
    } else {
        m.metrics()
    };
    Ok(Outcome {
        workload: "serve-query",
        attempted: count as u64,
        failed,
        metrics,
        provenance: ctx.provenance(
            &[&design],
            &[
                ("server", describe_config()),
                ("load", format!("open loop, Poisson {rate}/s, 2 senders, {TABLES_PER_QUERY} of {POOL} tables per request")),
            ],
        ),
    })
}

/// `serve-mixed`: Poisson 200 single-table queries/s on the resident 3k
/// design from one sender, while a second sender posts one chained
/// one-gate `/v1/design-update` of the resident 102k design per second.
///
/// Transport dominates the queries, and the updates share workers and
/// locks with them: a change that speeds updates but stalls reads shows
/// as a worse query `mean_ms`, since every query held up behind an update
/// adds its wait to the mean.
pub fn serve_mixed(ctx: &Ctx) -> Result<Outcome, String> {
    let mut m = Measured::default();
    let pool = table_pool(ctx);
    let (server, (small, small_paths, small_ref, big, big_paths, big_ref)) =
        set_up(&mut m, |server| {
            let small = inputs::build_design(Size::Small);
            let big = inputs::build_design(ctx.big());
            let small_paths = write_design(ctx, &small, "serve-mixed-small")?;
            let big_paths = write_design(ctx, &big, "serve-mixed-big")?;
            let small_ref = cold_load(server, (&small_paths.0, &small_paths.1), &pool[0])?;
            let big_ref = cold_load(server, (&big_paths.0, &big_paths.1), &pool[0])?;
            Ok((small, small_paths, small_ref, big, big_paths, big_ref))
        })?;
    let expected = reference(&small.text, &small.mapping_text, &pool)?;

    let rate = if ctx.smoke { 600.0 } else { 200.0 };
    let update_rate = if ctx.smoke { 2.0 } else { 1.0 };
    let count = request_count(ctx, rate);
    let due = inputs::arrivals(ctx.seed, "mixed-arrivals", rate, count);
    let picks = inputs::picks(ctx.seed, "mixed-picks", POOL, 1, count);
    let bodies: Vec<String> = picks
        .iter()
        .map(|p| {
            to_json(&avf_request(
                Some(&small_ref),
                None,
                p.iter().map(|&k| &pool[k]),
            ))
        })
        .collect();
    // Revisions are written before the timed phase; the server reads each
    // one when its update arrives.
    let span = count as f64 / rate;
    let n_updates = ((span * update_rate).floor() as usize).max(1);
    let update_due: Vec<f64> = (0..n_updates)
        .map(|k| (k as f64 + 0.5) / update_rate)
        .collect();
    let mut editor = Editor::new(&big.text, ctx.seed);
    let mut revisions = Vec::with_capacity(n_updates);
    for k in 0..n_updates {
        let text = editor.next_revision();
        revisions.push((
            write_file(ctx, &format!("serve-mixed-rev{k}.exlif"), &text)?,
            text,
        ));
    }

    let start = Instant::now();
    let addr = server.addr();
    let (sent, updates) = std::thread::scope(|s| {
        let queries = s.spawn(|| {
            send_on_schedule(start, &due, |i| {
                client::post_json(addr, "/v1/avf", &bodies[i])
            })
        });
        let updates = s.spawn(|| {
            let mut prev_ref = big_ref.clone();
            let mut replies = Vec::new();
            let sent = send_on_schedule(start, &update_due, |k| {
                let body = to_json(&DesignUpdateRequest {
                    design_path: revisions[k].0.clone(),
                    prev_ref: Some(prev_ref.clone()),
                    map_path: None,
                    config: None,
                    base_inputs: None,
                });
                let answer = client::post_json(addr, "/v1/design-update", &body);
                let reply = match &answer {
                    Ok((200, text)) => serde_json::from_str::<DesignUpdateResponse>(text).ok(),
                    _ => None,
                };
                if let Some(r) = &reply {
                    prev_ref = r.design_ref.clone();
                }
                replies.push(reply);
                answer
            });
            (sent, replies)
        });
        (
            queries.join().expect("query sender panicked"),
            updates.join().expect("update sender panicked"),
        )
    });
    let (update_sent, replies) = updates;
    m.wall_s = sent
        .iter()
        .map(|s| s.end)
        .max()
        .map_or(0.0, |e| (e - start).as_secs_f64());
    m.latencies_ms = sent.iter().map(|s| s.latency_ms).collect();

    let mut failed = failures(&sent, &picks, &expected);
    failed += replies.iter().filter(|r| r.is_none()).count() as u64;
    // The final revision, queried through the server, must equal a cold
    // library solve of its text.
    let last = replies
        .iter()
        .zip(&revisions)
        .rev()
        .find_map(|(r, (_, text))| r.as_ref().map(|r| (r.design_ref.clone(), text)));
    if let Some((final_ref, text)) = last {
        let tables = &pool[..16];
        let body = to_json(&avf_request(Some(&final_ref), None, tables.iter()));
        let answer = client::post_json(addr, "/v1/avf", &body);
        let want = reference(text, &big.mapping_text, tables)?;
        if !answer_matches(&answer, &want.iter().collect::<Vec<_>>()) {
            failed += 1;
        }
    }
    m.peak_mem_mb = Some(server.stop()?);

    let metrics = if ctx.traced() {
        let mut layers = Layers::default();
        record_wire(&mut layers, &sent, &bodies);
        for s in sent.iter().chain(&update_sent) {
            layers.add("serve.refused", f64::from(u8::from(s.refused())));
        }
        for (u, r) in update_sent.iter().zip(&replies) {
            layers.add("serve.update_ms", u.rtt_ms());
            if let Some(r) = r {
                layers.add(
                    "serve.update.warm_ratio",
                    f64::from(u8::from(r.mode == "warm")),
                );
                layers.add(
                    "serve.update.patched_ratio",
                    f64::from(u8::from(r.dag == "patched")),
                );
                layers.add("serve.update.walked_nodes", r.walked_nodes as f64);
            }
        }
        let small_load = ((small_paths.0.as_str(), small_paths.1.as_str()), &pool[0]);
        let big_load = ((big_paths.0.as_str(), big_paths.1.as_str()), &pool[0]);
        let traced_res = replay_resident(ctx.obs.clone(), &[small_load, big_load])?;
        let plain_res = replay_resident(Collector::disabled(), &[small_load])?;
        let (dag, seq) = compiled(&small, &pool[0].1)?;
        replay_queries(
            ctx,
            "serve-mixed",
            &mut layers,
            (&traced_res, &plain_res),
            (&dag, &seq),
            &bodies,
            &sent,
            false,
        )?;
        replay_updates(ctx, &mut layers, &traced_res, &big_ref, &revisions)?;
        layers.metrics()
    } else {
        m.metrics()
    };
    Ok(Outcome {
        workload: "serve-mixed",
        attempted: (count + n_updates) as u64,
        failed,
        metrics,
        provenance: ctx.provenance(
            &[&small, &big],
            &[
                ("server", describe_config()),
                ("load", format!(
                    "open loop: Poisson {rate}/s single-table queries on {}; {update_rate}/s chained design-updates of {}",
                    Size::Small.label(),
                    ctx.big().label()
                )),
            ],
        ),
    })
}

/// Replays the design-update chain over `revisions` (file path, text) in
/// process, traced, and records the per-layer split of each update.
fn replay_updates(
    ctx: &Ctx,
    layers: &mut Layers,
    resident: &Resident,
    base_ref: &str,
    revisions: &[(String, String)],
) -> Result<(), String> {
    let mut prev_ref = base_ref.to_owned();
    for (k, (path, _)) in revisions.iter().enumerate() {
        let req = DesignUpdateRequest {
            design_path: path.clone(),
            prev_ref: Some(prev_ref.clone()),
            map_path: None,
            config: None,
            base_inputs: None,
        };
        let (reply, trace) = attrib::traced(&ctx.obs, "serve.update", ("serve-mixed", k), || {
            resident.handle_design_update(&req)
        });
        let r = reply.map_err(|e| format!("replayed update: {}", e.message))?;
        layers.add_partition(&trace.part);
        layers.add("core.relax.iterations", trace.count("relax.iterations"));
        layers.add("netlist.nodes", r.node_count as f64);
        layers.add("core.relax.walked_nodes", r.walked_nodes as f64);
        layers.add("core.warm.hit_ratio", f64::from(u8::from(r.mode == "warm")));
        layers.add("core.warm.dirty_fubs", r.dirty_fubs as f64);
        layers.add(
            "core.patch.hit_ratio",
            f64::from(u8::from(r.dag == "patched")),
        );
        layers.add("core.patch.ops_patched", r.ops_patched as f64);
        prev_ref = r.design_ref;
    }
    Ok(())
}
