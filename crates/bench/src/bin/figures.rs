//! Regenerates every figure in the paper's evaluation section.
//!
//! ```text
//! cargo run -p wsn-bench --release --bin figures -- all
//! cargo run -p wsn-bench --release --bin figures -- fig1 fig6 security
//! WSN_TRIALS=30 cargo run -p wsn-bench --release --bin figures -- fig9
//! ```
//!
//! Markdown tables go to stdout; CSVs to `target/figures/`.

use std::fs;
use std::path::PathBuf;
use wsn_bench::ablations::{
    counter_mode_overhead, election_rate_ablation, election_rate_table, refresh_cost,
};
use wsn_bench::energy::{broadcast_energy_table, fusion_energy_savings};
use wsn_bench::figures::{
    default_trials, fig1_cluster_size_distribution, fig1_table, fig6_keys_per_node,
    fig7_cluster_size, fig8_head_fraction, fig9_setup_messages, scale_invariance, series_table,
};
use wsn_bench::millionnode::{
    million_n, millionnode_run, millionnode_table, millionnode_wallclock_table, FULL_N,
};
use wsn_bench::multisink::{multisink_rows, multisink_table};
use wsn_bench::overload::{overload_rows, overload_table};
use wsn_bench::resilience::{resilience_rows, resilience_table};
use wsn_bench::security::{cost_table, hello_flood_table, resilience_sweep, ResilienceParams};
use wsn_bench::sinkfailover::{sinkfailover_rows, sinkfailover_table};
use wsn_bench::MASTER_SEED;
use wsn_metrics::{Series, Table};
use wsn_trace::RunManifest;

fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/figures");
    fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// Writes the provenance sidecar for one emitted artifact: seed, trial
/// count, version and a digest of the artifact's exact bytes, so any CSV
/// in `target/figures/` can be reproduced (or disowned) later.
fn emit_manifest(name: &str, artifact_bytes: &[u8], trials: usize) {
    let manifest = RunManifest::new(name, env!("CARGO_PKG_VERSION"))
        .seed(MASTER_SEED)
        .trials(trials as u32)
        .config("generator", "figures")
        .digest_of(artifact_bytes);
    let path = out_dir().join(format!("{name}.manifest.json"));
    fs::write(&path, manifest.to_json()).expect("write manifest");
}

fn emit_table(name: &str, table: &Table, trials: usize) {
    println!("## {name}\n");
    println!("{}", table.to_markdown());
    let csv = table.to_csv();
    let path = out_dir().join(format!("{name}.csv"));
    fs::write(&path, &csv).expect("write csv");
    emit_manifest(name, csv.as_bytes(), trials);
    println!("(csv: {})\n", path.display());
}

fn emit_series(name: &str, series: &Series, x: &str, y: &str, trials: usize) {
    emit_table(name, &series_table(series, x, y), trials);
    let csv = series.to_csv();
    let path = out_dir().join(format!("{name}_series.csv"));
    fs::write(&path, &csv).expect("write csv");
    emit_manifest(&format!("{name}_series"), csv.as_bytes(), trials);
}

fn run_fig1(trials: usize) {
    println!("# Figure 1 — distribution of nodes to clusters ({trials} trials)\n");
    for (density, hist) in fig1_cluster_size_distribution(trials) {
        emit_table(
            &format!("fig1_density_{density}"),
            &fig1_table(density, &hist),
            trials,
        );
        println!(
            "density {density}: {} clusters observed, mean size {:.2}, singleton fraction {:.3}\n",
            hist.total(),
            hist.mean(),
            hist.fraction(1)
        );
    }
}

fn run_scale(trials: usize) {
    println!("# Section V — size invariance at density 12.5 ({trials} trials)\n");
    let sizes = [500usize, 1000, 2000, 2500, 3600, 5000, 10_000, 20_000];
    let rows = scale_invariance(12.5, &sizes, trials);
    let mut t = Table::new(&[
        "n",
        "keys/node",
        "cluster size",
        "head fraction",
        "setup msgs/node",
    ]);
    for r in &rows {
        t.row(&[
            r.n.to_string(),
            format!("{:.3}", r.keys_per_node),
            format!("{:.3}", r.cluster_size),
            format!("{:.4}", r.head_fraction),
            format!("{:.4}", r.msgs_per_node),
        ]);
    }
    emit_table("scale_invariance", &t, trials);
}

fn run_security(trials: usize) {
    println!("# Section VI — security comparison ({trials} trials)\n");
    let params = ResilienceParams::default();
    for series in resilience_sweep(&params, trials) {
        emit_series(
            &format!(
                "security_resilience_{}",
                series.name.replace([' ', '(', ')', '-'], "_")
            ),
            &series,
            "captured nodes",
            "readable traffic fraction",
            trials,
        );
    }
    emit_table("security_costs", &cost_table(1000, 12.0, 0xC0), 1);
    emit_table("security_hello_flood", &hello_flood_table(), 1);
}

fn run_ablations(trials: usize) {
    println!("# Ablations (DESIGN.md §3)\n");
    let rows = election_rate_ablation(1000, 8.0, &[0.5, 1.0, 2.0, 5.0, 10.0, 20.0], trials);
    emit_table(
        "ablation_election_rate",
        &election_rate_table(&rows),
        trials,
    );

    let (implicit, explicit) = counter_mode_overhead(400, 12.0, 40);
    let mut t = Table::new(&["counter mode", "radio bytes for 40 sealed readings"]);
    t.row(&["implicit (resync window)".into(), implicit.to_string()]);
    t.row(&["explicit (+8B/frame)".into(), explicit.to_string()]);
    emit_table("ablation_counter_mode", &t, 1);

    let (hash, recluster) = refresh_cost(400, 12.0);
    let mut t = Table::new(&["refresh mode", "messages per epoch"]);
    t.row(&["hash (Kc <- F(Kc))".into(), hash.to_string()]);
    t.row(&[
        "re-cluster (head-generated keys)".into(),
        recluster.to_string(),
    ]);
    emit_table("ablation_refresh_mode", &t, 1);
}

fn run_energy() {
    println!("# Energy experiments\n");
    emit_table(
        "energy_broadcast",
        &broadcast_energy_table(1000, 12.0, 40),
        1,
    );
    let s = fusion_energy_savings(400, 14.0, 4);
    let mut t = Table::new(&["fusion suppression", "radio energy (µJ)", "readings at BS"]);
    t.row(&[
        "off".into(),
        format!("{:.0}", s.baseline_uj),
        s.baseline_delivered.to_string(),
    ]);
    t.row(&[
        "on".into(),
        format!("{:.0}", s.suppressed_uj),
        s.suppressed_delivered.to_string(),
    ]);
    emit_table("energy_fusion", &t, 1);
    println!(
        "fusion suppression saves {:.1}% of radio energy on the redundant workload\n",
        s.saving() * 100.0
    );
}

fn run_resilience(trials: usize) {
    println!("# Resilience under faults — delivery and re-key convergence vs fault intensity ({trials} trials)\n");
    let rows = resilience_rows(trials);
    emit_table("resilience", &resilience_table(&rows), trials);
    if let Some(worst) = rows.last() {
        println!(
            "at intensity {} ({:.0} faults/trial): delivery {:.1}% ({:.1}% with recovery), current keys ours {:.1}% vs global-key {:.1}%\n",
            worst.intensity,
            worst.faults_per_trial,
            worst.delivery_ratio * 100.0,
            worst.delivery_recovery * 100.0,
            worst.ours_current * 100.0,
            worst.global_key_current * 100.0,
        );
    }
}

fn run_overload(trials: usize) {
    println!(
        "# Overload — legitimate delivery and peak buffers vs flood intensity ({trials} trials)\n"
    );
    let rows = overload_rows(trials);
    emit_table("overload", &overload_table(&rows), trials);
    if let Some(worst) = rows.last() {
        println!(
            "at intensity {} ({} hostile frames): legit delivery {:.1}% unbudgeted vs {:.1}% budgeted; peak buffers {:.0} vs {:.0}\n",
            worst.intensity,
            worst.flood_frames,
            worst.delivery_unbudgeted * 100.0,
            worst.delivery_budgeted * 100.0,
            worst.peak_unbudgeted,
            worst.peak_budgeted,
        );
    }
}

fn run_multisink(trials: usize) {
    println!(
        "# Multi-sink — aggregate delivered readings/s vs sink count, same-seed 1-sink ablation ({trials} trials)\n"
    );
    let rows = multisink_rows(trials);
    emit_table("multisink", &multisink_table(&rows), trials);
    for r in &rows[1..] {
        println!(
            "{} sinks: {:.1} readings/s delivered = {:.2}x the single-sink arm ({:.1} entries re-homed)",
            r.sinks, r.per_sec, r.speedup, r.rehomed
        );
    }
    println!();
}

fn run_sinkfailover(trials: usize) {
    println!(
        "# Sink failover — delivered readings/s before vs after killing 1 of K sinks ({trials} trials)\n"
    );
    let rows = sinkfailover_rows(trials);
    emit_table("sinkfailover", &sinkfailover_table(&rows), trials);
    for r in &rows {
        println!(
            "{} sinks: {:.1} -> {:.1} readings/s after the kill ({:.0}% retained, {:.1} entries re-homed, {:.1} lost)",
            r.sinks,
            r.pre_per_sec,
            r.post_per_sec,
            r.retained * 100.0,
            r.handoffs,
            r.lost
        );
    }
    println!();
}

fn run_millionnode() {
    let n = million_n();
    println!("# Million-node — sharded-backend setup at n = {n} (1 trial)\n");
    let row = millionnode_run(n);
    emit_table("millionnode", &millionnode_table(&row), 1);
    println!(
        "n = {}: {} events in {:.1} s wall ({:.0} events/s), virtual time {:.1} ms\n",
        row.n, row.events, row.wall_s, row.events_per_sec, row.virtual_ms
    );
    // Wall clock measures the host, not the protocol: it gets a table of
    // its own, written only from a full-scale run.
    if n >= FULL_N {
        let shards = wsn_sim::shard::Shards::Auto.region_count().unwrap_or(1);
        emit_table(
            "millionnode_wallclock",
            &millionnode_wallclock_table(&row, shards),
            1,
        );
    }
}

const KNOWN: [&str; 15] = [
    "all",
    "fig1",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "scale",
    "security",
    "ablations",
    "energy",
    "resilience",
    "overload",
    "multisink",
    "sinkfailover",
    "millionnode",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args.iter().find(|a| !KNOWN.contains(&a.as_str())) {
        eprintln!(
            "unknown experiment '{unknown}'. Known: {}",
            KNOWN.join(", ")
        );
        std::process::exit(1);
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);
    let trials = default_trials();

    if want("fig1") {
        run_fig1(trials);
    }
    if want("fig6") {
        println!("# Figure 6 — cluster keys per node vs density\n");
        emit_series(
            "fig6_keys_per_node",
            &fig6_keys_per_node(trials),
            "density",
            "keys/node",
            trials,
        );
    }
    if want("fig7") {
        println!("# Figure 7 — nodes per cluster vs density\n");
        emit_series(
            "fig7_cluster_size",
            &fig7_cluster_size(trials),
            "density",
            "nodes/cluster",
            trials,
        );
    }
    if want("fig8") {
        println!("# Figure 8 — cluster-head fraction vs density\n");
        emit_series(
            "fig8_head_fraction",
            &fig8_head_fraction(trials),
            "density",
            "heads/n",
            trials,
        );
    }
    if want("fig9") {
        println!("# Figure 9 — setup messages per node vs density (n = 2000)\n");
        emit_series(
            "fig9_setup_messages",
            &fig9_setup_messages(trials),
            "density",
            "msgs/node",
            trials,
        );
    }
    if want("scale") {
        run_scale(trials.min(3));
    }
    if want("security") {
        run_security(trials.min(5));
    }
    if want("ablations") {
        run_ablations(trials.min(5));
    }
    if want("energy") {
        run_energy();
    }
    if want("resilience") {
        run_resilience(trials.min(5));
    }
    if want("overload") {
        run_overload(trials.min(5));
    }
    if want("multisink") {
        run_multisink(trials.min(5));
    }
    if want("sinkfailover") {
        run_sinkfailover(trials.min(5));
    }
    // Explicit-only: a full-scale run takes minutes and rewrites the
    // perf artifact, so `all` does not imply it.
    if args.iter().any(|a| a == "millionnode") {
        run_millionnode();
    }
    println!("done.");
}
