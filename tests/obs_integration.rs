//! Telemetry integration guards.
//!
//! 1. **RNG neutrality**: running the golden training scenarios with a JSONL
//!    sink installed must reproduce the committed fixtures bit-for-bit —
//!    instrumentation must never touch the seeded ChaCha streams or reorder
//!    any floating-point work.
//! 2. **Trace shape**: a full CL4SRec pre-train + fine-tune run with the
//!    Chrome sink produces one valid JSON array whose span events nest as
//!    epoch → batch → augment/forward/ntxent/backward/optim, i.e. the trace
//!    opens as a meaningful flame chart.
//!
//! 3. **Joint-training phases**: both encoder passes of a `fit_joint` batch
//!    (next-item and contrastive) run under their own `forward` span, so
//!    traces never charge encoder work to the batch's self time.
//!
//! The sink is process-global, so the tests serialise on `SINK_LOCK`.

use std::sync::{Arc, Mutex, MutexGuard};

use cl4srec::augment::AugmentationSet;
use cl4srec::model::{Cl4sRec, Cl4sRecConfig, PretrainOptions};
use seqrec_conformance::golden::{run_cl4srec_golden, run_sasrec_golden, GoldenRecord};
use seqrec_data::{Dataset, Split};
use seqrec_models::encoder::EncoderConfig;
use seqrec_models::TrainOptions;
use seqrec_obs::json::{self, Value};
use seqrec_obs::profile::{Node, Profile};
use seqrec_obs::sink::{self, SharedBuf};
use seqrec_obs::JsonlSink;

static SINK_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SINK_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn fixture(name: &str) -> GoldenRecord {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    GoldenRecord::from_text(&text)
        .unwrap_or_else(|e| panic!("corrupt fixture {}: {e}", path.display()))
}

#[test]
fn golden_fixtures_survive_an_active_jsonl_sink() {
    let _g = lock();
    let buf = SharedBuf::new();
    sink::install(Arc::new(JsonlSink::to_writer(Box::new(buf.clone()))));
    let sasrec = run_sasrec_golden();
    let cl4srec = run_cl4srec_golden();
    sink::uninstall();

    // The sink really was live during both runs (backward spans recorded)…
    let events = buf.contents();
    assert!(
        events.contains(r#""name":"backward""#),
        "sink captured no backward spans — the guard tested nothing"
    );
    // …and telemetry changed no bit of the training trajectory.
    assert_eq!(
        sasrec,
        fixture("sasrec.golden"),
        "sasrec trajectory drifted when the JSONL sink was enabled"
    );
    assert_eq!(
        cl4srec,
        fixture("cl4srec.golden"),
        "cl4srec trajectory drifted when the JSONL sink was enabled"
    );
}

fn toy_dataset() -> Dataset {
    let seqs = (0..24).map(|u| (0..8).map(|i| ((u + i) % 12) as u32 + 1).collect()).collect();
    Dataset::new(seqs, 12)
}

fn tiny_cfg(num_items: usize) -> Cl4sRecConfig {
    Cl4sRecConfig {
        encoder: EncoderConfig { num_items, d: 16, heads: 2, layers: 1, max_len: 8, dropout: 0.1 },
        tau: 0.5,
    }
}

#[test]
fn cl4srec_two_stage_run_emits_a_nested_chrome_trace() {
    let _g = lock();
    let path = std::env::temp_dir().join(format!("cl4srec_trace_{}.json", std::process::id()));
    {
        let cfg = seqrec_obs::ObsConfig {
            chrome: Some(path.display().to_string()),
            ..Default::default()
        };
        let _obs = seqrec_obs::init_with(&cfg);
        let split = Split::leave_one_out(&toy_dataset());
        let mut model = Cl4sRec::new(tiny_cfg(12), 9);
        let augs = AugmentationSet::paper_full(0.6, 0.3, 0.5, model.mask_token());
        let pre =
            PretrainOptions { epochs: 2, batch_size: 8, patience: None, ..Default::default() };
        let fine = TrainOptions {
            epochs: 2,
            batch_size: 8,
            patience: None,
            valid_probe_users: 8,
            ..Default::default()
        };
        let (pre_report, fine_report) = model.fit(&split, &augs, &pre, &fine);
        assert_eq!(pre_report.losses.len(), 2);
        assert_eq!(pre_report.epoch_secs.len(), 2);
        assert_eq!(fine_report.epochs_run(), 2);
        assert!(fine_report.total_train_secs > 0.0);
        assert!(fine_report.epochs.iter().all(|e| e.probe_secs > 0.0), "probe time not recorded");
        assert!(fine_report.mean_seqs_per_sec > 0.0);
    } // ObsGuard drop writes the closing `]`

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("trace is not valid JSON: {e}"));
    let events = doc.as_arr().expect("chrome trace is a JSON array");

    // Replay the B/E stream as a bracket sequence, recording each span's
    // parent name at open time.
    let mut stack: Vec<&str> = Vec::new();
    let mut child_of: Vec<(String, String)> = Vec::new(); // (name, parent)
    for ev in events {
        match ev.get("ph").and_then(Value::as_str) {
            Some("B") => {
                let name = ev.get("name").and_then(Value::as_str).expect("name");
                let parent = stack.last().copied().unwrap_or("<root>");
                child_of.push((name.to_string(), parent.to_string()));
                stack.push(name);
            }
            Some("E") => {
                let name = ev.get("name").and_then(Value::as_str).expect("name");
                assert_eq!(stack.pop(), Some(name), "mismatched E event");
            }
            _ => {}
        }
    }
    assert!(stack.is_empty(), "trace ended with unclosed spans: {stack:?}");

    let count = |name: &str, parent: &str| {
        child_of.iter().filter(|(n, p)| n == name && p == parent).count()
    };
    // Two pre-training epochs + two fine-tuning epochs at the root.
    assert_eq!(count("epoch", "<root>"), 4);
    assert!(count("batch", "epoch") >= 4, "expected batches inside epochs");
    // Pre-training batches: augmentation, the two-view forward and NT-Xent
    // all nest inside the batch span.
    assert!(count("augment", "forward") == 0, "augment must precede forward, not nest in it");
    assert!(count("augment", "batch") > 0, "augment spans missing:\n{child_of:?}");
    assert!(count("ntxent", "batch") > 0, "ntxent spans missing");
    // Both stages: forward, backward and the optimiser inside every batch.
    assert!(count("forward", "batch") > 0, "forward spans missing");
    assert!(count("backward", "batch") > 0, "backward spans missing");
    assert!(count("optim", "batch") > 0, "optim spans missing");
    // The fine-tune probe runs the evaluator under its own span.
    assert!(count("probe", "epoch") > 0, "probe spans missing");
    assert!(count("eval", "probe") > 0, "eval spans missing under probe");
}

#[test]
fn profiler_folds_a_two_stage_trace_and_exclusive_times_sum_to_wall_clock() {
    let _g = lock();
    let buf = SharedBuf::new();
    sink::install(Arc::new(JsonlSink::to_writer(Box::new(buf.clone()))));
    let split = Split::leave_one_out(&toy_dataset());
    let mut model = Cl4sRec::new(tiny_cfg(12), 9);
    let augs = AugmentationSet::paper_full(0.6, 0.3, 0.5, model.mask_token());
    let pre = PretrainOptions { epochs: 2, batch_size: 8, patience: None, ..Default::default() };
    let fine = TrainOptions {
        epochs: 2,
        batch_size: 8,
        patience: None,
        valid_probe_users: 8,
        ..Default::default()
    };
    model.fit(&split, &augs, &pre, &fine);
    sink::uninstall();

    let events = seqrec_obs::profile::parse_auto(&buf.contents())
        .unwrap_or_else(|e| panic!("trace did not parse: {e}"));
    let profile = seqrec_obs::profile::Profile::build(&events)
        .unwrap_or_else(|e| panic!("trace did not fold: {e}"));

    // Acceptance criterion: the per-phase exclusive times must sum back to
    // the wall-clock span time within 1%.
    let total = profile.total_us();
    assert!(total > 0, "profile has no wall-clock time");
    let excl_sum: u64 = (0..profile.nodes().len()).map(|i| profile.exclusive_us(i)).sum();
    let drift = (excl_sum as f64 - total as f64).abs() / total as f64;
    assert!(
        drift <= 0.01,
        "exclusive times sum to {excl_sum}us but wall-clock is {total}us ({:.2}% drift)",
        drift * 100.0
    );

    // Both training phases appear with the expected structure.
    let tree = profile.render_tree();
    for phase in ["epoch", "batch", "forward", "backward", "optim"] {
        assert!(tree.contains(phase), "span `{phase}` missing from profile:\n{tree}");
    }
    let top = profile.top_exclusive(5);
    assert!(!top.is_empty());
    assert!(top.iter().all(|(path, ..)| !path.is_empty()));
    let folded = profile.folded_stacks();
    assert!(
        folded.lines().any(|l| l.contains(";")),
        "folded stacks carry no nested paths:\n{folded}"
    );
}

/// True when some `forward` span in the subtree at `idx` sits inside
/// another `forward` span (`inside`: an ancestor already is one).
fn nested_forward(nodes: &[Node], idx: usize, inside: bool) -> bool {
    let here = nodes[idx].name == "forward";
    (inside && here)
        || nodes[idx].children.iter().any(|&c| nested_forward(nodes, c, inside || here))
}

#[test]
fn fit_joint_runs_both_encoder_passes_under_forward_spans() {
    let _g = lock();
    let buf = SharedBuf::new();
    sink::install(Arc::new(JsonlSink::to_writer(Box::new(buf.clone()))));
    let split = Split::leave_one_out(&toy_dataset());
    let mut model = Cl4sRec::new(tiny_cfg(12), 9);
    let augs = AugmentationSet::paper_full(0.6, 0.3, 0.5, model.mask_token());
    let opts = TrainOptions {
        epochs: 1,
        batch_size: 8,
        patience: None,
        probe_every: 0,
        ..Default::default()
    };
    model.fit_joint(&split, &augs, 0.1, &opts);
    sink::uninstall();

    let events = seqrec_obs::profile::parse_auto(&buf.contents())
        .unwrap_or_else(|e| panic!("trace did not parse: {e}"));
    let profile = Profile::build(&events).unwrap_or_else(|e| panic!("trace did not fold: {e}"));
    let nodes = profile.nodes();
    let child = |parent: usize, name: &str| {
        nodes[parent].children.iter().copied().find(|&c| nodes[c].name == name)
    };
    let tree = profile.render_tree();
    let batch = child(0, "epoch").and_then(|e| child(e, "batch")).expect("epoch;batch spans");
    let forward = child(batch, "forward").unwrap_or_else(|| panic!("no forward spans:\n{tree}"));
    assert_eq!(nodes[batch].count, 3, "24 users in batches of 8");
    assert_eq!(
        nodes[forward].count,
        2 * nodes[batch].count,
        "each joint batch runs a next-item and a contrastive forward:\n{tree}"
    );
    assert!(!nested_forward(nodes, 0, false), "a forward span nests inside another:\n{tree}");
}
