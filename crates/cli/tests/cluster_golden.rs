//! Golden-file tests for what the CLI prints about cluster plans.
//!
//! Every `--devices` verb below prints numbers that are deterministic
//! functions of the template and the machine: the sharded plan, its
//! simulation on the shared bus, its certificate, seeded fault sweeps and
//! the profile. The documents are compared byte-for-byte on three
//! machines: two C870s, one C870 behind the shared bus (`c870x1` is a
//! cluster of one, not `--device c870`), and a mixed C870 + 8800 GTX pair.
//!
//! Regenerate after an intentional change with:
//! `UPDATE_GOLDEN=1 cargo test -p gpuflow-cli --test cluster_golden`

use gpuflow_cli::{execute, Command};

/// The machines every verb is pinned on, with the file-name tag of each.
const MACHINES: [(&str, &str); 3] = [
    ("c870x2", "c870x2"),
    ("c870x1", "c870x1"),
    ("c870,8800gtx", "c870_8800gtx"),
];

fn check(name: &str, cmdline: &str) {
    let argv: Vec<String> = cmdline.split_whitespace().map(str::to_string).collect();
    let text = execute(&Command::parse(&argv).unwrap()).unwrap();
    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden_path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        text, golden,
        "`{cmdline}` drifted from {name}; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

/// `verb` with `args` on every machine, into `cluster_<what>_<machine>.<ext>`.
fn on_every_machine(what: &str, ext: &str, verb_and_source: &str, args: &str) {
    for (spec, tag) in MACHINES {
        check(
            &format!("cluster_{what}_{tag}.{ext}"),
            &format!("{verb_and_source} --devices {spec} {args}"),
        );
    }
}

#[test]
fn plan_text_matches_golden() {
    on_every_machine("plan", "txt", "plan cnn-small:128x128", "");
}

#[test]
fn run_text_matches_golden() {
    on_every_machine("run", "txt", "run cnn-small:128x128", "--overlap");
}

#[test]
fn run_document_matches_golden() {
    on_every_machine("run", "json", "run cnn-small:128x128", "--json");
}

#[test]
fn check_document_matches_golden() {
    on_every_machine(
        "check",
        "json",
        "check edge:128x128,k=5,o=4",
        "--json --hazards",
    );
}

#[test]
fn chaos_document_matches_golden() {
    on_every_machine(
        "chaos",
        "json",
        "chaos cnn-small:128x128",
        "--seeds 2 --json",
    );
}

#[test]
fn profile_document_matches_golden() {
    on_every_machine("profile", "json", "profile cnn-small:128x128", "--json");
}
