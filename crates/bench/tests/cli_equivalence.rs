//! CLI goldens for the fleet bins that no `engine_equivalence` row runs:
//! `sim_ctrl`, `sim_chaos` and `sim_tco`. Each row runs one bin once and
//! pins the bytes it prints and writes, the way `engine_equivalence`
//! pins `sim_fleet`:
//! - stdout;
//! - stderr, with every `<number> s wall` figure masked (the only bytes
//!   that differ between two runs) and the row's directory written as
//!   `$DIR`, so the hash does not depend on where the repo is checked
//!   out;
//! - every file the run writes, named and hashed in name order. Each
//!   row runs with `CARGO_TARGET_DIR` set to a fresh directory under
//!   `CARGO_TARGET_TMPDIR`, so the `experiments/` artifacts land there
//!   too, next to the paths the row's flags name.
//!
//! The `sim_ctrl` row reaches all four headline blocks: the head-to-head,
//! balanced vs isolated, the DVFS twins and the spare sweep. The
//! `sim_chaos` row runs all five campaigns with their series. The
//! `sim_tco` row prices the smoke grid under a skewed, balanced fleet
//! and writes the frontier CSV.
//!
//! Two more tests pin the command line itself, for all four fleet bins:
//! `--help` lists exactly the flags each bin accepted before `--help`
//! existed, each with a placeholder if and only if it takes a value; and
//! an unknown flag or a value flag given last still exits 2.
//!
//! Regenerate (only when an *intentional* change lands):
//! `ENGINE_GOLDEN_PRINT=1 cargo test -p litegpu-bench --test
//! cli_equivalence -- --nocapture` and paste the printed table. The same
//! switch prints `engine_equivalence`'s table.

use std::path::Path;
use std::process::Command;

/// FNV-1a 64-bit, as in `engine_equivalence`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(row, bin, flags, stdout fnv, stderr fnv, artifacts fnv)`. A `$DIR`
/// in a flag is the row's output directory.
type Row = (
    &'static str,
    &'static str,
    &'static [&'static str],
    u64,
    u64,
    u64,
);

const GOLDEN: &[Row] = &[
    (
        "ctrl",
        env!("CARGO_BIN_EXE_sim_ctrl"),
        &[
            "--instances",
            "64",
            "--cell-size",
            "8",
            "--hours",
            "0.25",
            "--accel",
            "50000",
            "--balancer",
            "--skew",
            "2x2.5",
            "--dvfs",
            "--spares-target",
            "0.99",
            "--max-spares",
            "2",
            "--series",
            "$DIR/ctrl.jsonl",
        ],
        0x16e7a4d6e6215108,
        0x72e0d4ea9fe0c58a,
        0xd23e1ecd06383695,
    ),
    (
        "chaos",
        env!("CARGO_BIN_EXE_sim_chaos"),
        &["--smoke", "--series"],
        0x427529c31678c25e,
        0x92dc7811897508a8,
        0x14f8407bd10c75ff,
    ),
    (
        "tco",
        env!("CARGO_BIN_EXE_sim_tco"),
        &[
            "--smoke",
            "--threads",
            "2",
            "--balancer",
            "--skew",
            "2x2.5",
            "--series",
            "$DIR/frontier.csv",
        ],
        0xc93dfda2e2c2c5cb,
        0xab7f8c96c0cabf34,
        0x5c6d81dffc521ead,
    ),
];

/// Replaces the number before each ` s wall` with `#`.
fn mask_wall(stderr: &str) -> String {
    let mut pieces = stderr.split(" s wall").peekable();
    let mut out = String::new();
    while let Some(piece) = pieces.next() {
        if pieces.peek().is_some() {
            out.push_str(piece.trim_end_matches(|c: char| c.is_ascii_digit() || c == '.'));
            out.push_str("# s wall");
        } else {
            out.push_str(piece);
        }
    }
    out
}

/// Every file under `dir`, as `(path relative to dir, bytes)` in name
/// order.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let name = path
                    .strip_prefix(dir)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.push((name, std::fs::read(&path).expect("readable artifact")));
            }
        }
    }
    out.sort();
    out
}

/// Runs one row in a fresh directory; returns its `(stdout, stderr,
/// artifacts)` hashes and the artifact names.
fn run_row(row: &str, bin: &str, flags: &[&str]) -> (u64, u64, u64, Vec<String>) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_{row}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("row dir");
    let dir_str = dir.to_str().expect("utf8 dir");
    let args: Vec<String> = flags.iter().map(|f| f.replace("$DIR", dir_str)).collect();
    let out = Command::new(bin)
        .args(&args)
        .env("CARGO_TARGET_DIR", &dir)
        .output()
        .expect("bin runs");
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(out.status.success(), "{row} failed:\n{stderr}");
    let stderr = mask_wall(&stderr.replace(dir_str, "$DIR"));
    let mut artifacts = Vec::new();
    let mut names = Vec::new();
    for (name, bytes) in files(&dir) {
        artifacts.extend_from_slice(name.as_bytes());
        artifacts.push(0);
        artifacts.extend_from_slice(&fnv1a64(&bytes).to_le_bytes());
        names.push(name);
    }
    (
        fnv1a64(&out.stdout),
        fnv1a64(stderr.as_bytes()),
        fnv1a64(&artifacts),
        names,
    )
}

#[test]
fn fleet_bins_match_cli_goldens() {
    let print = std::env::var("ENGINE_GOLDEN_PRINT").is_ok();
    let mut drift = Vec::new();
    for &(row, bin, flags, stdout_g, stderr_g, artifacts_g) in GOLDEN {
        let (stdout, stderr, artifacts, names) = run_row(row, bin, flags);
        if print {
            println!("(\"{row}\", ..., {stdout:#018x}, {stderr:#018x}, {artifacts:#018x}),");
            println!("    // artifacts: {}", names.join(", "));
        }
        for (name, got, want) in [
            ("stdout", stdout, stdout_g),
            ("stderr", stderr, stderr_g),
            ("artifacts", artifacts, artifacts_g),
        ] {
            if got != want {
                drift.push(format!(
                    "{row} {name}: got {got:#018x}, golden {want:#018x}"
                ));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "CLI output drifted from the pinned goldens:\n{}",
        drift.join("\n")
    );
}

/// The balancer flags every fleet bin accepts: the switch, then the
/// flags that take a value.
const BALANCER: (&str, [&str; 6]) = (
    "--balancer",
    [
        "--balancer-interval",
        "--spill-permille",
        "--hot-factor",
        "--quota-headroom",
        "--kv-slack-us",
        "--skew",
    ],
);

/// `(bin, flags that take a value, switches)`: what each fleet bin
/// accepted before `--help` existed, balancer flags aside.
const ACCEPTED: &[(&str, &[&str], &[&str])] = &[
    (
        env!("CARGO_BIN_EXE_sim_fleet"),
        &[
            "--gpu",
            "--instances",
            "--hours",
            "--rate",
            "--accel",
            "--spares-per-cell",
            "--cell-size",
            "--tick",
            "--ctrl",
            "--control-interval",
            "--warm-pool",
            "--workload",
            "--serving",
            "--prefill-fraction",
            "--kv-gbps",
            "--kv-backlog",
            "--chaos",
            "--trace",
            "--trace-every",
            "--seed",
            "--shards",
            "--threads",
            "--series",
            "--series-dt",
            "--perf-json",
        ],
        &[
            "--dvfs",
            "--no-baseline",
            "--quiet-json",
            "--series-per-cell",
            "--profile",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_sim_ctrl"),
        &[
            "--instances",
            "--serving",
            "--hours",
            "--rate",
            "--accel",
            "--cell-size",
            "--tick",
            "--control-interval",
            "--warm-pool",
            "--workload",
            "--spares-target",
            "--max-spares",
            "--seed",
            "--shards",
            "--threads",
            "--series",
            "--series-dt",
        ],
        &["--dvfs", "--quiet-json"],
    ),
    (
        env!("CARGO_BIN_EXE_sim_chaos"),
        &[
            "--campaign",
            "--instances",
            "--hours",
            "--rate",
            "--accel",
            "--events",
            "--duration",
            "--intensity",
            "--rack-kw",
            "--racks-per-domain",
            "--seed",
            "--shards",
            "--threads",
            "--series-dt",
        ],
        &["--series", "--smoke", "--quiet-json"],
    ),
    (
        env!("CARGO_BIN_EXE_sim_tco"),
        &[
            "--equiv",
            "--rate",
            "--hours",
            "--accel",
            "--grid",
            "--usd-per-kwh",
            "--amort-years",
            "--seed",
            "--threads",
            "--series",
        ],
        &["--quiet-json", "--smoke"],
    ),
];

/// Runs `bin` with `args` and returns `(exit code, stdout, stderr)`.
fn run_bin(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(bin)
        .args(args)
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("bin runs");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn help_lists_exactly_the_accepted_flags() {
    for &(bin, values, switches) in ACCEPTED {
        let (code, stdout, stderr) = run_bin(bin, &["--help"]);
        assert_eq!((code, stderr.as_str()), (Some(0), ""), "{bin} --help");
        // Each flag line is `  --name [PLACEHOLDER]  help`: the usage
        // column ends at the first double space.
        let mut listed: Vec<(String, bool)> = stdout
            .lines()
            .filter(|line| line.starts_with("  --"))
            .map(|line| {
                let usage = line.trim_start().split("  ").next().unwrap();
                let mut words = usage.split(' ');
                let name = words.next().unwrap().to_string();
                (name, words.next().is_some())
            })
            .collect();
        let mut want: Vec<(String, bool)> = values
            .iter()
            .chain(&BALANCER.1)
            .map(|f| (f.to_string(), true))
            .chain(
                switches
                    .iter()
                    .chain(&[BALANCER.0])
                    .map(|f| (f.to_string(), false)),
            )
            .collect();
        listed.sort();
        want.sort();
        assert_eq!(listed, want, "{bin} --help: (flag, takes a value)");
    }
}

#[test]
fn bad_command_lines_exit_2() {
    for &(bin, _, _) in ACCEPTED {
        for (args, message) in [
            (&["--no-such-flag"][..], "unknown argument: --no-such-flag"),
            (&["--seed"][..], "missing value for --seed"),
        ] {
            let (code, stdout, stderr) = run_bin(bin, args);
            assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
            assert!(
                stdout.is_empty() && stderr.contains(message),
                "{bin} {args:?}: {stderr}"
            );
        }
    }
}
