//! Stamps the binary with the compiler version and, when built from a
//! git checkout, the commit. Both end up in every ledger file.

use std::path::Path;
use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = capture(&rustc, &["-V"]).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=LEDGER_RUSTC={version}");

    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git_dir = repo.join(".git");
    let commit = if git_dir.exists() {
        // Re-stamp when HEAD moves; without a .git directory there is
        // nothing to watch and the stamp stays "unknown".
        println!("cargo:rerun-if-changed={}", git_dir.join("HEAD").display());
        println!(
            "cargo:rerun-if-changed={}",
            git_dir.join("refs/heads").display()
        );
        let repo = repo.to_string_lossy().into_owned();
        capture("git", &["-C", &repo, "rev-parse", "HEAD"])
    } else {
        None
    };
    println!(
        "cargo:rustc-env=LEDGER_COMMIT={}",
        commit.unwrap_or_else(|| "unknown".to_string())
    );
}
