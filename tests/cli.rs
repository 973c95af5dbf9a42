//! The command-line front end, driven as a user drives it: flag-table
//! errors, output-format resolution, `convert` refusing to overwrite its
//! input and `crawl` refusing to write shards over its bundle store,
//! closed stdout/stderr, `crawl` (live or replayed) writing the same
//! shard bytes as `crawl-job start`, and a replay that cannot reproduce
//! its recording failing loudly.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_permissions-odyssey");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn the CLI")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("permodyssey-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(p: &Path) -> &str {
    p.to_str().expect("UTF-8 temp path")
}

fn assert_success(output: &Output) {
    assert!(
        output.status.success(),
        "{:?}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
}

/// Asserts exit 1 with exactly one stderr line, an `error:` naming every
/// one of `needles`.
fn assert_one_error(output: &Output, needles: &[&str]) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{stderr}");
    assert!(lines[0].starts_with("error: "), "{stderr}");
    for needle in needles {
        assert!(lines[0].contains(needle), "missing {needle:?}: {stderr}");
    }
}

#[test]
fn unknown_repeated_and_valueless_flags_are_loud() {
    let dir = scratch("flags");
    let db = dir.join("crawl.jsonl");
    let out = path(&db);
    let store = dir.join("store");
    let recorded = dir.join("recorded.jsonl");
    let record = ["crawl", "--size", "20", "--record", path(&store)];
    assert_success(&run(&[&record[..], &["--out", path(&recorded)]].concat()));
    let store = path(&store);
    let cases: [(&[&str], &str); 12] = [
        // Misspelled `--shards`: ignored, the crawl would write one shard.
        (
            &["crawl", "--size", "50", "--shard", "4", "--out", out],
            "--shard",
        ),
        // The deleted resume flag: ignored, the crawl would truncate the
        // database it was meant to resume.
        (
            &["crawl", "--size", "50", "--resume", "--out", out],
            "--resume",
        ),
        // A trailing value flag: ignored, the crawl would visit the default
        // 20,000 origins.
        (&["crawl", "--out", out, "--size"], "--size"),
        (
            &[
                "crawl", "--size", "50", "--seed", "1", "--seed", "2", "--out", out,
            ],
            "--seed",
        ),
        // `--out` swallowing the next flag as its file name.
        (
            &["crawl", "--size", "50", "--out", "--format", "columnar"],
            "--out",
        ),
        // The retired engine choice: there is one engine.
        (
            &["crawl", "--size", "50", "--js-engine", "vm", "--out", out],
            "--js-engine",
        ),
        // A bundle store fixes the dataset: each of these was ignored,
        // and the replay wrote the recording's records.
        (
            &["crawl", "--replay", store, "--size", "5", "--out", out],
            "--size",
        ),
        (
            &["crawl", "--replay", store, "--seed", "99", "--out", out],
            "--seed",
        ),
        (
            &["crawl", "--replay", store, "--retries", "9", "--out", out],
            "--retries",
        ),
        (
            &["crawl", "--replay", store, "--adversarial", "--out", out],
            "--adversarial",
        ),
        (
            &[
                "crawl",
                "--replay",
                store,
                "--fault-panics",
                "5",
                "--out",
                out,
            ],
            "--fault-panics",
        ),
        (
            &[
                "crawl",
                "--replay",
                store,
                "--fault-transients",
                "500",
                "--out",
                out,
            ],
            "--fault-transients",
        ),
    ];
    for (args, flag) in cases {
        assert_one_error(&run(args), &["crawl", flag]);
    }
    assert!(!db.exists(), "a rejected command line writes nothing");
    let job = dir.join("job");
    let job_dir = path(&job);
    #[rustfmt::skip]
    let job_cases: [(&[&str], &str, &str); 3] = [
        (
            &["crawl-job", "start", "--dir", job_dir, "--size", "50", "--js-engine", "interp"],
            "crawl-job start", "--js-engine",
        ),
        // Where `.colsh` epoch markers land was a job knob that `job.json`
        // does not record, so a resume without it changed the shard bytes.
        (
            &["crawl-job", "start", "--dir", job_dir, "--size", "50", "--format", "columnar",
              "--dict-epoch", "2"],
            "crawl-job start", "--dict-epoch",
        ),
        (
            &["crawl-job", "resume", "--dir", job_dir, "--dict-epoch", "2"],
            "crawl-job resume", "--dict-epoch",
        ),
    ];
    for (args, verb, flag) in job_cases {
        assert_one_error(&run(args), &[verb, flag]);
    }
    assert!(!job.exists(), "a rejected job command creates nothing");
    assert_one_error(
        &run(&["analyze", "--tabel", "t10"]),
        &["analyze", "--tabel"],
    );
    assert_one_error(&run(&["crawl", "500"]), &["crawl", "500"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verbs_dispatch_before_flags() {
    assert_one_error(
        &run(&["crawl-job", "bogus", "--dir", "x"]),
        &["bogus", "start|resume|status|analyze"],
    );
    assert_one_error(&run(&["crawl-job"]), &["start|resume|status|analyze"]);
    assert_one_error(&run(&["crawl-job", "start"]), &["crawl-job start", "--dir"]);
    assert_one_error(&run(&["frobnicate"]), &["frobnicate"]);
}

#[test]
fn format_must_agree_with_the_output_extension() {
    let dir = scratch("format");
    for (format, file) in [("columnar", "x.jsonl"), ("jsonl", "x.colsh")] {
        let out = dir.join(file);
        let output = run(&[
            "crawl",
            "--size",
            "20",
            "--format",
            format,
            "--out",
            path(&out),
        ]);
        assert_one_error(&output, &["--format", file]);
        assert!(!out.exists(), "{file}: nothing written");
    }
    let db = dir.join("db.jsonl");
    assert_success(&run(&["crawl", "--size", "20", "--out", path(&db)]));
    let out = dir.join("y.jsonl");
    let output = run(&[
        "convert",
        "--in",
        path(&db),
        "--out",
        path(&out),
        "--format",
        "columnar",
    ]);
    assert_one_error(&output, &["convert", "--format", "y.jsonl"]);
    assert!(!out.exists());

    // An agreeing --format, or one on an extension that names no format,
    // still decides the format.
    let colsh = dir.join("z.colsh");
    let output = run(&[
        "crawl",
        "--size",
        "20",
        "--format",
        "columnar",
        "--out",
        path(&colsh),
    ]);
    assert_success(&output);
    let plain = dir.join("plain.db");
    let output = run(&[
        "convert",
        "--in",
        path(&db),
        "--out",
        path(&plain),
        "--format",
        "columnar",
    ]);
    assert_success(&output);
    for file in [&colsh, &plain] {
        let bytes = std::fs::read(file).unwrap();
        assert!(
            bytes.starts_with(&crawler::COLSH_MAGIC),
            "{}",
            file.display()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `convert` creates its output before it reads a record, so an output
/// that is the input — under its own name, another spelling of it, a
/// symlink or a hard link to it — is refused before anything is
/// truncated.
#[test]
fn convert_refuses_to_overwrite_its_input() {
    let dir = scratch("convert-self");
    let convert = |args: &[&str]| {
        Command::new(BIN)
            .current_dir(&dir)
            .arg("convert")
            .args(args)
            .output()
            .expect("spawn the CLI")
    };
    for (format, file) in [("jsonl", "db.jsonl"), ("columnar", "db.colsh")] {
        let db = dir.join(file);
        #[rustfmt::skip]
        assert_success(&run(&["crawl", "--size", "20", "--format", format, "--out", path(&db)]));
        let bytes = std::fs::read(&db).unwrap();
        let link = format!("link-{file}");
        std::os::unix::fs::symlink(file, dir.join(&link)).unwrap();
        let hard = format!("hard-{file}");
        std::fs::hard_link(&db, dir.join(&hard)).unwrap();
        let dotted = format!("./{file}");
        for out in [file, dotted.as_str(), link.as_str(), hard.as_str()] {
            assert_one_error(&convert(&["--in", file, "--out", out]), &["convert", out]);
            assert_eq!(std::fs::read(&db).unwrap(), bytes, "{format}: --out {out}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A recording creates its store before its shards, and a replay reads
/// its store while it writes shards, so a shard that is one of the
/// store's files — named directly, spelled another way or through a hard
/// link — is refused before any file is created, and the store keeps its
/// bytes. A recording's store need not exist yet.
#[test]
fn crawl_refuses_to_write_shards_over_its_bundle_store() {
    let dir = scratch("store-shards");
    let store = dir.join("store");
    let recorded = dir.join("recorded.jsonl");
    assert_success(&run(&[
        "crawl",
        "--size",
        "30",
        "--record",
        path(&store),
        "--out",
        path(&recorded),
    ]));
    let files = crawler::BUNDLE_STORE_FILES;
    let snapshot = || files.map(|file| std::fs::read(store.join(file)).unwrap());
    let stored = snapshot();
    for file in files {
        let hard = dir.join(format!("hard-{file}"));
        std::fs::hard_link(store.join(file), &hard).unwrap();
        let dotted = store.join(".").join(file);
        for out in [store.join(file), dotted, hard] {
            let replay = run(&["crawl", "--replay", path(&store), "--out", path(&out)]);
            assert_one_error(&replay, &["crawl", file]);
            assert_eq!(snapshot(), stored, "crawl --replay --out {}", out.display());
        }
        let fresh = dir.join(format!("fresh-{file}"));
        let out = fresh.join(file);
        #[rustfmt::skip]
        let record = run(&["crawl", "--size", "30", "--record", path(&fresh), "--out", path(&out)]);
        assert_one_error(&record, &["crawl", file]);
        assert!(!fresh.exists(), "crawl --record --out {}", out.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crawl_writes_the_same_shards_as_crawl_job_start() {
    for (format, ext) in [("jsonl", "jsonl"), ("columnar", "colsh")] {
        let dir = scratch(&format!("same-shards-{ext}"));
        // Four 256-rank leases: every worker of a 2- or 3-worker run
        // leases ranks.
        let dataset = [
            "--size",
            "800",
            "--seed",
            "7",
            "--shards",
            "3",
            "--format",
            format,
            "--fault-transients",
            "40",
        ];
        let base = dir.join(format!("crawl.{ext}"));
        let store = dir.join("store");
        let mut crawl = vec!["crawl", "--workers", "3", "--out", path(&base)];
        crawl.extend(["--record", path(&store)]);
        crawl.extend(dataset);
        assert_success(&run(&crawl));
        let job = dir.join("job");
        let mut start = vec!["crawl-job", "start", "--dir", path(&job), "--workers", "2"];
        start.extend(dataset);
        assert_success(&run(&start));
        // The recording replays to the same shards at any worker count.
        let mut outputs = vec![("crawl --record", dir.clone())];
        for workers in ["1", "3"] {
            let replayed = dir.join(format!("replay-{workers}"));
            std::fs::create_dir_all(&replayed).unwrap();
            let base = replayed.join(format!("crawl.{ext}"));
            assert_success(&run(&[
                "crawl",
                "--replay",
                path(&store),
                "--workers",
                workers,
                "--shards",
                "3",
                "--format",
                format,
                "--out",
                path(&base),
            ]));
            outputs.push(("crawl --replay", replayed));
        }
        for (verb, out) in &outputs {
            for shard in 0..3 {
                let name = format!("crawl-{shard:03}.{ext}");
                let crawled = std::fs::read(out.join(&name)).unwrap();
                assert!(!crawled.is_empty(), "{name}");
                assert_eq!(
                    crawled,
                    std::fs::read(job.join(&name)).unwrap(),
                    "{format}: {name} differs between {verb} and crawl-job start"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Copies the store at `from` to `to` with one byte of rank 1's first
/// recorded URL changed: a store that passes every store rule, but whose
/// tape no longer matches the visit it claims to record.
fn misrecord_first_url(from: &Path, to: &Path) {
    let bundle = crawler::ReplayBundle::load(from).unwrap();
    let recorder = crawler::BundleRecorder::create(to, bundle.meta()).unwrap();
    for rank in 1..=bundle.sites() {
        let manifest = bundle.manifest(rank).unwrap();
        let tapes = 0..manifest.attempts.len();
        let mut attempts: Vec<_> = tapes.map(|a| bundle.tape(rank, a).unwrap()).collect();
        if rank == 1 {
            let url = &mut attempts[0].exchanges[0].url;
            let mut bytes = std::mem::take(url).into_bytes();
            *bytes.last_mut().unwrap() ^= 0x01;
            *url = String::from_utf8(bytes).unwrap();
        }
        let origin = manifest.origin.clone();
        let synthesized = manifest.synthesized;
        recorder
            .submit(crawler::SiteBundle {
                rank,
                origin,
                synthesized,
                attempts,
            })
            .unwrap();
    }
    recorder.finish().unwrap();
}

/// A store whose metadata grants more retries than its recording had asks
/// for an attempt the store lacks, and a store whose rank-1 tape was
/// recorded for another URL strays inside the first attempt: either way
/// `crawl --replay` fails with one error naming the rank, where it used
/// to panic or to record a crawler crash.
#[test]
fn replay_divergence_is_an_error_not_a_panic() {
    let dir = scratch("diverge");
    let store = dir.join("store");
    let recorded = dir.join("recorded.jsonl");
    assert_success(&run(&[
        "crawl",
        "--size",
        "30",
        "--record",
        path(&store),
        "--out",
        path(&recorded),
    ]));
    // A store whose tape for rank 1 was recorded for another URL: the
    // replay strays inside its first attempt.
    let misrecorded = dir.join("misrecorded");
    misrecord_first_url(&store, &misrecorded);
    // A store whose metadata grants more retries than the recording had.
    let meta = crawler::BundleMeta::load(&store).unwrap();
    let max_retries = meta.max_retries + 3;
    crawler::BundleMeta {
        max_retries,
        ..meta
    }
    .store(&store)
    .unwrap();
    for (store, rank) in [(&store, "rank "), (&misrecorded, "rank 1:")] {
        let replayed = dir.join("replayed.jsonl");
        let output = run(&["crawl", "--replay", path(store), "--out", path(&replayed)]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{stderr}");
        let diverged = format!("replay diverged at {rank}");
        assert!(errors[0].contains(&diverged), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A recording job whose store cannot grow stops at the first failed
/// write with one error naming the store file, and its health surface
/// says `failed`, at one worker and at eight. The file-size limit and
/// the ignored SIGXFSZ apply to the CLI's own process only.
#[test]
fn a_store_write_error_fails_a_recording_job_cleanly() {
    let dir = scratch("store-full");
    for workers in ["1", "8"] {
        let job = dir.join(format!("job-{workers}"));
        #[rustfmt::skip]
        let args = [
            "crawl-job", "start", "--dir", path(&job), "--record", "--size", "3000",
            "--seed", "7", "--format", "columnar", "--shards", "4", "--workers", workers,
        ];
        let output = Command::new("sh")
            .args(["-c", "trap '' XFSZ; ulimit -f 600; exec \"$0\" \"$@\"", BIN])
            .args(args)
            .output()
            .expect("spawn the CLI under a file-size limit");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{workers} workers: {stderr}");
        assert!(!stderr.contains("panicked"), "{workers} workers: {stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{workers} workers: {stderr}");
        let store = job.join("bundle");
        assert!(
            errors[0].contains(path(&store)),
            "{workers} workers: {stderr}"
        );
        let status = crawler::read_status(&job).unwrap();
        assert_eq!(status.state, "failed", "{workers} workers: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the CLI with stdout (or, with `stderr`, stderr) connected to a
/// pipe whose read end is already closed, so the first write to it fails
/// with EPIPE no matter how fast the child is.
fn run_with_closed(stderr: bool, args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let mut command = Command::new(BIN);
    command.args(args);
    if stderr {
        command.stderr(writer).stdout(Stdio::piped());
    } else {
        command.stdout(writer).stderr(Stdio::piped());
    }
    command.output().expect("spawn the CLI")
}

#[test]
fn closed_stdout_ends_output_with_exit_zero() {
    let dir = scratch("closed-stdout");
    let job = dir.join("job");
    let db = dir.join("db.jsonl");
    assert_success(&run(&[
        "crawl-job",
        "start",
        "--dir",
        path(&job),
        "--size",
        "30",
    ]));
    assert_success(&run(&["crawl", "--size", "30", "--out", path(&db)]));
    let cases: [&[&str]; 7] = [
        &["help"],
        &["crawl-job", "status", "--dir", path(&job)],
        &["lint", "camera 'none'"],
        &["generate"],
        &["poc"],
        &["matrix"],
        // A switch leaves the flag after it alone.
        &["analyze", "--lenient", "--db", path(&db)],
    ];
    for args in cases {
        let output = run_with_closed(false, args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn closed_stderr_does_not_stop_a_crawl() {
    let dir = scratch("closed-stderr");
    let db = dir.join("crawl.jsonl");
    let crawl = ["crawl", "--adversarial", "--size", "30", "--out", path(&db)];
    let output = run_with_closed(true, &crawl);
    assert_eq!(output.status.code(), Some(0));
    let text = std::fs::read_to_string(&db).unwrap();
    assert_eq!(text.lines().count(), 30, "the whole database is written");

    let job = dir.join("job");
    let start = [
        "crawl-job",
        "start",
        "--dir",
        path(&job),
        "--size",
        "30",
        "--status-every",
        "5",
    ];
    assert_eq!(run_with_closed(true, &start).status.code(), Some(0));
    let status = std::fs::read_to_string(job.join("status.json")).unwrap();
    assert!(status.contains("\"state\":\"complete\""), "{status}");

    // Errors still exit 1 when they cannot be printed.
    assert_eq!(
        run_with_closed(true, &["crawl", "--bogus"]).status.code(),
        Some(1)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Progress lines report the records written when they print: for
/// `crawl` and `crawl-job start` alike, the counts rise strictly in
/// steps of `status_every` and end at the whole crawl.
#[test]
fn progress_lines_count_records_written() {
    let dir = scratch("progress");
    let db = dir.join("crawl.jsonl");
    let job = dir.join("job");
    let crawl = ["crawl", "--size", "300", "--seed", "7", "--out", path(&db)];
    let start = [
        "crawl-job",
        "start",
        "--dir",
        path(&job),
        "--size",
        "300",
        "--seed",
        "7",
        "--status-every",
        "30",
    ];
    for args in [&crawl[..], &start[..]] {
        let output = run(args);
        assert_success(&output);
        let stderr = String::from_utf8_lossy(&output.stderr);
        let counts: Vec<u64> = stderr
            .lines()
            .filter_map(|line| line.strip_prefix("crawled "))
            .map(|rest| rest.split('/').next().unwrap().parse().unwrap())
            .collect();
        let expected: Vec<u64> = (1..=10).map(|step| step * 30).collect();
        assert_eq!(counts, expected, "{args:?}: {stderr}");
        assert!(stderr.contains("crawled 300/300 "), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
