//! Minimal flag parsing (the sanctioned dependency set has no clap).

/// Top-level usage text.
pub const USAGE: &str = "\
hdoms — open modification spectral library search (DAC 2024 reproduction)

USAGE:
  hdoms generate --out-queries <q.mgf> --out-library <lib.mgf>
                 [--preset iprg2012|hek293|tiny] [--scale <f64>] [--seed <u64>]
  hdoms synth    --out <lib.hdx> [--preset tiny|iprg2012|hek293]
                 [--scale <f64>] [--factor <usize>] [--seed <u64>]
                 [--backend exact|hyperoms|rram] [--dim <usize>]
                 [--shard-size <usize>] [--threads <usize>]
                 [--spill-threshold <usize>]
                 (scales a synthetic preset by --factor via deterministic
                  peak permutation + intensity augmentation and streams
                  it straight into an index — the library is generated,
                  encoded and spilled on the fly, never held in RAM.
                  See docs/SCALE.md)
  hdoms index build  --library <lib.mgf> --out <lib.hdx>
                     [--backend exact|hyperoms|rram] [--dim <usize>]
                     [--shard-size <usize>] [--threads <usize>]
                     [--spill-threshold <usize>]
                     (bounded-memory: entries are encoded and spilled
                      --spill-threshold at a time, whatever the library
                      size. See docs/SCALE.md)
  hdoms index info   --index <lib.hdx>
  hdoms index append --index <lib.hdx> --library <more.mgf> [--out <new.hdx>]
                     [--threads <usize>]
  hdoms search   --queries <q.mgf> (--library <lib.mgf> | --index <lib.hdx>)
                 --out <psms.tsv>
                 [--backend exact|annsolo|hyperoms|rram] [--window open|standard]
                 [--fdr <f64>] [--dim <usize>]
                 [--threads <usize>] [--prefilter off|k=<usize>]
                 (--prefilter k=N narrows each precursor window to the
                  top-N sketch-scored candidates before the exact scan;
                  every backend but annsolo. See docs/PREFILTER.md)
  hdoms compare  --queries <q.mgf> --backend-a <spec> --backend-b <spec>
                 [--library <lib.mgf>] [--index <lib.hdx>]
                 [--window open|standard] [--fdr <f64>] [--dim <usize>]
                 (spec: exact|annsolo|hyperoms|rram|index)
  hdoms serve    --index <name>=<lib.hdx> [--index <name2>=<more.hdx> ...]
                 (--listen <host:port> | --stdio true) [--threads <usize>]
                 [--workers <usize>] [--queue-depth <usize>]
                 [--deadline-ms <u64>] [--interactive-weight <usize>]
                 [--interactive-queue-depth <usize>] [--memory-budget <bytes>]
                 [--metrics <host:port>]
                 [--log-level off|error|warn|info|debug] [--log-json true]
                 [--prefilter off|k=<usize>]
                 (--workers bounds total in-flight search parallelism,
                  --queue-depth bounds waiting batches before `busy`
                  rejections, --deadline-ms sheds batches that queue
                  too long. Tiered serving: --interactive-weight grants
                  that many interactive admissions per batch admission,
                  --interactive-queue-depth bounds the interactive queue
                  separately, and an interactive query rides the
                  admission of an identical one still queued;
                  --memory-budget caps resident mapped-shard bytes with
                  shard-LRU eviction; see docs/SCHEDULER.md.
                  --metrics exposes the registry Prometheus-style;
                  --log-level/--log-json tune the structured stderr log;
                  see docs/OBSERVABILITY.md. --prefilter sets the
                  sketch cascade of every request that names none; see
                  docs/PREFILTER.md)
  hdoms query    --addr <host:port> --queries <q.mgf> --index <name>
                 --out <psms.tsv> [--window open|standard] [--fdr <f64>]
                 [--tier interactive|batch] [--batch-size <usize>]
                 [--session true] [--prefilter off|k=<usize>]
                 (--session streams batches through one server-side
                  session: FDR is filtered once across all of them;
                  --tier picks the priority class batches are admitted
                  under; --prefilter overrides the server default per
                  batch, or for the whole session with --session true)
  hdoms profile  --psms <psms.tsv> [--bin-width <f64>] [--min-count <usize>]
  hdoms chip     [--bits 1|2|3] [--dim <usize>] [--refs <u64>]
                 [--activated-rows <usize>]
  hdoms help";

/// A parsed `--key value` flag list.
#[derive(Debug, Default)]
pub struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parse `--key value` pairs; rejects stray positionals and dangling
    /// flags.
    pub fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = &args[i];
            if !key.starts_with("--") {
                return Err(format!("unexpected argument {key:?}"));
            }
            let Some(value) = args.get(i + 1) else {
                return Err(format!("flag {key} needs a value"));
            };
            pairs.push((key[2..].to_owned(), value.clone()));
            i += 2;
        }
        Ok(Flags { pairs })
    }

    /// The raw string value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for a repeatable `key`, in order (e.g. `serve`
    /// takes `--index name=path` once per resident index).
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// A required flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional typed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value {raw:?} for --{key}")),
        }
    }

    /// Reject flags outside the allowed set (typos must not silently run
    /// a default configuration).
    pub fn check_known(&self, allowed: &[&str]) -> Result<(), String> {
        for (key, _) in &self.pairs {
            if !allowed.contains(&key.as_str()) {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs() {
        let flags = Flags::parse(&args(&["--scale", "0.5", "--seed", "9"])).unwrap();
        assert_eq!(flags.get("scale"), Some("0.5"));
        assert_eq!(flags.get_or("seed", 0u64).unwrap(), 9);
        assert_eq!(flags.get_or("dim", 8192usize).unwrap(), 8192);
    }

    #[test]
    fn rejects_positionals_and_dangling() {
        assert!(Flags::parse(&args(&["stray"])).is_err());
        assert!(Flags::parse(&args(&["--scale"])).is_err());
    }

    #[test]
    fn repeated_flags_collect_in_order() {
        let flags = Flags::parse(&args(&["--index", "a=1.hdx", "--index", "b=2.hdx"])).unwrap();
        assert_eq!(flags.get_all("index"), vec!["a=1.hdx", "b=2.hdx"]);
        assert_eq!(flags.get("index"), Some("a=1.hdx"));
        assert!(flags.get_all("missing").is_empty());
    }

    #[test]
    fn require_and_unknown() {
        let flags = Flags::parse(&args(&["--a", "1"])).unwrap();
        assert!(flags.require("a").is_ok());
        assert!(flags.require("b").is_err());
        assert!(flags.check_known(&["a"]).is_ok());
        assert!(flags.check_known(&["b"]).is_err());
    }

    #[test]
    fn typed_parse_errors_are_reported() {
        let flags = Flags::parse(&args(&["--seed", "banana"])).unwrap();
        assert!(flags.get_or("seed", 0u64).is_err());
    }
}
