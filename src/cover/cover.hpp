// craft-cover database: the cross-run functional-coverage model behind the
// `craft cover` verb and the CI coverage gate (DESIGN.md §13).
//
// A Database holds RUNS (one per executed simulation, keyed by a globally
// unique run id) and GROUPS (one covergroup per design site, keyed by
// "kind:site"). Each group's bins map a bin name to its per-run hit counts
// (`by_run`, only non-zero entries stored); a bin with an empty by_run map is
// *defined but unhit* — exactly what the diff gate looks for.
//
// Merge semantics: a merge is a union of runs. Two databases that disagree
// about the same run id (different metadata or different bin counts) are
// evidence of a determinism bug, and Merge fails loudly instead of picking a
// side. Because the unit of union is the (deterministic) run and emission is
// canonically sorted, Merge is commutative, associative AND idempotent —
// shards, chaos seeds and nightly campaigns combine in any order into
// byte-identical craft-cover-v1 reports.
//
// Determinism contract: every stored count is derived from token-ordered
// counters (enqueues/dequeues, occupancy-band entries, latency histograms,
// flit framing events) which are invariant under SetParallelism(n); event
// classes whose raw cycle counts can drift by a Stop() drain window under
// craft-par (stall cycles, rejects, pauses, sync waits, chaos fire totals —
// the DESIGN.md §11 carve-out) are quantized to "seen" (0/1) at collection
// time. Run ids include the parallelism level, so even a count that is
// schedule-dependent by design (SoC controller polling) can never collide
// across shards.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kernel/time.hpp"

namespace craft {
class Simulator;
}  // namespace craft

namespace craft::cover {

/// Identity and provenance of one collected run.
struct RunInfo {
  std::string id;      ///< globally unique (see MakeRunId)
  std::string design;  ///< design/workload name ("li_pipeline", "soc_gals_2x2:vecmul")
  std::uint64_t seed = 0;
  unsigned parallelism = 1;
  std::string chaos;   ///< fault-plan tag, "" for a fault-free run
  Time horizon_ps = 0; ///< sim.now() at collection

  bool operator==(const RunInfo&) const = default;
};

/// Canonical run id: "<design>/s<seed>/n<parallelism>[/<chaos>]".
std::string MakeRunId(const std::string& design, std::uint64_t seed,
                      unsigned parallelism, const std::string& chaos = "");

/// One covergroup: a design site plus its bins. `kind` is the taxonomy
/// dimension ("channel", "crossing", "gals", "packetizer", "chaos").
struct Group {
  std::string name;
  std::string kind;
  /// bin name -> (run id -> hit count); only non-zero counts are stored, so
  /// an empty inner map means "defined but never hit".
  std::map<std::string, std::map<std::string, std::uint64_t>> bins;

  std::uint64_t BinTotal(const std::string& bin) const {
    const auto it = bins.find(bin);
    if (it == bins.end()) return 0;
    std::uint64_t t = 0;
    for (const auto& [run, n] : it->second) t += n;
    return t;
  }
};

/// Group map key: "kind:name" (kinds sort together and a chaos site never
/// collides with the channel of the same name).
inline std::string GroupKey(const std::string& kind, const std::string& name) {
  return kind + ":" + name;
}

struct Database {
  std::map<std::string, RunInfo> runs;  ///< run id -> provenance
  std::map<std::string, Group> groups;  ///< GroupKey -> covergroup
};

/// Derives this run's covergroups from the elaborated design and harvests
/// the hit counts, adding everything to `db` under `run.id`. Requires
/// sim.cover().Enable() to have been called before elaboration; errors if
/// `run.id` was already collected into `db`.
void Collect(const Simulator& sim, const RunInfo& run, Database* db);

/// Merges `src` into `dst`. Returns "" on success, or a human-readable
/// conflict description (same run id, different content — a determinism
/// violation) in which case `dst` is left untouched.
std::string Merge(const Database& src, Database* dst);

/// Coverage summary, overall and per kind.
struct Summary {
  struct KindTotals {
    std::uint64_t groups = 0;
    std::uint64_t bins = 0;
    std::uint64_t bins_hit = 0;
  };
  std::uint64_t runs = 0;
  std::uint64_t groups = 0;
  std::uint64_t bins = 0;
  std::uint64_t bins_hit = 0;
  std::map<std::string, KindTotals> by_kind;

  double pct() const {
    return bins == 0 ? 100.0
                     : 100.0 * static_cast<double>(bins_hit) /
                           static_cast<double>(bins);
  }
};
Summary Summarize(const Database& db);

/// Canonical machine-readable report, schema "craft-cover-v1" (DESIGN.md
/// §13). Fully sorted: two databases with equal content emit byte-identical
/// text regardless of construction or merge order.
std::string FormatJson(const Database& db);

/// Human-readable summary table (+ the unhit-bin list). Site names pass
/// through stats::SanitizeSite, so hostile hierarchical names cannot forge
/// rows.
std::string FormatText(const Database& db);

/// GitHub-flavored markdown summary (the CI artifact).
std::string FormatMarkdown(const Database& db);

/// Parses a craft-cover-v1 document. Returns "" and fills `out` on success,
/// else an error description. Parse(FormatJson(db)) reproduces db exactly.
std::string Parse(const std::string& text, Database* out);

/// FNV-1a over the canonical JSON — the determinism fingerprint the tests
/// compare across parallelism levels and merge orders.
std::uint64_t Fingerprint(const Database& db);

/// Coverage regression check: every bin hit in `baseline` must still be hit
/// in `current` (counts may differ; only hit/unhit gates).
struct DiffResult {
  std::vector<std::string> regressions;  ///< hit in baseline, unhit/missing now
  std::vector<std::string> lost_groups;  ///< whole group vanished
  std::vector<std::string> improvements; ///< newly hit bins (informational)
  bool regressed() const { return !regressions.empty() || !lost_groups.empty(); }
};
DiffResult Diff(const Database& baseline, const Database& current);

/// Renders a diff for humans; markdown=true emits the CI summary flavor.
std::string FormatDiff(const DiffResult& d, bool markdown);

}  // namespace craft::cover
