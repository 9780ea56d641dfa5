// Extension (robustness): warm restart from the crash-safe run cache.
//
// The hydra_serve north-star treats a completed RunResult as a durable
// artifact: a killed sweep must restart warm from the persistent store,
// and a corrupted store must degrade to recompute — never to wrong
// answers. This bench measures exactly that contract on a small hybrid
// sweep:
//
//   cold     — empty store: every point computes and is spilled to disk;
//   warm     — a fresh runner over the same store: every point must be
//              served from disk (hit rate 1.0, zero computes) and the
//              results must be bit-identical to the cold pass;
//   corrupt  — two shard entries are damaged (byte flip, truncation) as
//              a SIGKILL mid-write would leave them: the restarted
//              runner must quarantine both, recompute only those two,
//              and still reproduce the cold results bit-for-bit.
//
// Exits 1 unless the warm pass computes nothing and every pass is
// bit-identical to the cold one (ctest runs it as ext_cache_restart_smoke).
// Deterministic; honours HYDRA_RUN_INSTRUCTIONS.
#include "bench_util.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <vector>

#include "sim/persistent_cache.h"
#include "util/config.h"

using namespace hydra;
using namespace hydra::bench;

namespace {

namespace fs = std::filesystem;

constexpr const char* kBenchmarks[] = {"crafty", "gzip", "art"};

std::vector<sim::PointSpec> sweep_points(const sim::SimConfig& cfg) {
  std::vector<sim::PointSpec> points;
  for (const char* name : kBenchmarks) {
    points.push_back({workload::spec2000_profile(name),
                      sim::PolicyKind::kHybrid, {}, cfg});
  }
  return points;
}

/// One sweep pass against the store at `dir`; the returned fingerprint
/// is the concatenated bit-exact serialization of every result.
struct Pass {
  std::string fingerprint;
  sim::RunCache::Stats stats;
};

Pass run_pass(const sim::SimConfig& cfg, const std::string& dir) {
  sim::ExperimentRunner runner(cfg);
  sim::PersistentRunCache::Options opts;
  opts.dir = dir;
  runner.set_store(std::make_shared<sim::PersistentRunCache>(opts));
  Pass pass;
  for (const sim::ExperimentResult& r : runner.run_points(sweep_points(cfg))) {
    pass.fingerprint += sim::serialize_run_result(r.dtm);
    pass.fingerprint += sim::serialize_run_result(r.baseline);
  }
  pass.stats = runner.cache_stats();
  return pass;
}

/// Damage two store entries the way a crash or medium error would:
/// flip one payload byte in the first, truncate the second mid-payload.
void corrupt_two_entries(const std::string& dir) {
  std::vector<fs::path> entries;
  for (const auto& de : fs::recursive_directory_iterator(dir)) {
    if (de.path().extension() == ".run") entries.push_back(de.path());
  }
  std::sort(entries.begin(), entries.end());
  if (!entries.empty()) {
    std::fstream f(entries.front(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30);  // inside the payload: checksum must now mismatch
    f.put('\x5a');
  }
  if (entries.size() > 1) {
    std::error_code ec;
    fs::resize_file(entries[1], fs::file_size(entries[1]) / 2, ec);
  }
}

double hit_rate(const sim::RunCache::Stats& s) {
  return s.misses > 0
             ? static_cast<double>(s.disk_hits) / static_cast<double>(s.misses)
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Config args = util::Config::from_args(
        std::vector<std::string>(argv + 1, argv + argc));
    args.reject_unknown({"dir"});
    const std::string dir =
        args.get_string("dir", "ext_cache_restart.cache");

    banner("Extension: crash-safe run cache, warm restart + corruption",
           "Cold sweep -> warm restart -> corrupted restart over one "
           "persistent store; results must stay bit-identical.");

    sim::SimConfig cfg = sim::default_sim_config();
    // Smoke-sized by default (it also runs under ctest); env and
    // HYDRA_RUN_INSTRUCTIONS override as everywhere else.
    cfg.run_instructions =
        std::min<std::uint64_t>(cfg.run_instructions, 300'000);
    cfg.warmup_instructions =
        std::min<std::uint64_t>(cfg.warmup_instructions, 100'000);

    std::error_code ec;
    fs::remove_all(dir, ec);  // always a cold start

    const Pass cold = run_pass(cfg, dir);
    const Pass warm = run_pass(cfg, dir);
    corrupt_two_entries(dir);
    const Pass corrupt = run_pass(cfg, dir);

    const bool warm_identical = warm.fingerprint == cold.fingerprint;
    const bool corrupt_identical = corrupt.fingerprint == cold.fingerprint;

    util::AsciiTable table;
    table.header({"phase", "jobs", "computes", "disk hits", "hit rate",
                  "bit-identical"});
    const auto row = [&table](const char* phase, const Pass& p,
                              bool identical) {
      table.row({phase, std::to_string(p.stats.misses),
                 std::to_string(p.stats.computes),
                 std::to_string(p.stats.disk_hits),
                 fmt(hit_rate(p.stats), 3), identical ? "yes" : "NO"});
    };
    row("cold", cold, true);
    row("warm", warm, warm_identical);
    row("corrupt", corrupt, corrupt_identical);
    table.print(std::cout);

    {
      CsvBlock csv({"phase", "jobs", "computes", "disk_hits", "hit_rate",
                    "bit_identical"});
      const auto csv_row = [&csv](const char* phase, const Pass& p,
                                  bool identical) {
        csv.row({phase, std::to_string(p.stats.misses),
                 std::to_string(p.stats.computes),
                 std::to_string(p.stats.disk_hits), fmt(hit_rate(p.stats), 6),
                 identical ? "1" : "0"});
      };
      csv_row("cold", cold, true);
      csv_row("warm", warm, warm_identical);
      csv_row("corrupt", corrupt, corrupt_identical);
    }

    fs::remove_all(dir, ec);
    if (!warm_identical || !corrupt_identical || warm.stats.computes != 0) {
      std::cerr << "ext_cache_restart: restart contract violated "
                << "(see table above)\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "ext_cache_restart: " << e.what() << '\n';
    return 1;
  }
}
