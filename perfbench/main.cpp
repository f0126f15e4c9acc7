// The benchmark binary. run.py builds it, makes the warm rule
// cache for the build, and launches one measured run:
//
//   perfbench --workload compile-suite|synth-cold|serve-mixed
//             --seed N --seconds S --trace 0|1
//             --cache-dir DIR --work-dir DIR [--launch-ns NS]
//   perfbench --make-cache DIR
//
// The last line of stdout is one JSON object: correct, attempted,
// failed and the metrics (end-to-end untraced, per-layer traced).

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common.h"

namespace
{

using namespace perfbench;

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"compile_s", "s"},
    {"sim_cycles", "cycles"},  {"speedup_geomean", "x"},
    {"generate_s", "s"},       {"peak_rss_mb", "MiB"},
    {"request_p50_ms", "ms"},  {"request_p90_ms", "ms"},
    {"requests_per_s", "req/s"},
};

const MetricDef kPerLayer[] = {
    {"synth.enumerate_s", "s"},
    {"synth.shrink_s", "s"},
    {"synth.generalize_s", "s"},
    {"synth.candidates", "count"},
    {"synth.rules", "count"},
    {"synth.pruned_derivable", "count"},
    {"synth.rejected_unsound", "count"},
    {"synth.rules_per_candidate", "ratio"},
    {"cache.store_s", "s"},
    {"cache.load_s", "s"},
    {"phase.assign_s", "s"},
    {"phase.expansion_rules", "count"},
    {"phase.compilation_rules", "count"},
    {"phase.optimization_rules", "count"},
    {"compiler.rounds", "count"},
    {"compiler.eqsat_calls", "count"},
    {"compiler.other_s", "s"},
    {"egraph.search_s", "s"},
    {"egraph.apply_s", "s"},
    {"egraph.iterations", "count"},
    {"egraph.matches_applied", "count"},
    {"egraph.node_limit_stops", "count"},
    {"egraph.peak_nodes", "count"},
    {"egraph.peak_mb", "MiB"},
    {"lower.lower_s", "s"},
    {"lower.instructions", "count"},
    {"vm.simulate_s", "s"},
    {"serve.hit_ms", "ms"},
    {"serve.miss_ms", "ms"},
    {"serve.queue_ms", "ms"},
    {"serve.compile_ms", "ms"},
    {"serve.memo_hits", "count"},
    {"serve.memo_misses", "count"},
    {"serve.memo_hit_ratio", "ratio"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 --cache-dir D --work-dir D "
                 "[--launch-ns NS]\n       perfbench --make-cache D\n",
                 why);
    std::exit(2);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string out;
    for (const std::string &line : lines)
        out += line + "\n";
    return out;
}

/** Deterministic counters must repeat across runs of one build: the
 *  first run records them, every later run compares. */
void
checkCountersAcrossRuns(const std::string &path, WorkloadResult &res)
{
    std::string now = joinLines(res.counters);
    std::string before = readFile(path);
    if (before.empty()) {
        std::string temp = path + ".tmp." + std::to_string(getpid());
        std::ofstream(temp) << now;
        std::rename(temp.c_str(), path.c_str());
    } else if (before != now) {
        res.outcome.invalid("deterministic counters differ from an earlier "
                            "run of this build (" + path + ")");
    }
}

void
printMetric(std::string &out, const char *name, double value,
            const char *unit)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.empty() ? "" : ", ", name, value, unit);
    out += buf;
}

} // namespace

int
main(int argc, char **argv)
{
    auto processStart = std::chrono::system_clock::now();
    std::string workload, cacheDir, workDir;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    long long launchNs = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--make-cache")
            return makeCache(value());
        if (arg == "--workload")
            workload = value();
        else if (arg == "--seed")
            seed = std::stoull(value());
        else if (arg == "--seconds")
            seconds = std::stod(value());
        else if (arg == "--trace")
            trace = std::stoi(value());
        else if (arg == "--cache-dir")
            cacheDir = value();
        else if (arg == "--work-dir")
            workDir = value();
        else if (arg == "--launch-ns")
            launchNs = std::stoll(value());
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (cacheDir.empty() || workDir.empty())
        usage("--cache-dir and --work-dir are required");

    auto start = launchNs ? std::chrono::system_clock::time_point(
                                std::chrono::nanoseconds(launchNs))
                          : processStart;
    Tracer tracer(trace != 0);
    RunContext ctx;
    ctx.seed = seed;
    ctx.seconds = seconds;
    ctx.tracer = &tracer;
    ctx.cacheDir = cacheDir;
    ctx.workDir = workDir;
    double setupSeconds = -1;
    ctx.markReady = [&] {
        if (setupSeconds < 0)
            setupSeconds = std::chrono::duration<double>(
                               std::chrono::system_clock::now() - start)
                               .count();
    };

    WorkloadResult res;
    try {
        if (workload == "compile-suite")
            res = runCompileSuite(ctx);
        else if (workload == "synth-cold")
            res = runSynthCold(ctx);
        else if (workload == "serve-mixed")
            res = runServeMixed(ctx);
        else
            usage(("unknown workload '" + workload + "'").c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    res.endToEnd["setup_s"] = setupSeconds;
    checkCountersAcrossRuns(workDir + "/counters-" + workload + ".txt", res);

    std::fprintf(stderr, "[perfbench] %s seed %llu: %d round(s), %zu ops, "
                         "%zu failed\n",
                 workload.c_str(), static_cast<unsigned long long>(seed),
                 res.rounds, res.outcome.attempted, res.outcome.failed);
    for (const std::string &row : res.rows)
        std::fprintf(stderr, "[perfbench]   %s\n", row.c_str());
    for (const std::string &problem : res.outcome.problems)
        std::fprintf(stderr, "[perfbench] %s\n", problem.c_str());
    for (const MetricDef &m : kEndToEnd)
        std::fprintf(stderr, "[perfbench]   %-16s %.6g %s\n", m.name,
                     res.endToEnd[m.name], m.unit);
    if (tracer.enabled()) {
        std::string path = workDir + "/trace-" + workload + "-" +
                           std::to_string(seed) + ".jsonl";
        if (!tracer.write(path))
            std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }

    std::string metrics;
    if (trace) {
        for (const MetricDef &m : kPerLayer)
            printMetric(metrics, m.name, res.perLayer[m.name], m.unit);
    } else {
        for (const MetricDef &m : kEndToEnd)
            printMetric(metrics, m.name, res.endToEnd[m.name], m.unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                res.outcome.correct ? "true" : "false", res.outcome.attempted,
                res.outcome.failed, metrics.c_str());
    return 0;
}
