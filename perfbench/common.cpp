#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

#include "cache/rule_cache.h"
#include "oracle.h"
#include "support/timer.h"

namespace perfbench
{

using namespace isaria;

int
benchThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 4u));
}

const std::vector<MachineDesc> &
benchMachines()
{
    static const std::vector<MachineDesc> machines = [] {
        std::vector<MachineDesc> out;
        for (const char *name : {"fusion-g3-w4", "rvv-w8+mulsub"}) {
            std::optional<MachineDesc> m = machineByName(name);
            if (!m) {
                std::fprintf(stderr, "unknown machine %s\n", name);
                std::exit(2);
            }
            out.push_back(*m);
        }
        return out;
    }();
    return machines;
}

SynthConfig
benchSynthConfig(const MachineDesc &machine, std::size_t maxRules)
{
    SynthConfig config = synthConfigFor(machine);
    config.timeoutSeconds = 0;
    config.derivLimits.timeoutSeconds = 0;
    // One thread: with 4, synthesis died with SIGSEGV in about one run
    // in ten on a loaded 4-CPU host (CHANGES.md). The rules do not
    // depend on the thread count.
    config.derivLimits.numThreads = 1;
    config.numThreads = 1;
    if (maxRules)
        config.maxRules = maxRules;
    return config;
}

CompilerConfig
benchCompilerConfig(const MachineDesc &machine, int eqsatThreads,
                    std::size_t memoEntries)
{
    CompilerConfig config = compilerConfigFor(machine);
    config.expansionLimits.timeoutSeconds = 0;
    config.compilationLimits.timeoutSeconds = 0;
    config.optLimits.timeoutSeconds = 0;
    config.withEqSatThreads(eqsatThreads);
    config.memoEntries = memoEntries;
    return config;
}

KernelCase
makeCase(const KernelSpec &spec, const MachineDesc &machine,
         std::uint64_t seed)
{
    KernelCase kc;
    kc.spec = spec;
    kc.machine = &machine;
    kc.label = spec.label() + " @ " + machine.name();
    kc.kernel = spec.build();
    kc.program = liftKernel(kc.kernel, machine.vectorWidth);

    // Inputs in [-2, -0.25] U [0.25, 2]: bounded away from zero so
    // QR's pivots stay well conditioned.
    SplitMix rng{seed * 0x9E3779B97F4A7C15ull + kc.label.size()};
    for (const auto &[name, size] : kc.kernel.inputs) {
        std::vector<double> cells(static_cast<std::size_t>(size));
        for (double &cell : cells) {
            double mag = rng.uniform(0.25, 2.0);
            cell = rng.below(2) ? mag : -mag;
        }
        kc.inputs[internSymbol(name)] = std::move(cells);
    }

    LowerOptions scalar;
    scalar.width = machine.vectorWidth;
    scalar.scalarOnly = true;
    scalar.totalOutputs = kc.kernel.totalOutputs();
    ProgramCheck base = simulateAndCheck(kc, lowerProgram(kc.program, scalar));
    if (!base.correct) {
        std::fprintf(stderr, "scalar baseline of %s fails the oracle: %s\n",
                     kc.label.c_str(), base.why.c_str());
        std::exit(2);
    }
    kc.scalarCycles = base.cycles;
    return kc;
}

LowerOptions
compiledLowerOptions(const KernelCase &kc)
{
    LowerOptions options;
    options.width = kc.machine->vectorWidth;
    options.totalOutputs = kc.kernel.totalOutputs();
    options.scalarizeRawChunks = true;
    return options;
}

ProgramCheck
simulateAndCheck(const KernelCase &kc, const VmProgram &program)
{
    ProgramCheck out;
    out.instructions = program.code.size();
    VmRunResult run = runProgram(program, kc.inputs, kc.machine->latency);
    out.cycles = run.cycles;

    ArrayMap arrays;
    for (const auto &[name, size] : kc.kernel.inputs)
        arrays.emplace_back(name, kc.inputs.at(internSymbol(name)));
    auto produced = run.memory.find(outputArraySymbol());
    if (produced == run.memory.end()) {
        out.why = "program stored no outputs";
        return out;
    }
    out.why = checkKernelOutputs(kc.spec, arrays, produced->second);
    out.correct = out.why.empty();
    return out;
}

int
Tracer::begin(const std::string &name, const std::string &key, int parent)
{
    double now = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(SpanRecord{name, key, parent, now, now});
    return static_cast<int>(spans_.size()) - 1;
}

void
Tracer::end(int span)
{
    double now = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(span)].end = now;
}

double
Tracer::totalSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double total = 0;
    for (const SpanRecord &s : spans_)
        if (s.name == name)
            total += s.end - s.start;
    return total;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        char line[96];
        std::snprintf(line, sizeof line,
                      "\"start_s\":%.9f,\"end_s\":%.9f}\n", s.start, s.end);
        out << "{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"name\":\"" << s.name << "\",\"key\":\"" << s.key
            << "\"," << line;
    }
    return static_cast<bool>(out);
}

void
Outcome::fail(const std::string &what)
{
    ++failed;
    if (problems.size() < 20)
        problems.push_back("failed: " + what);
}

void
Outcome::invalid(const std::string &what)
{
    correct = false;
    if (problems.size() < 20)
        problems.push_back("invalid: " + what);
}

void
Ledger::peak(const std::string &name, double value)
{
    double &slot = peaks[name];
    slot = std::max(slot, value);
}

void
Ledger::addCompile(const CompileStats &stats, double wallSeconds)
{
    double saturation = 0, search = 0, apply = 0, iterations = 0;
    double applied = 0, nodeStops = 0, bytes = 0;
    for (const EqSatReport &r : stats.reports) {
        saturation += r.seconds;
        search += r.searchSeconds;
        apply += r.applySeconds;
        iterations += r.iterations;
        for (std::size_t n : r.ruleApplied)
            applied += static_cast<double>(n);
        nodeStops += r.stop == StopReason::NodeLimit;
        bytes = std::max(bytes, static_cast<double>(r.bytes));
    }
    add("compiler.rounds", stats.loopIterations);
    add("compiler.eqsat_calls", stats.eqsatCalls);
    add("compiler.other_s", std::max(0.0, wallSeconds - saturation));
    add("egraph.search_s", search);
    add("egraph.apply_s", apply);
    add("egraph.iterations", iterations);
    add("egraph.matches_applied", applied);
    add("egraph.node_limit_stops", nodeStops);
    peak("egraph.peak_nodes", static_cast<double>(stats.peakNodes));
    peak("egraph.peak_mb", bytes / (1024.0 * 1024.0));
}

WarmCompilers
loadWarmCompilers(const RunContext &ctx, int eqsatThreads,
                  std::size_t memoEntries, std::string *error)
{
    WarmCompilers out;
    RuleCache cache(ctx.cacheDir);
    for (const MachineDesc &machine : benchMachines()) {
        IsaSpec isa(machine);
        SynthConfig synth = benchSynthConfig(machine, kProductionMaxRules);
        CompilerConfig config =
            benchCompilerConfig(machine, eqsatThreads, memoEntries);

        Clock::time_point t0 = Clock::now();
        CacheProbe probe;
        {
            ScopedSpan span(*ctx.tracer, "cache.load", machine.name());
            probe = cache.load(isa, synthFingerprint(isa, synth));
        }
        Clock::time_point t1 = Clock::now();
        if (!probe.hit()) {
            *error = "no warm rule cache for " + machine.name() + " in " +
                     ctx.cacheDir +
                     (probe.diagnostic.empty() ? "" : ": " + probe.diagnostic);
            return out;
        }
        PhasedRules phased;
        {
            ScopedSpan span(*ctx.tracer, "phase.assign", machine.name());
            phased = assignPhases(probe.entry->rules, config.costModel);
        }
        Clock::time_point t2 = Clock::now();
        {
            ScopedSpan span(*ctx.tracer, "compiler.build", machine.name());
            out.compilers.push_back(
                std::make_unique<IsariaCompiler>(phased, config));
        }
        out.ruleCounts.push_back(probe.entry->rules.size());
        out.phased.push_back(std::move(phased));
        out.loadSeconds += secondsBetween(t0, t1);
        out.assignSeconds += secondsBetween(t1, t2);
    }
    return out;
}

void
sampleWarmGeneration(const RunContext &ctx, int eqsatThreads,
                     std::size_t memoEntries, int count,
                     std::vector<double> &seconds)
{
    Tracer untraced(false);
    RunContext quiet = ctx;
    quiet.tracer = &untraced;
    std::string error;
    for (int k = 0; k < count; ++k) {
        Clock::time_point t0 = Clock::now();
        loadWarmCompilers(quiet, eqsatThreads, memoEntries, &error);
        seconds.push_back(secondsSince(t0));
    }
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

int
makeCache(const std::string &dir)
{
    RuleCache cache(dir);
    for (const MachineDesc &machine : benchMachines()) {
        IsaSpec isa(machine);
        SynthConfig synth = benchSynthConfig(machine, kProductionMaxRules);
        Stopwatch watch;
        SynthReport report = synthesizeRulesCached(isa, synth, cache);
        CacheProbe probe = cache.load(isa, synthFingerprint(isa, synth));
        std::fprintf(stderr,
                     "[perfbench] rule cache %s: %zu rules (%s) in %.1f s\n",
                     machine.name().c_str(), report.rules.size(),
                     report.fromCache ? "already cached" : "synthesized",
                     watch.elapsedSeconds());
        if (!probe.hit()) {
            std::fprintf(stderr, "[perfbench] cache store failed: %s\n",
                         probe.diagnostic.c_str());
            return 1;
        }
    }
    return 0;
}

} // namespace perfbench
