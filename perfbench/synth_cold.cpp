// synth-cold: the offline half of Fig. 2 into an empty cache, for both
// machines: rule synthesis (rule cap, no clock), phase discovery and the
// cache store. Every synthesized rule is tested by the benchmark's own
// DSL evaluator; the generated compilers then compile two small probe
// kernels each, which is what the rule set buys (the paper's Fig. 7).

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>

#include "cache/rule_cache.h"
#include "common.h"
#include "oracle.h"

namespace perfbench
{

using namespace isaria;

namespace
{

/**
 * Enumeration work budget of the cold synthesis: class representatives
 * expanded per sort (EnumConfig::maxReps, 400 in the library). The rule
 * cap does not bound enumeration, which at 400 takes ~20 s per machine
 * on a 4-CPU host whatever the cap; at 200 a round of both machines
 * fits a run. The rule cap stays the production one.
 */
constexpr std::size_t kColdMaxReps = 200;

/** Seeded environments per rule in the soundness check. */
constexpr int kRuleSamples = 24;

std::vector<KernelSpec>
probeKernels()
{
    return {KernelSpec::qprod(), KernelSpec::matmul(2, 2, 2)};
}

} // namespace

WorkloadResult
runSynthCold(RunContext &ctx)
{
    Tracer &tracer = *ctx.tracer;
    std::vector<std::vector<KernelCase>> probes;
    for (const MachineDesc &machine : benchMachines()) {
        probes.emplace_back();
        for (const KernelSpec &spec : probeKernels())
            probes.back().push_back(makeCase(spec, machine, ctx.seed));
    }
    std::string root =
        ctx.workDir + "/synth-cold-" + std::to_string(getpid());
    ctx.markReady();

    WorkloadResult res;
    Ledger ledger;
    std::vector<double> generateSeconds, compileSeconds, opMs;
    std::uint64_t cycles = 0;
    double logSpeedup = 0;
    std::size_t probeCount = 0;
    double peakRss = 0;
    Clock::time_point start = Clock::now(), roundStart;
    do {
        ++res.rounds;
        roundStart = Clock::now();
        RuleCache cache(root + "/round-" + std::to_string(res.rounds));
        std::vector<std::string> counters;
        double generate = 0, compile = 0;
        cycles = 0;
        logSpeedup = 0;
        probeCount = 0;
        for (std::size_t m = 0; m < benchMachines().size(); ++m) {
            const MachineDesc &machine = benchMachines()[m];
            IsaSpec isa(machine);
            SynthConfig synth =
                benchSynthConfig(machine, kProductionMaxRules);
            synth.enumConfig.maxReps = kColdMaxReps;
            std::uint64_t fingerprint = synthFingerprint(isa, synth);

            ++res.outcome.attempted;
            Clock::time_point t0 = Clock::now();
            SynthReport report;
            {
                ScopedSpan span(tracer, "synth.synthesize", machine.name());
                report = synthesizeRules(isa, synth);
            }
            Clock::time_point t1 = Clock::now();
            PhasedRules phased;
            {
                ScopedSpan span(tracer, "phase.assign", machine.name());
                phased = assignPhases(report.rules,
                                      DspCostModel(synth.costParams));
            }
            Clock::time_point t2 = Clock::now();
            CachedSynth entry{report.oneWideRules, report.rules, {}};
            for (const PhasedRule &pr : phased.all)
                entry.phases.push_back(pr.phase);
            Result<std::string> stored = [&] {
                ScopedSpan span(tracer, "cache.store", machine.name());
                return cache.store(isa, fingerprint, entry);
            }();
            Clock::time_point t3 = Clock::now();
            generate += secondsBetween(t0, t3);

            CacheProbe probe;
            {
                ScopedSpan span(tracer, "cache.load", machine.name());
                probe = cache.load(isa, fingerprint);
            }
            if (!stored.ok() || !probe.hit() ||
                probe.entry->rules.toString() != report.rules.toString()) {
                res.outcome.fail(machine.name() +
                                 ": cache entry does not round-trip");
                continue;
            }

            ledger.add("synth.enumerate_s", report.enumerateSeconds);
            ledger.add("synth.shrink_s", report.shrinkSeconds);
            ledger.add("synth.generalize_s", report.generalizeSeconds);
            ledger.add("synth.candidates", report.candidatesConsidered);
            ledger.add("synth.rules", report.rules.size());
            ledger.add("synth.pruned_derivable", report.prunedDerivable);
            ledger.add("synth.rejected_unsound", report.rejectedUnsound);
            ledger.add("phase.expansion_rules",
                       phased.countOf(Phase::Expansion));
            ledger.add("phase.compilation_rules",
                       phased.countOf(Phase::Compilation));
            ledger.add("phase.optimization_rules",
                       phased.countOf(Phase::Optimization));
            char line[200];
            std::snprintf(
                line, sizeof line,
                "%s: rules %zu candidates %zu pruned %zu rejected %zu "
                "entry %016zx",
                machine.name().c_str(), report.rules.size(),
                report.candidatesConsidered, report.prunedDerivable,
                report.rejectedUnsound,
                std::hash<std::string>{}(
                    encodeCacheEntry(fingerprint, entry)));
            counters.push_back(line);

            for (const Rule &rule : report.rules.rules()) {
                ++res.outcome.attempted;
                RuleCheck check = checkRule(rule, machine.vectorWidth,
                                            ctx.seed, kRuleSamples);
                if (!check.sound)
                    res.outcome.fail(machine.name() + " rule " + rule.name +
                                     " (" + rule.toString() + "): " +
                                     check.counterexample);
            }

            IsariaCompiler compiler(
                phased, benchCompilerConfig(machine, kEqSatThreads, 0));
            for (const KernelCase &kc : probes[m]) {
                ++probeCount;
                ++res.outcome.attempted;
                ScopedSpan kernelSpan(tracer, "kernel", kc.label);
                CompileStats stats;
                Clock::time_point c0 = Clock::now();
                RecExpr compiled;
                {
                    ScopedSpan span(tracer, "compiler.compile", kc.label,
                                    kernelSpan.id());
                    compiled = compiler.compile(kc.program, &stats);
                }
                Clock::time_point c1 = Clock::now();
                Result<VmProgram> lowered = [&] {
                    ScopedSpan span(tracer, "lower.lower", kc.label,
                                    kernelSpan.id());
                    return tryLowerProgram(compiled, compiledLowerOptions(kc));
                }();
                Clock::time_point c2 = Clock::now();
                compile += secondsBetween(c0, c2);
                opMs.push_back(1e3 * secondsBetween(c0, c2));
                ledger.addCompile(stats, secondsBetween(c0, c1));
                if (!lowered.ok()) {
                    res.outcome.fail(kc.label +
                                     ": compiled program does not lower");
                    continue;
                }
                ProgramCheck check;
                {
                    ScopedSpan span(tracer, "vm.simulate", kc.label,
                                    kernelSpan.id());
                    check = simulateAndCheck(kc, lowered.value());
                }
                ledger.add("lower.instructions",
                           static_cast<double>(check.instructions));
                if (!check.correct) {
                    res.outcome.fail(kc.label + ": " + check.why);
                    continue;
                }
                using ull = unsigned long long;
                std::snprintf(line, sizeof line,
                              "%s: cost %llu cycles %llu scalar %llu",
                              kc.label.c_str(), ull(stats.finalCost),
                              ull(check.cycles), ull(kc.scalarCycles));
                counters.push_back(line);
                cycles += check.cycles;
                logSpeedup += std::log(static_cast<double>(kc.scalarCycles) /
                                       static_cast<double>(check.cycles));
            }
        }
        std::filesystem::remove_all(cache.dir());
        if (res.rounds == 1)
            res.counters = counters;
        else if (counters != res.counters)
            res.outcome.invalid("deterministic counters drifted between "
                                "rounds of one run");
        generateSeconds.push_back(generate);
        if (res.rounds == 1)
            peakRss = peakRssMb();
        compileSeconds.push_back(compile);
    } while (anotherRoundFits(start, roundStart, ctx.seconds));
    std::filesystem::remove_all(root);

    double rounds = res.rounds;
    res.rows = res.counters;
    res.endToEnd = {
        {"peak_rss_mb", peakRss},
        {"generate_s", median(generateSeconds)},
        {"compile_s", median(compileSeconds)},
        {"sim_cycles", static_cast<double>(cycles)},
        {"speedup_geomean",
         std::exp(logSpeedup / static_cast<double>(std::max<std::size_t>(
                                   probeCount, 1)))},
        {"request_p50_ms", median(opMs)},
        {"request_p90_ms", percentile(opMs, 90)},
        {"requests_per_s",
         static_cast<double>(probeCount) / median(compileSeconds)},
    };
    for (const auto &[name, value] : ledger.sums)
        res.perLayer[name] = value / rounds;
    for (const auto &[name, value] : ledger.peaks)
        res.perLayer[name] = value;
    double candidates = res.perLayer["synth.candidates"];
    res.perLayer["synth.rules_per_candidate"] =
        candidates > 0 ? res.perLayer["synth.rules"] / candidates : 0;
    for (const char *layer : {"cache.store", "cache.load", "phase.assign",
                              "lower.lower", "vm.simulate"})
        res.perLayer[std::string(layer) + "_s"] =
            tracer.totalSeconds(layer) / rounds;
    return res;
}

} // namespace perfbench
