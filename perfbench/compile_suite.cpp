// compile-suite: the Fig. 4 kernel ladder compiled on both machines by
// compilers generated from the warm cache, memo off, fixed eqsat
// threads; every program lowered, simulated and checked by the oracle.

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common.h"

namespace perfbench
{

using namespace isaria;

namespace
{

/**
 * The ladder of defaultSuite(), trimmed to one rung per kernel family so
 * that a round fits a run: every rung saturates to the 60k-node budget
 * a few times, so even MatMul 2x2x2 takes seconds on the 8-wide machine.
 * 2DConv 8x8 2x2 and QrD 3x3 are the rungs where the rvv machine's cost
 * table disagrees with its latency model (README).
 */
std::vector<KernelSpec>
ladder()
{
    return {KernelSpec::conv2d(8, 8, 2, 2), KernelSpec::matmul(2, 2, 2),
            KernelSpec::qprod(), KernelSpec::qrd(3)};
}

std::string
counterLine(const KernelCase &kc, const CompileStats &stats,
            std::uint64_t cycles)
{
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s: cost %llu->%llu cycles %llu scalar %llu rounds %d "
                  "eqsat_calls %d peak_nodes %zu",
                  kc.label.c_str(),
                  static_cast<unsigned long long>(stats.initialCost),
                  static_cast<unsigned long long>(stats.finalCost),
                  static_cast<unsigned long long>(cycles),
                  static_cast<unsigned long long>(kc.scalarCycles),
                  stats.loopIterations, stats.eqsatCalls, stats.peakNodes);
    return line;
}

/** Warm generations timed after each compile: 40 per round. */
constexpr int kGenerationsPerCompile = 5;

} // namespace

WorkloadResult
runCompileSuite(RunContext &ctx)
{
    Tracer &tracer = *ctx.tracer;
    std::string error;
    Clock::time_point g0 = Clock::now();
    WarmCompilers warm = loadWarmCompilers(ctx, kEqSatThreads, 0, &error);
    std::vector<double> generateSeconds = {secondsSince(g0)};
    if (!error.empty())
        throw std::runtime_error(error);

    struct Entry
    {
        KernelCase kc;
        const IsariaCompiler *compiler;
    };
    std::vector<Entry> entries;
    for (std::size_t m = 0; m < benchMachines().size(); ++m)
        for (const KernelSpec &spec : ladder())
            entries.push_back(Entry{makeCase(spec, benchMachines()[m], ctx.seed),
                                    warm.compilers[m].get()});
    ctx.markReady();

    WorkloadResult res;
    Ledger ledger;
    std::vector<double> roundSeconds, opMs;
    std::uint64_t cycles = 0;
    double logSpeedup = 0;
    double peakRss = 0;
    Clock::time_point start = Clock::now(), roundStart;
    do {
        ++res.rounds;
        roundStart = Clock::now();
        std::vector<std::string> counters;
        double spent = 0;
        cycles = 0;
        logSpeedup = 0;
        for (const Entry &e : entries) {
            const KernelCase &kc = e.kc;
            ++res.outcome.attempted;
            ScopedSpan kernelSpan(tracer, "kernel", kc.label);
            CompileStats stats;
            Clock::time_point t0 = Clock::now();
            RecExpr compiled;
            {
                ScopedSpan span(tracer, "compiler.compile", kc.label,
                                kernelSpan.id());
                compiled = e.compiler->compile(kc.program, &stats);
            }
            Clock::time_point t1 = Clock::now();
            Result<VmProgram> lowered = [&] {
                ScopedSpan span(tracer, "lower.lower", kc.label,
                                kernelSpan.id());
                return tryLowerProgram(compiled, compiledLowerOptions(kc));
            }();
            Clock::time_point t2 = Clock::now();
            spent += secondsBetween(t0, t2);
            opMs.push_back(1e3 * secondsBetween(t0, t2));
            ledger.addCompile(stats, secondsBetween(t0, t1));
            if (!lowered.ok()) {
                res.outcome.fail(kc.label + ": compiled program does not lower");
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
            cycles += check.cycles;
            logSpeedup += std::log(static_cast<double>(kc.scalarCycles) /
                                   static_cast<double>(check.cycles));
            counters.push_back(counterLine(kc, stats, check.cycles));
            if (res.rounds == 1)
                res.rows.push_back(counters.back() + " ms " +
                                   std::to_string(opMs.back()));
            sampleWarmGeneration(ctx, kEqSatThreads, 0, kGenerationsPerCompile,
                                 generateSeconds);
        }
        if (res.rounds == 1)
            res.counters = counters;
        else if (counters != res.counters)
            res.outcome.invalid("deterministic counters drifted between "
                                "rounds of one run");
        roundSeconds.push_back(spent);
        if (res.rounds == 1)
            peakRss = peakRssMb();
    } while (anotherRoundFits(start, roundStart, ctx.seconds));

    double n = static_cast<double>(entries.size());
    res.endToEnd = {
        {"peak_rss_mb", peakRss},
        {"compile_s", median(roundSeconds)},
        {"sim_cycles", static_cast<double>(cycles)},
        {"speedup_geomean", std::exp(logSpeedup / n)},
        {"generate_s", mean(generateSeconds)},
        {"request_p50_ms", median(opMs)},
        {"request_p90_ms", percentile(opMs, 90)},
        {"requests_per_s", n / median(roundSeconds)},
    };
    double rounds = res.rounds;
    for (const auto &[name, value] : ledger.sums)
        res.perLayer[name] = value / rounds;
    for (const auto &[name, value] : ledger.peaks)
        res.perLayer[name] = value;
    res.perLayer["cache.load_s"] = warm.loadSeconds;
    res.perLayer["phase.assign_s"] = warm.assignSeconds;
    res.perLayer["lower.lower_s"] = tracer.totalSeconds("lower.lower") / rounds;
    res.perLayer["vm.simulate_s"] = tracer.totalSeconds("vm.simulate") / rounds;
    std::size_t rules = 0;
    for (std::size_t m = 0; m < warm.phased.size(); ++m) {
        rules += warm.ruleCounts[m];
        res.perLayer["phase.expansion_rules"] +=
            warm.phased[m].countOf(Phase::Expansion);
        res.perLayer["phase.compilation_rules"] +=
            warm.phased[m].countOf(Phase::Compilation);
        res.perLayer["phase.optimization_rules"] +=
            warm.phased[m].countOf(Phase::Optimization);
    }
    res.perLayer["synth.rules"] = static_cast<double>(rules);
    return res;
}

} // namespace perfbench
