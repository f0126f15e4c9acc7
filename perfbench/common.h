#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

/**
 * @file
 * Shared pieces of the benchmark program: work-budgeted configurations,
 * the kernel cases with their seeded inputs, the span recorder, and the
 * per-run ledger that turns measurements into the printed metrics.
 */

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baseline/harness.h"
#include "compiler/pipeline.h"
#include "isa/machine_desc.h"
#include "lower/lower.h"
#include "vm/machine.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

/** splitmix64: the benchmark's own seeded generator. */
struct SplitMix
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1p-53;
    }

    /** Uniform in [0, bound). */
    std::uint64_t below(std::uint64_t bound) { return next() % bound; }
};

/** min(4, hardware concurrency); serve-mixed leaves two of these CPUs
 *  free of compiles. */
int benchThreads();

/**
 * Eqsat threads of every compile. One: the library's ThreadPool can call
 * a null task when a worker wakes after its job ended and a new job has
 * already seeded its chunks (CHANGES.md), which killed a 4-thread
 * compile-suite run with SIGSEGV. With one thread the pool starts no
 * workers, and the compiled programs do not depend on the thread count.
 */
inline constexpr int kEqSatThreads = 1;

/** The two shipped machines, in the order every workload visits them. */
const std::vector<isaria::MachineDesc> &benchMachines();

/**
 * Synthesis configuration with every wall-clock budget off; the rule
 * cap bounds the work. @p maxRules 0 keeps the library default.
 */
isaria::SynthConfig benchSynthConfig(const isaria::MachineDesc &machine,
                                     std::size_t maxRules);

/**
 * Compiler configuration with every wall-clock budget off: node,
 * iteration and match caps alone decide where a saturation stops, so
 * the compiled program is a pure function of (kernel, machine, rules).
 */
isaria::CompilerConfig benchCompilerConfig(const isaria::MachineDesc &machine,
                                           int eqsatThreads,
                                           std::size_t memoEntries);

/** The rule cap of the production rule sets (the library default). */
inline constexpr std::size_t kProductionMaxRules = 600;

/** One kernel on one machine, with seeded inputs and oracle data. */
struct KernelCase
{
    isaria::KernelSpec spec;
    const isaria::MachineDesc *machine = nullptr;
    std::string label;   ///< "2DConv 4x4 2x2 @ fusion-g3-w4"
    isaria::Kernel kernel;
    isaria::RecExpr program; ///< Lifted scalar program.
    isaria::VmMemory inputs;
    std::uint64_t scalarCycles = 0;
};

/** Builds a case: lifts, draws inputs from @p seed, lowers and
 *  simulates the scalar baseline (the Fig. 4 denominator). */
KernelCase makeCase(const isaria::KernelSpec &spec,
                    const isaria::MachineDesc &machine, std::uint64_t seed);

/** Lowering options the harness uses for a compiled program. */
isaria::LowerOptions compiledLowerOptions(const KernelCase &kc);

/** Outcome of simulating and checking one compiled program. */
struct ProgramCheck
{
    bool correct = false;
    std::string why;
    std::uint64_t cycles = 0;
    std::size_t instructions = 0;
};

/** Simulates @p program on the case's inputs and checks the outputs
 *  against the independent oracle (oracle.h). */
ProgramCheck simulateAndCheck(const KernelCase &kc,
                              const isaria::VmProgram &program);

/** One recorded span. */
struct SpanRecord
{
    std::string name;
    std::string key; ///< Kernel or request id.
    int parent = -1;
    double start = 0; ///< Seconds since the tracer was created.
    double end = 0;
};

/**
 * The benchmark's own spans around each public call. Kept in memory,
 * written as JSON lines at the end; a disabled tracer records nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
    {}

    bool enabled() const { return enabled_; }

    int begin(const std::string &name, const std::string &key,
              int parent = -1);
    void end(int span);

    /** Total duration of spans named @p name. */
    double totalSeconds(const std::string &name) const;

    bool write(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/** RAII span; a no-op when the tracer is disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name,
               const std::string &key, int parent = -1)
        : tracer_(tracer),
          id_(tracer.enabled() ? tracer.begin(name, key, parent) : -1)
    {}
    ~ScopedSpan()
    {
        if (id_ >= 0)
            tracer_.end(id_);
    }
    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
};

/** Operation accounting plus run-level validity. */
struct Outcome
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** False when a run-level invariant broke (counter drift, a
     *  latency below the server's own stamp). */
    bool correct = true;
    std::vector<std::string> problems;

    void fail(const std::string &what);
    void invalid(const std::string &what);
};

/** Per-layer counters and times summed over a run's rounds. */
struct Ledger
{
    std::map<std::string, double> sums;
    std::map<std::string, double> peaks;

    void add(const std::string &name, double value) { sums[name] += value; }
    void peak(const std::string &name, double value);
    /** Adds one compile's CompileStats (compiler.* and egraph.*). */
    void addCompile(const isaria::CompileStats &stats, double wallSeconds);
};

/** Everything a workload hands back to main(). */
struct WorkloadResult
{
    Outcome outcome;
    int rounds = 0;
    /** End-to-end values (besides setup_s). */
    std::map<std::string, double> endToEnd;
    /** Per-layer values, already normalized per round. */
    std::map<std::string, double> perLayer;
    /** Deterministic counters, one "key value" line each. */
    std::vector<std::string> counters;
    /** Per-kernel rows for stderr (reference figures). */
    std::vector<std::string> rows;
};

/** Run parameters shared by every workload. */
struct RunContext
{
    std::uint64_t seed = 1;
    double seconds = 10;
    Tracer *tracer = nullptr;
    /** Warm rule cache made for this build of the program. */
    std::string cacheDir;
    /** Scratch directory inside the checkout. */
    std::string workDir;
    /** Called once the workload is ready; stamps setup_s. */
    std::function<void()> markReady;
};

/** Compilers generated from the warm cache (compile-suite and
 *  serve-mixed). */
struct WarmCompilers
{
    std::vector<std::unique_ptr<isaria::IsariaCompiler>> compilers;
    std::vector<isaria::PhasedRules> phased;
    std::vector<std::size_t> ruleCounts;
    double loadSeconds = 0;
    double assignSeconds = 0;
};

/** Loads both machines' rule sets from @p ctx.cacheDir (a miss is an
 *  error: the cache is made before any timed run) and builds their
 *  compilers. */
WarmCompilers loadWarmCompilers(const RunContext &ctx, int eqsatThreads,
                                std::size_t memoEntries,
                                std::string *error);

/**
 * Whole rounds only: another round starts when one more of the length
 * of the round that began at @p roundStart still ends within @p seconds
 * of @p start. The first round always runs.
 */
inline bool
anotherRoundFits(Clock::time_point start, Clock::time_point roundStart,
                 double seconds)
{
    Clock::time_point now = Clock::now();
    return secondsBetween(start, now) + secondsBetween(roundStart, now) <=
           seconds;
}

/**
 * Appends @p count untraced warm generations (cache load, phases and
 * compiler construction for both machines) to @p seconds. One takes
 * ~15 ms, too short to time once on a host whose speed wanders from
 * second to second: memory-bound work like this one runs up to 1.5x
 * slower for seconds at a time. The warm workloads therefore draw
 * batches of samples spread over the whole run and report their mean,
 * which weighs fast and slow stretches by how long each lasted, where a
 * median would jump to whichever stretch held most samples.
 */
void sampleWarmGeneration(const RunContext &ctx, int eqsatThreads,
                          std::size_t memoEntries, int count,
                          std::vector<double> &seconds);

/** Peak resident set size of this process so far, in MiB. Workloads
 *  read it after their first round, so the figure does not depend on
 *  how many rounds fit a run. */
double peakRssMb();

/** Mean of @p values (0 when empty). */
double mean(const std::vector<double> &values);
/** Median of @p values (0 when empty). */
double median(std::vector<double> values);
/** Nearest-rank percentile @p p in (0, 100] of @p values. */
double percentile(std::vector<double> values, double p);

WorkloadResult runCompileSuite(RunContext &ctx);
WorkloadResult runSynthCold(RunContext &ctx);
WorkloadResult runServeMixed(RunContext &ctx);

/** Makes the warm rule cache for both machines in @p dir. */
int makeCache(const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
