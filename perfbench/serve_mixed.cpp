// serve-mixed: a ServeServer on a unix socket holding both machines'
// compilers (memo on, work budgets, no deadline or byte ceiling), driven
// by a closed loop of clients in this process. Each round registers
// fresh compilers (empty memos), so every round has the same memo history:
// each hot kernel belongs to one client, whose first request for it is
// a miss and every later one a hit; every tail shape is requested
// exactly once (a single-threaded miss).

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "support/panic.h"
#include "term/sexpr.h"

namespace perfbench
{

using namespace isaria;
using serve::JsonValue;

namespace
{

/** Entries the server's memo keeps: all hot and tail kernels fit. */
constexpr std::size_t kMemoEntries = 4096;
/** Requests per round for each hot kernel (one miss, then hits). */
constexpr int kHotRepeats = 23;
/** Warm generations timed before each round's stream. */
constexpr int kGenerationsPerRound = 10;

/** One kernel of the stream: a spec on one of benchMachines(). */
struct StreamKernel
{
    KernelSpec spec;
    std::size_t machine;
    bool hot;
};

/**
 * The stream's kernels. Hot ones are requested kHotRepeats times (one
 * miss, then memo hits); tail ones once (a miss), each a distinct
 * shape. A single-threaded miss saturates to the node budget, taking
 * ~1-1.5 s on the 4-wide machine and ~2-5 s on the 8-wide one on a
 * 4-CPU host, so the tail is on the 4-wide machine: a round takes
 * ~9.5 s on two workers, and misses stay above a tenth of the requests.
 */
std::vector<StreamKernel>
streamKernels()
{
    std::vector<StreamKernel> out;
    for (std::size_t m : {0, 1}) {
        out.push_back({KernelSpec::qprod(), m, true});
        out.push_back({KernelSpec::matmul(2, 2, 2), m, true});
    }
    for (const KernelSpec &spec :
         {KernelSpec::conv2d(2, 2, 2, 2), KernelSpec::conv2d(2, 3, 2, 2),
          KernelSpec::conv2d(3, 2, 2, 2), KernelSpec::matmul(2, 2, 3),
          KernelSpec::matmul(2, 3, 2), KernelSpec::matmul(3, 2, 2),
          KernelSpec::matmul(1, 3, 3), KernelSpec::matmul(3, 3, 1)})
        out.push_back({spec, 0, false});
    return out;
}

std::string
requestBody(const KernelSpec &spec, const std::string &target)
{
    std::string family, params;
    switch (spec.family) {
      case KernelSpec::Family::Conv2D:
        family = "conv2d";
        params = std::to_string(spec.p0) + "," + std::to_string(spec.p1) +
                 "," + std::to_string(spec.p2) + "," +
                 std::to_string(spec.p3);
        break;
      case KernelSpec::Family::MatMul:
        family = "matmul";
        params = std::to_string(spec.p0) + "," + std::to_string(spec.p1) +
                 "," + std::to_string(spec.p2);
        break;
      case KernelSpec::Family::QProd: family = "qprod"; break;
      case KernelSpec::Family::QrD:
        family = "qrd";
        params = std::to_string(spec.p0);
        break;
    }
    return "{\"kernel\": {\"family\": \"" + family + "\", \"params\": [" +
           params + "]}, \"target\": \"" + target +
           "\", \"emit_program\": true}";
}

/** One request of the stream and what came back. */
struct Request
{
    std::size_t kase = 0; ///< Index into the case table.
    std::string id;       ///< "r<round>c<client>n<seq> <kernel label>"
    std::string body;
    double latencyMs = 0;
    std::string response;
    std::string transportError;
};

double
number(const JsonValue *value)
{
    return value && value->isNumber() ? value->number : 0;
}

/** Adds one response report's compile counters to the ledger, the
 *  serve-side counterpart of Ledger::addCompile. */
void
addReport(Ledger &ledger, const JsonValue &report)
{
    double saturationNs = 0, searchNs = 0, applyNs = 0, iterations = 0;
    double nodeStops = 0, bytes = 0;
    auto addEqsat = [&](const JsonValue *eq) {
        if (!eq || !eq->isObject())
            return;
        saturationNs += number(eq->find("wall_ns"));
        searchNs += number(eq->find("search_ns"));
        applyNs += number(eq->find("apply_ns"));
        iterations += number(eq->find("iterations"));
        bytes = std::max(bytes, number(eq->find("bytes")));
        const JsonValue *stop = eq->find("stop");
        nodeStops += stop && stop->text == "node-limit";
    };
    if (const JsonValue *rounds = report.find("rounds")) {
        for (const JsonValue &round : rounds->items) {
            addEqsat(round.find("expansion"));
            addEqsat(round.find("compilation"));
        }
    }
    addEqsat(report.find("optimization"));
    double wallNs = number(report.find("wall_ns"));
    ledger.add("compiler.rounds", number(report.find("loop_iterations")));
    ledger.add("compiler.eqsat_calls", number(report.find("eqsat_calls")));
    ledger.add("compiler.other_s",
               std::max(0.0, wallNs - saturationNs) * 1e-9);
    ledger.add("egraph.search_s", searchNs * 1e-9);
    ledger.add("egraph.apply_s", applyNs * 1e-9);
    ledger.add("egraph.iterations", iterations);
    ledger.add("egraph.node_limit_stops", nodeStops);
    ledger.peak("egraph.peak_nodes", number(report.find("peak_nodes")));
    ledger.peak("egraph.peak_mb", bytes / (1024.0 * 1024.0));
}

/**
 * The closed-loop clients: one thread and one connection each, kept for
 * the whole run. Rounds after the first thus start no threads in the
 * server either; every thread the daemon has ever run adds a metrics
 * shard that each response's report merges, so new connections per
 * round would make later rounds' hits slower.
 */
class Clients
{
  public:
    Clients(Tracer &tracer, const std::string &socket, int count)
        : tracer_(tracer), socket_(socket)
    {
        for (int c = 0; c < count; ++c)
            threads_.emplace_back([this, c] { loop(c); });
    }

    ~Clients()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    /** Client c sends lists[c] in order, each request after the
     *  previous answer; returns once every client is done. */
    void
    run(const std::vector<std::vector<Request *>> &lists, int parentSpan)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        lists_ = &lists;
        parent_ = parentSpan;
        done_ = 0;
        ++generation_;
        cv_.notify_all();
        cv_.wait(lock, [&] {
            return done_ == static_cast<int>(threads_.size());
        });
    }

  private:
    void
    loop(int client)
    {
        std::string error;
        UniqueFd fd = serve::connectUnix(socket_, &error);
        int seen = 0;
        while (true) {
            std::vector<Request *> requests;
            int parent;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [&] { return stop_ || generation_ > seen; });
                if (stop_)
                    return;
                seen = generation_;
                requests = (*lists_)[client];
                parent = parent_;
            }
            for (Request *r : requests)
                send(fd, error, *r, parent);
            std::lock_guard<std::mutex> lock(mutex_);
            ++done_;
            cv_.notify_all();
        }
    }

    void
    send(const UniqueFd &fd, const std::string &connectError, Request &r,
         int parent)
    {
        if (!fd.valid()) {
            r.transportError = "connect: " + connectError;
            return;
        }
        serve::HttpResponse response;
        ScopedSpan span(tracer_, "serve.request", r.id, parent);
        Clock::time_point t0 = Clock::now();
        bool ok = serve::httpRoundTrip(fd.get(), "POST", "/compile", r.body,
                                       response, 600'000);
        r.latencyMs = 1e3 * secondsSince(t0);
        r.response = std::move(response.body);
        if (!ok)
            r.transportError = response.error.empty() ? "round trip failed"
                                                      : response.error;
    }

    Tracer &tracer_;
    std::string socket_;
    std::mutex mutex_;
    std::condition_variable cv_;
    const std::vector<std::vector<Request *>> *lists_ = nullptr;
    int parent_ = -1;
    int generation_ = 0;
    int done_ = 0;
    bool stop_ = false;
    std::vector<std::thread> threads_;
};

} // namespace

WorkloadResult
runServeMixed(RunContext &ctx)
{
    Tracer &tracer = *ctx.tracer;
    // Two clients and two workers, so at most two misses compile at once
    // and two CPUs stay free for the hit path, the client threads and
    // the server's connection threads. With three on a 4-CPU host, a
    // miss's time and the hit latency depended on how the three compiles
    // overlapped, and differed by up to 30% between runs.
    const int clients = std::clamp(benchThreads() - 2, 1, 2);
    std::string error;
    Clock::time_point g0 = Clock::now();
    WarmCompilers warm =
        loadWarmCompilers(ctx, kEqSatThreads, kMemoEntries, &error);
    std::vector<double> generateSeconds = {secondsSince(g0)};
    if (!error.empty())
        throw std::runtime_error(error);

    std::vector<KernelCase> cases;
    std::vector<bool> isHot;
    for (const StreamKernel &k : streamKernels()) {
        cases.push_back(makeCase(k.spec, benchMachines()[k.machine], ctx.seed));
        isHot.push_back(k.hot);
    }
    auto bodyOf = [&](std::size_t i) {
        return requestBody(cases[i].spec, cases[i].machine->name());
    };

    // The stream. Each case belongs to one client: cases go, widest
    // machine first, to the client with the least lane-weighted load (a
    // miss on the 8-wide machine costs about three on the 4-wide one).
    // A client sends its hot cases kHotRepeats times each, round robin,
    // and its tail cases once, spread evenly among the hot requests. The
    // order is fixed: the seed draws kernel inputs only, so runs differ
    // in values, not in which compiles overlap.
    std::vector<std::size_t> byWidth(cases.size());
    std::iota(byWidth.begin(), byWidth.end(), 0);
    std::stable_sort(byWidth.begin(), byWidth.end(),
                     [&](std::size_t a, std::size_t b) {
                         return cases[a].machine->vectorWidth >
                                cases[b].machine->vectorWidth;
                     });
    std::vector<std::vector<std::size_t>> hot(clients), tail(clients);
    std::vector<int> load(clients, 0);
    for (std::size_t i : byWidth) {
        auto c = std::min_element(load.begin(), load.end()) - load.begin();
        load[c] += cases[i].machine->vectorWidth;
        (isHot[i] ? hot : tail)[c].push_back(i);
    }
    std::vector<std::vector<std::size_t>> plan(clients);
    for (int c = 0; c < clients; ++c) {
        std::size_t misses = tail[c].size();
        std::size_t total = hot[c].size() * kHotRepeats + misses;
        std::size_t placed = 0, h = 0;
        for (std::size_t k = 0; k < total; ++k) {
            if (placed < misses && (k + 1) * misses >= (placed + 1) * total)
                plan[c].push_back(tail[c][placed++]);
            else
                plan[c].push_back(hot[c][h++ % hot[c].size()]);
        }
    }

    serve::ServeConfig config;
    config.workers = clients;
    config.defaultDeadlineSeconds = 0;
    config.defaultMemBytes = 0;
    config.defaultEqsatThreads = kEqSatThreads;
    config.finalMetricsPath = "";

    config.socketPath =
        ctx.workDir + "/serve-" + std::to_string(getpid()) + ".sock";
    // Compilers of later rounds; they must outlive the server.
    std::vector<std::unique_ptr<IsariaCompiler>> fresh;
    serve::ServeServer server(*warm.compilers[0], config);
    for (std::size_t m = 0; m < warm.compilers.size(); ++m)
        server.addTarget(benchMachines()[m].name(), *warm.compilers[m]);
    if (!server.start(&error))
        throw std::runtime_error("serve: " + error);
    {
        UniqueFd probe = serve::connectUnix(config.socketPath, &error);
        serve::HttpResponse health;
        if (!probe.valid() ||
            !serve::httpRoundTrip(probe.get(), "GET", "/healthz", "",
                                  health) ||
            health.status != 200)
            throw std::runtime_error("serve: no answer to /healthz: " +
                                     error + health.error);
    }
    ctx.markReady();

    WorkloadResult res;
    Ledger ledger;
    double streamSeconds = 0, compileSeconds = 0;
    std::vector<double> requestMs, hitMs, missMs;
    double queueMs = 0, stampedCompileMs = 0, requestsSeen = 0;
    double hits = 0, misses = 0;
    std::uint64_t cycles = 0;
    double logSpeedup = 0;
    std::size_t verifiedKernels = 0;
    double peakRss = 0;
    auto clientPool =
        std::make_unique<Clients>(tracer, config.socketPath, clients);
    Clock::time_point start = Clock::now(), roundStart;
    do {
        ++res.rounds;
        roundStart = Clock::now();
        if (res.rounds > 1) {
            // Fresh compilers have empty memos, so every round repeats
            // the first one's hits and misses. No request is in flight
            // between rounds, so re-registering targets is safe.
            for (std::size_t m = 0; m < warm.compilers.size(); ++m) {
                ScopedSpan span(tracer, "compiler.build",
                                benchMachines()[m].name());
                fresh.push_back(std::make_unique<IsariaCompiler>(
                    warm.phased[m], warm.compilers[m]->config()));
                server.addTarget(benchMachines()[m].name(), *fresh.back());
            }
        }
        // Between streams, with no request in flight.
        sampleWarmGeneration(ctx, kEqSatThreads, kMemoEntries,
                             kGenerationsPerRound, generateSeconds);

        std::vector<Request> requests;
        std::vector<std::vector<Request *>> perClient(clients);
        for (int c = 0; c < clients; ++c)
            for (std::size_t n = 0; n < plan[c].size(); ++n) {
                std::size_t i = plan[c][n];
                requests.push_back(Request{
                    i,
                    "r" + std::to_string(res.rounds) + "c" +
                        std::to_string(c) + "n" + std::to_string(n) + " " +
                        cases[i].label,
                    bodyOf(i)});
            }
        std::size_t cursor = 0;
        for (int c = 0; c < clients; ++c)
            for (std::size_t k = 0; k < plan[c].size(); ++k)
                perClient[c].push_back(&requests[cursor++]);

        Clock::time_point s0 = Clock::now();
        {
            ScopedSpan span(tracer, "serve.stream",
                            "round-" + std::to_string(res.rounds));
            clientPool->run(perClient, span.id());
        }
        streamSeconds += secondsSince(s0);

        // Check every response: typed report, latency at least the
        // server's stamps, the program against the oracle; then the
        // round's memo hits and misses against the plan.
        std::vector<std::string> counters;
        std::vector<std::string> kernelRows(cases.size());
        double roundCompile = 0, roundHits = 0, roundMisses = 0;
        cycles = 0;
        logSpeedup = 0;
        verifiedKernels = 0;
        for (Request &r : requests) {
            ++res.outcome.attempted;
            const KernelCase &kc = cases[r.kase];
            requestMs.push_back(r.latencyMs);
            if (!r.transportError.empty()) {
                res.outcome.fail(kc.label + ": " + r.transportError);
                continue;
            }
            Result<JsonValue> parsed = serve::parseJson(r.response);
            if (!parsed.ok()) {
                res.outcome.fail(kc.label + ": response is not JSON");
                continue;
            }
            const JsonValue &body = parsed.value();
            const JsonValue *type = body.find("type");
            const JsonValue *report = body.find("report");
            const JsonValue *program = body.find("program");
            if (!type || type->text != "report" || !report || !program) {
                res.outcome.fail(kc.label + ": response of type " +
                                 (type ? type->text : "?") + ": " +
                                 r.response.substr(0, 200));
                continue;
            }
            double q = number(body.find("queue_ms"));
            double c = number(body.find("compile_ms"));
            // The stamps are whole milliseconds, each rounded to nearest.
            if (r.latencyMs + 1.0 < q + c)
                res.outcome.invalid(kc.label + ": client latency " +
                                    std::to_string(r.latencyMs) +
                                    " ms below the stamped " +
                                    std::to_string(q + c) + " ms");
            queueMs += q;
            stampedCompileMs += c;
            ++requestsSeen;
            const JsonValue *memoHit = report->find("memo_hit");
            bool hit = memoHit && memoHit->boolean;
            (hit ? roundHits : roundMisses) += 1;
            (hit ? hitMs : missMs).push_back(r.latencyMs);
            if (!hit)
                addReport(ledger, *report);

            Clock::time_point l0 = Clock::now();
            std::optional<Result<VmProgram>> lowered;
            try {
                ScopedSpan span(tracer, "lower.lower", r.id);
                lowered = tryLowerProgram(parseSexpr(program->text),
                                          compiledLowerOptions(kc));
            } catch (const FatalError &e) {
                res.outcome.fail(kc.label + ": unreadable program: " +
                                 e.what());
                continue;
            }
            roundCompile += number(report->find("wall_ns")) * 1e-9 +
                            secondsSince(l0);
            if (!lowered->ok()) {
                res.outcome.fail(kc.label + ": program does not lower");
                continue;
            }
            ProgramCheck check;
            {
                ScopedSpan span(tracer, "vm.simulate", r.id);
                check = simulateAndCheck(kc, lowered->value());
            }
            ledger.add("lower.instructions",
                       static_cast<double>(check.instructions));
            if (!check.correct) {
                res.outcome.fail(kc.label + ": " + check.why);
                continue;
            }
            char line[200];
            std::snprintf(line, sizeof line,
                          "%s: cost %.0f cycles %llu scalar %llu",
                          kc.label.c_str(), number(report->find("final_cost")),
                          static_cast<unsigned long long>(check.cycles),
                          static_cast<unsigned long long>(kc.scalarCycles));
            if (!hit && res.rounds == 1)
                res.rows.push_back(std::string(line) + " miss ms " +
                                   std::to_string(r.latencyMs));
            if (kernelRows[r.kase].empty()) {
                kernelRows[r.kase] = line;
                cycles += check.cycles;
                logSpeedup +=
                    std::log(static_cast<double>(kc.scalarCycles) /
                             static_cast<double>(check.cycles));
                ++verifiedKernels;
            } else if (kernelRows[r.kase] != line) {
                res.outcome.fail(kc.label + ": responses disagree (" +
                                 kernelRows[r.kase] + " vs " + line + ")");
            }
        }
        double wantMisses = 0, wantHits = 0;
        for (std::size_t i = 0; i < cases.size(); ++i) {
            wantMisses += 1;
            wantHits += isHot[i] ? kHotRepeats - 1 : 0;
        }
        if (roundHits != wantHits || roundMisses != wantMisses)
            res.outcome.invalid("memo hits/misses " +
                                std::to_string(int(roundHits)) + "/" +
                                std::to_string(int(roundMisses)) +
                                ", the plan makes " +
                                std::to_string(int(wantHits)) + "/" +
                                std::to_string(int(wantMisses)));
        for (const std::string &row : kernelRows)
            if (!row.empty())
                counters.push_back(row);
        counters.push_back("memo hits " + std::to_string(int(roundHits)) +
                           " misses " + std::to_string(int(roundMisses)));
        if (res.rounds == 1)
            res.counters = counters;
        else if (counters != res.counters)
            res.outcome.invalid("deterministic counters drifted between "
                                "rounds of one run");
        compileSeconds += roundCompile;
        if (res.rounds == 1)
            peakRss = peakRssMb();
        hits += roundHits;
        misses += roundMisses;
    } while (anotherRoundFits(start, roundStart, ctx.seconds));
    clientPool.reset();
    server.stopAndJoin();
    unlink(config.socketPath.c_str());

    double rounds = res.rounds;
    res.rows.insert(res.rows.end(), res.counters.begin(), res.counters.end());
    res.endToEnd = {
        {"peak_rss_mb", peakRss},
        {"compile_s", compileSeconds / rounds},
        {"sim_cycles", static_cast<double>(cycles)},
        {"speedup_geomean",
         std::exp(logSpeedup /
                  static_cast<double>(std::max<std::size_t>(verifiedKernels,
                                                            1)))},
        {"generate_s", mean(generateSeconds)},
        {"request_p50_ms", median(requestMs)},
        {"request_p90_ms", percentile(requestMs, 90)},
        {"requests_per_s",
         static_cast<double>(res.outcome.attempted) / streamSeconds},
    };
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
    res.perLayer["serve.hit_ms"] = median(hitMs);
    res.perLayer["serve.miss_ms"] = median(missMs);
    res.perLayer["serve.queue_ms"] =
        requestsSeen > 0 ? queueMs / requestsSeen : 0;
    res.perLayer["serve.compile_ms"] =
        requestsSeen > 0 ? stampedCompileMs / requestsSeen : 0;
    res.perLayer["serve.memo_hits"] = hits / rounds;
    res.perLayer["serve.memo_misses"] = misses / rounds;
    res.perLayer["serve.memo_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    return res;
}

} // namespace perfbench
