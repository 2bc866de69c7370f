/**
 * @file
 * perfbench: the measuring half of the repository benchmark. One
 * process measures one workload and prints one JSON object on stdout;
 * run.py builds this program, starts ccnuma_serve for serve-mix, checks
 * the outputs and prints the benchmark's result line. README.md
 * defines every metric.
 *
 *   perfbench sim   --workload sim-hits|sim-coherence --seed N
 *                   --seconds S --trace 0|1 --expected FILE [--spans F]
 *   perfbench sweep --seed N --seconds S --trace 0|1 --expected FILE
 *                   [--spans F]
 *   perfbench serve --socket PATH --seed N --seconds S --trace 0|1
 *                   [--spans F]
 *   perfbench pin   --out FILE        (record the exact counters)
 *
 * Every simulation builds a fresh sim::Machine, so simulated caches
 * start empty, and runs on the serial engine (simJobs = 1) of the
 * default origin2000/MESI machine.
 */

#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/registry.hh"
#include "apps/trace.hh"
#include "check/json.hh"
#include "core/metrics.hh"
#include "core/study.hh"
#include "core/study_runner.hh"
#include "obs/json.hh"
#include "serve/net.hh"
#include "serve/wire.hh"
#include "sim/machine.hh"

namespace {

using namespace ccnuma;
using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

double
msBetween(TimePoint a, TimePoint b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------------
// Small statistics helpers.

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile (q in (0, 1]).
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

/// The p99, or with fewer than 1000 samples the highest percentile that
/// still has ten samples beyond it, but never below the p90 (a p99 of a
/// few hundred samples is one or two outliers).
double
tailPercentile(const std::vector<double>& v)
{
    const double n = static_cast<double>(v.size());
    return percentile(v, std::clamp(1.0 - 10.0 / n, 0.9, 0.99));
}

double
mean(const std::vector<double>& v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// A field of /proc/self/status in MB ("VmHWM", "VmRSS").
double
procStatusMb(const char* field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string prefix = std::string(field) + ":";
    while (std::getline(in, line))
        if (line.rfind(prefix, 0) == 0)
            return std::stod(line.substr(prefix.size())) / 1024.0;
    return 0.0;
}

int
hostThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

// ------------------------------------------------------------------
// Spans: name, start, end, parent and a group id shared by every span
// of one run, cell or request. Kept in memory, written at the end.

class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

    /// Open a span now; returns its id (-1 when tracing is off).
    int
    open(const char* name, int parent, std::uint64_t group)
    {
        return add(name, Clock::now(), Clock::now(), parent, group);
    }
    void
    close(int id)
    {
        if (id < 0)
            return;
        const TimePoint now = Clock::now();
        std::lock_guard<std::mutex> lk(mu_);
        spans_[static_cast<std::size_t>(id)].end = us(now);
    }
    /// Record a span whose ends were already timed.
    int
    add(const char* name, TimePoint b, TimePoint e, int parent,
        std::uint64_t group)
    {
        if (!on_)
            return -1;
        std::lock_guard<std::mutex> lk(mu_);
        spans_.push_back(Span{name, us(b), us(e), parent, group});
        return static_cast<int>(spans_.size() - 1);
    }

    /// Per span name: {calls, total ms, self ms}. Self time is the
    /// span's duration minus the part its children's union covers.
    std::map<std::string, std::array<double, 3>>
    layers() const
    {
        std::vector<std::vector<std::pair<double, double>>> kids(
            spans_.size());
        for (const Span& s : spans_)
            if (s.parent >= 0)
                kids[static_cast<std::size_t>(s.parent)].emplace_back(
                    s.begin, s.end);
        std::map<std::string, std::array<double, 3>> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            auto& iv = kids[i];
            std::sort(iv.begin(), iv.end());
            double covered = 0.0, cur_b = 0.0, cur_e = -1.0;
            for (auto [b, e] : iv) {
                b = std::max(b, s.begin);
                e = std::min(e, s.end);
                if (e <= b)
                    continue;
                if (b > cur_e) {
                    if (cur_e > cur_b)
                        covered += cur_e - cur_b;
                    cur_b = b;
                    cur_e = e;
                } else {
                    cur_e = std::max(cur_e, e);
                }
            }
            if (cur_e > cur_b)
                covered += cur_e - cur_b;
            auto& row = out[s.name];
            row[0] += 1;
            row[1] += (s.end - s.begin) / 1000.0;
            row[2] += (s.end - s.begin - covered) / 1000.0;
        }
        return out;
    }

    void
    write(const std::string& path) const
    {
        if (!on_ || path.empty())
            return;
        std::ofstream f(path);
        obs::JsonWriter w(f, 0);
        w.beginObject();
        w.beginArray("spans");
        for (const Span& s : spans_) {
            w.beginObject();
            w.field("name", s.name);
            w.field("start_us", s.begin);
            w.field("end_us", s.end);
            w.field("parent", s.parent);
            w.field("id", s.group);
            w.endObject();
        }
        w.endArray();
        w.beginObject("self_ms");
        for (const auto& [name, row] : layers()) {
            w.beginObject(name);
            w.field("calls", row[0]);
            w.field("total_ms", row[1]);
            w.field("self_ms", row[2]);
            w.endObject();
        }
        w.endObject();
        w.endObject();
        f << "\n";
    }

    /// Human-readable self-time table on stderr.
    void
    printLayers() const
    {
        if (!on_)
            return;
        std::fprintf(stderr, "%-28s %8s %12s %12s\n", "span", "calls",
                     "total_ms", "self_ms");
        for (const auto& [name, row] : layers())
            std::fprintf(stderr, "%-28s %8.0f %12.3f %12.3f\n",
                         name.c_str(), row[0], row[1], row[2]);
    }

  private:
    struct Span {
        const char* name;
        double begin, end; ///< microseconds since the tracer started
        int parent;
        std::uint64_t group;
    };
    double
    us(TimePoint t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    bool on_;
    TimePoint origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

// ------------------------------------------------------------------
// Output: one JSON object of named numbers plus a failure list.

struct Report {
    std::map<std::string, double> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few, for the log

    void
    fail(const std::string& why)
    {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(why);
    }

    void
    print() const
    {
        std::ostringstream os;
        obs::JsonWriter w(os, 0);
        w.beginObject();
        w.field("attempted", attempted);
        w.field("failed", failed);
        w.beginObject("metrics");
        for (const auto& [k, v] : metrics)
            w.field(k, v);
        w.endObject();
        w.beginArray("failures");
        for (const std::string& f : failures)
            w.field("", f);
        w.endArray();
        w.endObject();
        std::cout << os.str() << std::endl;
    }
};

/// Share of the attempted operations that checked correct.
double
okShare(const Report& rep)
{
    return rep.attempted ? 1.0 - static_cast<double>(rep.failed) /
                                     static_cast<double>(rep.attempted)
                         : 0.0;
}

// ------------------------------------------------------------------
// Exact simulated counters: the output check of the sim workloads.

struct Counts {
    std::uint64_t memOps = 0, cycles = 0, l2Hits = 0, missLocal = 0,
                  missRemoteClean = 0, missRemoteDirty = 0,
                  upgrades = 0, invals = 0;

    static Counts
    of(const sim::RunResult& r)
    {
        const sim::ProcCounters t = r.totals();
        Counts c;
        c.memOps = t.loads + t.stores;
        c.cycles = r.time;
        c.l2Hits = t.l2Hits;
        c.missLocal = t.missLocal;
        c.missRemoteClean = t.missRemoteClean;
        c.missRemoteDirty = t.missRemoteDirty;
        c.upgrades = t.upgrades;
        c.invals = t.invalsSent;
        return c;
    }
    std::uint64_t misses() const
    {
        return missLocal + missRemoteClean + missRemoteDirty;
    }
    Counts&
    operator+=(const Counts& o)
    {
        memOps += o.memOps;
        cycles += o.cycles;
        l2Hits += o.l2Hits;
        missLocal += o.missLocal;
        missRemoteClean += o.missRemoteClean;
        missRemoteDirty += o.missRemoteDirty;
        upgrades += o.upgrades;
        invals += o.invals;
        return *this;
    }
    bool operator==(const Counts&) const = default;

    std::vector<std::pair<const char*, std::uint64_t>>
    fields() const
    {
        return {{"memOps", memOps},
                {"cycles", cycles},
                {"l2Hits", l2Hits},
                {"missLocal", missLocal},
                {"missRemoteClean", missRemoteClean},
                {"missRemoteDirty", missRemoteDirty},
                {"upgrades", upgrades},
                {"invals", invals}};
    }
};

/// The pinned counters (expected.json): label -> Counts. Baselines pin
/// only memOps and cycles (the study engine reports nothing else).
class Pins
{
  public:
    static Pins
    load(const std::string& path)
    {
        const check::json::ParseResult pr = check::json::parseFile(path);
        if (!pr.ok || !pr.root.isObject())
            throw std::runtime_error("cannot read pins " + path + ": " +
                                     pr.error);
        Pins p;
        for (const auto& [label, v] : pr.root.obj) {
            Counts c;
            const auto get = [&v](const char* k) {
                const check::json::Value* f = v.find(k);
                return f ? f->asU64() : 0;
            };
            c.memOps = get("memOps");
            c.cycles = get("cycles");
            c.l2Hits = get("l2Hits");
            c.missLocal = get("missLocal");
            c.missRemoteClean = get("missRemoteClean");
            c.missRemoteDirty = get("missRemoteDirty");
            c.upgrades = get("upgrades");
            c.invals = get("invals");
            p.pins_[label] = c;
        }
        return p;
    }

    const Counts*
    find(const std::string& label) const
    {
        const auto it = pins_.find(label);
        return it == pins_.end() ? nullptr : &it->second;
    }

  private:
    std::map<std::string, Counts> pins_;
};

// ------------------------------------------------------------------
// Workload definitions.

struct SimCase {
    std::string app;
    std::uint64_t size;
    int procs;

    std::string
    label() const
    {
        return app + "/" + std::to_string(size) + "/p" +
               std::to_string(procs);
    }
};

/// Hit-dominated apps (L2 hit ratio 0.85-0.98). Machine::run is 94-98%
/// of a water-nsq run's wall clock; barnes builds its tree host-side
/// in App::setup, ~20% of its run at every size measured.
const std::vector<SimCase> kSimHits = {
    {"water-nsq", 2048, 32},
    {"water-nsq", 2048, 64},
    {"water-nsq", 2048, 128},
    {"barnes", 4096, 128},
};

/// Miss/invalidation-heavy apps at p128 (hit ratio 0.03-0.6); the
/// 2^20-point fft and 2^20-key radix also carry App::setup of large
/// inputs.
const std::vector<SimCase> kSimCoherence = {
    {"radix", 1u << 20, 128},
    {"fft", 1u << 20, 128},
    {"ocean", 514, 128},
    {"raytrace", 32, 128},
};

/// study-sweep: every original app at a small problem across
/// P = 1..128, one shared uniprocessor baseline per app.
const std::vector<int> kSweepProcs = {1, 2, 4, 8, 16, 32, 64, 128};

std::uint64_t
sweepSize(const std::string& app)
{
    if (app == "fft")
        return 1u << 12;
    if (app == "ocean")
        return 34;
    if (app == "radix")
        return 1u << 13;
    if (app == "barnes")
        return 256;
    if (app == "water-nsq" || app == "water-spatial")
        return 64;
    if (app == "infer")
        return 32;
    if (app == "protein")
        return 4;
    return 16; // raytrace / volrend / shearwarp image edge
}

std::vector<SimCase>
sweepCells()
{
    std::vector<SimCase> cells;
    for (const std::string& app : apps::originalApps())
        for (const int p : kSweepProcs)
            cells.push_back(SimCase{app, sweepSize(app), p});
    return cells;
}

std::string
baselineLabel(const std::string& app, std::uint64_t size)
{
    return "baseline/" + app + "/" + std::to_string(size);
}

// ------------------------------------------------------------------
// sim-hits / sim-coherence: direct calls into the apps and sim layers.

struct RunTiming {
    double makeMs = 0, machineMs = 0, setupMs = 0, runMs = 0,
           teardownMs = 0, totalMs = 0;
};

/// One fresh-Machine run with every layer boundary timed.
RunTiming
timedRun(const SimCase& c, Tracer& tr, std::uint64_t group, Counts& out)
{
    RunTiming t;
    const int top = tr.open("bench.run", -1, group);
    const TimePoint t0 = Clock::now();
    apps::AppPtr app = apps::makeApp(c.app, c.size);
    const TimePoint t1 = Clock::now();
    TimePoint t2, t3, t4;
    sim::RunResult r;
    {
        sim::Machine m(sim::MachineConfig::origin2000(c.procs));
        t2 = Clock::now();
        app->setup(m);
        t3 = Clock::now();
        r = m.run(app->program());
        t4 = Clock::now();
    }
    const TimePoint t5 = Clock::now();
    app.reset();
    const TimePoint t6 = Clock::now();
    tr.close(top);
    tr.add("apps::makeApp", t0, t1, top, group);
    tr.add("sim::Machine::Machine", t1, t2, top, group);
    tr.add("App::setup", t2, t3, top, group);
    tr.add("sim::Machine::run", t3, t4, top, group);
    tr.add("sim::Machine::~Machine", t4, t5, top, group);
    t.makeMs = msBetween(t0, t1);
    t.machineMs = msBetween(t1, t2);
    t.setupMs = msBetween(t2, t3);
    t.runMs = msBetween(t3, t4);
    t.teardownMs = msBetween(t4, t5);
    t.totalMs = msBetween(t0, t6);
    out = Counts::of(r);
    return t;
}

void
checkCounts(Report& rep, const Pins& pins, const std::string& label,
            const Counts& got)
{
    const Counts* want = pins.find(label);
    if (!want) {
        rep.fail(label + ": no pinned counters");
        return;
    }
    if (!(*want == got))
        rep.fail(label + ": simulated counters differ from the pin");
}

/// Layer metrics shared by the sim workloads and the sweep.
void
simLayerMetrics(Report& rep, const std::vector<RunTiming>& runs,
                const Counts& passCounts, double nsPerOp,
                double rssPerMachineMb)
{
    std::vector<double> mk, ma, su, ru, td;
    for (const RunTiming& t : runs) {
        mk.push_back(t.makeMs);
        ma.push_back(t.machineMs);
        su.push_back(t.setupMs);
        ru.push_back(t.runMs);
        td.push_back(t.teardownMs);
    }
    const Counts& c = passCounts;
    const double ops = static_cast<double>(c.memOps);
    rep.metrics["apps.make_ms"] = mean(mk);
    rep.metrics["apps.setup_ms"] = mean(su);
    rep.metrics["sim.machine_ms"] = mean(ma);
    rep.metrics["sim.teardown_ms"] = mean(td);
    rep.metrics["sim.run_ms"] = mean(ru);
    rep.metrics["sim.ns_per_op"] = nsPerOp;
    rep.metrics["sim.invals_per_op"] =
        ops ? static_cast<double>(c.invals) / ops : 0.0;
    rep.metrics["sim.remote_miss_share"] =
        c.misses() ? static_cast<double>(c.missRemoteClean +
                                         c.missRemoteDirty) /
                         static_cast<double>(c.misses())
                   : 0.0;
    rep.metrics["sim.mem_ops"] = ops;
    rep.metrics["sim.cycles"] = static_cast<double>(c.cycles);
    rep.metrics["sim.l2_hit_ratio"] =
        ops ? static_cast<double>(c.l2Hits) / ops : 0.0;
    rep.metrics["sim.rss_per_machine_mb"] = rssPerMachineMb;
}

int
runSimWorkload(const std::string& workload, std::uint64_t seed,
               double seconds, bool traced, const Pins& pins,
               const std::string& spansPath)
{
    const std::vector<SimCase>& cases =
        workload == "sim-hits" ? kSimHits : kSimCoherence;
    Report rep;
    Tracer tr(traced);
    Tracer off(false);
    std::mt19937_64 rng(seed);
    const double rss0 = procStatusMb("VmRSS");

    // Untimed warm-up: the first Machine of a process gets lazily
    // zeroed pages; later ones reuse (and re-zero) the heap.
    for (const SimCase& c : cases) {
        Counts got;
        timedRun(c, off, 0, got);
        checkCounts(rep, pins, c.label(), got);
        ++rep.attempted;
    }

    // Passes over the case list, in seeded order, until the time is
    // spent. A traced run alternates untraced and traced passes so the
    // tracing overhead is measured on the same work.
    std::vector<double> passRate, passCellsPerS, passSetup, lat,
        passWallTraced, passWallPlain;
    std::vector<RunTiming> tracedRuns;
    Counts passCounts;
    double runNs = 0.0;
    std::uint64_t group = 0;
    const TimePoint start = Clock::now();
    for (int pass = 0;
         pass < 3 || msBetween(start, Clock::now()) < seconds * 1000.0;
         ++pass) {
        std::vector<SimCase> order = cases;
        std::shuffle(order.begin(), order.end(), rng);
        const bool spanPass = traced && pass % 2 == 1;
        Tracer& t = spanPass ? tr : off;
        Counts pc;
        double setup = 0.0, wall = 0.0;
        for (const SimCase& c : order) {
            Counts got;
            const RunTiming rt = timedRun(c, t, ++group, got);
            ++rep.attempted;
            checkCounts(rep, pins, c.label(), got);
            pc += got;
            setup += (rt.machineMs + rt.setupMs) / 1000.0;
            wall += rt.totalMs;
            lat.push_back(rt.totalMs);
            if (spanPass) {
                tracedRuns.push_back(rt);
                runNs += rt.runMs * 1e6;
            }
        }
        passCounts = pc;
        passSetup.push_back(setup);
        passRate.push_back(static_cast<double>(pc.memOps) / 1e6 /
                           (wall / 1000.0));
        passCellsPerS.push_back(static_cast<double>(order.size()) /
                                (wall / 1000.0));
        (spanPass ? passWallTraced : passWallPlain).push_back(wall);
        std::fprintf(stderr, "perfbench: pass %d %.1f ms\n", pass, wall);
    }

    if (traced) {
        const double passes = static_cast<double>(tracedRuns.size()) /
                              static_cast<double>(cases.size());
        simLayerMetrics(rep, tracedRuns, passCounts,
                        runNs / (passes * static_cast<double>(
                                              passCounts.memOps)),
                        procStatusMb("VmHWM") - rss0);
        rep.metrics["bench.trace_overhead"] =
            median(passWallTraced) / median(passWallPlain) - 1.0;
    } else {
        const double rate = median(passRate);
        rep.metrics["setup_s"] = median(passSetup);
        rep.metrics["sim_mops_per_s"] = rate;
        rep.metrics["cells_per_s"] = median(passCellsPerS);
        rep.metrics["goodput_rps"] = median(passCellsPerS) * okShare(rep);
        rep.metrics["req_p50_ms"] = median(lat);
        rep.metrics["req_p99_ms"] = tailPercentile(lat);
        rep.metrics["light_p50_ms"] = median(lat);
        rep.metrics["samples"] = static_cast<double>(lat.size());
    }
    rep.metrics["peak_rss_mb"] = procStatusMb("VmHWM");
    tr.printLayers();
    tr.write(spansPath);
    rep.print();
    return 0;
}

// ------------------------------------------------------------------
// study-sweep: core::StudyRunner, timed from its own seams.

/// Host timestamps of one App built by a RunSpec factory (a baseline
/// or the measured run). Touched only by the worker thread running
/// the cell.
struct BuildClock {
    TimePoint make0, make1, setup0, setup1, run0, run1, down;
    bool measured = false; ///< preRun fired: the P-processor run
};

struct CellClock {
    std::deque<BuildClock> builds; ///< deque: references stay valid
};

/// Forwards to the real App and timestamps each layer boundary:
/// App::setup, the end of Machine::run (when the Program temporary
/// runApp handed to it dies) and the App's own destruction, which
/// follows the Machine's.
class TimedApp : public apps::App
{
  public:
    TimedApp(apps::AppPtr inner, BuildClock& clock)
        : inner_(std::move(inner)), clock_(clock)
    {
    }
    ~TimedApp() override { clock_.down = Clock::now(); }
    TimedApp(const TimedApp&) = delete;
    TimedApp& operator=(const TimedApp&) = delete;

    std::string name() const override { return inner_->name(); }

    void
    setup(sim::Machine& m) override
    {
        clock_.setup0 = Clock::now();
        inner_->setup(m);
        clock_.setup1 = Clock::now();
        if (!clock_.measured)
            clock_.run0 = clock_.setup1;
    }

    sim::Machine::Program
    program() override
    {
        struct RunEnd {
            BuildClock& c;
            ~RunEnd() { c.run1 = Clock::now(); }
        };
        auto end = std::make_shared<RunEnd>(clock_);
        return [p = inner_->program(), end](sim::Cpu& cpu) {
            return p(cpu);
        };
    }

  private:
    apps::AppPtr inner_;
    BuildClock& clock_;
};

/// Wrap a RunSpec so every App it builds is a TimedApp reporting into
/// `clock`, and its preRun hook marks the start of Machine::run.
core::RunSpec
instrument(core::RunSpec spec, const std::shared_ptr<CellClock>& clock)
{
    spec.factory = [clock, inner = std::move(spec.factory)] {
        BuildClock& b = clock->builds.emplace_back();
        b.make0 = Clock::now();
        apps::AppPtr app = inner();
        b.make1 = Clock::now();
        return std::make_unique<TimedApp>(std::move(app), b);
    };
    spec.preRun = [clock, hook = std::move(spec.preRun)](sim::Machine& m) {
        BuildClock& b = clock->builds.back();
        b.measured = true;
        if (hook)
            hook(m);
        b.run0 = Clock::now();
    };
    return spec;
}

struct PlanRun {
    core::StudyResult res;
    std::vector<std::shared_ptr<CellClock>> clocks; ///< one per spec
    double wallMs = 0, emitMs = 0;
    TimePoint begin;
};

/// Run `specs` as one StudyPlan on a fresh StudyRunner (so every plan
/// computes its own baselines), then emit the result into a sink.
PlanRun
runPlan(std::vector<core::RunSpec> specs, int jobs)
{
    PlanRun out;
    core::StudyPlan plan;
    for (core::RunSpec& spec : specs) {
        out.clocks.push_back(std::make_shared<CellClock>());
        plan.add(instrument(std::move(spec), out.clocks.back()));
    }
    core::StudyOptions opt;
    opt.jobs = jobs;
    opt.simJobs = 1;
    core::StudyRunner runner(opt);
    out.begin = Clock::now();
    out.res = runner.run(plan);
    const TimePoint t1 = Clock::now();
    core::MetricsSink sink = core::MetricsSink::inMemory();
    out.res.emit(sink);
    const std::string doc = sink.str();
    out.emitMs = msBetween(t1, Clock::now());
    out.wallMs = msBetween(out.begin, t1);
    return out;
}

std::vector<core::RunSpec>
sweepSpecs(const std::vector<SimCase>& cells)
{
    std::vector<core::RunSpec> specs;
    for (const SimCase& c : cells)
        specs.push_back(core::RunSpec{
            c.label(), sim::MachineConfig::origin2000(c.procs),
            [app = c.app, size = c.size] {
                return apps::makeApp(app, size);
            },
            baselineLabel(c.app, c.size), true, {}});
    return specs;
}

/// Per-build layer timings of one plan; adds the measured runs'
/// Machine::run time to `runNs`.
void
collectBuilds(const PlanRun& pr, std::vector<RunTiming>& out, double& runNs)
{
    for (const auto& clock : pr.clocks)
        for (const BuildClock& b : clock->builds) {
            RunTiming t;
            t.makeMs = msBetween(b.make0, b.make1);
            t.machineMs = msBetween(b.make1, b.setup0);
            t.setupMs = msBetween(b.setup0, b.setup1);
            t.runMs = msBetween(b.run0, b.run1);
            t.teardownMs = msBetween(b.run1, b.down);
            if (b.measured)
                runNs += t.runMs * 1e6;
            out.push_back(t);
        }
}

/// core.* layer metrics over the cells of `plans`.
void
coreLayerMetrics(Report& rep, const std::vector<PlanRun>& plans, int jobs)
{
    std::vector<double> cellMs, busy, reuse, emitMs;
    for (const PlanRun& pr : plans) {
        double cellSum = 0.0;
        std::size_t baselines = 0, withBaseline = 0;
        for (std::size_t i = 0; i < pr.res.runs.size(); ++i) {
            cellMs.push_back(pr.res.runs[i].seconds * 1000.0);
            cellSum += pr.res.runs[i].seconds;
            for (const BuildClock& b : pr.clocks[i]->builds)
                baselines += b.measured ? 0 : 1;
            withBaseline += pr.res.runs[i].m.seqTime ? 1 : 0;
        }
        busy.push_back(cellSum / (pr.wallMs / 1000.0 * jobs));
        reuse.push_back(withBaseline ? static_cast<double>(withBaseline -
                                                           baselines) /
                                           static_cast<double>(
                                               pr.res.runs.size())
                                     : 0.0);
        emitMs.push_back(pr.emitMs);
    }
    rep.metrics["core.cell_p50_ms"] = median(cellMs);
    rep.metrics["core.cell_p99_ms"] = tailPercentile(cellMs);
    rep.metrics["core.pool_busy"] = median(busy);
    rep.metrics["core.baseline_reuse"] = median(reuse);
    rep.metrics["core.emit_ms"] = median(emitMs);
}

/// Record one plan's spans: the StudyRunner::run call, each cell, and
/// each App build inside a cell.
void
tracePlan(Tracer& tr, const PlanRun& pr, std::uint64_t& group)
{
    const TimePoint end =
        pr.begin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(pr.wallMs));
    const int top =
        tr.add("core::StudyRunner::run", pr.begin, end, -1, ++group);
    tr.add("core::StudyResult::emit", end,
           end + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(pr.emitMs)),
           -1, group);
    for (std::size_t i = 0; i < pr.clocks.size(); ++i) {
        const auto& builds = pr.clocks[i]->builds;
        if (builds.empty())
            continue;
        const TimePoint cellEnd = builds.back().down;
        const TimePoint cellBegin =
            cellEnd - std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              pr.res.runs[i].seconds));
        const std::uint64_t g = ++group;
        const int cell = tr.add("core::cell", cellBegin, cellEnd, top, g);
        for (const BuildClock& b : builds) {
            tr.add("apps::makeApp", b.make0, b.make1, cell, g);
            tr.add("sim::Machine::Machine", b.make1, b.setup0, cell, g);
            tr.add("App::setup", b.setup0, b.setup1, cell, g);
            if (b.measured)
                tr.add("RunSpec::preRun", b.setup1, b.run0, cell, g);
            tr.add("sim::Machine::run", b.run0, b.run1, cell, g);
            tr.add("sim::Machine::~Machine", b.run1, b.down, cell, g);
        }
    }
}

int
runSweepWorkload(std::uint64_t seed, double seconds, bool traced,
                 const Pins& pins, const std::string& spansPath)
{
    Report rep;
    Tracer tr(traced);
    std::mt19937_64 rng(seed);
    const int jobs = std::min(4, hostThreads());
    const double rss0 = procStatusMb("VmRSS");

    // Check one plan's outcomes against the pins: every measured run's
    // counters and every shared baseline's simulated time.
    const auto check = [&](const std::vector<SimCase>& cells,
                           const PlanRun& pr) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const core::RunOutcome& o = pr.res.runs[i];
            ++rep.attempted;
            if (!o.ok) {
                rep.fail(o.name + ": " + o.error);
                continue;
            }
            checkCounts(rep, pins, cells[i].label(), Counts::of(o.m.par));
            const Counts* base =
                pins.find(baselineLabel(cells[i].app, cells[i].size));
            if (!base || base->cycles != o.m.seqTime)
                rep.fail(o.name + ": baseline time differs from the pin");
        }
    };

    const std::vector<SimCase> all = sweepCells();
    check(all, runPlan(sweepSpecs(all), jobs)); // untimed warm-up

    // Whole plans in seeded cell order until the time is spent; a
    // traced run records spans on every other plan.
    std::vector<double> cellsPerS, setupS, opsRate, cellMs, wallTraced,
        wallPlain;
    std::vector<PlanRun> tracedPlans;
    std::vector<RunTiming> builds;
    double runNs = 0.0;
    Counts planCounts;
    std::uint64_t group = 0;
    const TimePoint start = Clock::now();
    for (int i = 0;
         i < 3 || msBetween(start, Clock::now()) < seconds * 1000.0; ++i) {
        std::vector<SimCase> cells = all;
        std::shuffle(cells.begin(), cells.end(), rng);
        PlanRun pr = runPlan(sweepSpecs(cells), jobs);
        check(cells, pr);

        double setup = 0.0;
        std::uint64_t ops = 0;
        Counts pc;
        for (std::size_t c = 0; c < cells.size(); ++c) {
            const core::RunOutcome& o = pr.res.runs[c];
            cellMs.push_back(o.seconds * 1000.0);
            if (o.ok)
                pc += Counts::of(o.m.par);
            for (const BuildClock& b : pr.clocks[c]->builds) {
                setup += msBetween(b.make1, b.setup1) / 1000.0;
                if (b.measured)
                    continue;
                if (const Counts* base = pins.find(
                        baselineLabel(cells[c].app, cells[c].size)))
                    ops += base->memOps; // baselines are simulated too
            }
        }
        ops += pc.memOps;
        planCounts = pc;
        const double wallS = pr.wallMs / 1000.0;
        setupS.push_back(setup);
        cellsPerS.push_back(static_cast<double>(cells.size()) / wallS);
        opsRate.push_back(static_cast<double>(ops) / 1e6 / wallS);
        if (traced && i % 2 == 1) {
            tracePlan(tr, pr, group);
            collectBuilds(pr, builds, runNs);
            wallTraced.push_back(pr.wallMs + pr.emitMs);
            tracedPlans.push_back(std::move(pr));
        } else {
            wallPlain.push_back(pr.wallMs + pr.emitMs);
        }
    }

    if (traced) {
        const double plans = static_cast<double>(tracedPlans.size());
        simLayerMetrics(rep, builds, planCounts,
                        runNs / (plans * static_cast<double>(
                                             planCounts.memOps)),
                        (procStatusMb("VmHWM") - rss0) / jobs);
        coreLayerMetrics(rep, tracedPlans, jobs);
        rep.metrics["bench.trace_overhead"] =
            median(wallTraced) / median(wallPlain) - 1.0;
    } else {
        rep.metrics["setup_s"] = median(setupS);
        rep.metrics["sim_mops_per_s"] = median(opsRate);
        rep.metrics["cells_per_s"] = median(cellsPerS);
        rep.metrics["goodput_rps"] = median(cellsPerS) * okShare(rep);
        rep.metrics["req_p50_ms"] = median(cellMs);
        rep.metrics["req_p99_ms"] = tailPercentile(cellMs);
        rep.metrics["light_p50_ms"] = median(cellMs);
        rep.metrics["samples"] = static_cast<double>(cellMs.size());
    }
    rep.metrics["peak_rss_mb"] = procStatusMb("VmHWM");
    tr.printLayers();
    tr.write(spansPath);
    rep.print();
    return 0;
}

// ------------------------------------------------------------------
// serve-mix: an open-loop, seeded request schedule against a running
// ccnuma_serve, from one process with at most nproc connections.

enum class Kind : int { Ping, Cached, Cold, Trace, Obs, Count };

const char*
kindName(Kind k)
{
    static const char* names[] = {"ping", "cached", "cold", "trace",
                                  "obs"};
    return names[static_cast<int>(k)];
}

/// The offered load. The rates and the latency limit were fixed from
/// the seed build's measurements on a 4-core host (README.md). The
/// shares of the mix are assumptions: the repository keeps no request
/// log to take them from.
constexpr double kLightRps = 80.0;
constexpr double kKneeRps = 150.0;
/// goodput_rps counts answers within this limit in the saturation
/// phase, where the slowest of ~6000 took 20-50 ms on the reference host.
constexpr double kLatencyLimitMs = 100.0;
/// Shares of --seconds spent at the light and the knee rate.
constexpr double kLightShare = 0.15;
constexpr double kKneeShare = 0.45;
/// Requests of the closed-loop saturation phase per --seconds (~2 s of
/// the daemon's time on the reference host).
constexpr int kSaturatePerSecond = 300;
constexpr int kBursts = 12;      ///< closed-loop cold bursts...
constexpr int kBurstStudies = 20; ///< ...of this many studies each
/// Request mix per 100 arrivals, in Kind order.
constexpr int kMixPerHundred[] = {5, 82, 2, 8, 3};
constexpr int kHotKeys = 16;    ///< well under the daemon's 128 entries
constexpr int kTraceCorpus = 6;
constexpr int kReferenceSample = 6;
/// The cold study: fft on P = 1, 32, 128, the case the serve latency
/// figures of ROADMAP.md cite, so every cold request builds a p128
/// Machine. fft rounds its size down to an even power of two, so
/// sizes 4097..8191 are distinct cache keys for the same 2^12-point
/// simulation.
const std::vector<int> kColdProcs = {1, 32, 128};
constexpr std::uint64_t kColdFftSize = (1u << 12) + 1;

/// Everything after the id of one request line, e.g.
/// `,"type":"ping"}`. Equal bodies have equal cache keys.
struct Body {
    Kind kind;
    std::string text;
};

std::string
studyBody(const std::string& app, std::uint64_t size,
          const std::vector<int>& procs, bool obs)
{
    std::string b = ",\"type\":\"study\",\"app\":\"" + app +
                    "\",\"size\":" + std::to_string(size) +
                    ",\"procs\":[";
    for (std::size_t i = 0; i < procs.size(); ++i)
        b += (i ? "," : "") + std::to_string(procs[i]);
    b += "]";
    if (obs)
        b += ",\"obs\":true";
    return b + "}";
}

/// Seeded request bodies: the hot pool, the trace corpus, and the
/// generators of unique cold and obs keys.
class Corpus
{
  public:
    explicit Corpus(std::uint64_t seed) : rng_(seed)
    {
        // Hot pool: distinct small studies, cached after warm-up. Fixed
        // (not seeded), so the daemon's footprint does not vary by seed.
        const std::vector<std::vector<int>> procSets = {
            {1, 8}, {4, 16}, {2, 32}, {8}, {16}, {1, 4, 32}};
        const auto& names = apps::originalApps();
        for (std::size_t i = 0; i < kHotKeys; ++i)
            hot.push_back(Body{
                Kind::Cached,
                studyBody(names[i % names.size()],
                          sweepSize(names[i % names.size()]),
                          procSets[i % procSets.size()], false)});
        // Trace corpus: real recordings of small apps, seeded sizes.
        const std::vector<SimCase> shapes = {
            {"fft", 1u << 10, 4},    {"radix", 1u << 12, 8},
            {"water-nsq", 32, 4},    {"ocean", 18, 4},
            {"barnes", 64, 8},       {"volrend", 8, 4}};
        for (int i = 0; i < kTraceCorpus; ++i) {
            SimCase c = shapes[static_cast<std::size_t>(i) % shapes.size()];
            // A seeded size within ~10%: a different trace per seed at
            // nearly the same length.
            if (c.app == "radix" || c.app == "water-nsq" ||
                c.app == "barnes")
                c.size += rng_() % (c.size / 16 + 1);
            apps::AppPtr app = apps::makeApp(c.app, c.size);
            const apps::RecordedTrace rt = apps::recordTrace(
                sim::MachineConfig::origin2000(c.procs), *app);
            traces.push_back(Body{
                Kind::Trace, ",\"type\":\"trace\",\"trace\":\"" +
                                 obs::JsonWriter::escape(
                                     rt.trace.serialize()) +
                                 "\"}"});
        }
        std::size_t bytes = 0;
        for (const Body& b : traces)
            bytes += b.text.size();
        std::fprintf(stderr, "perfbench: %zu hot studies, %zu traces "
                             "(%.0f KB)\n",
                     hot.size(), traces.size(),
                     static_cast<double>(bytes) / 1024.0);
        // Unique keys for cold and obs studies: sizes drawn without
        // replacement from a narrow band, so every cold request of one
        // kind costs about the same.
        for (std::size_t i = 0; i < sizes_.size(); ++i) {
            const std::uint64_t n = i == 0 ? 8192 - kColdFftSize : 1024;
            for (std::uint64_t k = 0; k < n; ++k)
                sizes_[i].push_back(k);
            std::shuffle(sizes_[i].begin(), sizes_[i].end(), rng_);
        }
    }

    /// A cold study no earlier request has asked for.
    Body
    cold()
    {
        return Body{Kind::Cold, studyBody("fft", kColdFftSize + nextSize(0),
                                          kColdProcs, false)};
    }
    /// A cold study with the sharing profiler attached.
    Body
    obs()
    {
        return Body{Kind::Obs,
                    studyBody("radix", 4096 + nextSize(1), {8}, true)};
    }
    Body
    draw(Kind k)
    {
        switch (k) {
          case Kind::Ping:
            return Body{Kind::Ping, ",\"type\":\"ping\"}"};
          case Kind::Cached:
            return hot[rng_() % hot.size()];
          case Kind::Cold:
            return cold();
          case Kind::Trace:
            return traces[rng_() % traces.size()];
          default:
            return obs();
        }
    }
    /// The next request kind: the mix is dealt in shuffled decks of
    /// 100, so every stretch of 100 arrivals has exactly the mix.
    Kind
    drawKind()
    {
        if (deck_.empty()) {
            for (int k = 0; k < static_cast<int>(Kind::Count); ++k)
                deck_.insert(deck_.end(), kMixPerHundred[k],
                             static_cast<Kind>(k));
            std::shuffle(deck_.begin(), deck_.end(), rng_);
        }
        const Kind k = deck_.back();
        deck_.pop_back();
        return k;
    }
    std::mt19937_64& rng() { return rng_; }

    std::vector<Body> hot, traces;

  private:
    std::uint64_t
    nextSize(int pool)
    {
        auto& p = sizes_[pool];
        if (p.empty())
            throw std::runtime_error("cold key space exhausted");
        const std::uint64_t k = p.back();
        p.pop_back();
        return k;
    }
    std::mt19937_64 rng_;
    std::array<std::vector<std::uint64_t>, 2> sizes_;
    std::vector<Kind> deck_;
};

/// One request of a phase and what came back.
struct Sent {
    Body body;
    std::string id;
    TimePoint due{}, sent{}, recv{};
    bool answered = false;
    std::string response; ///< without the trailing newline
};

serve::Fd
connectTo(const std::string& path)
{
    serve::Fd fd = serve::connectUnix(path);
    timeval tv{};
    tv.tv_sec = 20; // a stuck daemon fails the run instead of hanging it
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    return fd;
}

std::string
lineOf(const Sent& s)
{
    return "{\"id\":\"" + s.id + "\"" + s.body.text + "\n";
}

/// Span name of one request round trip, by kind.
const char*
spanName(Kind k)
{
    static const char* names[] = {
        "serve::request/ping", "serve::request/cached",
        "serve::request/cold", "serve::request/trace",
        "serve::request/obs"};
    return names[static_cast<int>(k)];
}

/// The id of a response line (the wire format starts `{"id":"..."`).
std::string
idOf(const std::string& line)
{
    const std::string pre = "{\"id\":\"";
    if (line.rfind(pre, 0) != 0)
        return {};
    const std::size_t e = line.find('"', pre.size());
    return e == std::string::npos ? std::string()
                                  : line.substr(pre.size(), e - pre.size());
}

/// Receive `expect` responses on `fd`, matching them to `reqs` by id.
void
receive(int fd, std::vector<Sent>& reqs,
        const std::map<std::string, std::size_t>& byId, std::size_t expect,
        Tracer& tr, int phase)
{
    serve::LineReader reader(fd, std::size_t{64} << 20);
    std::string line;
    for (std::size_t got = 0; got < expect; ++got) {
        if (reader.next(line) != serve::ReadStatus::Line)
            return; // timeout or EOF: the rest stay unanswered
        const TimePoint now = Clock::now();
        const auto it = byId.find(idOf(line));
        if (it == byId.end())
            continue;
        Sent& s = reqs[it->second];
        s.recv = now;
        s.answered = true;
        s.response = std::move(line);
        tr.add(spanName(s.body.kind), s.due, now, phase, it->second);
    }
}

/// Open loop: every request is sent at its due time on connection
/// (index % conns), whether or not earlier ones were answered.
void
runOpenLoop(std::vector<serve::Fd>& conns, std::vector<Sent>& reqs,
            Tracer& tr, int phase)
{
    std::map<std::string, std::size_t> byId;
    for (std::size_t i = 0; i < reqs.size(); ++i)
        byId[reqs[i].id] = i;
    const std::size_t n = conns.size();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < n; ++c) {
        std::size_t expect = 0;
        for (std::size_t i = c; i < reqs.size(); i += n)
            ++expect;
        threads.emplace_back([&, c] {
            for (std::size_t i = c; i < reqs.size(); i += n) {
                // Sleep to just short of the due time, then spin, so
                // timer slack does not show up as request latency.
                std::this_thread::sleep_until(
                    reqs[i].due - std::chrono::microseconds(300));
                while (Clock::now() < reqs[i].due) {
                }
                reqs[i].sent = Clock::now();
                if (!serve::writeAll(conns[c].get(), lineOf(reqs[i])))
                    return;
            }
        });
        threads.emplace_back([&, c, expect] {
            receive(conns[c].get(), reqs, byId, expect, tr, phase);
        });
    }
    for (std::thread& t : threads)
        t.join();
}

/// Closed loop: each connection sends its next request only after the
/// previous answer arrived.
void
runClosedLoop(std::vector<serve::Fd>& conns, std::vector<Sent>& reqs,
              Tracer& tr, int phase)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (serve::Fd& fd : conns)
        threads.emplace_back([&] {
            serve::LineReader reader(fd.get(), std::size_t{64} << 20);
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= reqs.size())
                    return;
                Sent& s = reqs[i];
                s.due = s.sent = Clock::now();
                std::string line;
                if (!serve::writeAll(fd.get(), lineOf(s)) ||
                    reader.next(line) != serve::ReadStatus::Line ||
                    idOf(line) != s.id)
                    return;
                s.recv = Clock::now();
                s.answered = true;
                s.response = std::move(line);
                tr.add(spanName(s.body.kind), s.sent, s.recv, phase, i);
            }
        });
    for (std::thread& t : threads)
        t.join();
}

/// A seeded schedule at a constant `rps` for `seconds`, due from `t0`.
std::vector<Sent>
schedule(Corpus& corpus, const std::string& prefix, double rps,
         double seconds, TimePoint t0)
{
    std::vector<Sent> reqs;
    for (double t = 0.0; t < seconds; t += 1.0 / rps) {
        Sent s;
        s.body = corpus.draw(corpus.drawKind());
        s.id = prefix + std::to_string(reqs.size());
        s.due = t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(t));
        reqs.push_back(std::move(s));
    }
    return reqs;
}

/// The parsed outcome of one response.
struct Outcome {
    bool ok = false;
    bool cached = false;
    std::string error;   ///< error code, or why the response is wrong
    std::string payload; ///< the result object's exact bytes
};

/// Check a response's framing and split out its payload. A study or
/// trace answer must re-render byte-identically through
/// serve::resultResponse (timed: serve.render_us).
Outcome
parseOutcome(const Sent& s, std::vector<double>& renderUs)
{
    Outcome o;
    if (!s.answered) {
        o.error = "unanswered";
        return o;
    }
    const check::json::ParseResult pr = check::json::parse(s.response);
    const check::json::Value* okv = pr.ok ? pr.root.find("ok") : nullptr;
    if (!okv || okv->kind != check::json::Value::Kind::Bool) {
        o.error = "malformed response";
        return o;
    }
    if (!okv->boolean) {
        const check::json::Value* e = pr.root.find("error");
        o.error = e ? e->str : "error";
        return o;
    }
    if (s.body.kind == Kind::Ping) {
        o.ok = s.response == "{\"id\":\"" + s.id +
                                 "\",\"ok\":true,\"type\":\"pong\"}";
        if (!o.ok)
            o.error = "wrong pong";
        return o;
    }
    const check::json::Value* cv = pr.root.find("cached");
    o.cached = cv && cv->boolean;
    const std::string key = ",\"result\":";
    const std::size_t at = s.response.find(key);
    if (at == std::string::npos || s.response.back() != '}') {
        o.error = "no result";
        return o;
    }
    o.payload = s.response.substr(at + key.size(),
                                  s.response.size() - at - key.size() - 1);
    const TimePoint r0 = Clock::now();
    const std::string again = serve::resultResponse(s.id, o.cached, o.payload);
    renderUs.push_back(msBetween(r0, Clock::now()) * 1000.0);
    o.ok = again == s.response + "\n";
    if (!o.ok)
        o.error = "response framing differs from serve::resultResponse";
    return o;
}

/// The daemon's canonical payload for `req`, computed in-process
/// through the public core API: the plan Server::computeResult builds
/// (labels, baseline key, machine), run by a StudyRunner and rendered
/// by a MetricsSink. Obs requests are not sampled.
std::string
referencePayload(const serve::Request& req, std::vector<PlanRun>& plans)
{
    std::vector<core::RunSpec> specs;
    int firstProcs = 0;
    if (req.type == serve::Request::Type::Study) {
        firstProcs = req.procs.front();
        const sim::MachineConfig c0 = req.machineFor(firstProcs);
        const std::string seqKey = "seq|" + req.app + "|" +
                                   std::to_string(req.size) + "|" +
                                   c0.protocol.name() + "|" +
                                   c0.dirFormat.name();
        for (const int p : req.procs)
            specs.push_back(core::RunSpec{
                req.app + " P=" + std::to_string(p), req.machineFor(p),
                [app = req.app, size = req.size] {
                    return apps::makeApp(app, size);
                },
                req.baseline ? seqKey : "", req.baseline, {}});
    } else {
        firstProcs = req.trace.procs;
        const auto t = std::make_shared<const apps::Trace>(req.trace);
        specs.push_back(core::RunSpec{
            "trace P=" + std::to_string(firstProcs),
            req.machineFor(firstProcs),
            [t] { return std::make_unique<apps::TraceReplayApp>(*t); },
            "", false, {}});
    }
    PlanRun pr = runPlan(std::move(specs), 2);
    core::MetricsSink sink = core::MetricsSink::inMemory();
    sink.setMachine(req.machineFor(firstProcs));
    for (const core::RunOutcome& r : pr.res.runs) {
        if (!r.ok)
            throw std::runtime_error(r.name + ": " + r.error);
        sink.add(r.name, r.m.par);
        sink.addCount(r.name, "nprocs", static_cast<std::uint64_t>(r.nprocs));
        if (r.m.seqTime) {
            sink.addCount(r.name, "seqCycles",
                          static_cast<std::uint64_t>(r.m.seqTime));
            sink.addScalar(r.name, "speedup", r.m.speedup());
            sink.addScalar(r.name, "efficiency", r.m.efficiency());
        }
    }
    plans.push_back(std::move(pr));
    return sink.str();
}

/// Simulated cells and memory ops reported in one study payload.
std::pair<std::uint64_t, std::uint64_t>
payloadWork(const std::string& payload)
{
    const check::json::ParseResult pr = check::json::parse(payload);
    const check::json::Value* runs = pr.ok ? pr.root.find("runs") : nullptr;
    std::uint64_t cells = 0, ops = 0;
    if (!runs || !runs->isArray())
        return {0, 0};
    for (const check::json::Value& r : runs->arr) {
        const check::json::Value* t = r.find("totals");
        if (!t)
            continue;
        ++cells;
        for (const char* k : {"loads", "stores"})
            if (const check::json::Value* v = t->find(k))
                ops += v->asU64();
    }
    return {cells, ops};
}

/// One busy-waiting thread per CPU at SCHED_IDLE priority, so that no
/// CPU halts while requests are timed: any runnable thread preempts
/// them at once. On the reference host (a KVM guest) a halted vCPU is
/// woken through the host's scheduler, and request medians of the same
/// build read 0.11 ms in some runs and 0.21 ms in others; with the CPUs
/// kept busy they repeat.
class IdleSpinners
{
  public:
    explicit IdleSpinners(int n)
    {
        for (int i = 0; i < n; ++i)
            threads_.emplace_back([this] {
                sched_param p{};
                pthread_setschedparam(pthread_self(), SCHED_IDLE, &p);
                while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
                    __builtin_ia32_pause();
#endif
                }
            });
    }
    IdleSpinners(const IdleSpinners&) = delete;
    IdleSpinners& operator=(const IdleSpinners&) = delete;
    ~IdleSpinners()
    {
        stop_ = true;
        for (std::thread& t : threads_)
            t.join();
    }

  private:
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

int
runServeWorkload(const std::string& socket, std::uint64_t seed,
                 double seconds, bool traced, const std::string& spansPath)
{
    Report rep;
    Tracer tr(traced);
    Tracer off(false);
    Corpus corpus(seed); // untimed: records the trace corpus
    std::vector<serve::Fd> conns;
    for (int i = 0; i < std::min(4, hostThreads()); ++i)
        conns.push_back(connectTo(socket));

    std::vector<double> renderUs, respKb;
    std::map<std::string, std::string> payloadOf; // body -> payload
    std::map<std::string, std::string> lineOfBody;
    std::array<std::vector<double>, static_cast<int>(Kind::Count)> kneeLat,
        allLat;
    std::uint64_t kneeCached = 0, kneeAnswers = 0;

    // Check every response; the payloads of one body (the first one
    // computed, the rest cached) must be byte-identical.
    const auto account = [&](const std::vector<Sent>& reqs,
                             const std::string& phase) {
        std::vector<Outcome> outs;
        for (const Sent& s : reqs) {
            ++rep.attempted;
            Outcome o = parseOutcome(s, renderUs);
            if (!o.ok) {
                rep.fail(phase + " " + s.id + " (" + kindName(s.body.kind) +
                         "): " + o.error);
            } else if (!o.payload.empty()) {
                respKb.push_back(static_cast<double>(s.response.size()) /
                                 1024.0);
                const auto [it, fresh] =
                    payloadOf.emplace(s.body.text, o.payload);
                if (!fresh && it->second != o.payload)
                    rep.fail(phase + " " + s.id +
                             ": payload differs from an earlier answer "
                             "to the same request");
                lineOfBody.emplace(s.body.text, lineOf(s));
            }
            outs.push_back(std::move(o));
        }
        return outs;
    };
    const auto fresh = [](std::vector<Body> bodies, const std::string& pre) {
        std::vector<Sent> reqs;
        for (Body& b : bodies) {
            Sent s;
            s.body = std::move(b);
            s.id = pre + std::to_string(reqs.size());
            reqs.push_back(std::move(s));
        }
        return reqs;
    };

    // Untimed warm-up: put the hot pool and the trace corpus in the
    // cache, and let a few cold studies warm the daemon's heap.
    std::vector<Body> warmBodies = corpus.hot;
    warmBodies.insert(warmBodies.end(), corpus.traces.begin(),
                      corpus.traces.end());
    for (int i = 0; i < 4; ++i)
        warmBodies.push_back(corpus.cold());
    warmBodies.push_back(corpus.obs());

    // One connection, so the daemon computes them in a fixed order.
    std::vector<Sent> warm = fresh(std::move(warmBodies), "w");
    std::vector<serve::Fd> first;
    first.push_back(std::move(conns.front()));
    runClosedLoop(first, warm, off, -1);
    account(warm, "warm-up");
    conns.front() = std::move(first.front());

    // Light rate, then the loaded rate (open loop, timed from each
    // request's due time), then the same mix in a closed loop on every
    // connection (the daemon sets the rate: goodput), then closed-loop
    // bursts of cold studies on one connection (simulation throughput
    // through the daemon).
    const auto openPhase = [&](const char* name, const std::string& pre,
                               double rps, double secs) {
        const TimePoint t0 = Clock::now() + std::chrono::milliseconds(20);
        std::vector<Sent> reqs = schedule(corpus, pre, rps, secs, t0);
        const int span = tr.open(name, -1, 0);
        runOpenLoop(conns, reqs, tr, span);
        tr.close(span);
        return reqs;
    };
    auto spinners = std::make_unique<IdleSpinners>(hostThreads());
    std::vector<Sent> light =
        openPhase("bench.phase/light", "l", kLightRps, kLightShare * seconds);
    std::vector<Sent> knee =
        openPhase("bench.phase/knee", "k", kKneeRps, kKneeShare * seconds);

    // The same mix, each connection sending as soon as its last answer
    // arrived: the daemon, not the schedule, sets the rate.
    std::vector<Body> satBodies;
    for (double n = 0; n < kSaturatePerSecond * seconds; ++n)
        satBodies.push_back(corpus.draw(corpus.drawKind()));
    std::vector<Sent> saturate = fresh(std::move(satBodies), "s");
    const int satSpan = tr.open("bench.phase/saturate", -1, 0);
    const TimePoint s0 = Clock::now();
    runClosedLoop(conns, saturate, tr, satSpan);
    const double saturateS = msBetween(s0, Clock::now()) / 1000.0;
    tr.close(satSpan);

    std::vector<std::vector<Sent>> bursts;
    std::vector<double> burstS;
    for (int b = 0; b < kBursts; ++b) {
        std::vector<Body> bodies;
        for (int i = 0; i < kBurstStudies; ++i)
            bodies.push_back(corpus.cold());
        bursts.push_back(
            fresh(std::move(bodies), "b" + std::to_string(b) + "-"));
        const int span = tr.open("bench.phase/burst", -1, 0);
        const TimePoint b0 = Clock::now();
        first.front() = std::move(conns.front());
        runClosedLoop(first, bursts.back(), tr, span);
        conns.front() = std::move(first.front());
        burstS.push_back(msBetween(b0, Clock::now()) / 1000.0);
        tr.close(span);
    }

    spinners.reset();
    const auto latencyMs = [](const Sent& s, const Outcome& o) {
        return o.ok ? msBetween(s.due, s.recv) : 1e9; // failures miss
    };
    std::vector<double> lightLat, lat, lag;
    const std::vector<Outcome> lightOut = account(light, "light");
    for (std::size_t i = 0; i < light.size(); ++i) {
        lightLat.push_back(latencyMs(light[i], lightOut[i]));
        lag.push_back(msBetween(light[i].due, light[i].sent));
        allLat[static_cast<int>(light[i].body.kind)].push_back(
            lightLat.back());
    }
    const std::vector<Outcome> kneeOut = account(knee, "knee");
    for (std::size_t i = 0; i < knee.size(); ++i) {
        const double ms = latencyMs(knee[i], kneeOut[i]);
        const int k = static_cast<int>(knee[i].body.kind);
        lat.push_back(ms);
        lag.push_back(msBetween(knee[i].due, knee[i].sent));
        kneeLat[k].push_back(ms);
        allLat[k].push_back(ms);
        if (kneeOut[i].ok && !kneeOut[i].payload.empty()) {
            ++kneeAnswers;
            kneeCached += kneeOut[i].cached ? 1 : 0;
        }
    }
    std::uint64_t good = 0;
    std::vector<double> satLat;
    const std::vector<Outcome> satOut = account(saturate, "saturate");
    for (std::size_t i = 0; i < saturate.size(); ++i) {
        satLat.push_back(latencyMs(saturate[i], satOut[i]));
        good += satLat.back() <= kLatencyLimitMs ? 1 : 0;
    }
    std::fprintf(stderr,
                 "perfbench: saturate %zu requests in %.2f s, latency "
                 "p50 %.3f p99 %.1f max %.1f ms\n",
                 saturate.size(), saturateS, median(satLat),
                 percentile(satLat, 0.99),
                 satLat.empty() ? 0.0
                                : *std::max_element(satLat.begin(),
                                                    satLat.end()));
    std::vector<double> burstCellsPerS, burstMops;
    for (std::size_t b = 0; b < bursts.size(); ++b) {
        std::uint64_t cells = 0, ops = 0;
        for (const Outcome& o : account(bursts[b], "burst")) {
            const auto [c, n] = payloadWork(o.payload);
            cells += c;
            ops += n;
        }
        burstCellsPerS.push_back(static_cast<double>(cells) / burstS[b]);
        burstMops.push_back(static_cast<double>(ops) / 1e6 / burstS[b]);
        std::fprintf(stderr, "perfbench: burst %zu %.1f ms\n", b,
                     burstS[b] * 1000.0);
    }

    // In-process reference: a seeded sample of distinct answered
    // study and trace requests, recomputed through the core API.
    std::vector<std::string> candidates;
    for (const auto& [body, line] : lineOfBody)
        if (body.find("\"obs\":true") == std::string::npos)
            candidates.push_back(body);
    std::shuffle(candidates.begin(), candidates.end(), corpus.rng());
    if (candidates.size() > kReferenceSample)
        candidates.resize(kReferenceSample);
    std::vector<PlanRun> refPlans;
    for (const std::string& body : candidates) {
        ++rep.attempted;
        std::string line = lineOfBody[body];
        line.pop_back(); // the daemon parses the line without '\n'
        const serve::ParsedRequest pr = serve::parseRequest(line);
        if (!pr.ok) {
            rep.fail("reference: request does not parse: " + pr.detail);
            continue;
        }
        if (referencePayload(pr.req, refPlans) != payloadOf[body])
            rep.fail("reference: daemon payload differs from the "
                     "in-process computation of " + idOf(line));
    }

    if (traced) {
        // serve.* layers, from the knee phase unless noted.
        const auto& K = kneeLat;
        rep.metrics["serve.ping_p50_ms"] =
            median(allLat[static_cast<int>(Kind::Ping)]);
        rep.metrics["serve.cached_p50_ms"] =
            median(K[static_cast<int>(Kind::Cached)]);
        rep.metrics["serve.cached_p99_ms"] =
            tailPercentile(K[static_cast<int>(Kind::Cached)]);
        rep.metrics["serve.cold_p50_ms"] =
            median(K[static_cast<int>(Kind::Cold)]);
        rep.metrics["serve.cold_p99_ms"] =
            tailPercentile(K[static_cast<int>(Kind::Cold)]);
        rep.metrics["serve.trace_p50_ms"] =
            median(K[static_cast<int>(Kind::Trace)]);
        rep.metrics["serve.obs_p50_ms"] =
            median(allLat[static_cast<int>(Kind::Obs)]);
        rep.metrics["serve.cache_hit_ratio"] =
            kneeAnswers ? static_cast<double>(kneeCached) /
                              static_cast<double>(kneeAnswers)
                        : 0.0;
        rep.metrics["serve.render_us"] = mean(renderUs);
        rep.metrics["serve.resp_kb"] = mean(respKb);
        // serve::parseRequest on every distinct request line.
        double parseUs = 0.0, kb = 0.0;
        for (int r = 0; r < 3; ++r)
            for (const auto& [body, full] : lineOfBody) {
                const std::string line = full.substr(0, full.size() - 1);
                const TimePoint p0 = Clock::now();
                const serve::ParsedRequest pr = serve::parseRequest(line);
                const TimePoint p1 = Clock::now();
                tr.add("serve::parseRequest", p0, p1, -1, 0);
                if (!pr.ok)
                    rep.fail("parseRequest rejected a benchmark request");
                parseUs += msBetween(p0, p1) * 1000.0;
                kb += static_cast<double>(line.size()) / 1024.0;
            }
        rep.metrics["serve.parse_us_per_kb"] = parseUs / kb;

        // sim/apps/core layers of the in-process reference runs.
        std::vector<RunTiming> builds;
        double runNs = 0.0;
        Counts refCounts;
        std::uint64_t group = 1u << 20;
        for (const PlanRun& pr : refPlans) {
            collectBuilds(pr, builds, runNs);
            tracePlan(tr, pr, group);
            for (const core::RunOutcome& o : pr.res.runs)
                refCounts += Counts::of(o.m.par);
        }
        simLayerMetrics(rep, builds, refCounts,
                        refCounts.memOps ? runNs / static_cast<double>(
                                                       refCounts.memOps)
                                         : 0.0,
                        0.0);
        coreLayerMetrics(rep, refPlans, 2);

        // Tracing overhead: the same closed-loop batch of cached
        // requests, alternately without and with span recording.
        std::vector<double> plain, spanned;
        for (int r = 0; r < 6; ++r) {
            std::vector<Body> bodies;
            for (int i = 0; i < 600; ++i)
                bodies.push_back(corpus.hot[static_cast<std::size_t>(i) %
                                            corpus.hot.size()]);
            std::vector<Sent> batch =
                fresh(std::move(bodies), "o" + std::to_string(r) + "-");
            const TimePoint o0 = Clock::now();
            runClosedLoop(conns, batch, r % 2 ? tr : off, -1);
            (r % 2 ? spanned : plain).push_back(msBetween(o0, Clock::now()));
            account(batch, "overhead");
        }
        rep.metrics["bench.trace_overhead"] =
            median(spanned) / median(plain) - 1.0;
        rep.metrics["bench.gen_lag_p99_ms"] = tailPercentile(lag);
    } else {
        rep.metrics["req_p50_ms"] = median(lat);
        rep.metrics["req_p99_ms"] = tailPercentile(lat);
        rep.metrics["goodput_rps"] = static_cast<double>(good) / saturateS;
        rep.metrics["light_p50_ms"] = median(lightLat);
        rep.metrics["samples"] = static_cast<double>(lat.size());
        rep.metrics["light_samples"] = static_cast<double>(lightLat.size());
        rep.metrics["saturate_samples"] =
            static_cast<double>(saturate.size());
        rep.metrics["sim_mops_per_s"] = median(burstMops);
        rep.metrics["cells_per_s"] = median(burstCellsPerS);
        rep.metrics["bench.gen_lag_p99_ms"] = tailPercentile(lag);
    }
    tr.printLayers();
    tr.write(spansPath);
    rep.print();
    return 0;
}

// ------------------------------------------------------------------
// pin

int
writePins(const std::string& path)
{
    std::map<std::string, Counts> pins;
    const auto run = [](const sim::MachineConfig& cfg, const SimCase& c) {
        apps::AppPtr app = apps::makeApp(c.app, c.size);
        return Counts::of(core::runApp(cfg, *app));
    };
    for (const auto* list : {&kSimHits, &kSimCoherence})
        for (const SimCase& c : *list)
            pins[c.label()] =
                run(sim::MachineConfig::origin2000(c.procs), c);
    for (const SimCase& c : sweepCells()) {
        pins[c.label()] = run(sim::MachineConfig::origin2000(c.procs), c);
        pins[baselineLabel(c.app, c.size)] =
            run(sim::MachineConfig::origin2000(c.procs).baseline(), c);
    }
    std::ofstream f(path);
    obs::JsonWriter w(f, 1);
    w.beginObject();
    for (const auto& [label, c] : pins) {
        w.beginObject(label);
        for (const auto& [k, v] : c.fields())
            w.field(k, v);
        w.endObject();
    }
    w.endObject();
    f << "\n";
    return f ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench sim|sweep|serve|pin "
                             "[--flag value]...\n");
        return 2;
    }
    const std::string mode = argv[1];
    try {
        std::map<std::string, std::string> flags;
        for (int i = 2; i + 1 < argc; i += 2) {
            const std::string k = argv[i];
            if (k.rfind("--", 0) != 0)
                throw std::invalid_argument("unexpected argument " + k);
            flags[k.substr(2)] = argv[i + 1];
        }
        const auto flag = [&flags](const std::string& k) {
            const auto it = flags.find(k);
            if (it == flags.end())
                throw std::invalid_argument("missing --" + k);
            return it->second;
        };
        const auto opt = [&flags](const std::string& k) {
            const auto it = flags.find(k);
            return it == flags.end() ? std::string() : it->second;
        };
        if (mode == "pin")
            return writePins(flag("out"));
        const std::uint64_t seed = std::stoull(flag("seed"));
        const double seconds = std::stod(flag("seconds"));
        const bool traced = flag("trace") == "1";
        if (mode == "sim")
            return runSimWorkload(flag("workload"), seed, seconds, traced,
                                  Pins::load(flag("expected")),
                                  opt("spans"));
        if (mode == "sweep")
            return runSweepWorkload(seed, seconds, traced,
                                    Pins::load(flag("expected")),
                                    opt("spans"));
        if (mode == "serve")
            return runServeWorkload(flag("socket"), seed, seconds, traced,
                                    opt("spans"));
        throw std::invalid_argument("unknown mode " + mode);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
