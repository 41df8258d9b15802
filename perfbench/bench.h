//===-- perfbench/bench.h - The repository benchmark ------------*- C++ -*-===//
//
// Part of miniself, a reproduction of Chambers & Ungar, PLDI '90.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the one benchmark every performance claim is measured
/// with: seeded inputs, order statistics, the result record, cheap per-VM
/// counter snapshots, the in-memory span tracer, and the per-layer report.
/// The benchmark drives miniself only through its public entry points
/// (VirtualMachine, SharedRuntime/Isolate, Parser, CodeManager, Heap::stats,
/// the shared tier's stats snapshot); nothing here reaches into src/
/// internals, and no tracing runs inside the library — spans are taken
/// around the calls.
///
//===----------------------------------------------------------------------===//

#ifndef MINISELF_PERFBENCH_BENCH_H
#define MINISELF_PERFBENCH_BENCH_H

#include "driver/vm.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut; ///< Span dump path (traced runs only).
  int Clients = 2;      ///< storm's threads, one isolate each.
};

/// SplitMix64: the seeded stream every workload draws its inputs from.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
};

double median(std::vector<double> V);
/// The \p P quantile (0..1) of \p V, lowered until at least ten samples lie
/// beyond it — the highest percentile the sample count can support.
double tailPercentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);
/// Resident set size now / at its high-water mark, in KiB (/proc/self).
double rssKiB();
double peakRssKiB();

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// One run's outcome: the contract's JSON line plus human-readable lines
/// printed before it.
struct Result {
  uint64_t Attempted = 0, Failed = 0;
  std::vector<Metric> Metrics;
  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// Counts one checked op; a wrong answer is reported, never fatal.
  void check(bool Ok, const std::string &What);
};

/// Independent copies of a single-threaded workload measured side by side,
/// each on its own thread and VMs with its own seeded stream. On a shared
/// machine each CPU slows down and speeds up on its own, for seconds at a
/// time, by up to 1.7x for the interpreter; the mean over replicas running
/// at once sees several CPUs, where one copy would report whichever state
/// its CPU happened to be in.
constexpr size_t kReplicas = 3;

/// Runs \p F(I) for I in [0, N), on N threads when N > 1, and joins them.
template <typename Fn> void onThreads(size_t N, Fn F) {
  if (N == 1) {
    F(size_t(0));
    return;
  }
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < N; ++I)
    Threads.emplace_back(F, I);
  for (std::thread &T : Threads)
    T.join();
}

/// Prints the mean over replicas of each one's op-latency tail percentile
/// (tailPercentile at 0.99), where \p Latencies(I) gives replica I's op
/// latencies in us. It is reported, not a metric: a few seconds of a slow
/// CPU land in the tail, so it spread by up to 65% between runs, beyond
/// any bound a metric may carry.
template <typename Fn> void printTail(size_t Replicas, Fn Latencies) {
  double Sum = 0;
  for (size_t I = 0; I < Replicas; ++I)
    Sum += tailPercentile(Latencies(I), 0.99);
  printf("latency_us_p99 %.3f (reported, not gated)\n",
         Sum / double(Replicas));
}

/// Adds to \p R the mean, metric by metric, of each replica's metrics
/// (every replica reports the same names in the same order).
void addMeanMetrics(const std::vector<std::vector<Metric>> &PerReplica,
                    Result &R);

/// Counter snapshot of one VM, taken at a window's edges: counter copies,
/// plain accessors and one tierStats() (which walks the code cache). Window
/// deltas are summed over every VM a workload runs (programs, isolates).
struct VmSample {
  mself::ExecCounters Exec;
  mself::GcStats Gc;
  double CompileSeconds = 0;
  uint64_t CompileEvents = 0;
  uint64_t InternerLookups = 0;
  uint64_t Promotions = 0, Invalidations = 0;
  static VmSample take(mself::VirtualMachine &VM);
};

/// Sums of window deltas (after - before) over VMs.
struct WindowCounters {
  uint64_t Instructions = 0, Sends = 0, IcHits = 0, PrimCalls = 0,
           TypeTests = 0, BlocksMade = 0, ArenaBytes = 0, GlcHits = 0,
           GlcMisses = 0, FullLookups = 0, SendsMega = 0, QuickSends = 0;
  uint64_t PerOp[mself::kNumOps] = {};
  uint64_t Scavenges = 0, FullGcs = 0, AllocBytes = 0, Survived = 0,
           Scanned = 0, Evacuations = 0;
  mself::PauseHistogram Pauses; ///< Scavenge + full pauses in the window.
  double CompileSeconds = 0;
  uint64_t CompileEvents = 0, InternerLookups = 0, Promotions = 0,
           Invalidations = 0;
  void add(const VmSample &Before, const VmSample &After);
};

/// In-memory spans, one tracer per thread. Each span has a name, start,
/// end, parent and op id; compile and GC children of an eval are derived
/// from counter deltas (their duration is exact, their placement inside
/// the eval is nominal). Totals per name are kept for every span; the
/// span list itself is capped so a long storm cannot exhaust memory.
class Tracer {
public:
  enum Kind : uint8_t { Op, Eval, Compile, Gc, Parse, NumKinds };
  static const char *name(Kind K);

  explicit Tracer(Clock::time_point Epoch) : Epoch(Epoch) {}
  Clock::time_point epoch() const { return Epoch; }
  /// \returns the span's index (the parent handle of its children), or
  /// -1 once the span list is full.
  int32_t add(Kind K, Clock::time_point S, Clock::time_point E,
              int32_t Parent, uint64_t OpId);
  /// Opens a span whose end is not known yet; close() completes it.
  int32_t open(Kind K, Clock::time_point S, int32_t Parent, uint64_t OpId);
  void close(int32_t Id, Kind K, Clock::time_point S, Clock::time_point E);
  /// A child whose length is known from counters: [S, S + Seconds).
  void addDerived(Kind K, Clock::time_point S, double Seconds, int32_t Parent,
                  uint64_t OpId);
  double totalSeconds(Kind K) const { return Totals[K]; }
  void merge(const Tracer &O);
  /// Writes every retained span as one JSON object per line.
  bool write(const std::string &Path) const;

private:
  struct Span {
    double StartUs, EndUs;
    int32_t Parent;
    Kind K;
    uint64_t OpId;
  };
  static constexpr size_t kMaxSpans = 100000;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  uint64_t Dropped = 0;
  double Totals[NumKinds] = {};
};

/// Evaluates \p Src on \p VM (VirtualMachine::eval: parse, compile a
/// fresh doit, run) and, with a tracer, records its eval span plus the
/// compile and GC time inside it as derived children. \returns the eval's
/// wall seconds; \p Ok is true when it produced the integer \p Expected.
double timedEval(mself::VirtualMachine &VM, const std::string &Src,
                 int64_t Expected, bool &Ok, std::string &Err, Tracer *T,
                 int32_t Parent, uint64_t OpId);
/// The same for an expression parsed once (World::loadSource): its doit
/// is compiled on the first call and found in the code cache afterwards.
double timedCall(mself::VirtualMachine &VM, const mself::ast::Code *Body,
                 int64_t Expected, bool &Ok, std::string &Err, Tracer *T,
                 int32_t Parent, uint64_t OpId);

/// Re-parses \p Src with Parser::parseTopLevel on a bench-owned interner
/// (the parser layer's cost on that op's source), recorded as a span.
/// \returns the parse seconds.
double parseProbe(const std::string &Src, Tracer *T, int32_t Parent,
                  uint64_t OpId);

/// Median latency of a trivial eval on \p VM: the fixed path every op pays.
double fixedPathUs(mself::VirtualMachine &VM);

/// Everything the per-layer report reads. Zero means "not exercised".
struct Layers {
  double Ops = 0;             ///< Measured (traced) ops.
  double UntracedOpUs = 0, TracedOpUs = 0; ///< Mean op wall, both phases.
  bool CountsExact = true;    ///< The determinism self-check held.
  double RssKiBPerKop = 0;    ///< RSS growth per 1000 untraced ops.
  WindowCounters Win;         ///< Traced-phase counter deltas.
  double ExpectedCompiles = 0; ///< Per-op doits the window compiles.
  Tracer Spans{Clock::now()}; ///< Merged traced-phase spans.
  // Setup side (the last setup of the run).
  double ParseBytes = 0, ParseSeconds = 0; ///< Parse probe over sources.
  double LoadSeconds = 0;
  double CreateUs = 0;        ///< Mean VM or isolate creation.
  double FixedUs = 0;
  double SetupCompileSeconds = 0, SetupStallSeconds = 0;
  double Analyze = 0, Split = 0, Lower = 0, Emit = 0;
  uint64_t EventsLost = 0;    ///< Compile events evicted before read.
  // End-of-run code-cache census (TierStats; walks the cache once).
  double LiveFunctions = 0, RetiredFunctions = 0, InvalidatedFunctions = 0;
  double LiveCodeKiB = 0;
  // Shared tier (storm only), window deltas.
  double SharedAstHits = 0, SharedAstMisses = 0, SharedCodeHits = 0,
         SharedCodeProbes = 0, SharedCodeWaits = 0, SharedPublishes = 0;
};

/// Folds one VM's compile-event log into the set-up phase split and counts
/// the events the bounded log evicted.
void readCompileEvents(mself::VirtualMachine &VM, Layers &L);
/// Adds \p VM's end-of-run code-cache census to \p L.
void addCensus(mself::VirtualMachine &VM, Layers &L);
/// Emits every per-layer metric (the --trace 1 set) and writes the spans
/// to O.TraceOut.
void reportLayers(const Options &O, const Layers &L, Result &R);

/// Environment: build type, dispatch engine, sanitizers, CPUs, policy.
/// \returns an error when the run must be refused.
std::string fingerprint(std::string &Refusal);

// The four workloads. Each fills \p R (end-to-end metrics untraced,
// per-layer metrics traced).
void runPaper(const Options &O, Result &R);
void runApps(const Options &O, Result &R);
void runStorm(const Options &O, Result &R);
void runEvalChurn(const Options &O, Result &R);

} // namespace perfbench

#endif // MINISELF_PERFBENCH_BENCH_H
