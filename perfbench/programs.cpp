//===-- perfbench/programs.cpp - The paper and apps workloads -------------===//
//
// `paper` runs the paper's 22 programs (small, stanford, stanford-oo,
// richards); `apps` runs the workload pack (deltablue, json, sexpr, lexer,
// peg). Each program gets its own VirtualMachine under the shipped default
// policy and is called through a non-inlinable wrapper, as the paper tables
// do. One op is one pass: every program called once, in an order the seed
// shuffles anew each pass. Each call's answer is checked against the
// program's native C++ twin.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "suites.h"
#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>

using namespace mself;
using namespace mself::bench;

namespace perfbench {
namespace {

/// The wrapper's trailing `[ ^ r ] value` makes it non-inlinable, so the
/// call's doit stays trivial instead of re-inlining the program.
const char *kWrapper =
    "\nperfbenchRun: n = ( | r | n timesRepeat: [ r: (%s) ]. [ ^ r ] value )\n";
/// Parsed once per VM, so every call reuses one cached doit: a fresh doit
/// per call would be compiled and retained forever (evalchurn's subject),
/// and the growing code cache would slow the collector's root scan as the
/// window goes on.
const char *kCall = "perfbenchRun: 1";

/// Warm-up calls per program during setup; the first compiles lazily, the
/// second catches code first reached on a second run.
constexpr int kWarmCalls = 2;

struct Program {
  const BenchmarkDef *Def;
  std::string Source;
  int64_t Expected;
  std::unique_ptr<VirtualMachine> VM;
  const ast::Code *CallBody = nullptr; ///< kCall, parsed by the VM.
  uint64_t CallInstructions = 0; ///< Instructions of the first window call.
  std::vector<double> CallUs;
};

std::vector<Program> selectPrograms(bool Paper) {
  std::vector<const char *> Groups;
  if (Paper)
    Groups = {"small", "stanford", "stanford-oo", "richards"};
  else
    Groups.assign(std::begin(kWorkloadGroups), std::end(kWorkloadGroups));
  std::vector<Program> Out;
  for (const char *G : Groups)
    for (const BenchmarkDef *B : benchmarksInGroup(G)) {
      std::vector<char> Buf(B->RunExpr.size() + 128);
      snprintf(Buf.data(), Buf.size(), kWrapper, B->RunExpr.c_str());
      Out.push_back({B, B->Source + Buf.data(), B->Native(), nullptr, nullptr,
                     0, {}});
    }
  return Out;
}

std::string label(const Program &P) {
  return P.Def->Group + "/" + P.Def->Name;
}

/// Creates, loads and warms every program's VM. \returns the set-up wall
/// seconds; \p CodeKiB receives the code cache size after warm-up.
double setUp(std::vector<Program> &Ps, Layers &L, Result &R, double &CodeKiB) {
  for (Program &P : Ps)
    P.VM.reset();
  L.LoadSeconds = L.CreateUs = 0;
  Clock::time_point T0 = Clock::now();
  for (Program &P : Ps) {
    Clock::time_point C0 = Clock::now();
    P.VM = std::make_unique<VirtualMachine>();
    Clock::time_point C1 = Clock::now();
    std::string Err;
    std::vector<const ast::Code *> Call;
    bool Loaded = P.VM->load(P.Source, Err) &&
                  P.VM->world().loadSource(kCall, Call, Err) &&
                  Call.size() == 1;
    L.CreateUs += secondsBetween(C0, C1) * 1e6;
    L.LoadSeconds += secondsBetween(C1, Clock::now());
    R.check(Loaded, label(P) + ": load: " + Err);
    P.CallBody = Loaded ? Call[0] : nullptr;
    for (int I = 0; Loaded && I < kWarmCalls; ++I) {
      bool Ok = false;
      timedCall(*P.VM, P.CallBody, P.Expected, Ok, Err, nullptr, -1, 0);
      R.check(Ok, label(P) + ": warm-up: " + Err);
    }
  }
  double Seconds = secondsBetween(T0, Clock::now());
  L.CreateUs /= double(Ps.size());
  CodeKiB = 0;
  for (Program &P : Ps)
    CodeKiB += double(P.VM->code().totalCodeBytes()) / 1024;
  return Seconds;
}

/// Per-pass bookkeeping of one measured phase.
struct Phase {
  std::vector<double> PassUs;
  std::vector<double> SliceRates; ///< Passes per second of each slice.
  WindowCounters Win;
  double Seconds = 0;
  bool Exact = true;
};

/// Passes per measured phase are grouped in this many time slices, so
/// throughput is a median over slices.
constexpr int kSlices = 10;

/// One pass: every program called once, in a freshly shuffled order.
/// \returns false when any answer was wrong.
bool runPass(std::vector<Program> &Ps, std::vector<size_t> &Order, Rng &Rg,
             Tracer *T, uint64_t OpId, Phase &Ph) {
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Rg.below(I)]);
  Clock::time_point S = Clock::now();
  int32_t OpSpan = T ? T->open(Tracer::Op, S, -1, OpId) : -1;
  bool PassOk = true;
  for (size_t Idx : Order) {
    Program &P = Ps[Idx];
    uint64_t I0 = P.VM->interp().counters().Instructions;
    bool Ok = false;
    std::string Err;
    double Sec =
        timedCall(*P.VM, P.CallBody, P.Expected, Ok, Err, T, OpSpan, OpId);
    uint64_t Instr = P.VM->interp().counters().Instructions - I0;
    if (!P.CallInstructions)
      P.CallInstructions = Instr;
    Ph.Exact = Ph.Exact && Instr == P.CallInstructions;
    P.CallUs.push_back(Sec * 1e6);
    if (T)
      parseProbe(kCall, T, OpSpan, OpId);
    if (!Ok) {
      fprintf(stderr, "FAIL %s: %s\n", label(P).c_str(), Err.c_str());
      PassOk = false;
    }
  }
  Clock::time_point E = Clock::now();
  if (T)
    T->close(OpSpan, Tracer::Op, S, E);
  Ph.PassUs.push_back(secondsBetween(S, E) * 1e6);
  return PassOk;
}

/// Runs shuffled passes for \p Seconds; with \p T, records spans.
void runPhase(std::vector<Program> &Ps, Rng &Rg, double Seconds, Tracer *T,
              Phase &Ph, Result &R) {
  std::vector<VmSample> Before;
  for (Program &P : Ps)
    Before.push_back(VmSample::take(*P.VM));
  std::vector<size_t> Order(Ps.size());
  std::iota(Order.begin(), Order.end(), 0);
  const auto Slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(Seconds / kSlices));
  for (int K = 0; K < kSlices; ++K) {
    size_t Passes0 = Ph.PassUs.size();
    Clock::time_point T0 = Clock::now(), Now = T0;
    for (; Now < T0 + Slice; Now = Clock::now())
      R.check(runPass(Ps, Order, Rg, T, Ph.PassUs.size(), Ph), "pass");
    double Sec = secondsBetween(T0, Now);
    Ph.SliceRates.push_back(double(Ph.PassUs.size() - Passes0) / Sec);
    Ph.Seconds += Sec;
  }
  for (size_t I = 0; I < Ps.size(); ++I)
    Ph.Win.add(Before[I], VmSample::take(*Ps[I].VM));
}

/// One copy of the workload: its own VMs, seeded stream and checks.
struct Replica {
  std::vector<Program> Ps;
  Rng Rg;
  Result R;
  Layers L;
  std::vector<double> SetupS, CodeKiBs;
  Phase Main, Traced;
};

void runPrograms(bool Paper, const Options &O, Result &R) {
  // Traced runs report per-layer numbers, which need no replicas.
  const size_t N = O.Trace ? 1 : kReplicas;
  std::vector<Replica> Rs;
  for (size_t I = 0; I < N; ++I)
    Rs.push_back({selectPrograms(Paper), Rng(O.Seed * 1000003 + I), {}, {},
                  {}, {}, {}, {}});
  // Set up several times and report the median: set-up is dominated by
  // cold compilation, whose cost moves with the allocator and the caches.
  const int Setups = O.Trace ? 1 : Paper ? 3 : 5;
  for (int S = 0; S < Setups; ++S)
    onThreads(N, [&](size_t I) {
      Replica &X = Rs[I];
      double CodeKiB = 0;
      X.SetupS.push_back(setUp(X.Ps, X.L, X.R, CodeKiB));
      X.CodeKiBs.push_back(CodeKiB);
    });
  auto Absorb = [&] {
    for (Replica &X : Rs) {
      R.Attempted += X.R.Attempted;
      R.Failed += X.R.Failed;
    }
  };
  if (std::any_of(Rs.begin(), Rs.end(),
                  [](const Replica &X) { return X.R.Failed; })) {
    Absorb(); // A program that cannot load has nothing to time.
    return;
  }
  double PeakMiB = peakRssKiB() / 1024 / double(N);

  double Rss0 = rssKiB();
  onThreads(N, [&](size_t I) {
    runPhase(Rs[I].Ps, Rs[I].Rg, O.Trace ? O.Seconds / 3 : O.Seconds, nullptr,
             Rs[I].Main, Rs[I].R);
  });
  double RssGrowth = rssKiB() - Rss0;
  Replica &First = Rs.front();
  if (O.Trace) {
    Tracer T(First.L.Spans.epoch());
    runPhase(First.Ps, First.Rg, O.Seconds * 2 / 3, &T, First.Traced,
             First.R);
    First.L.Spans.merge(T);
  }
  Absorb();

  // Checks over every replica: no compile or promotion in the window, and
  // the same code size and per-call instruction counts everywhere.
  uint64_t Compiles = 0, Promotions = 0;
  bool Exact = true;
  double Passes = 0;
  for (const Replica &X : Rs) {
    const Phase &Gate = O.Trace ? X.Traced : X.Main;
    Compiles += Gate.Win.CompileEvents;
    Promotions += Gate.Win.Promotions;
    Passes += double(Gate.PassUs.size());
    Exact = Exact && Gate.Exact;
    for (double K : X.CodeKiBs)
      Exact = Exact && K == First.CodeKiBs[0];
    for (size_t P = 0; P < X.Ps.size(); ++P)
      Exact = Exact &&
              X.Ps[P].CallInstructions == First.Ps[P].CallInstructions;
  }
  printf("check warm-up: %s (%llu compiles, %llu promotions in the "
         "window)\n",
         Compiles || Promotions ? "FAIL" : "ok", (unsigned long long)Compiles,
         (unsigned long long)Promotions);
  printf("check determinism: %s (code_kib over %zu replicas x %d setups and "
         "instructions per call over %.0f passes)\n",
         Exact ? "exact" : "FAIL", N, Setups, Passes);

  std::vector<std::vector<Metric>> PerReplica;
  for (Replica &X : Rs) {
    std::vector<double> Medians;
    for (Program &P : X.Ps)
      Medians.push_back(median(P.CallUs));
    const Phase &M = X.Main;
    const double XPasses = double(M.PassUs.size());
    PerReplica.push_back({
        {"setup_s", median(X.SetupS), "s"},
        {"run_us_geomean", geomean(Medians), "us"},
        {"latency_us_p50", median(M.PassUs), "us"},
        {"throughput_ops_s", median(M.SliceRates), "ops/s"},
        {"instructions_per_op", double(M.Win.Instructions) / XPasses, "count"},
        {"code_kib", X.CodeKiBs.back(), "KiB"},
    });
  }
  for (size_t P = 0; P < First.Ps.size(); ++P) {
    double Sum = 0;
    for (const Replica &X : Rs)
      Sum += median(X.Ps[P].CallUs);
    printf("  %-24s %12.1f us/run %12llu instr/run\n",
           label(First.Ps[P]).c_str(), Sum / double(N),
           (unsigned long long)First.Ps[P].CallInstructions);
  }

  if (!O.Trace) {
    printTail(Rs.size(), [&](size_t I) { return Rs[I].Main.PassUs; });
    addMeanMetrics(PerReplica, R);
    R.metric("peak_rss_mib", PeakMiB, "MiB");
    return;
  }
  Layers &L = First.L;
  for (Program &P : First.Ps) {
    readCompileEvents(*P.VM, L);
    L.SetupCompileSeconds += P.VM->code().totalCompileSeconds();
    L.SetupStallSeconds += P.VM->code().tierStats().MutatorStallSeconds;
    L.ParseBytes += double(P.Source.size());
    L.ParseSeconds += parseProbe(P.Source, nullptr, -1, 0);
    addCensus(*P.VM, L);
  }
  L.Ops = Passes;
  L.RssKiBPerKop = RssGrowth / double(First.Main.PassUs.size()) * 1000;
  L.Win = First.Traced.Win;
  L.UntracedOpUs =
      First.Main.Seconds / double(First.Main.PassUs.size()) * 1e6;
  L.TracedOpUs = First.Traced.Seconds / Passes * 1e6;
  L.CountsExact = Exact;
  L.FixedUs = fixedPathUs(*First.Ps.front().VM);
  reportLayers(O, L, R);
}

} // namespace

void runPaper(const Options &O, Result &R) { runPrograms(true, O, R); }
void runApps(const Options &O, Result &R) { runPrograms(false, O, R); }

} // namespace perfbench
