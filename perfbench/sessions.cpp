//===-- perfbench/sessions.cpp - The storm and evalchurn workloads --------===//
//
// Both workloads evaluate short script texts on a VM loaded with one
// prelude of twelve scripts; each text is a script applied to a literal
// argument, and every answer is checked against a closed-form C++ oracle
// of that argument.
//
//  * storm: server sessions. One SharedRuntime, two isolates, two
//    closed-loop clients (one thread and one isolate each). Every text of
//    the fixed set is warmed on both isolates during set-up, so the window
//    is pure repeat traffic over the shared tier's read path.
//  * evalchurn: a standalone VM (one per replica) evaluating a seeded
//    stream that mixes texts of the fixed set with novel ones (the text plus
//    a fresh literal offset, never seen before), so every eval parses and
//    compiles anew.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "driver/isolate.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

using namespace mself;

namespace perfbench {
namespace {

/// One script: its prelude definitions, the expression a text applies to a
/// literal argument, the argument range, and the independent answer.
struct Script {
  const char *Defs;
  const char *Expr; ///< printf format taking the argument (%lld).
  int64_t Lo, Hi;
  int64_t (*Oracle)(int64_t);
};

int64_t fib(int64_t N) {
  int64_t A = 0, B = 1;
  for (int64_t I = 0; I < N; ++I) {
    int64_t C = A + B;
    A = B;
    B = C;
  }
  return A;
}

int64_t firstSquareOver(int64_t Lim) {
  for (int64_t I = 1; I <= 100; ++I)
    if (I * I > Lim)
      return I;
  return 0;
}

int64_t mix(int64_t N) {
  int64_t T = 0;
  for (int64_t I = 1; I <= N; ++I)
    T += (I * 3) % 7 + I % 5;
  return T;
}

const Script kScripts[] = {
    {"sumUpTo: n = ( | s <- 0. i <- 1 | "
     "[ i <= n ] whileTrue: [ s: s + i. i: i + 1 ]. s )",
     "sumUpTo: %lld", 1, 200, [](int64_t N) { return N * (N + 1) / 2; }},
    {"fib: n = ( n < 2 ifTrue: [ n ] False: "
     "[ (fib: n - 1) + (fib: n - 2) ] )",
     "fib: %lld", 2, 12, fib},
    {"squaresTo: n = ( | s <- 0 | 1 to: n Do: [ :i | s: s + (i * i) ]. s )",
     "squaresTo: %lld", 1, 40,
     [](int64_t N) { return N * (N + 1) * (2 * N + 1) / 6; }},
    {"mkAdder: n = ( [ :x | x + n ] )", "(mkAdder: %lld) value: 12", 0, 1000,
     [](int64_t N) { return N + 12; }},
    {"applyTwice: b To: x = ( b value: (b value: x) )",
     "applyTwice: [ :v | v * 3 ] To: %lld", 0, 1000,
     [](int64_t N) { return 9 * N; }},
    {"shapeA = ( | parent* = lobby. area = ( 10 ) | ). "
     "shapeB = ( | parent* = lobby. area = ( 20 ) | ). "
     "sumAreasTo: n = ( | t <- 0. s | 1 to: n Do: [ :i | "
     "s: (i even ifTrue: [ shapeA ] False: [ shapeB ]). "
     "t: t + s area ]. t )",
     "sumAreasTo: %lld", 1, 30,
     [](int64_t N) { return 10 * (N / 2) + 20 * (N - N / 2); }},
    {"fill: n = ( | v. s <- 0 | v: (vectorOfSize: n). "
     "0 upTo: n Do: [ :i | v at: i Put: i * 2 ]. "
     "v do: [ :e | s: s + e ]. s )",
     "fill: %lld", 1, 30, [](int64_t N) { return N * (N - 1); }},
    {"gridTo: n = ( | t <- 0 | 1 to: n Do: [ :i | 1 to: n Do: [ :j | "
     "t: t + (i * j) ] ]. t )",
     "gridTo: %lld", 1, 10,
     [](int64_t N) { return (N * (N + 1) / 2) * (N * (N + 1) / 2); }},
    {"isEven: n = ( n == 0 ifTrue: [ 1 ] False: [ isOdd: n - 1 ] ). "
     "isOdd: n = ( n == 0 ifTrue: [ 0 ] False: [ isEven: n - 1 ] )",
     "isEven: %lld", 0, 30, [](int64_t N) -> int64_t { return N % 2 == 0; }},
    {"firstSquareOver: lim = ( 1 to: 100 Do: [ :i | "
     "i * i > lim ifTrue: [ ^ i ] ]. 0 )",
     "firstSquareOver: %lld", 0, 2000, firstSquareOver},
    {"mix: n = ( | t <- 0 | 1 to: n Do: [ :i | "
     "t: t + ((i * 3) % 7) + (i % 5) ]. t )",
     "mix: %lld", 1, 60, mix},
    {"tr: n = ( | c <- 0 | n timesRepeat: [ c: c + 3 ]. c )", "tr: %lld", 0,
     50, [](int64_t N) { return 3 * N; }},
};
constexpr int kNumScripts = sizeof(kScripts) / sizeof(kScripts[0]);
constexpr int kArgsPerScript = 8; ///< Fixed set: 12 x 8 = 96 texts.

struct Text {
  std::string Source;
  int64_t Expected;
  int Script;
};

std::string apply(const Script &S, int64_t Arg) {
  char Buf[96];
  snprintf(Buf, sizeof(Buf), S.Expr, (long long)Arg);
  return Buf;
}

/// The fixed text set: each script at eight arguments spread over its
/// range. Independent of the seed, so storm's caches hold the same set.
std::vector<Text> fixedTexts() {
  std::vector<Text> Out;
  for (int I = 0; I < kNumScripts; ++I) {
    const Script &S = kScripts[I];
    for (int K = 0; K < kArgsPerScript; ++K) {
      int64_t Arg = S.Lo + (S.Hi - S.Lo) * K / (kArgsPerScript - 1);
      Out.push_back({apply(S, Arg), S.Oracle(Arg), I});
    }
  }
  return Out;
}

std::string prelude() {
  std::string P;
  for (const Script &S : kScripts)
    P += std::string(P.empty() ? "" : ". ") + S.Defs;
  return P;
}

/// What one client measured in one phase.
struct ClientPhase {
  std::vector<double> ScriptUs[kNumScripts];
  std::vector<uint64_t> SliceOps; ///< Ops completed in each slice.
  uint64_t Ops = 0, Failed = 0;
  double Seconds = 0;
};

/// One closed-loop client: draws its next text from its own seeded stream
/// only after the previous eval returned.
struct Client {
  VirtualMachine *VM;
  Rng Rg;
  bool Novel;             ///< Mix in never-seen texts (evalchurn).
  uint64_t OpBase;        ///< Op ids of this client start here.
  const std::vector<Text> *Fixed;
  std::vector<uint64_t> TextInstructions; ///< Per fixed text, first seen.
  bool Exact = true;

  void run(double Seconds, Tracer *T, ClientPhase &Ph) {
    TextInstructions.resize(Fixed->size());
    Text Fresh;
    Clock::time_point T0 = Clock::now();
    Clock::time_point Deadline =
        T0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(Seconds));
    for (Clock::time_point Now = T0; Now < Deadline; ++Ph.Ops) {
      uint64_t OpId = OpBase + Ph.Ops;
      int64_t Idx = -1;
      const Text *X = &Fresh;
      if (Novel && Rg.below(2)) {
        // A new literal offset makes the text unique within the run.
        int Sc = int(Rg.below(kNumScripts));
        const Script &S = kScripts[Sc];
        int64_t Arg = S.Lo + int64_t(Rg.below(uint64_t(S.Hi - S.Lo + 1)));
        int64_t Offset = 100000 + int64_t(OpId);
        Fresh = {"(" + apply(S, Arg) + ") + " + std::to_string(Offset),
                 S.Oracle(Arg) + Offset, Sc};
      } else {
        Idx = int64_t(Rg.below(Fixed->size()));
        X = &(*Fixed)[size_t(Idx)];
      }
      int32_t OpSpan = T ? T->open(Tracer::Op, Now, -1, OpId) : -1;
      uint64_t I0 = VM->interp().counters().Instructions;
      bool Ok = false;
      std::string Err;
      double Sec = timedEval(*VM, X->Source, X->Expected, Ok, Err, T, OpSpan,
                             OpId);
      if (Idx >= 0) {
        uint64_t Instr = VM->interp().counters().Instructions - I0;
        uint64_t &Seen = TextInstructions[size_t(Idx)];
        Exact = Exact && (!Seen || Seen == Instr);
        Seen = Instr;
      }
      if (T)
        parseProbe(X->Source, T, OpSpan, OpId);
      if (!Ok) {
        ++Ph.Failed;
        fprintf(stderr, "FAIL %s: %s\n", X->Source.c_str(), Err.c_str());
      }
      Ph.ScriptUs[X->Script].push_back(Sec * 1e6);
      Clock::time_point End = Clock::now();
      if (T)
        T->close(OpSpan, Tracer::Op, Now, End);
      Now = End;
    }
    Ph.Seconds += secondsBetween(T0, Clock::now());
  }
};

/// The VMs a workload runs on, rebuilt from scratch by each set-up.
struct Fleet {
  std::unique_ptr<SharedRuntime> RT; ///< storm only.
  std::vector<std::unique_ptr<Isolate>> Isolates;
  std::vector<std::unique_ptr<VirtualMachine>> Standalone; ///< evalchurn.
  std::vector<VirtualMachine *> VMs;

  void clear() {
    VMs.clear();
    Isolates.clear(); // Before the runtime they attach to.
    RT.reset();
    Standalone.clear();
  }
};

constexpr int kSlices = 10; ///< Throughput samples per measured phase.

/// Builds the fleet (\p Count isolates or standalone VMs), loads the
/// prelude and warms every fixed text on every VM. \returns the set-up wall
/// seconds.
double setUp(bool Storm, size_t Count, Fleet &F,
             const std::vector<Text> &Fixed, Layers &L, Result &R) {
  F.clear();
  L.CreateUs = L.LoadSeconds = 0;
  const std::string Prelude = prelude();
  Clock::time_point T0 = Clock::now();
  if (Storm)
    F.RT = std::make_unique<SharedRuntime>();
  for (size_t I = 0; I < Count; ++I) {
    Clock::time_point C0 = Clock::now();
    if (Storm) {
      F.Isolates.push_back(F.RT->createIsolate());
      F.VMs.push_back(&F.Isolates.back()->vm());
    } else {
      F.Standalone.push_back(std::make_unique<VirtualMachine>());
      F.VMs.push_back(F.Standalone.back().get());
    }
    Clock::time_point C1 = Clock::now();
    std::string Err;
    bool Loaded = F.VMs.back()->load(Prelude, Err);
    L.CreateUs += secondsBetween(C0, C1) * 1e6;
    L.LoadSeconds += secondsBetween(C1, Clock::now());
    R.check(Loaded, "prelude: " + Err);
    for (const Text &X : Fixed) {
      bool Ok = false;
      timedEval(*F.VMs.back(), X.Source, X.Expected, Ok, Err, nullptr, -1, 0);
      R.check(Ok, "warm-up " + X.Source + ": " + Err);
    }
  }
  L.CreateUs /= double(F.VMs.size());
  return secondsBetween(T0, Clock::now());
}

/// Every client's measurements of one phase, merged.
struct Phase {
  std::vector<ClientPhase> Clients;
  WindowCounters Win;
  SharedTierStats SharedBefore, SharedAfter;
  std::vector<double> SliceSeconds;
  double Seconds = 0;
  uint64_t Ops = 0;
};

/// Runs every client, each on its own thread, for \p Seconds, cut into
/// slices so throughput is a median over slices rather than one ratio a
/// single stall can swing.
void runPhase(Fleet &F, std::vector<Client> &Cs, double Seconds, bool Traced,
              Tracer &Spans, Phase &Ph, Result &R) {
  std::vector<VmSample> Before;
  for (VirtualMachine *VM : F.VMs)
    Before.push_back(VmSample::take(*VM));
  if (F.RT)
    Ph.SharedBefore = F.RT->tier().statsSnapshot();
  Ph.Clients.resize(Cs.size());
  for (ClientPhase &C : Ph.Clients)
    for (std::vector<double> &V : C.ScriptUs)
      V.reserve(size_t(Seconds * 1e5));
  std::vector<Tracer> Tracers(Cs.size(), Tracer(Spans.epoch()));
  auto Run = [&](size_t I) {
    Cs[I].run(Seconds / kSlices, Traced ? &Tracers[I] : nullptr,
              Ph.Clients[I]);
  };
  for (int K = 0; K < kSlices; ++K) {
    std::vector<uint64_t> Ops0;
    for (const ClientPhase &C : Ph.Clients)
      Ops0.push_back(C.Ops);
    Clock::time_point T0 = Clock::now();
    onThreads(Cs.size(), Run);
    double Sec = secondsBetween(T0, Clock::now());
    for (size_t I = 0; I < Cs.size(); ++I)
      Ph.Clients[I].SliceOps.push_back(Ph.Clients[I].Ops - Ops0[I]);
    Ph.SliceSeconds.push_back(Sec);
    Ph.Seconds += Sec;
  }
  for (size_t I = 0; I < F.VMs.size(); ++I)
    Ph.Win.add(Before[I], VmSample::take(*F.VMs[I]));
  if (F.RT)
    Ph.SharedAfter = F.RT->tier().statsSnapshot();
  for (size_t I = 0; I < Cs.size(); ++I) {
    const ClientPhase &C = Ph.Clients[I];
    Ph.Ops += C.Ops;
    R.Attempted += C.Ops;
    R.Failed += C.Failed;
    if (Traced)
      Spans.merge(Tracers[I]);
  }
}

void runSessions(bool Storm, const Options &O, Result &R) {
  const std::vector<Text> Fixed = fixedTexts();
  Fleet F;
  Layers L;
  // storm's clients form one server; evalchurn's are independent replicas
  // (none in traced runs, whose per-layer numbers need none).
  const size_t Replicas = Storm || O.Trace ? 1 : kReplicas;
  const size_t Count = Storm ? size_t(O.Clients) : Replicas;
  // Set-up is short (tens of ms), so take the median of many.
  const int Setups = O.Trace ? 1 : 9;
  std::vector<double> SetupS, CodeKiBs;
  for (int I = 0; I < Setups; ++I) {
    SetupS.push_back(setUp(Storm, Count, F, Fixed, L, R) / double(Replicas));
    double KiB = 0;
    for (VirtualMachine *VM : F.VMs)
      KiB += double(VM->code().totalCodeBytes()) / 1024;
    CodeKiBs.push_back(KiB);
  }
  if (R.Failed)
    return;
  double PeakMiB = peakRssKiB() / 1024 / double(Replicas);
  bool CodeExact = std::all_of(CodeKiBs.begin(), CodeKiBs.end(),
                               [&](double K) { return K == CodeKiBs[0]; });
  for (VirtualMachine *VM : F.VMs) {
    readCompileEvents(*VM, L);
    L.SetupCompileSeconds += VM->code().totalCompileSeconds();
    L.SetupStallSeconds += VM->code().tierStats().MutatorStallSeconds;
  }

  std::vector<Client> Cs;
  for (size_t I = 0; I < F.VMs.size(); ++I)
    Cs.push_back({F.VMs[I], Rng(O.Seed * 1000003 + I), !Storm,
                  uint64_t(I) << 40, &Fixed, {}, true});

  double Rss0 = rssKiB();
  Phase Main, Traced;
  runPhase(F, Cs, O.Trace ? O.Seconds / 3 : O.Seconds, false, L.Spans, Main,
           R);
  // The latency log grows by one double per op; it is the bench's, not
  // the system's.
  double RssGrowth = rssKiB() - Rss0 - double(Main.Ops) * 8 / 1024;
  if (O.Trace)
    runPhase(F, Cs, O.Seconds * 2 / 3, true, L.Spans, Traced, R);
  const Phase &Gate = O.Trace ? Traced : Main;
  const double Ops = double(Gate.Ops);

  // Every client (storm isolate, evalchurn replica) must also agree with
  // the others on each fixed text both of them drew.
  bool TextExact = true;
  for (const Client &C : Cs) {
    TextExact = TextExact && C.Exact;
    for (size_t T = 0; T < Fixed.size(); ++T) {
      uint64_t Mine = C.TextInstructions[T], First = Cs[0].TextInstructions[T];
      TextExact = TextExact && (!Mine || !First || Mine == First);
    }
  }
  const bool Exact = CodeExact && TextExact;
  if (Storm)
    printf("check warm-up: %s (%llu compiles, %llu promotions in the "
           "window)\n",
           Gate.Win.CompileEvents || Gate.Win.Promotions ? "FAIL" : "ok",
           (unsigned long long)Gate.Win.CompileEvents,
           (unsigned long long)Gate.Win.Promotions);
  printf("check determinism: %s (code_kib over %d setups %s; instructions "
         "per fixed text %s)\n",
         Exact ? "exact" : "FAIL", Setups, CodeExact ? "identical" : "differ",
         TextExact ? "identical" : "differ");

  for (int S = 0; S < kNumScripts; ++S) {
    size_t N = 0;
    for (const ClientPhase &C : Gate.Clients)
      N += C.ScriptUs[S].size();
    printf("  %-40s %10zu ops\n", kScripts[S].Expr, N);
  }

  if (!O.Trace) {
    // Time metrics per server (storm) or per replica (evalchurn), then
    // their mean; counts and memory over the whole process.
    std::vector<std::vector<size_t>> Groups(Replicas);
    for (size_t I = 0; I < Cs.size(); ++I)
      Groups[I % Replicas].push_back(I);
    std::vector<std::vector<Metric>> PerGroup;
    std::vector<std::vector<double>> GroupUs;
    for (const std::vector<size_t> &G : Groups) {
      std::vector<double> All, Medians, Rates;
      for (int S = 0; S < kNumScripts; ++S) {
        std::vector<double> Us;
        for (size_t I : G)
          Us.insert(Us.end(), Main.Clients[I].ScriptUs[S].begin(),
                    Main.Clients[I].ScriptUs[S].end());
        All.insert(All.end(), Us.begin(), Us.end());
        if (!Us.empty())
          Medians.push_back(median(Us));
      }
      for (size_t K = 0; K < Main.SliceSeconds.size(); ++K) {
        uint64_t SliceOps = 0;
        for (size_t I : G)
          SliceOps += Main.Clients[I].SliceOps[K];
        Rates.push_back(double(SliceOps) / Main.SliceSeconds[K]);
      }
      PerGroup.push_back({
          {"run_us_geomean", geomean(Medians), "us"},
          {"latency_us_p50", median(All), "us"},
          {"throughput_ops_s", median(Rates), "ops/s"},
      });
      GroupUs.push_back(std::move(All));
    }
    printTail(GroupUs.size(), [&](size_t I) { return GroupUs[I]; });
    addMeanMetrics(PerGroup, R);
    R.metric("setup_s", median(SetupS), "s");
    R.metric("instructions_per_op", double(Main.Win.Instructions) / Ops,
             "count");
    R.metric("code_kib", CodeKiBs.back() / double(Replicas), "KiB");
    R.metric("peak_rss_mib", PeakMiB, "MiB");
    return;
  }
  L.Ops = Ops;
  L.RssKiBPerKop = RssGrowth / double(Main.Ops) * 1000;
  L.Win = Traced.Win;
  L.ExpectedCompiles = Storm ? 0 : Ops; // evalchurn: one doit per eval.
  L.UntracedOpUs = Main.Seconds * double(Cs.size()) / double(Main.Ops) * 1e6;
  L.TracedOpUs = Traced.Seconds * double(Cs.size()) / Ops * 1e6;
  L.CountsExact = Exact;
  if (Storm) {
    const SharedTierStats &B = Traced.SharedBefore, &A = Traced.SharedAfter;
    L.SharedAstHits = double(A.AstHits - B.AstHits);
    L.SharedAstMisses = double(A.AstMisses - B.AstMisses);
    L.SharedCodeHits = double(A.CodeHits - B.CodeHits);
    L.SharedCodeProbes =
        double((A.CodeHits + A.CodeMisses + A.CodeUnportableProbes) -
               (B.CodeHits + B.CodeMisses + B.CodeUnportableProbes));
    L.SharedCodeWaits = double(A.CodeWaits - B.CodeWaits);
    L.SharedPublishes = double(A.CodeFills - B.CodeFills);
  }
  const std::string Prelude = prelude();
  L.ParseBytes = double(Prelude.size());
  L.ParseSeconds = parseProbe(Prelude, nullptr, -1, 0);
  for (VirtualMachine *VM : F.VMs)
    addCensus(*VM, L);
  L.FixedUs = fixedPathUs(*F.VMs.front());
  reportLayers(O, L, R);
}

} // namespace

void runStorm(const Options &O, Result &R) { runSessions(true, O, R); }
void runEvalChurn(const Options &O, Result &R) { runSessions(false, O, R); }

} // namespace perfbench
