//===-- perfbench/main.cpp - The repository benchmark driver ---------------===//
//
// perfbench --workload <paper|apps|storm|evalchurn> --seed <n>
//           --seconds <s> --trace <0|1> [--trace-out <file>]
//           [--clients <n>]
//
// Prints human-readable rows and checks, then, as the last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; traced runs report the per-layer metrics
// and write their spans to --trace-out. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "parser/parser.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sched.h>
#include <string_view>
#include <thread>
#include <unistd.h>

using namespace mself;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Order statistics and process memory
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + Mid, V.end());
  double Hi = V[Mid];
  if (V.size() % 2)
    return Hi;
  double Lo = *std::max_element(V.begin(), V.begin() + Mid);
  return (Lo + Hi) / 2;
}

double tailPercentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  size_t Idx = size_t(std::ceil(P * double(N)));
  Idx = Idx ? Idx - 1 : 0;
  // At least ten samples must lie beyond the reported one.
  Idx = std::min(Idx, N > 11 ? N - 11 : 0);
  return V[Idx];
}

double geomean(const std::vector<double> &V) {
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return V.empty() ? 0 : std::exp(LogSum / double(V.size()));
}

double rssKiB() {
  std::ifstream F("/proc/self/statm");
  double Size = 0, Resident = 0;
  F >> Size >> Resident;
  return Resident * double(sysconf(_SC_PAGESIZE)) / 1024;
}

double peakRssKiB() {
  std::ifstream F("/proc/self/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6);
  return 0;
}

void Result::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    fprintf(stderr, "FAIL %s\n", What.c_str());
  }
}

void addMeanMetrics(const std::vector<std::vector<Metric>> &PerReplica,
                    Result &R) {
  for (size_t M = 0; M < PerReplica.front().size(); ++M) {
    double Sum = 0;
    for (const std::vector<Metric> &Ms : PerReplica)
      Sum += Ms[M].Value;
    const Metric &First = PerReplica.front()[M];
    R.metric(First.Name, Sum / double(PerReplica.size()), First.Unit);
  }
}

//===----------------------------------------------------------------------===//
// Counter snapshots
//===----------------------------------------------------------------------===//

VmSample VmSample::take(VirtualMachine &VM) {
  VmSample S;
  S.Exec = VM.interp().counters();
  S.Gc = VM.heap().stats();
  S.CompileSeconds = VM.code().totalCompileSeconds();
  S.CompileEvents = VM.code().eventLog().totalRecorded();
  S.InternerLookups = VM.world().interner().lookups();
  TierStats T = VM.code().tierStats();
  S.Promotions = T.Promotions;
  S.Invalidations = T.Invalidations;
  return S;
}

void WindowCounters::add(const VmSample &B, const VmSample &A) {
  const ExecCounters &X = B.Exec, &Y = A.Exec;
  Instructions += Y.Instructions - X.Instructions;
  Sends += Y.Sends - X.Sends;
  IcHits += Y.IcHits - X.IcHits;
  PrimCalls += Y.PrimCalls - X.PrimCalls;
  TypeTests += Y.TypeTests - X.TypeTests;
  BlocksMade += Y.BlocksMade - X.BlocksMade;
  ArenaBytes += Y.ArenaBytes - X.ArenaBytes;
  GlcHits += Y.GlcHits - X.GlcHits;
  GlcMisses += Y.GlcMisses - X.GlcMisses;
  FullLookups += Y.FullLookups - X.FullLookups;
  SendsMega += Y.SendsMega - X.SendsMega;
  QuickSends += Y.QuickSends - X.QuickSends;
  for (int I = 0; I < kNumOps; ++I)
    PerOp[I] += Y.PerOp[I] - X.PerOp[I];

  const GcStats &G = B.Gc, &H = A.Gc;
  Scavenges += H.Scavenges - G.Scavenges;
  FullGcs += H.FullCollections - G.FullCollections;
  AllocBytes += (H.BytesAllocatedNursery + H.BytesAllocatedOld) -
                (G.BytesAllocatedNursery + G.BytesAllocatedOld);
  Survived += H.SurvivedScavengeBytes - G.SurvivedScavengeBytes;
  Scanned += H.ScannedScavengeBytes - G.ScannedScavengeBytes;
  Evacuations += H.ArenaEvacuations - G.ArenaEvacuations;
  for (const auto &[Old, New] :
       {std::pair(&G.ScavengePauses, &H.ScavengePauses),
        std::pair(&G.FullPauses, &H.FullPauses)}) {
    for (int I = 0; I < PauseHistogram::kBuckets; ++I)
      Pauses.Counts[I] += New->Counts[I] - Old->Counts[I];
    Pauses.Samples += New->Samples - Old->Samples;
    Pauses.TotalSeconds += New->TotalSeconds - Old->TotalSeconds;
    // The window's own maximum is not recoverable from two snapshots; the
    // run's maximum only clamps the top bucket's percentile estimate.
    Pauses.MaxSeconds = std::max(Pauses.MaxSeconds, New->MaxSeconds);
  }

  CompileSeconds += A.CompileSeconds - B.CompileSeconds;
  CompileEvents += A.CompileEvents - B.CompileEvents;
  InternerLookups += A.InternerLookups - B.InternerLookups;
  Promotions += A.Promotions - B.Promotions;
  Invalidations += A.Invalidations - B.Invalidations;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

const char *Tracer::name(Kind K) {
  static const char *const Names[] = {"op", "eval", "compile", "gc", "parse"};
  return Names[K];
}

int32_t Tracer::open(Kind K, Clock::time_point S, int32_t Parent,
                     uint64_t OpId) {
  if (Spans.size() >= kMaxSpans) {
    ++Dropped;
    return -1;
  }
  double At = std::chrono::duration<double, std::micro>(S - Epoch).count();
  Spans.push_back({At, At, Parent, K, OpId});
  return int32_t(Spans.size() - 1);
}

void Tracer::close(int32_t Id, Kind K, Clock::time_point S,
                   Clock::time_point E) {
  Totals[K] += secondsBetween(S, E);
  if (Id >= 0)
    Spans[size_t(Id)].EndUs =
        std::chrono::duration<double, std::micro>(E - Epoch).count();
}

int32_t Tracer::add(Kind K, Clock::time_point S, Clock::time_point E,
                    int32_t Parent, uint64_t OpId) {
  int32_t Id = open(K, S, Parent, OpId);
  close(Id, K, S, E);
  return Id;
}

void Tracer::addDerived(Kind K, Clock::time_point S, double Seconds,
                        int32_t Parent, uint64_t OpId) {
  add(K, S,
      S + std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(Seconds)),
      Parent, OpId);
}

void Tracer::merge(const Tracer &O) {
  for (int K = 0; K < NumKinds; ++K)
    Totals[K] += O.Totals[K];
  int32_t Base = int32_t(Spans.size());
  for (const Span &S : O.Spans) {
    if (Spans.size() >= kMaxSpans) {
      ++Dropped;
      continue;
    }
    Spans.push_back(S);
    if (S.Parent >= 0)
      Spans.back().Parent = S.Parent + Base < int32_t(kMaxSpans)
                                ? S.Parent + Base
                                : -1;
  }
  Dropped += O.Dropped;
}

bool Tracer::write(const std::string &Path) const {
  FILE *F = fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    fprintf(F,
            "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
            "\"end_us\": %.3f, \"parent\": %d, \"op\": %llu}\n",
            I, name(S.K), S.StartUs, S.EndUs, S.Parent,
            (unsigned long long)S.OpId);
  }
  fprintf(F, "{\"dropped_spans\": %llu}\n", (unsigned long long)Dropped);
  return fclose(F) == 0;
}

namespace {

/// Runs \p Run (one top-level evaluation on \p VM), checks its answer,
/// and, with a tracer, records the eval span plus the compile and GC time
/// inside it as derived children. \returns the eval's wall seconds.
template <typename RunFn>
double timed(VirtualMachine &VM, RunFn Run, int64_t Expected, bool &Ok,
             std::string &Err, Tracer *T, int32_t Parent, uint64_t OpId) {
  auto PauseSeconds = [&VM] { return VM.heap().stats().totalPauseSeconds(); };
  double C0 = T ? VM.code().totalCompileSeconds() : 0;
  double G0 = T ? PauseSeconds() : 0;
  Clock::time_point S = Clock::now();
  Interpreter::Outcome O = Run();
  Clock::time_point E = Clock::now();
  Ok = O.Ok && O.Result.isInt() && O.Result.asInt() == Expected;
  if (!O.Ok)
    Err = O.Message;
  else if (!Ok)
    Err = "got " + O.Result.describe() + ", expected " +
          std::to_string(Expected);
  if (T) {
    int32_t Id = T->add(Tracer::Eval, S, E, Parent, OpId);
    double DC = VM.code().totalCompileSeconds() - C0;
    double DG = PauseSeconds() - G0;
    if (DC > 0)
      T->addDerived(Tracer::Compile, S, DC, Id, OpId);
    if (DG > 0)
      T->addDerived(Tracer::Gc,
                    E - std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(DG)),
                    DG, Id, OpId);
  }
  return secondsBetween(S, E);
}

} // namespace

double timedEval(VirtualMachine &VM, const std::string &Src, int64_t Expected,
                 bool &Ok, std::string &Err, Tracer *T, int32_t Parent,
                 uint64_t OpId) {
  return timed(
      VM, [&] { return VM.eval(Src); }, Expected, Ok, Err, T, Parent, OpId);
}

double timedCall(VirtualMachine &VM, const ast::Code *Body, int64_t Expected,
                 bool &Ok, std::string &Err, Tracer *T, int32_t Parent,
                 uint64_t OpId) {
  return timed(
      VM, [&] { return VM.interp().evalTopLevel(Body); }, Expected, Ok, Err,
      T, Parent, OpId);
}

double parseProbe(const std::string &Src, Tracer *T, int32_t Parent,
                  uint64_t OpId) {
  thread_local StringInterner Interner;
  ast::Program Prog;
  Parser P(Prog, Interner);
  Clock::time_point S = Clock::now();
  P.parseTopLevel(Src);
  Clock::time_point E = Clock::now();
  if (T)
    T->add(Tracer::Parse, S, E, Parent, OpId);
  return secondsBetween(S, E);
}

double fixedPathUs(VirtualMachine &VM) {
  std::vector<double> Us;
  for (int I = 0; I < 220; ++I) {
    bool Ok = false;
    std::string Err;
    double Sec = timedEval(VM, "0", 0, Ok, Err, nullptr, -1, 0);
    if (I >= 20) // The first evals warm the path.
      Us.push_back(Sec * 1e6);
  }
  return median(Us);
}

//===----------------------------------------------------------------------===//
// The per-layer report
//===----------------------------------------------------------------------===//

void readCompileEvents(VirtualMachine &VM, Layers &L) {
  const CompilationEventLog &Log = VM.code().eventLog();
  L.EventsLost += Log.totalRecorded() - Log.events().size();
  for (const CompileEvent &E : Log.events()) {
    L.Analyze += E.AnalyzeSeconds;
    L.Split += E.SplitSeconds;
    L.Lower += E.LowerSeconds;
    L.Emit += E.EmitSeconds;
  }
}

void addCensus(VirtualMachine &VM, Layers &L) {
  TierStats T = VM.code().tierStats();
  L.LiveFunctions += double(T.LiveFunctions);
  L.RetiredFunctions += double(T.RetiredFunctions);
  L.InvalidatedFunctions += double(T.InvalidatedFunctions);
  L.LiveCodeKiB += double(T.LiveCodeBytes) / 1024;
}

namespace {

/// The opcodes reported one by one (`interp.op.<name>` per op): the union
/// of the ten most executed opcodes over the four workloads.
const char *const kTrackedOps[] = {
    "move",     "move2",      "move_jump", "load_int", "load_const",
    "get_field", "env_get",   "test_int",  "test_map", "br_cmp",
    "add_ck",   "add_ck_imm", "mul_ck",    "send",     "send_mono",
    "return",
};

} // namespace

void reportLayers(const Options &O, const Layers &L, Result &R) {
  const WindowCounters &W = L.Win;
  const double Ops = std::max(L.Ops, 1.0);
  auto Per = [&](double V) { return V / Ops; };
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  const Tracer &T = L.Spans;
  double OpS = T.totalSeconds(Tracer::Op), EvalS = T.totalSeconds(Tracer::Eval),
         CompileS = T.totalSeconds(Tracer::Compile),
         GcS = T.totalSeconds(Tracer::Gc), ParseS = T.totalSeconds(Tracer::Parse);

  R.metric("parser.parse_us_per_op", Per(ParseS * 1e6), "us");
  R.metric("parser.mb_per_s", Ratio(L.ParseBytes / 1e6, L.ParseSeconds),
           "MB/s");

  R.metric("support.interner_lookups_per_op", Per(double(W.InternerLookups)),
           "count");

  R.metric("driver.load_s", L.LoadSeconds, "s");
  R.metric("driver.isolate_create_us", L.CreateUs, "us");
  R.metric("driver.fixed_us", L.FixedUs, "us");
  R.metric("driver.unattributed_share", Ratio(OpS - EvalS - ParseS, OpS),
           "ratio");
  R.metric("driver.trace_overhead", Ratio(L.TracedOpUs, L.UntracedOpUs) - 1,
           "ratio");
  R.metric("driver.counts_exact", L.CountsExact ? 1 : 0, "bool");

  R.metric("compiler.setup_compile_s", L.SetupCompileSeconds, "s");
  R.metric("compiler.analyze_s", L.Analyze, "s");
  R.metric("compiler.split_s", L.Split, "s");
  R.metric("compiler.lower_s", L.Lower, "s");
  R.metric("compiler.emit_s", L.Emit, "s");
  R.metric("compiler.events_lost", double(L.EventsLost), "count");
  R.metric("compiler.compile_us_per_op", Per(W.CompileSeconds * 1e6), "us");
  R.metric("compiler.compiles_per_op", Per(double(W.CompileEvents)), "count");
  R.metric("compiler.steady_compiles",
           double(W.CompileEvents) - L.ExpectedCompiles, "count");
  R.metric("compiler.promotions", double(W.Promotions), "count");
  R.metric("compiler.live_functions", L.LiveFunctions, "count");
  R.metric("compiler.retired_functions", L.RetiredFunctions, "count");
  R.metric("compiler.invalidated_functions", L.InvalidatedFunctions, "count");
  R.metric("compiler.live_code_kib", L.LiveCodeKiB, "KiB");
  R.metric("compiler.mutator_stall_s", L.SetupStallSeconds, "s");

  R.metric("interp.exec_us_per_op", Per((EvalS - CompileS - GcS) * 1e6), "us");
  R.metric("interp.sends_per_op", Per(double(W.Sends)), "count");
  R.metric("interp.type_tests_per_op", Per(double(W.TypeTests)), "count");
  R.metric("interp.prim_calls_per_op", Per(double(W.PrimCalls)), "count");
  R.metric("interp.blocks_made_per_op", Per(double(W.BlocksMade)), "count");
  R.metric("interp.pic_hit_rate", Ratio(double(W.IcHits), double(W.Sends)),
           "ratio");
  R.metric("interp.quick_send_share",
           Ratio(double(W.QuickSends), double(W.Sends)), "ratio");
  R.metric("interp.mega_send_share",
           Ratio(double(W.SendsMega), double(W.Sends)), "ratio");
  uint64_t Fused = 0;
  for (int I = 0; I < kNumOps; ++I)
    if (isSuperinstruction(Op(I)))
      Fused += W.PerOp[I];
  R.metric("interp.fused_share", Ratio(double(Fused), double(W.Instructions)),
           "ratio");
  for (const char *Name : kTrackedOps) {
    uint64_t N = 0;
    for (int I = 0; I < kNumOps; ++I)
      if (std::strcmp(opName(Op(I)), Name) == 0)
        N = W.PerOp[I];
    R.metric(std::string("interp.op.") + Name, Per(double(N)), "count");
  }

  R.metric("runtime.glc_hit_rate",
           Ratio(double(W.GlcHits), double(W.GlcHits + W.GlcMisses)), "ratio");
  R.metric("runtime.full_lookups_per_op", Per(double(W.FullLookups)), "count");
  R.metric("runtime.shared_ast_hit_rate",
           Ratio(L.SharedAstHits, L.SharedAstHits + L.SharedAstMisses),
           "ratio");
  R.metric("runtime.shared_code_hit_rate",
           Ratio(L.SharedCodeHits, L.SharedCodeProbes), "ratio");
  R.metric("runtime.shared_code_waits", L.SharedCodeWaits, "count");
  R.metric("runtime.shared_publishes", L.SharedPublishes, "count");
  R.metric("runtime.invalidations", double(W.Invalidations), "count");

  R.metric("vm.gc_pause_s", W.Pauses.TotalSeconds, "s");
  R.metric("vm.scavenges", double(W.Scavenges), "count");
  R.metric("vm.full_gcs", double(W.FullGcs), "count");
  R.metric("vm.alloc_kib_per_op", Per(double(W.AllocBytes) / 1024), "KiB");
  R.metric("vm.survival_rate", Ratio(double(W.Survived), double(W.Scanned)),
           "ratio");
  R.metric("vm.arena_kib_per_op", Per(double(W.ArenaBytes) / 1024), "KiB");
  R.metric("vm.arena_evacuations", double(W.Evacuations), "count");
  R.metric("vm.gc_pause_ms_p99", W.Pauses.percentileSeconds(0.99) * 1e3, "ms");
  R.metric("vm.rss_kib_per_kop", L.RssKiBPerKop, "KiB");

  // The workload's own hottest opcodes, for reading (not reported as
  // metrics: the tracked set above is fixed so every run has the same keys).
  std::vector<int> Hot;
  for (int I = 0; I < kNumOps; ++I)
    if (W.PerOp[I])
      Hot.push_back(I);
  std::sort(Hot.begin(), Hot.end(),
            [&](int A, int B) { return W.PerOp[A] > W.PerOp[B]; });
  printf("hot opcodes:");
  for (size_t I = 0; I < Hot.size() && I < 12; ++I)
    printf(" %s=%.4g", opName(Op(Hot[I])), Per(double(W.PerOp[Hot[I]])));
  printf("\n");
  if (!O.TraceOut.empty() && !T.write(O.TraceOut))
    fprintf(stderr, "perfbench: cannot write spans to %s\n",
            O.TraceOut.c_str());
}

//===----------------------------------------------------------------------===//
// Environment fingerprint
//===----------------------------------------------------------------------===//

std::string fingerprint(std::string &Refusal) {
  std::string Overrides;
  auto Env = [&](const char *Name, bool EmptyIsUnset) {
    const char *V = std::getenv(Name);
    if (V && (!EmptyIsUnset || (*V && std::strcmp(V, "0") != 0)))
      Overrides += std::string(Overrides.empty() ? "" : ",") + Name + "=" + V;
  };
  // Exactly the variables Policy::fromEnv folds into every VM's policy.
  Env("MINISELF_GC_STRESS", true);
  Env("MINISELF_BG_COMPILE", false);
  Env("MINISELF_GC_CONCURRENT", false);

  std::string Sanitizers;
#if defined(__SANITIZE_ADDRESS__)
  Sanitizers += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  Sanitizers += "thread ";
#endif
  if (std::string_view(PERFBENCH_CXX_FLAGS).find("-fsanitize") !=
      std::string_view::npos)
    Sanitizers += "flags ";
#if defined(NDEBUG)
  const bool Asserts = false;
#else
  const bool Asserts = true;
#endif
#if defined(MINISELF_COMPUTED_GOTO)
  const int ComputedGoto = 1;
#else
  const int ComputedGoto = 0;
#endif

  cpu_set_t Set;
  CPU_ZERO(&Set);
  int Allowed = sched_getaffinity(0, sizeof(Set), &Set) == 0 ? CPU_COUNT(&Set)
                                                             : 0;
  VirtualMachine VM; // The shipped default policy, as every workload uses.
  char Buf[512];
  snprintf(Buf, sizeof(Buf),
           "env build_type=%s cxx_flags=\"%s\" computed_goto=%d asserts=%d "
           "sanitizers=%s nproc=%u cpus_allowed=%d policy=%s "
           "policy_fingerprint=%016llx overrides=%s",
           PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, ComputedGoto,
           Asserts ? 1 : 0, Sanitizers.empty() ? "none" : Sanitizers.c_str(),
           std::thread::hardware_concurrency(), Allowed,
           VM.policy().Name.c_str(),
           (unsigned long long)VM.policy().fingerprint(),
           Overrides.empty() ? "none" : Overrides.c_str());
  if (!Overrides.empty())
    Refusal = "policy environment override set (" + Overrides +
              "); a stress-mode number is not comparable";
  else if (!Sanitizers.empty() || Asserts)
    Refusal = "sanitized or assertion-enabled build; numbers are not "
              "comparable with an optimized build";
  return Buf;
}

} // namespace perfbench

using namespace perfbench;

namespace {

int usage(const char *Msg) {
  fprintf(stderr,
          "perfbench: %s\nusage: perfbench --workload "
          "<paper|apps|storm|evalchurn> --seed <n> --seconds <s> "
          "--trace <0|1> [--trace-out <file>] [--clients <n>]\n",
          Msg);
  return 2;
}

void printJson(const Result &R) {
  std::string Out = "{\"correct\": ";
  Out += R.Failed == 0 && R.Attempted > 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    char Buf[64];
    snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(M.Value) ? M.Value : 0);
    Out += std::string(I ? ", " : "") + "\"" + M.Name + "\": {\"value\": " +
           Buf + ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}\n";
  fputs(Out.c_str(), stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(V);
    else if (A == "--trace")
      O.Trace = std::strcmp(V, "0") != 0;
    else if (A == "--trace-out")
      O.TraceOut = V;
    else if (A == "--clients")
      O.Clients = std::atoi(V);
    else
      return usage(("unknown option " + A).c_str());
  }
  void (*Run)(const Options &, Result &) = nullptr;
  if (O.Workload == "paper")
    Run = runPaper;
  else if (O.Workload == "apps")
    Run = runApps;
  else if (O.Workload == "storm")
    Run = runStorm;
  else if (O.Workload == "evalchurn")
    Run = runEvalChurn;
  if (!Run)
    return usage("unknown workload");
  if (!(O.Seconds > 0))
    return usage("--seconds must be positive");
  if (O.Clients < 1 || O.Clients > 64)
    return usage("--clients must be in 1..64");

  std::string Refusal;
  printf("%s workload=%s seed=%llu seconds=%g trace=%d\n",
         fingerprint(Refusal).c_str(), O.Workload.c_str(),
         (unsigned long long)O.Seed, O.Seconds, O.Trace ? 1 : 0);
  if (!Refusal.empty()) {
    fprintf(stderr, "perfbench: refusing to run: %s\n", Refusal.c_str());
    return 3;
  }
  Result R;
  Run(O, R);
  fflush(stdout);
  printJson(R);
  return 0;
}
