// Extra diagnostic bench: the paper claims LBP "convergence was achieved
// within twenty iterations" (§3.4). This bench prints the message-residual
// curve of the inference pass on the full ReVerb45K-like joint graph.
#include <cmath>

#include "bench/bench_common.h"
#include "core/graph_builder.h"
#include "core/problem.h"
#include "core/signal_cache.h"
#include "graph/flat_lbp.h"

namespace jocl {
namespace bench {
namespace {

void Run() {
  BenchEnv env = BenchEnv::FromEnv();
  Banner("LBP convergence on the joint factor graph", env);
  Stopwatch watch;
  std::unique_ptr<DataPack> pack = DataPack::ReVerb(env);

  JoclProblem problem = BuildProblem(pack->dataset(), pack->signals(),
                                     pack->eval_triples());
  SignalCache cache = SignalCache::ForProblem(problem, pack->signals(),
                                              pack->dataset().ckb);
  JoclGraph jgraph = BuildJoclGraph(problem, cache, pack->dataset().ckb);
  std::printf("graph: %zu variables, %zu factors\n",
              jgraph.graph.variable_count(), jgraph.graph.factor_count());

  std::vector<double> weights = Jocl::DefaultWeights();
  LbpOptions options;
  options.max_iterations = 30;
  options.tolerance = 1e-4;
  options.factor_schedule = jgraph.schedule;
  FlatLbpEngine engine(&jgraph.graph, &weights, options);
  LbpResult result = engine.Run();

  TablePrinter table({"Sweep", "Max residual", "Curve"});
  for (size_t i = 0; i < result.residual_history.size(); ++i) {
    double r = result.residual_history[i];
    size_t bar_len = 0;
    if (r > 0) {
      // log-scale bar: residual 1e-4 .. 1e+1 mapped onto 0..50 chars
      double norm = (std::log10(r) + 4.0) / 5.0;
      if (norm > 0) bar_len = static_cast<size_t>(norm * 50);
    }
    table.AddRow({std::to_string(i + 1), TablePrinter::Num(r, 6),
                  std::string(std::min<size_t>(bar_len, 60), '#')});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("converged: %s after %zu sweeps (paper: within 20)\n",
              result.converged ? "yes" : "no", result.iterations);
  std::printf("elapsed: %.1fs\n", watch.ElapsedSeconds());
}

}  // namespace
}  // namespace bench
}  // namespace jocl

int main() { jocl::bench::Run(); }
