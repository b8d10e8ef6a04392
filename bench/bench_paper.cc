// Reproduces the paper's §4 evaluation in one run: Tables 1-5, Figure 3
// and the introduction's pipeline-vs-joint argument, with the paper's
// values alongside. The substrate is synthetic, so the orderings, not the
// absolute values, are what should match. Each world is generated once and
// each JOCL weight set learned once; every table reads the same six
// inference results. Emits BENCH_paper.json (path: JOCL_BENCH_OUT, default
// ./BENCH_paper.json): every printed score at full precision plus each
// ordering as a named boolean, a strict comparison of unrounded scores. At
// scale >= 1 the process exits 1 if any ordering fails.
#include <map>

#include "baselines/entity_linking.h"
#include "baselines/np_canonicalization.h"
#include "baselines/relation_linking.h"
#include "baselines/rp_canonicalization.h"
#include "bench/bench_common.h"

namespace jocl {
namespace bench {
namespace {

/// Every printed score under a dotted key, and every ordering by name.
struct Report {
  std::vector<std::pair<std::string, double>> scores;
  std::vector<std::pair<const char*, bool>> orderings;

  void Score(const std::string& key, double value) {
    scores.emplace_back(key, value);
  }
  void Clustering(const std::string& key, const ClusteringScore& score) {
    Score(key + ".macro_f1", score.macro.f1);
    Score(key + ".micro_f1", score.micro.f1);
    Score(key + ".pairwise_f1", score.pairwise.f1);
    Score(key + ".average_f1", score.average_f1);
  }
};

/// True when the last value (JOCL's row) strictly beats every other.
bool LastIsBest(const std::vector<double>& values) {
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    if (!(values.back() > values[i])) return false;
  }
  return true;
}

/// One generated world and JOCL's result on its evaluation subset.
struct World {
  const char* name;
  const char* key;
  const DataPack* pack;
  const JoclResult* jocl;
};

/// JOCL's inference results, one per (world, weight set).
struct JoclRuns {
  JoclResult joint;      // default JoclOptions (= JOCL-all), ReVerb-like
  JoclResult joint_nyt;  // the joint weights transferred to NYT-like
  JoclResult cano;       // Table 4 JOCLcano
  JoclResult link;       // Table 4 JOCLlink
  JoclResult single;     // Table 5 JOCL-single
  JoclResult dual;       // Table 5 JOCL-double
};

struct LabelRow {
  const char* method;
  std::vector<size_t> labels;
};

/// Prints a Table 1/2 style table (the four F1 columns and the paper's
/// average F1) and returns each row's average F1.
std::vector<double> PrintClusteringTable(const std::vector<LabelRow>& rows,
                                         const std::vector<size_t>& gold,
                                         const double* paper_avg_f1,
                                         const std::string& key,
                                         Report* report) {
  TablePrinter table({"Method", "Macro F1", "Micro F1", "Pairwise F1",
                      "Average F1", "Paper Avg F1"});
  std::vector<double> average_f1;
  for (size_t r = 0; r < rows.size(); ++r) {
    ClusteringScore score = EvaluateClustering(rows[r].labels, gold);
    report->Clustering(key + "." + rows[r].method, score);
    average_f1.push_back(score.average_f1);
    std::vector<std::string> cells = {rows[r].method};
    AddScoreCells(score, &cells);
    cells.push_back(TablePrinter::Num(paper_avg_f1[r]));
    table.AddRow(std::move(cells));
  }
  std::printf("%s\n", table.Render().c_str());
  return average_f1;
}

JoclResult LearnAndInfer(const JoclOptions& options, const DataPack& pack) {
  return Jocl(options)
      .Run(pack.dataset(), pack.signals(), pack.eval_triples())
      .MoveValueOrDie();
}

JoclOptions WithFeatures(const FeatureMask& mask) {
  JoclOptions options;
  options.builder.features = mask;
  return options;
}

void Table1(const BenchEnv& env, const std::vector<World>& worlds,
            Report* report) {
  constexpr double kPaperAvgF1[][8] = {
      {0.544, 0.728, 0.684, 0.558, 0.595, 0.761, 0.801, 0.818},  // ReVerb
      {0.591, 0.699, 0.678, 0.563, 0.563, 0.735, 0.776, 0.805},  // NYT
  };
  Banner("Table 1: NP canonicalization (average F1 vs paper)", env);
  for (size_t w = 0; w < worlds.size(); ++w) {
    const World& world = worlds[w];
    const auto& ds = world.pack->dataset();
    const auto& sig = world.pack->signals();
    const auto& eval = world.pack->eval_triples();
    std::printf("--- %s: %zu triples, %zu eval ---\n", world.name,
                ds.okb.size(), eval.size());
    std::vector<LabelRow> rows;
    rows.push_back({"Morph Norm", MorphNormCanonicalize(ds, eval)});
    rows.push_back(
        {"Wikidata Integrator", WikidataIntegratorCanonicalize(ds, eval)});
    rows.push_back({"Text Similarity", TextSimilarityCanonicalize(ds, eval)});
    rows.push_back(
        {"IDF Token Overlap", IdfTokenOverlapCanonicalize(ds, sig, eval)});
    rows.push_back(
        {"Attribute Overlap", AttributeOverlapCanonicalize(ds, eval)});
    rows.push_back(
        {"CESI", CesiCanonicalize(ds, sig,
                                  TrainTripleEmbeddings(ds).MoveValueOrDie(),
                                  eval)});
    rows.push_back({"SIST", SistCanonicalize(ds, sig, eval)});
    rows.push_back({"JOCL", world.jocl->np_cluster});
    std::vector<double> average_f1 =
        PrintClusteringTable(rows, world.pack->GoldNp(), kPaperAvgF1[w],
                             std::string("table1.") + world.key, report);
    report->orderings.emplace_back(
        w == 0 ? "table1_reverb_jocl_best" : "table1_nyt_jocl_best",
        LastIsBest(average_f1));
  }
}

void Table2(const BenchEnv& env, const World& reverb, Report* report) {
  constexpr double kPaperAvgF1[] = {0.761, 0.819, 0.864, 0.874};
  Banner("Table 2: RP canonicalization on ReVerb45K-like", env);
  const auto& ds = reverb.pack->dataset();
  const auto& sig = reverb.pack->signals();
  const auto& eval = reverb.pack->eval_triples();
  std::vector<LabelRow> rows;
  rows.push_back({"AMIE", AmieCanonicalize(ds, sig, eval)});
  rows.push_back({"PATTY", PattyCanonicalize(ds, eval)});
  rows.push_back({"SIST", SistRpCanonicalize(ds, sig, eval)});
  rows.push_back({"JOCL", reverb.jocl->rp_cluster});
  std::vector<double> average_f1 = PrintClusteringTable(
      rows, reverb.pack->GoldRp(), kPaperAvgF1, "table2", report);
  report->orderings.emplace_back("table2_jocl_best", LastIsBest(average_f1));
}

void Table3(const BenchEnv& env, const std::vector<World>& worlds,
            Report* report) {
  struct PaperRow {
    const char* method;
    double reverb;
    double nyt;
  };
  constexpr PaperRow kPaper[] = {
      {"Falcon", 0.541, 0.33}, {"EARL", 0.473, 0.25},
      {"Spotlight", 0.716, 0.26}, {"TagMe", 0.316, 0.30},
      {"KBPearl", 0.522, 0.46}, {"JOCL", 0.761, 0.48},
  };
  Banner("Table 3: OKB entity linking accuracy", env);
  std::vector<std::vector<double>> accuracy;  // [world][method]
  for (const World& world : worlds) {
    const auto& ds = world.pack->dataset();
    const auto& sig = world.pack->signals();
    const auto& eval = world.pack->eval_triples();
    std::vector<int64_t> gold = world.pack->GoldEntities();
    std::vector<size_t> linkable = world.pack->LinkableNpMentions();
    auto acc = [&](const std::vector<int64_t>& links) {
      return LinkingAccuracySubset(links, gold, linkable);
    };
    accuracy.push_back({acc(FalconLink(ds, eval)),
                        acc(EarlLink(ds, eval)),
                        acc(SpotlightLink(ds, sig, eval)),
                        acc(TagMeLink(ds, eval)),
                        acc(KbpearlLink(ds, eval)),
                        acc(world.jocl->np_link)});
    for (size_t r = 0; r < accuracy.back().size(); ++r) {
      report->Score(std::string("table3.") + world.key + "." +
                        kPaper[r].method + ".accuracy",
                    accuracy.back()[r]);
    }
  }

  TablePrinter table({"Method", "ReVerb45K-like", "Paper", "NYTimes2018-like",
                      "Paper"});
  for (size_t r = 0; r < std::size(kPaper); ++r) {
    table.AddRow({kPaper[r].method, TablePrinter::Num(accuracy[0][r]),
                  TablePrinter::Num(kPaper[r].reverb),
                  TablePrinter::Num(accuracy[1][r]),
                  TablePrinter::Num(kPaper[r].nyt)});
  }
  std::printf("%s\n", table.Render().c_str());
  report->orderings.emplace_back("table3_reverb_jocl_best",
                                 LastIsBest(accuracy[0]));
  report->orderings.emplace_back("table3_nyt_jocl_best",
                                 LastIsBest(accuracy[1]));
}

void Figure3(const BenchEnv& env, const World& reverb, Report* report) {
  struct PaperRow {
    const char* method;
    double accuracy;  // read off the paper's Figure 3 bars
  };
  constexpr PaperRow kPaper[] = {
      {"Falcon", 0.23}, {"EARL", 0.17}, {"KBPearl", 0.31},
      {"Rematch", 0.26}, {"JOCL", 0.45},
  };
  Banner("Figure 3: OKB relation linking accuracy (ReVerb45K-like)", env);
  const auto& ds = reverb.pack->dataset();
  const auto& sig = reverb.pack->signals();
  const auto& eval = reverb.pack->eval_triples();
  std::vector<int64_t> gold = reverb.pack->GoldRelations();
  std::vector<size_t> linkable = reverb.pack->LinkableRpMentions();
  auto acc = [&](const std::vector<int64_t>& links) {
    return LinkingAccuracySubset(links, gold, linkable);
  };
  const std::vector<double> accuracy = {
      acc(FalconRelationLink(ds, eval)),
      acc(EarlRelationLink(ds, eval)),
      acc(KbpearlRelationLink(ds, eval)),
      acc(RematchRelationLink(ds, eval)),
      acc(reverb.jocl->rp_link),
  };

  TablePrinter table({"Method", "Accuracy", "Paper", "Bar"});
  for (size_t r = 0; r < accuracy.size(); ++r) {
    report->Score(std::string("figure3.") + kPaper[r].method + ".accuracy",
                  accuracy[r]);
    std::string bar(static_cast<size_t>(accuracy[r] * 40), '#');
    table.AddRow({kPaper[r].method, TablePrinter::Num(accuracy[r]),
                  TablePrinter::Num(kPaper[r].accuracy, 2), bar});
  }
  std::printf("%s\n", table.Render().c_str());
  report->orderings.emplace_back("figure3_jocl_best", LastIsBest(accuracy));
}

void Table4(const BenchEnv& env, const DataPack& reverb, const JoclRuns& runs,
            Report* report) {
  Banner("Table 4: interaction ablation (ReVerb45K-like)", env);
  std::vector<size_t> gold_np = reverb.GoldNp();
  std::vector<int64_t> gold_entities = reverb.GoldEntities();

  ClusteringScore cano = EvaluateClustering(runs.cano.np_cluster, gold_np);
  ClusteringScore joint = EvaluateClustering(runs.joint.np_cluster, gold_np);
  double link_accuracy = LinkingAccuracy(runs.link.np_link, gold_entities);
  double joint_accuracy = LinkingAccuracy(runs.joint.np_link, gold_entities);
  report->Clustering("table4.JOCLcano", cano);
  report->Score("table4.JOCLlink.accuracy", link_accuracy);
  report->Clustering("table4.JOCL", joint);
  report->Score("table4.JOCL.accuracy", joint_accuracy);

  TablePrinter table({"Variant", "Macro F1", "Micro F1", "Pairwise F1",
                      "Average F1", "Accuracy", "Paper AvgF1",
                      "Paper Acc"});
  std::vector<std::string> cells = {"JOCLcano"};
  AddScoreCells(cano, &cells);
  cells.insert(cells.end(), {"-", TablePrinter::Num(0.735), "-"});
  table.AddRow(std::move(cells));
  table.AddRow({"JOCLlink", "-", "-", "-", "-",
                TablePrinter::Num(link_accuracy), "-",
                TablePrinter::Num(0.744)});
  cells = {"JOCL"};
  AddScoreCells(joint, &cells);
  cells.insert(cells.end(),
               {TablePrinter::Num(joint_accuracy), TablePrinter::Num(0.818),
                TablePrinter::Num(0.761)});
  table.AddRow(std::move(cells));
  std::printf("%s\n", table.Render().c_str());
  report->orderings.emplace_back("table4_jocl_np_beats_joclcano",
                                 joint.average_f1 > cano.average_f1);
  report->orderings.emplace_back("table4_jocl_link_beats_jocllink",
                                 joint_accuracy > link_accuracy);
}

void Table5(const BenchEnv& env, const DataPack& reverb, const JoclRuns& runs,
            Report* report) {
  // Approximate bar heights from the paper's Figure 4 (average F1 /
  // accuracy).
  struct Variant {
    const char* name;
    const JoclResult* result;
    double fig4a_avg_f1;
    double fig4b_accuracy;
  };
  const Variant variants[] = {
      {"JOCL-single", &runs.single, 0.63, 0.60},
      {"JOCL-double", &runs.dual, 0.74, 0.69},
      {"JOCL-all", &runs.joint, 0.818, 0.761},
  };
  Banner("Table 5 / Figure 4: feature-combination variants (ReVerb45K-like)",
         env);
  std::vector<size_t> gold_np = reverb.GoldNp();
  std::vector<int64_t> gold_entities = reverb.GoldEntities();

  std::printf("Table 5 feature sets:\n"
              "  JOCL-single: F1/F3 f_idf | F2 f_idf | F4/F6 f_pop | F5 "
              "f_ngram\n"
              "  JOCL-double: + f_emb everywhere\n"
              "  JOCL-all   : every feature function\n\n");

  TablePrinter table({"Variant", "NP Avg F1 (Fig 4a)", "Paper",
                      "Linking Acc (Fig 4b)", "Paper"});
  double f1[3];
  double accuracy[3];
  for (size_t v = 0; v < std::size(variants); ++v) {
    f1[v] = EvaluateClustering(variants[v].result->np_cluster, gold_np)
                .average_f1;
    accuracy[v] = LinkingAccuracy(variants[v].result->np_link, gold_entities);
    report->Score(std::string("table5.") + variants[v].name +
                      ".np_average_f1",
                  f1[v]);
    report->Score(std::string("table5.") + variants[v].name +
                      ".linking_accuracy",
                  accuracy[v]);
    table.AddRow({variants[v].name, TablePrinter::Num(f1[v]),
                  TablePrinter::Num(variants[v].fig4a_avg_f1, 2),
                  TablePrinter::Num(accuracy[v]),
                  TablePrinter::Num(variants[v].fig4b_accuracy, 2)});
  }
  std::printf("%s\n", table.Render().c_str());
  report->orderings.emplace_back("table5_np_single_lt_double_lt_all",
                                 f1[0] < f1[1] && f1[1] < f1[2]);
  report->orderings.emplace_back(
      "table5_link_single_lt_double_lt_all",
      accuracy[0] < accuracy[1] && accuracy[1] < accuracy[2]);
}

/// The pipeline's linking stage: each JOCLcano group links as a whole to
/// the entity with the highest anchor popularity pooled over its member
/// mentions' candidates; a tie goes to the smaller entity id, and a
/// group with no positive score stays NIL.
std::vector<int64_t> LinkGroups(const DataPack& reverb,
                                const std::vector<size_t>& np_cluster) {
  const auto& ds = reverb.dataset();
  const auto& eval = reverb.eval_triples();
  // Ordered maps: entities are visited in ascending id order, so the
  // strict > below keeps the smaller id on a tie.
  std::map<size_t, std::map<int64_t, double>> pooled;
  for (size_t m = 0; m < np_cluster.size(); ++m) {
    size_t t = eval[m / 2];
    const std::string& surface =
        (m % 2 == 0) ? ds.okb.triple(t).subject : ds.okb.triple(t).object;
    for (const auto& c : ds.ckb.EntityCandidates(surface, 5)) {
      pooled[np_cluster[m]][c.id] += c.popularity;
    }
  }
  std::map<size_t, int64_t> cluster_link;
  for (const auto& [cluster, scores] : pooled) {
    int64_t best = kNilId;
    double best_score = 0.0;
    for (const auto& [entity, score] : scores) {
      if (score > best_score) {
        best_score = score;
        best = entity;
      }
    }
    cluster_link[cluster] = best;
  }
  std::vector<int64_t> links(np_cluster.size(), kNilId);
  for (size_t m = 0; m < links.size(); ++m) {
    auto it = cluster_link.find(np_cluster[m]);
    if (it != cluster_link.end()) links[m] = it->second;
  }
  return links;
}

// Pipeline architectures propagate canonicalization errors into linking.
// Compares (a) canonicalize-then-link (JOCLcano groups, then popularity
// linking of each group), (b) link-then-group (JOCLlink), and (c) the
// joint JOCL.
void PipelineVsJoint(const BenchEnv& env, const DataPack& reverb,
                     const JoclRuns& runs, Report* report) {
  Banner("Pipeline vs joint (ReVerb45K-like)", env);
  std::vector<size_t> gold_np = reverb.GoldNp();
  std::vector<int64_t> gold_entities = reverb.GoldEntities();

  TablePrinter table({"Architecture", "NP Avg F1", "Linking Accuracy"});
  // Adds one architecture's row; returns its NP average F1 and accuracy.
  auto add = [&](const char* name, const std::vector<size_t>& clusters,
                 const std::vector<int64_t>& links) {
    double np_f1 = EvaluateClustering(clusters, gold_np).average_f1;
    double accuracy = LinkingAccuracy(links, gold_entities);
    report->Score(std::string("pipeline.") + name + ".np_average_f1", np_f1);
    report->Score(std::string("pipeline.") + name + ".linking_accuracy",
                  accuracy);
    table.AddRow({name, TablePrinter::Num(np_f1),
                  TablePrinter::Num(accuracy)});
    return std::make_pair(np_f1, accuracy);
  };
  const auto pipeline = add("pipeline (cano -> link)", runs.cano.np_cluster,
                            LinkGroups(reverb, runs.cano.np_cluster));
  const auto link_then_group =
      add("link -> group", runs.link.np_cluster, runs.link.np_link);
  const auto joint = add("JOCL (joint)", runs.joint.np_cluster,
                         runs.joint.np_link);
  std::printf("%s\n", table.Render().c_str());
  report->orderings.emplace_back(
      "pipeline_joint_beats_cano_then_link",
      joint.first > pipeline.first && joint.second > pipeline.second);
  report->orderings.emplace_back("pipeline_joint_np_beats_link_then_group",
                                 joint.first > link_then_group.first);
}

bool WriteJson(const char* path, const BenchEnv& env, const Report& report) {
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\n  \"scale\": %.3f,\n  \"seed\": %llu,\n", env.scale,
               static_cast<unsigned long long>(env.seed));
  std::fprintf(out, "  \"scores\": {\n");
  for (size_t i = 0; i < report.scores.size(); ++i) {
    std::fprintf(out, "    \"%s\": %.17g%s\n", report.scores[i].first.c_str(),
                 report.scores[i].second,
                 i + 1 < report.scores.size() ? "," : "");
  }
  std::fprintf(out, "  },\n  \"orderings\": {\n");
  for (size_t i = 0; i < report.orderings.size(); ++i) {
    std::fprintf(out, "    \"%s\": %s%s\n", report.orderings[i].first,
                 report.orderings[i].second ? "true" : "false",
                 i + 1 < report.orderings.size() ? "," : "");
  }
  std::fprintf(out, "  }\n}\n");
  return std::fclose(out) == 0;
}

int Run() {
  BenchEnv env = BenchEnv::FromEnv();
  Stopwatch watch;
  std::unique_ptr<DataPack> reverb = DataPack::ReVerb(env);
  std::unique_ptr<DataPack> nyt = DataPack::NyTimes(env);

  // NYTimes2018-like has no validation split: the weights learned on
  // ReVerb45K-like transfer to it unchanged (paper protocol).
  JoclRuns runs;
  runs.joint = LearnAndInfer(JoclOptions(), *reverb);
  runs.joint_nyt = Jocl()
                       .Infer(nyt->dataset(), nyt->signals(),
                              nyt->eval_triples(), runs.joint.weights)
                       .MoveValueOrDie();
  runs.cano = LearnAndInfer(JoclOptions::CanonicalizationOnly(), *reverb);
  runs.link = LearnAndInfer(JoclOptions::LinkingOnly(), *reverb);
  runs.single = LearnAndInfer(WithFeatures(FeatureMask::Single()), *reverb);
  runs.dual = LearnAndInfer(WithFeatures(FeatureMask::Double()), *reverb);

  const std::vector<World> worlds = {
      {"ReVerb45K-like", "reverb", reverb.get(), &runs.joint},
      {"NYTimes2018-like", "nyt", nyt.get(), &runs.joint_nyt},
  };
  Report report;
  Table1(env, worlds, &report);
  Table2(env, worlds[0], &report);
  Table3(env, worlds, &report);
  Figure3(env, worlds[0], &report);
  Table4(env, *reverb, runs, &report);
  Table5(env, *reverb, runs, &report);
  PipelineVsJoint(env, *reverb, runs, &report);

  // The orderings bind at the paper-shaped default workload; below it
  // they are recorded only.
  const bool gated = env.scale >= 1.0;
  int failures = 0;
  for (const auto& [name, holds] : report.orderings) {
    std::printf("ordering %s: %s%s\n", name, holds ? "PASS" : "FAIL",
                gated ? "" : " (recorded only; scale < 1)");
    if (!holds) ++failures;
  }
  std::printf("elapsed: %.1fs\n", watch.ElapsedSeconds());

  const char* out_path = std::getenv("JOCL_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_paper.json";
  if (!WriteJson(out_path, env, report)) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", out_path);
  if (gated && failures > 0) {
    std::fprintf(stderr, "%d paper ordering(s) FAILED\n", failures);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace jocl

int main() { return jocl::bench::Run(); }
