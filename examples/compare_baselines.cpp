// Runs every canonicalization and linking method in the library over one
// generated data set and prints a compact comparison — a smoke-testable
// tour of the whole public API.
//
//   $ ./compare_baselines [scale]
#include <cstdio>
#include <cstdlib>

#include "baselines/entity_linking.h"
#include "baselines/np_canonicalization.h"
#include "baselines/relation_linking.h"
#include "baselines/rp_canonicalization.h"
#include "core/jocl.h"
#include "data/generator.h"
#include "eval/clustering_metrics.h"
#include "eval/linking_metrics.h"
#include "eval/table_printer.h"

using namespace jocl;

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 0.5;
  Dataset ds = GenerateReVerb45K(scale, 99).MoveValueOrDie();
  SignalBundle sig = BuildSignals(ds).MoveValueOrDie();
  const std::vector<size_t>& eval = ds.test_triples;

  std::vector<size_t> gold_np;
  std::vector<size_t> gold_rp;
  std::vector<int64_t> gold_e;
  std::vector<int64_t> gold_r;
  for (size_t t : eval) {
    gold_np.push_back(static_cast<size_t>(ds.gold_np_group[t * 2]));
    gold_np.push_back(static_cast<size_t>(ds.gold_np_group[t * 2 + 1]));
    gold_rp.push_back(static_cast<size_t>(ds.gold_rp_group[t]));
    gold_e.push_back(ds.gold_subject_entity[t]);
    gold_e.push_back(ds.gold_object_entity[t]);
    gold_r.push_back(ds.gold_relation[t]);
  }

  Jocl jocl;
  JoclResult joint = jocl.Run(ds, sig, eval).MoveValueOrDie();

  TablePrinter np_table({"NP canonicalization", "Average F1"});
  auto add_np = [&](const char* name, const std::vector<size_t>& labels) {
    np_table.AddRow(
        {name, TablePrinter::Num(
                   EvaluateClustering(labels, gold_np).average_f1)});
  };
  add_np("Morph Norm", MorphNormCanonicalize(ds, eval));
  add_np("Wikidata Integrator", WikidataIntegratorCanonicalize(ds, eval));
  add_np("Text Similarity", TextSimilarityCanonicalize(ds, eval));
  add_np("IDF Token Overlap", IdfTokenOverlapCanonicalize(ds, sig, eval));
  add_np("Attribute Overlap", AttributeOverlapCanonicalize(ds, eval));
  add_np("CESI",
         CesiCanonicalize(ds, sig, TrainTripleEmbeddings(ds).MoveValueOrDie(),
                          eval));
  add_np("SIST", SistCanonicalize(ds, sig, eval));
  add_np("JOCL", joint.np_cluster);
  std::printf("%s\n", np_table.Render().c_str());

  TablePrinter rp_table({"RP canonicalization", "Average F1"});
  auto add_rp = [&](const char* name, const std::vector<size_t>& labels) {
    rp_table.AddRow(
        {name, TablePrinter::Num(
                   EvaluateClustering(labels, gold_rp).average_f1)});
  };
  add_rp("AMIE", AmieCanonicalize(ds, sig, eval));
  add_rp("PATTY", PattyCanonicalize(ds, eval));
  add_rp("SIST", SistRpCanonicalize(ds, sig, eval));
  add_rp("JOCL", joint.rp_cluster);
  std::printf("%s\n", rp_table.Render().c_str());

  TablePrinter el_table({"Entity linking", "Accuracy"});
  auto add_el = [&](const char* name, const std::vector<int64_t>& links) {
    el_table.AddRow({name, TablePrinter::Num(LinkingAccuracy(links, gold_e))});
  };
  add_el("Falcon", FalconLink(ds, eval));
  add_el("EARL", EarlLink(ds, eval));
  add_el("Spotlight", SpotlightLink(ds, sig, eval));
  add_el("TagMe", TagMeLink(ds, eval));
  add_el("KBPearl", KbpearlLink(ds, eval));
  add_el("JOCL", joint.np_link);
  std::printf("%s\n", el_table.Render().c_str());

  TablePrinter rl_table({"Relation linking", "Accuracy"});
  auto add_rl = [&](const char* name, const std::vector<int64_t>& links) {
    rl_table.AddRow({name, TablePrinter::Num(LinkingAccuracy(links, gold_r))});
  };
  add_rl("Falcon", FalconRelationLink(ds, eval));
  add_rl("EARL", EarlRelationLink(ds, eval));
  add_rl("KBPearl", KbpearlRelationLink(ds, eval));
  add_rl("Rematch", RematchRelationLink(ds, eval));
  add_rl("JOCL", joint.rp_link);
  std::printf("%s\n", rl_table.Render().c_str());
  return 0;
}
